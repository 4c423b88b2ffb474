"""Enc is IncE applied to the empty document.

A fresh document (create, ``rekey``, RPC's empty-document rewrite) is
staged through the scheme's own ``_prepare_span`` and encrypted in one
``encrypt_blob`` call together with its bookkeeping records.  These
tests pin both halves of that: the output bytes for fixed seeds (so the
staging path draws nonces in exactly the order the paper's Enc layout
needs), and the single cipher call.

The sizes cover the empty document, one block, six blocks (six data
records plus the two bookkeeping records cross the batched-AES
threshold of seven blocks) and a long document.
"""

import hashlib

import pytest

from repro.core import KeyMaterial, create_document
from repro.crypto.blockcipher import AesCipher
from repro.crypto.random import DeterministicRandomSource

KEYS = KeyMaterial(key=bytes(range(16)), salt=bytes(range(10)))
NEW_KEYS = KeyMaterial(key=bytes(range(16, 32)), salt=bytes(range(10, 20)))
CHUNKS = (0, 1, 6, 500)

#: SHA-256 of ``create_document(...).wire()`` and of the ``rekey``
#: cdelta's serialized form, per (scheme, chunk count)
PINNED = {
    ("recb", 0): (
        "3cb91243768789ee3c104fa646fd32b68e8970a41cf2a9bbf96678f94547bc77",
        "3a6c677d79ff783412bfe2603ff7f7ff25495c8b382e331259b2c7a80e0efb6a"),
    ("recb", 1): (
        "b00375a366ff06a896907adadf8ef2c0afc35cf2db03d6f5ac5bd9d37e17a063",
        "19c191bbe9b2cf2e2365ed30f0d5ce7b313ad4316904c1b9e5c9955767f52a16"),
    ("recb", 6): (
        "5000b37e4ae59a7cca9eca73adcc3de88a0da78b32d0f27cecf68341fcd69647",
        "c0e9118825d653dcbaab26c58a0df0b86243bfa92e4661a3a73bd779b548adf7"),
    ("recb", 500): (
        "2241c9d24320c9edb38dcb99791ff5594b0e442fee2ef300cebe0b5f0cedd81d",
        "27b26d800712bd09f3f9983365bb1a1d6a8f4576bf34cd8a4b6a42572c429e3a"),
    ("rpc", 0): (
        "61cd21197f2ac1320dd6068a83878b4e31bc6950c0c50bc607ef277e2b6c0689",
        "3f5270a054f6639365428550206dbe69b842964560a8136c1ba803ca3b9212be"),
    ("rpc", 1): (
        "7a3fc6894223bc959143f93cfbe1ce8c0d58ff16a053426539129c504830fba8",
        "30157768f154a80840fbd5df57e9ec7fdf8c09321dbc356ff10df9ea9e527f45"),
    ("rpc", 6): (
        "55c09e862e4dac88dd7b32f11bbfad6dda99b6ff37a3390fc7804c32d858e6db",
        "d4c7e507228969dae71082579d91ea2abe8eee61d67961c4bb8680f7ad116dab"),
    ("rpc", 500): (
        "b07e22bb7d095887ba51939c825501e4e7b46263c9474625eb7fd65daff61dc0",
        "e069648100e3cfa148fa6c66635289399233eafea3f4b365278b19b1810a1043"),
}


def _text(n_chunks: int) -> str:
    """``n_chunks`` full 8-character blocks of varied ASCII."""
    return "".join(chr(32 + (i * 7) % 95) for i in range(8 * n_chunks))


def _create(scheme: str, n_chunks: int, seed: int = 5):
    return create_document(_text(n_chunks), key_material=KEYS, scheme=scheme,
                           rng=DeterministicRandomSource(seed))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
@pytest.mark.parametrize("n_chunks", CHUNKS)
class TestFreshEnc:
    def test_wire_and_rekey_bytes_pinned(self, scheme, n_chunks):
        doc = _create(scheme, n_chunks)
        assert doc.block_count == n_chunks
        wire_sha = _sha(doc.wire())
        rekey_sha = _sha(doc.rekey(key_material=NEW_KEYS).serialize())
        assert (wire_sha, rekey_sha) == PINNED[scheme, n_chunks]

    def test_one_cipher_call(self, scheme, n_chunks, monkeypatch):
        calls: list[str] = []

        def spy(name):
            real = getattr(AesCipher, name)

            def wrapper(self, data):
                calls.append(name)
                return real(self, data)
            return wrapper

        for name in ("encrypt_block", "encrypt_many"):
            monkeypatch.setattr(AesCipher, name, spy(name))
        _create(scheme, n_chunks)
        assert len(calls) == 1, calls
