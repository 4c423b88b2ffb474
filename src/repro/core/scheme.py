"""Incremental-encryption scheme interface and registry (SV-A).

An incremental encryption scheme is the 4-tuple ``(K, Enc, Dec, IncE)``.
In this library the pieces map as follows:

* **K** — :class:`repro.core.keys.KeyMaterial` (password + salt → key);
* **Enc** — ``EncryptedDocument.create`` (encrypt a whole document);
* **Dec** — ``EncryptedDocument.load`` / ``.text`` (decrypt, verifying
  integrity when the scheme provides it);
* **IncE** — ``EncryptedDocument.apply_delta`` (apply an edit operation
  to the ciphertext in sub-linear time, returning the ciphertext delta).

The per-block cryptography lives in *codecs* (:mod:`repro.core.recb`,
:mod:`repro.core.rpc`); this module defines their common shape and the
name → implementation registry used by document headers and factories.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.crypto.blockcipher import AesCipher
from repro.crypto.random import RandomSource, SystemRandomSource
from repro.errors import CiphertextFormatError


class BlockCodec(ABC):
    """Block-level cryptography for one scheme.

    A codec lays chunks of plaintext out as pre-cipher block images
    (``prepare_*``, :meth:`prefix_plain`, :meth:`suffix_plain`), which
    the document encrypts with :meth:`encrypt_blob`, and decrypts and
    checks stored records; it is stateless across documents —
    per-document state (``r0``, running checksums) is created by
    :meth:`fresh_state` and owned by the document object.
    """

    #: registry key, also written into document headers
    name: str
    #: does Dec detect tampering?
    supports_integrity: bool
    #: nonce width in bits (recorded in the document header)
    nonce_bits: int

    def __init__(self, key: bytes, rng: RandomSource | None = None):
        self._cipher = AesCipher(key)
        self._rng = rng if rng is not None else SystemRandomSource()

    def encrypt_blob(self, plain: bytes) -> bytes:
        """One cipher pass over prepared block images (whole blocks).

        Every block the engine writes goes through here.  An update
        concatenates every touched span's ``prepare_*`` output (plus
        the checksum image, for schemes that keep one) and a fresh
        document its prefix, data and suffix images, each encrypted in
        a single call, which is what lets a multi-span burst reach the
        batched AES path.
        """
        return self._cipher.encrypt_many(plain)

    @abstractmethod
    def fresh_state(self) -> object:
        """Create per-document scheme state for a new document."""

    @abstractmethod
    def prefix_plain(self, state: object, first_lead: bytes | None) -> bytes:
        """Pre-cipher images of the records before the data records."""

    @abstractmethod
    def suffix_plain(self, state: object) -> bytes:
        """Pre-cipher images of the records after the data records."""


_REGISTRY: dict[str, Callable[..., object]] = {}


def register_scheme(name: str, factory: Callable[..., object]) -> None:
    """Register a document factory under a scheme name."""
    _REGISTRY[name] = factory


def scheme_factory(name: str) -> Callable[..., object]:
    """Look up the document class registered for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CiphertextFormatError(
            f"unknown scheme {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def known_schemes() -> list[str]:
    """Names of all registered schemes."""
    return sorted(_REGISTRY)
