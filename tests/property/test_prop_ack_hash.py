"""Midstate Ack hashes equal ``protocol.content_hash`` on every input.

Both sides of a gdocs save keep the stored text in a
:class:`repro.core.leaves.LeafText`, with a SHA-1 midstate after each
of its leaves, instead of hashing the whole text: the store
(``StoredDocument.content_hash``) and the mirror's kept wire
(``EncryptedDocument.wire_hash``).  Every change must drop the
midstates from its first changed leaf on, or the next digest resumes
from a chaining value of text that is gone.  Random histories here
check both against the definition, ``protocol.content_hash`` of the
joined text, at points the history picks, so midstates live across
several changes between checks.  Small leaf caps put leaf boundaries
everywhere.
"""

import random

import pytest

from repro.core import KeyMaterial, create_document, leaves, load_document
from repro.core.transform import EncryptionEngine
from repro.crypto.random import DeterministicRandomSource
from repro.errors import QuotaExceededError
from repro.extension.session import PrivateEditingSession
from repro.security.adversary import ActiveServerAdversary
from repro.services.gdocs.protocol import content_hash
from repro.services.gdocs.storage import MAX_DOCUMENT_CHARS, DocumentStore

#: non-ASCII on purpose: midstates sit at character offsets, SHA-1
#: reads UTF-8 bytes
ALPHABET = "abc xyz\té€😀%\n"
KEYS = KeyMaterial.from_password("ack-hash", salt=b"ackhash01")
OTHER_KEYS = KeyMaterial.from_password("ack-hash", salt=b"ackhash02")


def _text(rng, size):
    return "".join(rng.choices(ALPHABET, k=size))


def _delta(rng, length, reach):
    """A random valid delta (wire text) for a ``length``-char text whose
    deletes and inserts run up to ``reach`` chars, so they straddle
    leaf and stride boundaries."""
    ops, cursor = [], 0
    for _ in range(rng.randrange(1, 6)):
        kind = rng.randrange(3)
        if kind == 0 and cursor < length:
            n = rng.randrange(1, length - cursor + 1)
            ops.append(f"={n}")
            cursor += n
        elif kind == 1 and cursor < length:
            n = rng.randrange(1, min(reach, length - cursor) + 1)
            ops.append(f"-{n}")
            cursor += n
        else:
            text = _text(rng, rng.randrange(1, reach + 1))
            ops.append("+" + text.replace("%", "%25").replace("\t", "%09"))
    return "\t".join(ops)


def _store_step(rng, store, adversary, reach):
    doc = store.get("d")
    roll = rng.random()
    if roll < 0.50:
        store.apply_delta("d", _delta(rng, doc.length, reach))
    elif roll < 0.60:
        store.set_content("d", _text(rng, rng.randrange(0, 6 * reach)))
    elif roll < 0.64:
        pos = rng.randrange(doc.length + 1)
        grow = MAX_DOCUMENT_CHARS - doc.length + 1
        with pytest.raises(QuotaExceededError):
            store.apply_delta("d", (f"={pos}\t" if pos else "")
                              + "+" + "q" * grow)
    elif roll < 0.72:
        adversary.overwrite("d", _text(rng, rng.randrange(0, 4 * reach)))
    elif roll < 0.80:
        doc.content = _text(rng, rng.randrange(0, 4 * reach))
    elif roll < 0.86:
        doc.history.append(_text(rng, rng.randrange(0, reach)))
    elif roll < 0.92 and doc.length:
        store.apply_delta("d", f"-{doc.length}")  # the empty document
    else:
        store.set_content("d", "")


@pytest.mark.parametrize("leaf_chars", [4, 64, leaves.LEAF_CHARS])
def test_store_digest_is_content_hash(leaf_chars, monkeypatch):
    monkeypatch.setattr(leaves, "LEAF_CHARS", leaf_chars)
    reach = 3 * leaf_chars
    for seed in range(25):
        rng = random.Random(seed)
        store = DocumentStore()
        doc = store.create("d")
        adversary = ActiveServerAdversary(store)
        assert doc.content_hash() == content_hash("")
        for _ in range(25):
            _store_step(rng, store, adversary, reach)
            if rng.random() < 0.6:
                assert doc.content_hash() == content_hash(doc.content)
            assert all(0 < len(leaf) <= 2 * leaf_chars
                       for leaf in doc._table._leaves)
        assert doc.content_hash() == content_hash(doc.content)


def _mirror_step(rng, doc, reach):
    roll = rng.random()
    if roll < 0.75:
        pos = rng.randrange(doc.char_length + 1)
        count = min(rng.randrange(0, reach), doc.char_length - pos)
        doc.replace(pos, count, _text(rng, rng.randrange(0, reach)))
    elif roll < 0.85:
        doc.rekey(key_material=rng.choice((KEYS, OTHER_KEYS)))
    else:
        doc = load_document(doc.wire(), key_material=doc.key_material)
    return doc


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
@pytest.mark.parametrize("leaf_chars", [32, 512, leaves.LEAF_CHARS])
def test_mirror_digest_is_content_hash(scheme, leaf_chars, monkeypatch):
    monkeypatch.setattr(leaves, "LEAF_CHARS", leaf_chars)
    for seed in range(12):
        rng = random.Random(seed)
        doc = create_document(_text(rng, rng.randrange(0, 3_000)),
                              key_material=KEYS, scheme=scheme,
                              rng=DeterministicRandomSource(seed + 1))
        for _ in range(25):
            doc = _mirror_step(rng, doc, 40)
            if rng.random() < 0.6:
                assert doc.wire_hash() == content_hash(doc.wire())
        assert doc.wire_hash() == content_hash(doc.wire())


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_spliced_full_save_after_reopen(scheme, monkeypatch):
    """A reopened mirror (``load``) spliced by a full save's delta."""
    monkeypatch.setattr(leaves, "LEAF_CHARS", 256)
    rng = random.Random(5)
    first = EncryptionEngine("pw", scheme=scheme,
                             rng=DeterministicRandomSource(2))
    text = _text(rng, 4_000)
    wire = first.encrypt(text)
    engine = EncryptionEngine("pw", scheme=scheme,
                              rng=DeterministicRandomSource(3))
    assert engine.decrypt(wire) == text
    mirror = engine.mirror
    assert mirror.wire_hash() == content_hash(wire)
    for _ in range(6):
        pos = rng.randrange(len(text))
        text = text[:pos] + _text(rng, 9) + text[pos + 5:]
        posted, delta = engine.save_full(text)
        assert delta is not None and mirror is engine.mirror
        assert mirror.wire_hash() == content_hash(posted)


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_both_sides_agree_through_the_stack(scheme):
    """Store and mirror digests agree over real verified saves: a
    first full save, delta saves, and a reopened session's spliced
    full save."""
    writer = PrivateEditingSession("ack", "pw", scheme=scheme,
                                   rng=DeterministicRandomSource(6),
                                   verify_acks=True)
    writer.open()
    writer.type_text(0, "hello wörld € " * 3_000)
    assert writer.save().ok
    for pos in (5, 20_000, 41_000):
        writer.type_text(pos, "xyz")
        outcome = writer.save()
        assert outcome.kind == "delta" and not outcome.complaints
    reader = PrivateEditingSession("ack", "pw", scheme=scheme,
                                   server=writer.server,
                                   rng=DeterministicRandomSource(7),
                                   verify_acks=True)
    reader.open()
    reader.type_text(30_000, "q")
    outcome = reader.save()
    assert outcome.kind == "full" and not outcome.complaints
    stored = writer.server.store.get("ack")
    mirror = reader.extension.engine("ack").mirror
    assert stored.content_hash() == mirror.wire_hash() \
        == content_hash(stored.content)
