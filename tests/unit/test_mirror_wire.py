"""The mirror's kept wire text across every state transition.

``EncryptedDocument.wire()`` is built from the records once and then
patched with each update's cdelta.  After every transition it must
equal :func:`repro.fuzz.model.reference_wire` — the same records
re-encoded from scratch — and the returned cdelta applied to the old
wire (what the server does) must land on it too.
"""

import pytest

from repro.core import Delta, KeyMaterial, create_document, load_document
from repro.core import document as document_module
from repro.core.delta import Delete, Insert, Retain
from repro.crypto.random import DeterministicRandomSource
from repro.datastructures import IndexedAVL, IndexedSkipList
from repro.encoding import wire as wire_module
from repro.fuzz.model import reference_wire
from repro.obs import capture

KEYS = KeyMaterial.from_password("mirror", salt=b"mirror-salt1")
TEXT = "the quick brown fox jumps over the lazy dog; " * 20

pytestmark = pytest.mark.parametrize("index_factory",
                                     [IndexedSkipList, IndexedAVL])


def _doc(scheme, index_factory, text=TEXT):
    return create_document(text, key_material=KEYS, scheme=scheme,
                           block_chars=8, rng=DeterministicRandomSource(7),
                           index_factory=index_factory)


def _step(doc, update):
    """Run ``update`` on a doc whose wire is already kept; check both
    the spliced mirror and the server-side replay of the cdelta."""
    before = doc.wire()
    cdelta = update()
    assert doc.wire() == reference_wire(doc)
    assert cdelta.apply(before) == doc.wire()


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_apply_delta(scheme, index_factory):
    doc = _doc(scheme, index_factory)
    for make in (
        lambda n: Delta.insertion(5, "very "),
        lambda n: Delta.deletion(100, 37),
        lambda n: Delta.replacement(40, 200, "short"),
        lambda n: Delta.insertion(n, " tail"),
        lambda n: Delta.deletion(0, 3),
    ):
        _step(doc, lambda: doc.apply_delta(make(doc.char_length)))
    # a multi-cluster delta touches several spans in one update
    _step(doc, lambda: doc.apply_delta(Delta(
        [Retain(2), Insert("a"), Retain(298), Delete(4), Insert("b")])))
    assert doc.text == load_document(doc.wire(), key_material=KEYS).text


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_rekey(scheme, index_factory):
    doc = _doc(scheme, index_factory)
    doc.apply_delta(Delta.insertion(3, "xyz"))
    _step(doc, lambda: doc.rekey(password="rotated"))
    _step(doc, lambda: doc.apply_delta(Delta.deletion(10, 4)))
    assert load_document(doc.wire(), password="rotated").text == doc.text


def test_rpc_rewrite_from_and_to_empty(index_factory):
    doc = _doc("rpc", index_factory, text="")
    _step(doc, lambda: doc.apply_delta(Delta.insertion(0, TEXT)))
    _step(doc, lambda: doc.apply_delta(Delta.insertion(9, "spliced ")))
    _step(doc, lambda: doc.apply_delta(Delta.deletion(0, doc.char_length)))
    assert doc.text == ""
    _step(doc, lambda: doc.apply_delta(Delta.insertion(0, "again")))
    assert load_document(doc.wire(), key_material=KEYS).text == "again"


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_load_then_delta(scheme, index_factory):
    stored = _doc(scheme, index_factory).wire()
    doc = load_document(stored, key_material=KEYS,
                        rng=DeterministicRandomSource(8),
                        index_factory=index_factory)
    assert doc.wire() == stored
    _step(doc, lambda: doc.apply_delta(Delta.replacement(50, 20, "mid")))
    assert load_document(doc.wire(), key_material=KEYS).text == doc.text


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_load_document_decodes_records_once(scheme, index_factory,
                                            monkeypatch):
    """One columnar decode of the record area, and no Record view."""
    stored = _doc(scheme, index_factory).wire()
    calls = {"decode_area": 0, "decode_records": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapped(text):
            calls[name] += 1
            return original(text)

        monkeypatch.setattr(module, name, wrapped)

    counting(document_module, "decode_area")
    counting(wire_module, "decode_records")
    load_document(stored, key_material=KEYS, index_factory=index_factory)
    assert calls == {"decode_area": 1, "decode_records": 0}


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_load_keeps_the_fetched_wire(scheme, index_factory):
    """A loaded document's wire is the text it was loaded from: no
    record is Base32-encoded again to produce it."""
    stored = _doc(scheme, index_factory).wire()
    loaded = load_document(stored, key_material=KEYS,
                           index_factory=index_factory)
    with capture() as cap:
        kept = loaded.wire()
    assert cap["wire.records_encoded"] == 0
    assert kept == stored == reference_wire(loaded)
    _step(loaded, lambda: loaded.insert(10, "kept "))


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
@pytest.mark.parametrize("spelling", ["lower-scheme", "padded-numbers",
                                      "padded-salt"])
def test_non_canonical_header_loads_and_re_encodes(scheme, index_factory,
                                                   spelling):
    """A header the parser accepts but did not write (lower-case scheme,
    zero-padded numbers, Base32 padding on the salt) still loads, and
    the kept wire carries the canonical header."""
    stored = _doc(scheme, index_factory).wire()
    end = stored.index(".")
    magic, name, block_chars, nonce_bits, salt = stored[:end].split("-")
    if spelling == "lower-scheme":
        name = name.lower()
    elif spelling == "padded-numbers":
        block_chars, nonce_bits = "0" + block_chars, "0" + nonce_bits
    else:
        salt += "======"
    odd = "-".join([magic, name, block_chars, nonce_bits, salt]) + stored[end:]
    assert odd != stored
    loaded = load_document(odd, key_material=KEYS,
                           index_factory=index_factory)
    assert loaded.text == TEXT
    assert loaded.wire() == stored == reference_wire(loaded)
    _step(loaded, lambda: loaded.delete(0, 4))
