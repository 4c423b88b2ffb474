"""Property tests: one-pass unmasking equals the per-record reference.

``RecbCodec.decrypt_records`` and ``RpcCodec.load`` unmask every data
record of a document with whole-array XORs and reduce the RPC
aggregates in one step.  The per-record path (``decrypt_record``, the
random-access reference) must agree with them on every document —
non-ASCII text and every block size included — and a single flipped
plaintext byte in a payload, a nonce field or the bookkeeping record
must fail with the same exception class either way, as must a record
whose header byte claims a different character count.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KeyMaterial, create_document
from repro.core.rpc import RpcState
from repro.crypto.random import DeterministicRandomSource
from repro.encoding.wire import Record, parse_document, record_columns
from repro.errors import CiphertextFormatError, IntegrityError, ReproError

ALPHABET = string.ascii_letters + " .,!?éß中文🎉"

KEYS = KeyMaterial.from_password("prop-unmask", salt=b"unmask-slt")

#: up to ~60 blocks, so documents land on both sides of the batched
#: cipher's 7-block threshold
documents = st.text(alphabet=ALPHABET, max_size=480)
block_sizes = st.integers(min_value=1, max_value=8)


def _stored(text, scheme, block_chars, edits):
    """A stored document, fragmented by a few edits."""
    doc = create_document(text, key_material=KEYS, scheme=scheme,
                          block_chars=block_chars,
                          rng=DeterministicRandomSource(21))
    for pos, count, insert in edits:
        pos = min(pos, doc.char_length)
        doc.replace(pos, min(count, doc.char_length - pos), insert)
    return doc, parse_document(doc.wire())[1]


edits = st.lists(st.tuples(st.integers(0, 480), st.integers(0, 6),
                           st.text(alphabet=ALPHABET, max_size=5)),
                 max_size=3)


def _flip(cipher, record, byte, bit):
    """``record`` with one plaintext bit flipped, re-encrypted."""
    plain = bytearray(cipher.decrypt_block(record.block))
    plain[byte] ^= 1 << bit
    return Record(char_count=record.char_count,
                  block=cipher.encrypt_block(bytes(plain)))


def _lie(record, data):
    """``record`` with a header byte claiming a different count."""
    claim = data.draw(st.integers(0, 255).filter(
        lambda count: count != record.char_count))
    return Record(char_count=claim, block=record.block)


def _outcome(run):
    try:
        return "ok", run()
    except ReproError as exc:
        return type(exc), str(exc)


class TestRecb:
    @settings(max_examples=80, deadline=None)
    @given(documents, block_sizes, edits)
    def test_batch_equals_per_record(self, text, block_chars, changes):
        doc, records = _stored(text, "recb", block_chars, changes)
        codec = doc._codec
        state = codec.parse_prefix(records[0].block)
        batch = codec.decrypt_records(state, *record_columns(records[1:]))
        assert batch == [codec.decrypt_record(state, r) for r in records[1:]]
        assert "".join(batch) == doc.text

    @settings(max_examples=120, deadline=None)
    @given(documents.filter(bool), block_sizes, st.data())
    def test_flipped_byte_fails_alike(self, text, block_chars, data):
        doc, records = _stored(text, "recb", block_chars, [])
        codec = doc._codec
        state = codec.parse_prefix(records[0].block)
        data_records = records[1:]
        target = data.draw(st.integers(0, len(data_records) - 1))
        byte = data.draw(st.integers(0, 15))  # nonce half or payload half
        data_records[target] = _flip(codec._cipher, data_records[target],
                                     byte, data.draw(st.integers(0, 7)))
        batch = _outcome(lambda: codec.decrypt_records(
            state, *record_columns(data_records)))
        reference = _outcome(lambda: [codec.decrypt_record(state, r)
                                      for r in data_records])
        assert batch == reference

    @settings(max_examples=60, deadline=None)
    @given(documents.filter(bool), block_sizes, st.data())
    def test_lying_header_fails_alike(self, text, block_chars, data):
        doc, records = _stored(text, "recb", block_chars, [])
        codec = doc._codec
        state = codec.parse_prefix(records[0].block)
        data_records = records[1:]
        target = data.draw(st.integers(0, len(data_records) - 1))
        data_records[target] = _lie(data_records[target], data)
        batch = _outcome(lambda: codec.decrypt_records(
            state, *record_columns(data_records)))
        reference = _outcome(lambda: [codec.decrypt_record(state, r)
                                      for r in data_records])
        assert batch == reference
        assert batch[0] is CiphertextFormatError


class TestRpc:
    @settings(max_examples=80, deadline=None)
    @given(documents, block_sizes, edits)
    def test_load_equals_per_record(self, text, block_chars, changes):
        doc, records = _stored(text, "rpc", block_chars, changes)
        codec = doc._codec
        state, chunks, leads, payloads = codec.load(*record_columns(records))
        reference = RpcState(r0=state.r0, version=state.version)
        tail = codec._cipher.decrypt_block(records[0].block)[-4:]
        for i, record in enumerate(records[1:-1]):
            r_lead, r_chunk, r_tail, r_payload = codec.decrypt_record(record)
            got = (chunks[i], leads[4 * i : 4 * i + 4],
                   payloads[8 * i : 8 * i + 8])
            assert got == (r_chunk, r_lead, r_payload)
            assert r_lead == tail  # the chain the batch check accepted
            tail = r_tail
            reference.add_block(r_lead, r_payload, len(r_chunk))
        assert tail == state.r0
        assert len(chunks) == len(records) - 2
        assert len(leads) == 4 * len(chunks)
        assert len(payloads) == 8 * len(chunks)
        assert state == reference == doc._state
        assert "".join(chunks) == doc.text

    @settings(max_examples=120, deadline=None)
    @given(documents.filter(bool), block_sizes, st.data())
    def test_flipped_byte_is_an_integrity_error(self, text, block_chars,
                                                data):
        doc, records = _stored(text, "rpc", block_chars, [])
        codec = doc._codec
        # 1..n-2: a data record (lead, payload or tail field); n-1: the
        # checksum record's two aggregate fields (its last four bytes
        # carry the version, which the checksum does not bind)
        target = data.draw(st.integers(1, len(records) - 1))
        last_byte = 11 if target == len(records) - 1 else 15
        records[target] = _flip(codec._cipher, records[target],
                                data.draw(st.integers(0, last_byte)),
                                data.draw(st.integers(0, 7)))
        with pytest.raises(IntegrityError):
            codec.load(*record_columns(records))

    @settings(max_examples=60, deadline=None)
    @given(documents.filter(bool), block_sizes, st.data())
    def test_lying_header_is_an_integrity_error(self, text, block_chars,
                                                data):
        doc, records = _stored(text, "rpc", block_chars, [])
        target = data.draw(st.integers(1, len(records) - 2))
        records[target] = _lie(records[target], data)
        with pytest.raises(IntegrityError,
                           match=f"record {target - 1} header claims "
                                 f"{records[target].char_count} chars"):
            doc._codec.load(*record_columns(records))
