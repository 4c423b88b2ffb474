"""RPC codec: chain construction, verification, and every detection
branch."""

import pytest

from repro.core.nonces import RPC_NONCE_BYTES
from repro.core.rpc import ALPHA, RpcCodec, RpcState
from repro.crypto.random import DeterministicRandomSource
from repro.encoding.wire import Record, record_columns
from repro.errors import (
    CiphertextFormatError,
    DecryptionError,
    IntegrityError,
)

KEY = bytes(range(16))


@pytest.fixture
def codec():
    return RpcCodec(KEY, DeterministicRandomSource(11))


def encrypt_span(codec, state, chunks, first_lead):
    """Data records for a chain span between ``first_lead`` and ``r0``
    through the staging API, folded into ``state``'s aggregates."""
    plain, leads, payloads = codec.prepare_span(chunks, first_lead, state.r0)
    for chunk, lead, payload in zip(chunks, leads, payloads):
        state.add_block(lead, payload, len(chunk))
    blob = codec.encrypt_blob(plain)
    return [Record(len(chunk), blob[16 * i : 16 * i + 16])
            for i, chunk in enumerate(chunks)]


def build(codec, chunks):
    """Assemble a full record list for ``chunks``."""
    state = codec.fresh_state()
    first_lead = codec._rng.token(RPC_NONCE_BYTES)
    if chunks:
        records = encrypt_span(codec, state, chunks, first_lead)
        prefix_plain = codec.prefix_plain(state, first_lead)
    else:
        records = []
        prefix_plain = codec.prefix_plain(state, None)
    blob = codec.encrypt_blob(prefix_plain + codec.suffix_plain(state))
    return state, [Record(0, blob[:16])] + records + [Record(0, blob[16:])]


class TestHappyPath:
    def test_round_trip(self, codec):
        _, records = build(codec, ["attack a", "t dawn"])
        state, chunks, leads, payloads = codec.load(*record_columns(records))
        assert "".join(chunks) == "attack at dawn"
        assert (len(leads), len(payloads)) == (4 * 2, 8 * 2)
        assert state.length == 14

    def test_empty_document(self, codec):
        _, records = build(codec, [])
        state, chunks, leads, payloads = codec.load(*record_columns(records))
        assert chunks == [] and leads == payloads == b""
        assert state.length == 0

    def test_single_block(self, codec):
        _, records = build(codec, ["x"])
        _, chunks, _, _ = codec.load(*record_columns(records))
        assert chunks == ["x"]

    def test_alpha_is_payload_width(self):
        assert len(ALPHA) == 8

    def test_randomization(self, codec):
        state = codec.fresh_state()
        lead = codec._rng.token(RPC_NONCE_BYTES)
        records = encrypt_span(codec, state, ["same"] * 8, lead)
        assert len({r.block for r in records}) == 8


class TestDetection:
    def test_wrong_key(self, codec):
        _, records = build(codec, ["secret!!"])
        other = RpcCodec(bytes(16), DeterministicRandomSource(1))
        with pytest.raises(DecryptionError):
            other.load(*record_columns(records))

    def test_replication(self, codec):
        _, records = build(codec, ["aaaa", "bbbb", "cccc"])
        doctored = records[:2] + [records[1]] + records[2:]
        with pytest.raises(IntegrityError):
            codec.load(*record_columns(doctored))

    def test_reorder(self, codec):
        _, records = build(codec, ["aaaa", "bbbb", "cccc"])
        doctored = list(records)
        doctored[1], doctored[2] = doctored[2], doctored[1]
        with pytest.raises(IntegrityError):
            codec.load(*record_columns(doctored))

    def test_drop_interior_block(self, codec):
        _, records = build(codec, ["aaaa", "bbbb", "cccc"])
        with pytest.raises(IntegrityError):
            codec.load(*record_columns(records[:2] + records[3:]))

    def test_drop_tail_block(self, codec):
        _, records = build(codec, ["aaaa", "bbbb", "cccc"])
        with pytest.raises(IntegrityError):
            codec.load(*record_columns(records[:3] + records[4:]))

    def test_stale_checksum(self, codec):
        """Splice an old checksum onto new data (rollback of the
        bookkeeping only)."""
        state1, records1 = build(codec, ["version1"])
        _, records2 = build(codec, ["version2"])
        doctored = records1[:-1] + [records2[-1]]
        with pytest.raises((IntegrityError, DecryptionError)):
            codec.load(*record_columns(doctored))

    def test_char_count_header_lie(self, codec):
        _, records = build(codec, ["abcd"])
        lying = Record(char_count=2, block=records[1].block)
        with pytest.raises(IntegrityError):
            codec.load(*record_columns([records[0], lying, records[2]]))

    def test_cross_document_splice(self, codec):
        _, a = build(codec, ["doc a   ", "tail a  "])
        _, b = build(codec, ["doc b   ", "tail b  "])
        with pytest.raises((IntegrityError, DecryptionError)):
            codec.load(*record_columns([a[0], a[1], b[2], b[3]]))

    def test_too_few_records(self, codec):
        with pytest.raises(CiphertextFormatError):
            codec.load(*record_columns([]))

    def test_empty_span_rejected(self, codec):
        with pytest.raises(CiphertextFormatError):
            codec.prepare_span([], b"\x00" * 4, b"\x00" * 4)


class TestAggregates:
    def test_add_remove_inverse(self):
        state = RpcState(r0=b"\x01\x02\x03\x04")
        before = (state.lead_xor, state.payload_xor, state.length)
        state.add_block(b"\xaa\xbb\xcc\xdd", b"payload!", 8)
        state.remove_block(b"\xaa\xbb\xcc\xdd", b"payload!", 8)
        assert (state.lead_xor, state.payload_xor, state.length) == before

    def test_order_independent(self):
        a = RpcState(r0=bytes(4))
        b = RpcState(r0=bytes(4))
        blocks_ = [(bytes([i] * 4), bytes([i] * 8), i) for i in range(1, 5)]
        for blk in blocks_:
            a.add_block(*blk)
        for blk in reversed(blocks_):
            b.add_block(*blk)
        assert a == b
