"""rECB codec: block-level correctness and its (intended) lack of
integrity."""

import pytest

from repro.core.recb import RecbCodec
from repro.crypto.random import DeterministicRandomSource
from repro.encoding.wire import Record, record_columns
from repro.errors import CiphertextFormatError, DecryptionError

KEY = bytes(range(16))


@pytest.fixture
def codec():
    return RecbCodec(KEY, DeterministicRandomSource(7))


def encrypt(codec, plain, counts=None):
    """Encrypt staged block images into records (``counts`` default 0)."""
    blob = codec.encrypt_blob(plain)
    counts = counts if counts is not None else [0] * (len(blob) // 16)
    return [Record(count, blob[16 * i : 16 * i + 16])
            for i, count in enumerate(counts)]


def encrypt_chunks(codec, state, chunks):
    """Data records for ``chunks`` through the staging API."""
    return encrypt(codec, codec.prepare_chunks(state, chunks),
                   [len(chunk) for chunk in chunks])


class TestPrefix:
    def test_round_trip_r0(self, codec):
        state = codec.fresh_state()
        prefix = encrypt(codec, codec.prefix_plain(state))
        assert len(prefix) == 1
        assert prefix[0].char_count == 0
        recovered = codec.parse_prefix(prefix[0].block)
        assert recovered.r0 == state.r0

    def test_wrong_key_detected(self, codec):
        state = codec.fresh_state()
        prefix = encrypt(codec, codec.prefix_plain(state))
        other = RecbCodec(bytes(16), DeterministicRandomSource(8))
        with pytest.raises(DecryptionError):
            other.parse_prefix(prefix[0].block)

    def test_no_suffix(self, codec):
        assert codec.suffix_plain(codec.fresh_state()) == b""


class TestDataRecords:
    def test_round_trip(self, codec):
        state = codec.fresh_state()
        chunks = ["hello", "worldly!", "é中", ""]
        records = encrypt_chunks(codec, state, chunks)
        assert [r.char_count for r in records] == [5, 8, 2, 0]
        assert [codec.decrypt_record(state, r) for r in records] == chunks

    def test_batched_decrypt_matches(self, codec):
        state = codec.fresh_state()
        chunks = [f"c{i}" for i in range(40)]
        records = encrypt_chunks(codec, state, chunks)
        assert codec.decrypt_records(state, *record_columns(records)) == chunks

    def test_randomization(self, codec):
        """Identical chunks encrypt to distinct records (nonces)."""
        state = codec.fresh_state()
        records = encrypt_chunks(codec, state, ["same"] * 10)
        assert len({r.block for r in records}) == 10

    def test_empty_chunk_list(self, codec):
        assert encrypt_chunks(codec, codec.fresh_state(), []) == []

    def test_char_count_mismatch_detected(self, codec):
        state = codec.fresh_state()
        [record] = encrypt_chunks(codec, state, ["abc"])
        lying = Record(char_count=5, block=record.block)
        with pytest.raises(CiphertextFormatError):
            codec.decrypt_record(state, lying)

    def test_random_access_independence(self, codec):
        """Any single record decrypts without the others — the 2-record
        access pattern of SV-B."""
        state = codec.fresh_state()
        records = encrypt_chunks(codec, state, ["aa", "bb", "cc"])
        assert codec.decrypt_record(state, records[1]) == "bb"


class TestMalleability:
    def test_no_integrity_flag(self, codec):
        assert codec.supports_integrity is False

    def test_replication_goes_unnoticed(self, codec):
        """The attack rECB cannot withstand (SVI-A): duplicated records
        decrypt cleanly."""
        state = codec.fresh_state()
        records = encrypt_chunks(codec, state, ["attack", "at dawn"])
        doctored = [records[0], records[0], records[1]]
        assert codec.decrypt_records(state, *record_columns(doctored)) == [
            "attack", "attack", "at dawn",
        ]
