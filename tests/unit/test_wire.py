"""Wire format: fixed-width records and the document header."""

import os
import random

import pytest

from repro.encoding import base32
from repro.encoding.base32 import ALPHABET
from repro.encoding.wire import (
    RECORD_BYTES,
    RECORD_CHARS,
    DocumentHeader,
    Record,
    decode_area,
    decode_record,
    decode_records,
    encode_record,
    encode_records,
    looks_encrypted,
    parse_document,
    record_columns,
    split_header,
)
from repro.errors import CiphertextFormatError


def _record(count=3):
    return Record(char_count=count, block=os.urandom(16))


class TestRecord:
    def test_fixed_width(self):
        assert RECORD_CHARS == 28  # 17 bytes, unpadded base32
        assert len(encode_record(_record())) == RECORD_CHARS

    def test_round_trip(self):
        rec = _record(7)
        assert decode_record(encode_record(rec)) == rec

    def test_zero_count_bookkeeping_record(self):
        rec = Record(char_count=0, block=bytes(16))
        assert decode_record(encode_record(rec)) == rec

    def test_bad_char_count(self):
        with pytest.raises(CiphertextFormatError):
            Record(char_count=-1, block=bytes(16))
        with pytest.raises(CiphertextFormatError):
            Record(char_count=256, block=bytes(16))

    def test_bad_block_length(self):
        with pytest.raises(CiphertextFormatError):
            Record(char_count=1, block=bytes(15))

    def test_decode_wrong_width(self):
        with pytest.raises(CiphertextFormatError):
            decode_record("A" * (RECORD_CHARS - 1))


class TestRecordArea:
    def test_many_round_trip(self):
        records = [_record(i % 9) for i in range(20)]
        area = encode_records(records)
        assert len(area) == 20 * RECORD_CHARS
        assert decode_records(area) == records

    def test_splice_is_exact(self):
        """Deleting record i from the text area yields the encoding of
        the record list without element i — the property cdeltas rely on."""
        records = [_record(i % 9) for i in range(5)]
        area = encode_records(records)
        spliced = area[: 2 * RECORD_CHARS] + area[3 * RECORD_CHARS :]
        assert decode_records(spliced) == records[:2] + records[3:]

    def test_ragged_area_rejected(self):
        with pytest.raises(CiphertextFormatError):
            decode_records("A" * (RECORD_CHARS + 1))

    def test_empty_area(self):
        assert decode_records("") == []

    @pytest.mark.parametrize("count", [1, 7, 8, 20])
    def test_only_canonical_text_decodes(self, count):
        """One decoder at every record count: it accepts exactly what
        ``encode_records`` writes, so a decoded area re-encodes to
        itself, and rejects everything else with the same error and
        message — lower case, padding, a foreign character, a set tail
        bit, a ragged length."""
        area = encode_records([_record(i % 9) for i in range(count)])
        assert encode_records(decode_records(area)) == area
        last = area[-RECORD_CHARS:]
        # a record's last character carries one data bit and four
        # zero tail bits
        tail_set = ALPHABET[ALPHABET.index(last[-1]) | 1]
        invalid = "invalid base32 character in record area"
        ragged = (f"record area length {len(area) + 1} is not a multiple "
                  f"of {RECORD_CHARS}")
        cases = [
            (last.lower(), invalid),
            (last[:-1] + "=", invalid),
            (last[:-2] + "==", invalid),
            ("=" * RECORD_CHARS, invalid),
            (last[:-1] + "1", invalid),
            (last[:-1] + "é", invalid),
            (last[:-1] + tail_set, "non-canonical base32 tail bits"),
            (last + "A", ragged),
        ]
        for bad, message in cases:
            text = area[:-RECORD_CHARS] + bad
            for decode in (decode_area, decode_records):
                with pytest.raises(CiphertextFormatError) as raised:
                    decode(text)
                assert str(raised.value) == message, (bad, decode)

    @pytest.mark.parametrize("count", [*range(1, 21), 503, 10_000])
    def test_columns_match_the_per_record_decode(self, count):
        """``decode_area``'s columns are every record's header byte and
        AES block, as the scalar Base32 codec decodes each record."""
        rng = random.Random(count)
        records = [Record(char_count=rng.randrange(256),
                          block=rng.randbytes(16)) for _ in range(count)]
        area = encode_records(records)
        counts, blocks = decode_area(area)
        raws = [base32.decode(area[i : i + RECORD_CHARS])
                for i in range(0, len(area), RECORD_CHARS)]
        assert counts == bytes(raw[0] for raw in raws)
        assert blocks == b"".join(raw[1:] for raw in raws)
        assert (counts, blocks) == record_columns(records)
        assert decode_records(area) == records


class TestHeader:
    def _header(self):
        return DocumentHeader(scheme="rpc", block_chars=8, nonce_bits=32,
                              salt=os.urandom(10))

    def test_round_trip(self):
        header = self._header()
        encoded = header.encode()
        parsed, rest = split_header(encoded + "RECORDS")
        assert parsed == header
        assert rest == "RECORDS"

    def test_wire_length(self):
        header = self._header()
        assert header.wire_length == len(header.encode())

    def test_parse_document(self):
        header = self._header()
        records = [_record(2), _record(0)]
        doc = header.encode() + encode_records(records)
        got_header, got_records = parse_document(doc)
        assert got_header == header
        assert got_records == records

    def test_looks_encrypted(self):
        assert looks_encrypted(self._header().encode())
        assert not looks_encrypted("Dear diary, ...")
        assert not looks_encrypted("")

    def test_missing_terminator(self):
        with pytest.raises(CiphertextFormatError):
            split_header("PE1-RECB-8-64-AAAA")

    def test_bad_magic(self):
        with pytest.raises(CiphertextFormatError):
            split_header("XX9-RECB-8-64-AAAA.")

    def test_bad_numbers(self):
        with pytest.raises(CiphertextFormatError):
            split_header("PE1-RECB-eight-64-AAAA.")

    def test_record_bytes_constant(self):
        assert RECORD_BYTES == 17
