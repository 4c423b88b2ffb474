"""Text encodings used on the wire: Base32, form encoding, and the
fixed-width ciphertext record format."""

from repro.encoding.base32 import decode as base32_decode
from repro.encoding.base32 import encode as base32_encode
from repro.encoding.formenc import encode_form, parse_form, quote, unquote
from repro.encoding.stego import (
    STEGO_RECORD_CHARS,
    looks_stego,
    stego_rewrite_cdelta,
    stego_unwrap,
    stego_wrap,
)
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

__all__ = [
    "base32_encode",
    "base32_decode",
    "quote",
    "unquote",
    "encode_form",
    "parse_form",
    "Record",
    "DocumentHeader",
    "RECORD_BYTES",
    "RECORD_CHARS",
    "encode_record",
    "decode_record",
    "encode_records",
    "decode_records",
    "decode_area",
    "record_columns",
    "parse_document",
    "split_header",
    "looks_encrypted",
    "stego_wrap",
    "stego_unwrap",
    "stego_rewrite_cdelta",
    "looks_stego",
    "STEGO_RECORD_CHARS",
]
