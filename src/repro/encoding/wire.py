"""Ciphertext wire format: fixed-width Base32 records.

The untrusted server stores the ciphertext document as *text* (an
on-line editor stores what looks like a document).  This module defines
that text layout, chosen so that ciphertext deltas reduce to exact
character arithmetic:

* **Record** — one encrypted unit: a header byte carrying the number of
  plaintext characters packed in the block (0 for pure bookkeeping
  blocks such as rECB's ``F(r0)`` or RPC's checksum block) followed by
  the 16-byte AES block.  17 bytes encode to exactly
  :data:`RECORD_CHARS` unpadded Base32 characters, so record *i* always
  occupies ``[i * RECORD_CHARS, (i+1) * RECORD_CHARS)`` in the record
  area and inserting/deleting whole records never re-aligns neighbours.
* **DocumentHeader** — a short plaintext-metadata prefix naming the
  scheme, block-capacity parameter ``b``, nonce width, and the KDF salt.
  Written once per full save; incremental deltas never touch it.

Everything the server stores is accounted here, so the Fig. 7 blow-up
measurements count real stored characters (header byte + AES block +
Base32 expansion), not an idealized 16x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.encoding import base32
from repro.errors import CiphertextFormatError
from repro.obs import counter

#: bytes per record before encoding: 1 header byte + one AES block
RECORD_BYTES = 17
#: characters one record occupies on the wire
RECORD_CHARS = base32.encoded_length(RECORD_BYTES)  # == 28

#: records Base32-encoded by :func:`encode_area` — O(records changed)
#: per save while the mirror splices its kept wire text
_RECORDS_ENCODED = counter("wire.records_encoded")

_MAGIC = "PE1"
_HEADER_END = "."


@dataclass(frozen=True)
class Record:
    """One encrypted block as stored by the server."""

    char_count: int  #: plaintext characters packed inside (0 = bookkeeping)
    block: bytes     #: the 16-byte AES output

    def __post_init__(self) -> None:
        if not 0 <= self.char_count <= 255:
            raise CiphertextFormatError(
                f"record char_count {self.char_count} out of range"
            )
        if len(self.block) != 16:
            raise CiphertextFormatError(
                f"record block must be 16 bytes, got {len(self.block)}"
            )


def encode_record(record: Record) -> str:
    """Encode one record to its fixed-width wire text."""
    return base32.encode(bytes([record.char_count]) + record.block)


def decode_record(text: str) -> Record:
    """Decode one :data:`RECORD_CHARS`-character wire chunk."""
    if len(text) != RECORD_CHARS:
        raise CiphertextFormatError(
            f"record must be {RECORD_CHARS} chars, got {len(text)}"
        )
    return decode_records(text)[0]


#: NumPy view of the Base32 alphabet for the batched paths
_ALPHABET_BYTES = np.frombuffer(base32.ALPHABET.encode("ascii"),
                                dtype=np.uint8)
_ALPHABET_INDEX = np.full(256, 255, dtype=np.uint8)
_ALPHABET_INDEX[_ALPHABET_BYTES] = np.arange(32, dtype=np.uint8)
_POW5 = np.array([16, 8, 4, 2, 1], dtype=np.uint8)

#: per-record padding: 17 bytes = 136 bits, padded to 140 = 28 * 5
_PAD_BITS = RECORD_CHARS * 5 - RECORD_BYTES * 8


def encode_area(counts: bytes, blocks: bytes) -> str:
    """Encode the two record columns to contiguous wire text.

    The inverse of :func:`decode_area`: ``counts`` holds each record's
    header byte and ``blocks`` its 16-byte AES blocks back to back.
    This is the one record encoder; :func:`encode_records` is a view
    over it.  Batched: documents run to tens of thousands of records,
    so the Base32 expansion is done as one NumPy bit-unpack over all of
    them (records are fixed-width, making every record's encoding
    independent and alignment-free).
    """
    count = len(counts)
    if len(blocks) != 16 * count:
        raise CiphertextFormatError(
            f"{count} records need {16 * count} block bytes, "
            f"got {len(blocks)}"
        )
    _RECORDS_ENCODED.inc(count)
    if count < 8:
        return "".join(
            base32.encode(counts[i : i + 1] + blocks[16 * i : 16 * i + 16])
            for i in range(count)
        )
    raw = np.empty((count, RECORD_BYTES), dtype=np.uint8)
    raw[:, 0] = np.frombuffer(counts, dtype=np.uint8)
    raw[:, 1:] = np.frombuffer(blocks, dtype=np.uint8).reshape(count, 16)
    bits = np.unpackbits(raw, axis=1)
    bits = np.concatenate(
        [bits, np.zeros((count, _PAD_BITS), dtype=np.uint8)], axis=1
    )
    groups = bits.reshape(count, RECORD_CHARS, 5) @ _POW5
    return _ALPHABET_BYTES[groups].tobytes().decode("ascii")


def encode_records(records: list[Record]) -> str:
    """Encode a sequence of records to contiguous wire text: a
    :class:`Record` view over :func:`encode_area`."""
    return encode_area(*record_columns(records))


#: a record's first 24 characters are three 8-character groups, each one
#: 40-bit big-endian value (5 bytes); these weights fold a group's digits
_GROUP_WEIGHTS = np.uint64(1) << np.arange(35, -1, -5, dtype=np.uint64)
_GROUP_BYTES = 3 * 5
#: its last 4 characters are 20 bits: the record's last 2 bytes, then
#: the :data:`_PAD_BITS` zero tail bits
_TAIL_WEIGHTS = np.array([1 << 15, 1 << 10, 1 << 5, 1], dtype=np.uint32)


def decode_area(text: str) -> tuple[bytes, bytes]:
    """Decode contiguous wire text into its two record columns.

    Returns ``(counts, blocks)``: every record's header byte, and every
    record's 16-byte AES block back to back (``16 * len(counts)``
    bytes).  This is the one record-area decoder; the load paths read
    the columns directly and :func:`decode_records` is a view over them.

    Accepts only canonical text — upper-case alphabet, no padding, zero
    tail bits — so ``encode_records(decode_records(t)) == t`` for every
    ``t`` it accepts (``EncryptedDocument.load`` keeps fetched text as
    its wire on that basis).  Each rejection raises the same
    :class:`CiphertextFormatError` and message whatever the record
    count.
    """
    if len(text) % RECORD_CHARS:
        raise CiphertextFormatError(
            f"record area length {len(text)} is not a multiple of "
            f"{RECORD_CHARS}"
        )
    count = len(text) // RECORD_CHARS
    if not count:
        return b"", b""
    try:
        chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        raise CiphertextFormatError(
            "invalid base32 character in record area"
        ) from None
    digits = _ALPHABET_INDEX[chars]
    if (digits == 255).any():
        raise CiphertextFormatError("invalid base32 character in record area")
    digits = digits.reshape(count, RECORD_CHARS)
    groups = digits[:, :24].reshape(count, 3, 8) @ _GROUP_WEIGHTS
    tail = digits[:, 24:] @ _TAIL_WEIGHTS
    if (tail & ((1 << _PAD_BITS) - 1)).any():
        raise CiphertextFormatError("non-canonical base32 tail bits")
    raw = np.empty((count, RECORD_BYTES), dtype=np.uint8)
    raw[:, :_GROUP_BYTES] = (
        groups.astype(">u8").view(np.uint8).reshape(count, 3, 8)[:, :, 3:]
    ).reshape(count, _GROUP_BYTES)
    raw[:, _GROUP_BYTES:] = (
        (tail >> _PAD_BITS).astype(">u2").view(np.uint8).reshape(count, 2)
    )
    return raw[:, 0].tobytes(), raw[:, 1:].tobytes()


def decode_records(text: str) -> list[Record]:
    """Decode contiguous wire text back into records.

    A :class:`Record` view over :func:`decode_area`'s columns, with the
    same checks and errors; the document load paths skip the view.
    """
    counts, blocks = decode_area(text)
    return [
        Record(char_count=count, block=blocks[16 * i : 16 * i + 16])
        for i, count in enumerate(counts)
    ]


def record_columns(records: list[Record]) -> tuple[bytes, bytes]:
    """The ``(counts, blocks)`` columns of ``records`` — what
    :func:`decode_area` returns for their encoding."""
    return (
        bytes(record.char_count for record in records),
        b"".join(record.block for record in records),
    )


@dataclass(frozen=True)
class DocumentHeader:
    """Plaintext metadata prefix of a ciphertext document."""

    scheme: str       #: scheme name, e.g. ``"recb"`` or ``"rpc"``
    block_chars: int  #: block capacity parameter ``b`` (characters)
    nonce_bits: int   #: nonce width used by the scheme
    salt: bytes       #: per-document KDF salt

    def encode(self) -> str:
        """Serialize, terminated by :data:`_HEADER_END`."""
        return "-".join([
            _MAGIC,
            self.scheme.upper(),
            str(self.block_chars),
            str(self.nonce_bits),
            base32.encode(self.salt),
        ]) + _HEADER_END

    @property
    def wire_length(self) -> int:
        """Characters this header occupies on the wire."""
        return len(self.encode())


def parse_document(text: str) -> tuple[DocumentHeader, list[Record]]:
    """Split a stored ciphertext document into header and records."""
    header, rest = split_header(text)
    return header, decode_records(rest)


def split_header(text: str) -> tuple[DocumentHeader, str]:
    """Parse the header prefix; return it plus the raw record area."""
    end = text.find(_HEADER_END)
    if end < 0:
        raise CiphertextFormatError("missing document header terminator")
    parts = text[:end].split("-")
    if len(parts) != 5 or parts[0] != _MAGIC:
        raise CiphertextFormatError(f"bad document header {text[:end]!r}")
    try:
        header = DocumentHeader(
            scheme=parts[1].lower(),
            block_chars=int(parts[2]),
            nonce_bits=int(parts[3]),
            salt=base32.decode(parts[4]),
        )
    except ValueError as exc:
        raise CiphertextFormatError(f"bad document header: {exc}") from None
    return header, text[end + 1 :]


def looks_encrypted(text: str) -> bool:
    """Heuristic used by tools and tests: is this a PE1 wire document?"""
    return text.startswith(_MAGIC + "-")
