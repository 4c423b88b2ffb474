"""Multiple-character block packing (SV-C).

Plaintext is grouped into blocks of up to ``b`` characters (the
user-adjustable block-capacity parameter).  A data block's payload rides
in a 64-bit field of the AES block, so a block holds at most
:data:`PAYLOAD_BYTES` bytes of UTF-8; ``b`` counts *characters*, so a
block of non-ASCII text may hold fewer than ``b`` characters.

Padding is ``0x00`` bytes, which cannot appear inside UTF-8 text except
as the NUL character — NUL is therefore excluded from documents (an
on-line editor cannot represent it anyway).
"""

from __future__ import annotations

import numpy as np

from repro.errors import BlockSizeError

#: payload field width: the paper fixes 64 bits ("Due to the fixed block
#: size of AES, we choose a maximum of 8 characters (64 bits) per block").
PAYLOAD_BYTES = 8

#: the largest meaningful block-capacity parameter for an 8-byte payload
MAX_BLOCK_CHARS = PAYLOAD_BYTES


def validate_block_chars(block_chars: int) -> int:
    """Check a block-capacity parameter ``b``; return it."""
    if not 1 <= block_chars <= MAX_BLOCK_CHARS:
        raise BlockSizeError(
            f"block capacity must be in [1, {MAX_BLOCK_CHARS}] characters, "
            f"got {block_chars}"
        )
    return block_chars


def validate_text(text: str) -> str:
    """Reject text a block document cannot represent (NUL)."""
    if "\x00" in text:
        raise BlockSizeError("documents may not contain NUL characters")
    return text


def pack_chars(chunk: str) -> bytes:
    """Pack one block's characters into the padded 8-byte payload."""
    raw = chunk.encode("utf-8")
    if len(raw) > PAYLOAD_BYTES:
        raise BlockSizeError(
            f"chunk {chunk!r} needs {len(raw)} bytes, payload holds "
            f"{PAYLOAD_BYTES}"
        )
    if b"\x00" in raw:
        raise BlockSizeError("chunk contains NUL")
    return raw.ljust(PAYLOAD_BYTES, b"\x00")


def unpack_chars(payload: bytes) -> str:
    """Invert :func:`pack_chars`."""
    if len(payload) != PAYLOAD_BYTES:
        raise BlockSizeError(
            f"payload must be {PAYLOAD_BYTES} bytes, got {len(payload)}"
        )
    return payload.rstrip(b"\x00").decode("utf-8")


#: 1-based byte positions within a payload
_POSITIONS = np.arange(1, PAYLOAD_BYTES + 1, dtype=np.uint8)


def unpack_ascii(payloads: np.ndarray, counts: bytes) -> list[str] | None:
    """:func:`unpack_chars` over an ``(n, 8)`` payload array, one decode.

    ``counts`` is the records' header-byte column.  Applies only when
    every payload byte is ASCII and every ``counts[i]`` is payload
    ``i``'s length without its NUL padding: each chunk is then exactly
    what :func:`unpack_chars` returns, and of the claimed length.  Otherwise returns None, and the caller takes its
    per-payload path, which raises whatever it raises, in its order.
    """
    if not counts:
        return []
    unpadded = ((payloads != 0) * _POSITIONS).max(axis=1)
    claimed = np.frombuffer(counts, dtype=np.uint8)
    if payloads.max() >= 0x80 or not np.array_equal(unpadded, claimed):
        return None
    text = payloads.tobytes().decode("ascii")
    return [
        text[start : start + count]
        for start, count in zip(range(0, len(text), PAYLOAD_BYTES), counts)
    ]


def chunk_text(text: str, block_chars: int) -> list[str]:
    """Greedily split ``text`` into block-sized chunks.

    Each chunk holds at most ``block_chars`` characters *and* at most
    :data:`PAYLOAD_BYTES` UTF-8 bytes.  Greedy packing fills every chunk
    to capacity, so a freshly encrypted document has no fragmentation;
    fragmentation appears later as edits split blocks (that gap between
    ideal and measured blow-up is exactly what Fig. 7 reports).
    """
    validate_block_chars(block_chars)
    validate_text(text)
    chunks: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        take = min(block_chars, n - i)
        while take > 1 and len(text[i : i + take].encode("utf-8")) > PAYLOAD_BYTES:
            take -= 1
        chunk = text[i : i + take]
        if len(chunk.encode("utf-8")) > PAYLOAD_BYTES:
            # A single character wider than the payload (impossible for
            # real UTF-8: max 4 bytes) — guard anyway.
            raise BlockSizeError(f"character {chunk!r} exceeds payload")
        chunks.append(chunk)
        i += take
    return chunks
