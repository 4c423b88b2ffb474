"""rECB: randomized ECB incremental encryption (confidentiality only).

Following SV-B, the ciphertext of a document ``d1 … dn`` is::

    F_sk(r0), F_sk(r0 xor r1 || r1 xor d1), ..., F_sk(r0 xor rn || rn xor dn)

where every ``ri`` is a fresh 64-bit nonce and ``F_sk`` is AES.  Each
data block is independent given ``r0``:

* random access — decrypting character block ``k`` needs only the first
  record (for ``r0``) and record ``k``;
* ideal incremental updates — insert/delete/replace touches exactly the
  affected records, nothing is re-chained.

The price is integrity: nothing ties blocks together, so an active
server can replicate, reorder or drop records undetected (demonstrated
in :mod:`repro.security.attacks`; RPC mode is the answer).

Block layout (big-endian), one AES block per data record::

    [ r0 xor ri : 8 bytes ][ ri xor pad8(chunk) : 8 bytes ]

and the bookkeeping record 0 is ``F_sk(r0 || 0^64)``; the zero half
doubles as a cheap wrong-password check, since rECB decryption has no
integrity to fail on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import blocks
from repro.core.nonces import RECB_NONCE_BYTES, draw_nonces, xor_bytes
from repro.core.scheme import BlockCodec
from repro.encoding.wire import Record
from repro.errors import CiphertextFormatError, DecryptionError

__all__ = ["RecbCodec", "RecbState"]


@dataclass
class RecbState:
    """Per-document rECB state: just the document nonce ``r0``."""

    r0: bytes


class RecbCodec(BlockCodec):
    """Block codec for rECB mode."""

    name = "recb"
    supports_integrity = False
    nonce_bits = RECB_NONCE_BYTES * 8

    # -- document bookkeeping ----------------------------------------

    def fresh_state(self) -> RecbState:
        """Draw a fresh document nonce ``r0``."""
        return RecbState(r0=self._rng.token(RECB_NONCE_BYTES))

    def prefix_plain(self, state: RecbState,
                     first_lead: bytes | None = None) -> bytes:
        """The bookkeeping record's pre-cipher image ``r0 || 0^64``."""
        return state.r0 + bytes(8)

    def suffix_plain(self, state: RecbState) -> bytes:
        """rECB has no suffix records."""
        return b""

    def parse_prefix(self, block: bytes) -> RecbState:
        """Recover ``r0`` from the bookkeeping record's AES block;
        detects a wrong key via the zero half."""
        plain = self._cipher.decrypt_block(block)
        if plain[8:] != bytes(8):
            raise DecryptionError(
                "r0 record failed its zero-pad check (wrong password or "
                "corrupted ciphertext)"
            )
        return RecbState(r0=plain[:8])

    # -- data records ---------------------------------------------------

    def prepare_chunks(self, state: RecbState, chunks: list[str]) -> bytes:
        """Draw nonces and lay out the plaintext blocks for ``chunks``.

        Returns the concatenated pre-cipher block images; the caller
        encrypts them (possibly together with other spans' images in
        one batched cipher call — ECB makes the split point
        irrelevant to the output bytes) and slices the result back
        into records.
        """
        if not chunks:
            return b""
        nonces = draw_nonces(self._rng, len(chunks), RECB_NONCE_BYTES)
        plain = bytearray()
        for nonce, chunk in zip(nonces, chunks):
            plain += xor_bytes(state.r0, nonce)
            plain += xor_bytes(nonce, blocks.pack_chars(chunk))
        return bytes(plain)

    def decrypt_record(self, state: RecbState, record: Record) -> str:
        """Decrypt one data record (the random-access path)."""
        plain = self._cipher.decrypt_block(record.block)
        nonce = xor_bytes(plain[:8], state.r0)
        return _unpack_chunk(xor_bytes(plain[8:], nonce), record.char_count)

    def decrypt_records(self, state: RecbState, counts: bytes,
                        ciphertext: bytes) -> list[str]:
        """Decrypt all data records (batched AES, one-pass unmasking).

        Reads the record columns (:func:`repro.encoding.wire.decode_area`):
        ``counts`` holds each record's header byte and ``ciphertext``
        its AES blocks back to back.  Same result and errors as
        :meth:`decrypt_record` per record: the nonce and payload halves
        are unmasked for every block in two array XORs, and an
        all-ASCII document whose header counts all match is decoded in
        one pass; any other input takes the per-record decode and
        header check.
        """
        if not counts:
            return []
        plain = np.frombuffer(
            self._cipher.decrypt_many(ciphertext), dtype=np.uint8
        ).reshape(-1, 16)
        nonces = plain[:, :8] ^ np.frombuffer(state.r0, dtype=np.uint8)
        payloads = plain[:, 8:] ^ nonces
        chunks = blocks.unpack_ascii(payloads, counts)
        if chunks is not None:
            return chunks
        raw = payloads.tobytes()
        return [
            _unpack_chunk(raw[8 * i : 8 * i + 8], count)
            for i, count in enumerate(counts)
        ]


def _unpack_chunk(payload: bytes, char_count: int) -> str:
    """An unmasked payload's characters, checked against its header."""
    try:
        chunk = blocks.unpack_chars(payload)
    except UnicodeDecodeError:
        raise DecryptionError(
            "data block decodes to invalid UTF-8 (wrong password or "
            "corrupted ciphertext)"
        ) from None
    if len(chunk) != char_count:
        raise CiphertextFormatError(
            f"record header claims {char_count} chars, payload holds "
            f"{len(chunk)}"
        )
    return chunk
