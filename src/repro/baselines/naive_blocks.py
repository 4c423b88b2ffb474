"""Naive fixed-alignment block store: the strawman of SV-C.

"A straightforward approach would require re-aligning and re-encrypting
all subsequent blocks when a single character is inserted or deleted."
This baseline does exactly that: blocks are aligned at fixed
``block_chars`` boundaries of the document, so any length-changing edit
at position p forces every block from p onward to be re-packed and
re-encrypted.  The ablation benchmark shows this degenerating to
whole-document cost for edits near the front — the dilemma the
IndexedSkipList exists to solve.
"""

from __future__ import annotations

from repro.core import blocks
from repro.core.delta import Delete, Delta, Insert, Retain
from repro.core.keys import KeyMaterial
from repro.core.recb import RecbCodec
from repro.crypto.random import RandomSource, SystemRandomSource
from repro.encoding.wire import (RECORD_CHARS, DocumentHeader, Record,
                                 encode_records)

__all__ = ["NaiveAlignedDocument"]


def _aligned_chunks(text: str, block_chars: int) -> list[str]:
    """Fixed-boundary chunking: block i always covers characters
    ``[i*b, (i+1)*b)`` — no slack, hence the realignment problem."""
    return [
        text[i : i + block_chars] for i in range(0, len(text), block_chars)
    ]


class NaiveAlignedDocument:
    """rECB over fixed-aligned blocks with realign-on-edit."""

    def __init__(
        self,
        text: str,
        password: str | None = None,
        key_material: KeyMaterial | None = None,
        block_chars: int = blocks.MAX_BLOCK_CHARS,
        rng: RandomSource | None = None,
    ):
        if key_material is None:
            if password is None:
                raise ValueError("a password or key material is required")
            key_material = KeyMaterial.from_password(password, rng=rng)
        self._keys = key_material
        self._block_chars = blocks.validate_block_chars(block_chars)
        self._rng = rng if rng is not None else SystemRandomSource()
        self._codec = RecbCodec(key_material.key, self._rng)
        self._state = self._codec.fresh_state()
        self._header = DocumentHeader(
            scheme="recb",
            block_chars=self._block_chars,
            nonce_bits=self._codec.nonce_bits,
            salt=key_material.salt,
        )
        self._text = text
        self._r0_record = Record(0, self._codec.encrypt_blob(
            self._codec.prefix_plain(self._state)))
        self._records = self._encrypt(_aligned_chunks(text, self._block_chars))
        #: cumulative count of blocks re-encrypted by updates (the
        #: ablation's cost metric, independent of wall clock)
        self.blocks_reencrypted = 0

    @property
    def text(self) -> str:
        return self._text

    @property
    def char_length(self) -> int:
        return len(self._text)

    def wire(self) -> str:
        """The full stored form (header + r0 record + data records)."""
        records = [self._r0_record] + self._records
        return self._header.encode() + encode_records(records)

    def wire_length(self) -> int:
        """Length of :meth:`wire` in characters."""
        return self._header.wire_length + (1 + len(self._records)) * RECORD_CHARS

    def apply_delta(self, delta: Delta) -> Delta:
        """Apply an edit; realign and re-encrypt every affected-or-later
        block; return the cdelta."""
        new_text = delta.apply(self._text)
        span = delta.source_span()
        if span is None:
            return Delta(())
        first_block = span[0] // self._block_chars
        # Pure same-length replacement within one block still realigns
        # nothing after it, but any length change shifts all later
        # boundaries: re-encrypt from the first touched block to the end.
        if delta.length_change == 0 and span[1] <= (first_block + 1) * self._block_chars:
            end_block = first_block + 1
        else:
            end_block = None  # to the end

        new_chunks = _aligned_chunks(new_text, self._block_chars)
        tail = (
            new_chunks[first_block:end_block]
            if end_block is not None
            else new_chunks[first_block:]
        )
        new_records = self._encrypt(tail)
        self.blocks_reencrypted += len(new_records)

        old_count = len(self._records)
        if end_block is None:
            self._records = self._records[:first_block] + new_records
        else:
            self._records = (
                self._records[:first_block]
                + new_records
                + self._records[end_block:]
            )
        self._text = new_text

        base = self._header.wire_length + RECORD_CHARS  # header + r0 record
        replaced_old = (
            old_count - first_block if end_block is None
            else end_block - first_block
        )
        ops = []
        pos = base + first_block * RECORD_CHARS
        if pos:
            ops.append(Retain(pos))
        if replaced_old:
            ops.append(Delete(replaced_old * RECORD_CHARS))
        if new_records:
            ops.append(Insert(encode_records(new_records)))
        return Delta(ops)

    def _encrypt(self, chunks: list[str]) -> list[Record]:
        """Stage ``chunks`` and encrypt them into data records."""
        blob = self._codec.encrypt_blob(
            self._codec.prepare_chunks(self._state, chunks))
        return [Record(len(chunk), blob[16 * i : 16 * i + 16])
                for i, chunk in enumerate(chunks)]

    def insert(self, pos: int, text: str) -> Delta:
        """Insert text; realigns and re-encrypts every later block."""
        return self.apply_delta(Delta.insertion(pos, text))

    def delete(self, pos: int, count: int) -> Delta:
        """Delete a range; realigns and re-encrypts every later block."""
        return self.apply_delta(Delta.deletion(pos, count))
