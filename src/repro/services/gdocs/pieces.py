"""Piece-table document: O(ops + pieces) delta application.

The literal store's job is to apply opaque deltas to stored text.  Doing
that by rebuilding the whole content string makes every incremental save
O(document) — exactly the linear server-side cost the paper's scheme is
supposed to avoid (the client already went to the trouble of sending a
delta that touches O(cluster) records).  A piece table fixes the apply
path: the document is a sequence of *pieces*, each a ``(buffer, start,
length)`` view into an immutable text buffer, and applying a delta
splices pieces instead of copying characters.

* ``apply_delta`` walks the piece list once, splitting at op boundaries:
  O(ops + pieces), independent of how many *characters* the retains
  cover.  It returns the text each delete removed, sliced from the
  pieces it walks, so the store can record the edit's inverse without
  materializing the document.
* Inserted text goes into one fresh buffer per delta; existing buffers
  are never mutated.
* Every edit adds at most ``ops + 1`` pieces; when the list grows past
  ``flatten_at`` the table flattens back to a single piece (one O(n)
  copy amortized over ~``flatten_at`` edits), bounding the walk cost.

``content`` / :meth:`materialize` give the exact string view existing
callers expect, cached until the next mutation.
"""

from __future__ import annotations

from repro.core.delta import Delta, Delete, Insert, Retain
from repro.errors import DeltaApplicationError
from repro.obs import counter, histogram

__all__ = ["PieceTable", "DEFAULT_FLATTEN_AT"]

#: piece-count ceiling before the table flattens back to one piece
DEFAULT_FLATTEN_AT = 512

#: below this length a C-speed string rebuild beats any Python piece
#: walk, so ``apply_delta`` just splices the flat string
SMALL_DOC_CHARS = 16_384

_APPLIES = counter("gdocs.pieces.applies")
_FLATTENS = counter("gdocs.pieces.flattens")
_MATERIALIZE = counter("gdocs.pieces.materializations")
_PIECES_WALKED = counter("gdocs.pieces.walked")
_PIECES_PER_DOC = histogram("gdocs.pieces.per_doc")

#: a piece: (buffer index, start offset, length)
_Piece = tuple[int, int, int]


class PieceTable:
    """A mutable document stored as pieces over immutable buffers."""

    __slots__ = ("_buffers", "_pieces", "_length", "_text", "_flatten_at")

    def __init__(self, text: str = "", flatten_at: int = DEFAULT_FLATTEN_AT):
        if flatten_at < 1:
            raise ValueError(f"flatten_at must be >= 1, got {flatten_at}")
        self._flatten_at = flatten_at
        self._buffers: list[str] = [text]
        self._pieces: list[_Piece] = [(0, 0, len(text))] if text else []
        self._length = len(text)
        self._text: str | None = text

    # -- views -----------------------------------------------------------

    @property
    def length(self) -> int:
        """Document length in characters — O(1), no materialization."""
        return self._length

    def __len__(self) -> int:
        return self._length

    @property
    def piece_count(self) -> int:
        return len(self._pieces)

    def materialize(self) -> str:
        """The full document text (cached until the next mutation)."""
        if self._text is None:
            _MATERIALIZE.inc()
            buffers = self._buffers
            self._text = "".join(
                buffers[buf][start : start + length]
                for buf, start, length in self._pieces
            )
        return self._text

    # -- mutation --------------------------------------------------------

    def apply_delta(self, delta: Delta) -> list[str]:
        """Apply ``delta`` in place: O(ops + pieces), never O(chars).

        Returns the text each ``Delete`` removed, in op order — what
        :meth:`Delta.inverse` needs to undo the edit.  Atomic: a delta
        that does not fit raises :class:`DeltaApplicationError` and
        leaves the table unchanged.
        """
        if self._length <= SMALL_DOC_CHARS:
            # One C-speed string splice; ``materialize`` is cached from
            # the previous reset, so this stays O(length) with a tiny
            # constant — faster than a piece walk at this size.  Only
            # the cheap counters fire here: the per-doc piece histogram
            # is a piece-walk diagnostic, and its observe() costs more
            # than the splice's per-edit bookkeeping budget allows.
            old = self.materialize()
            text = delta.apply(old)
            deleted = []
            cursor = 0
            for op in delta.ops:
                if isinstance(op, Delete):
                    deleted.append(old[cursor:cursor + op.count])
                if not isinstance(op, Insert):
                    cursor += op.count
            self._buffers = [text]
            self._pieces = [(0, 0, len(text))] if text else []
            self._length = len(text)
            self._text = text
            _APPLIES.inc()
            _PIECES_WALKED.inc(len(delta.ops))
            return deleted
        inserted = [op.text for op in delta.ops if isinstance(op, Insert)]
        add_buf = len(self._buffers)
        add_text = "".join(inserted)
        add_off = 0

        new_pieces: list[_Piece] = []
        deleted: list[str] = []
        old_pieces = self._pieces
        buffers = self._buffers
        pi = 0           # index of the piece holding the cursor
        poff = 0         # chars of piece ``pi`` already consumed
        cursor = 0       # document chars consumed so far

        def take(count: int, keep: bool) -> None:
            """Consume ``count`` chars: copy their pieces if ``keep``,
            else record their text as one deleted span."""
            nonlocal pi, poff
            spans: list[str] = []
            while count > 0:
                buf, start, length = old_pieces[pi]
                avail = length - poff
                step = avail if avail <= count else count
                if keep:
                    _append(new_pieces, (buf, start + poff, step))
                else:
                    spans.append(buffers[buf][start + poff:start + poff + step])
                count -= step
                poff += step
                if poff == length:
                    pi += 1
                    poff = 0
            if not keep:
                deleted.append("".join(spans))

        for op in delta.ops:
            if isinstance(op, Retain):
                if cursor + op.count > self._length:
                    raise DeltaApplicationError(
                        f"retain past end: cursor {cursor} + {op.count} > "
                        f"{self._length}"
                    )
                take(op.count, keep=True)
                cursor += op.count
            elif isinstance(op, Insert):
                _append(new_pieces, (add_buf, add_off, len(op.text)))
                add_off += len(op.text)
            else:
                if cursor + op.count > self._length:
                    raise DeltaApplicationError(
                        f"delete past end: cursor {cursor} + {op.count} > "
                        f"{self._length}"
                    )
                take(op.count, keep=False)
                cursor += op.count
        # implicit trailing retain
        if poff:
            buf, start, length = old_pieces[pi]
            _append(new_pieces, (buf, start + poff, length - poff))
            pi += 1
        new_pieces.extend(old_pieces[pi:])

        if add_text:
            self._buffers.append(add_text)
        self._pieces = new_pieces
        self._length += delta.length_change
        self._text = None
        _APPLIES.inc()
        _PIECES_WALKED.inc(pi + len(delta.ops))
        # Adaptive ceiling: piece-walk cost is paid on every edit while
        # the O(n) flatten is amortized over the edits between flattens,
        # so short documents (where a rebuild is almost free) keep the
        # list much shorter than the hard ``flatten_at`` cap.
        ceiling = min(self._flatten_at, max(32, self._length // 1024))
        if len(new_pieces) > ceiling:
            self.flatten()
        _PIECES_PER_DOC.observe(len(self._pieces))
        return deleted

    def reset(self, text: str) -> None:
        """Full replace (the docContents save path)."""
        self._buffers = [text]
        self._pieces = [(0, 0, len(text))] if text else []
        self._length = len(text)
        self._text = text

    def flatten(self) -> None:
        """Collapse to a single piece over one fresh buffer.

        The table starts a new buffer list holding the one joined text.
        """
        _FLATTENS.inc()
        text = self.materialize()
        self._buffers = [text]
        self._pieces = [(0, 0, len(text))] if text else []


def _append(pieces: list[_Piece], piece: _Piece) -> None:
    """Append, merging with the tail when the spans are contiguous."""
    if piece[2] == 0:
        return
    if pieces:
        buf, start, length = pieces[-1]
        if buf == piece[0] and start + length == piece[1]:
            pieces[-1] = (buf, start, length + piece[2])
            return
    pieces.append(piece)
