"""The gdocs store's text: bounded leaves, each with a SHA-1 midstate.

The literal store applies opaque deltas to stored text and answers
every save with the SHA-1 of the result (``contentFromServerHash``).
Both jobs should cost what the edit touches, not the document, so the
text is a list of *leaves* — consecutive substrings of at most
``2 * LEAF_CHARS`` characters — with their end offsets and a
:class:`~repro.crypto.sha1.Sha1Midstates` holding the SHA-1 chaining
value after each leaf but the last.

* :meth:`LeafText.apply_delta` rewrites only the leaves an edit
  touches: one string splice of those leaves per insert or delete,
  one C-level prefix-sum pass for the end offsets after it.  It
  returns the text each delete removed, which is what the store's
  inverse log needs.
* :meth:`LeafText.hexdigest` resumes from the midstate before the first
  leaf changed since the last digest, so an Ack hashes the suffix
  after the edit.  It never joins the leaves.
* :meth:`LeafText.join` builds the whole text, for a fetch, an echo, a
  full save's comparison or a history read.

A document of up to ``2 * LEAF_CHARS`` characters is one leaf, and an
edit to it is one string splice.  A leaf that grows past the cap splits
evenly into leaves of ``LEAF_CHARS // 2`` to ``LEAF_CHARS``; an edit
that leaves one shorter absorbs its right neighbour.  So no leaf is
empty, and every leaf but the last holds at least ``LEAF_CHARS // 2``.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, islice

from repro.core.delta import Delta, Delete, Insert, Retain
from repro.crypto.sha1 import Sha1Midstates
from repro.errors import DeltaApplicationError
from repro.obs import counter

__all__ = ["LEAF_CHARS", "LeafText"]

#: L: a split leaf holds at most L characters, any leaf at most 2L
LEAF_CHARS = 8_192

#: leaves an apply rewrote (the store's cost, not the document's); the
#: name predates the leaf table, and perfbench's per-layer list reads it
_LEAVES_WALKED = counter("gdocs.pieces.walked")


def _split(text: str) -> list[str]:
    """``text`` as leaves: itself up to 2L, else even parts of L/2 to L."""
    n = len(text)
    if n <= 2 * LEAF_CHARS:
        return [text] if text else []
    parts = -(-n // LEAF_CHARS)
    return [text[n * i // parts:n * (i + 1) // parts] for i in range(parts)]


class LeafText:
    """A mutable string stored as bounded leaves with SHA-1 midstates."""

    __slots__ = ("_leaves", "_ends", "_hash")

    def __init__(self, text: str = "") -> None:
        self._hash = Sha1Midstates()
        self.reset(text)

    @property
    def length(self) -> int:
        """Length in characters, without joining."""
        return self._ends[-1] if self._ends else 0

    def join(self) -> str:
        """The whole text."""
        return "".join(self._leaves)

    def hexdigest(self) -> str:
        """SHA-1 of the text, from the first leaf changed since the
        last digest (equal to ``content_hash(self.join())``)."""
        leaves, done = self._leaves, len(self._hash)
        # the last leaf is the tail: a midstate after it would only
        # ever serve an append past it
        return self._hash.extend(
            leaves[done:-1], leaves[-1] if done < len(leaves) else "")

    def reset(self, text: str) -> None:
        """Replace the whole text (a full save)."""
        self._leaves = _split(text)
        self._ends = list(accumulate(map(len, self._leaves)))
        self._hash.truncate(0)

    def apply_delta(self, delta: Delta) -> list[str]:
        """Apply ``delta`` in place, rewriting only the leaves it touches.

        Returns the text each ``Delete`` removed, in op order — what
        :meth:`Delta.inverse` needs to undo the edit.  Atomic: a delta
        that does not fit raises :class:`DeltaApplicationError` and
        leaves the text unchanged.
        """
        leaves, ends = self._leaves, self._ends
        cursor, deleted = 0, []
        if len(leaves) == 1:  # one leaf: one string splice
            old, text = leaves[0], delta.apply(leaves[0])
            for op in delta.ops:
                if type(op) is Delete:
                    deleted.append(old[cursor:cursor + op.count])
                if type(op) is not Insert:
                    cursor += op.count
            if 0 < len(text) <= 2 * LEAF_CHARS:
                leaves[0], ends[0] = text, len(text)
            else:
                leaves[:] = _split(text)
                ends[:] = accumulate(map(len, leaves))
            self._hash.truncate(0)
            _LEAVES_WALKED.inc()
            return deleted
        first = length = self.length
        consumed = sum(op.count for op in delta.ops if type(op) is not Insert)
        if consumed > length:  # checked before anything changes
            raise DeltaApplicationError(
                f"delta consumes {consumed} chars, text has {length}")
        walked = 0
        for op in delta.ops:
            if type(op) is Retain:
                cursor += op.count
                continue
            lo = max(0, min(bisect_right(ends, cursor), len(leaves) - 1))
            start = ends[lo - 1] if lo else 0
            at = cursor - start
            if type(op) is Insert:
                hi, text = lo, leaves[lo] if leaves else ""
                text = text[:at] + op.text + text[at:]
                cursor += len(op.text)
            else:
                hi = bisect_right(ends, cursor + op.count - 1)
                text = "".join(leaves[lo:hi + 1])
                deleted.append(text[at:at + op.count])
                text = text[:at] + text[at + op.count:]
            if len(text) < LEAF_CHARS // 2 and hi < len(leaves) - 1:
                hi += 1  # too short: absorb the right neighbour
                text += leaves[hi]
            walked += hi - lo + 1
            leaves[lo:hi + 1] = _split(text)
            ends[lo:] = islice(
                accumulate(map(len, leaves[lo:]), initial=start), 1, None)
            first = min(first, start)
        self._hash.truncate(first)
        _LEAVES_WALKED.inc(walked)
        return deleted
