"""Edit coalescing: fold a burst of keystrokes into one delta.

The paper's client cost model is per *save*, not per keystroke — the
real editor accumulates typing and ships one delta per autosave.  Our
client stack mirrors that: the :class:`EditCoalescer` journals each
keystroke-level :class:`~repro.core.delta.Delta` and folds it into a
single running delta with OT composition
(:func:`repro.core.ot.compose`), so one IncE pass (and therefore one
batched cipher call, see ``EncryptedDocument._apply_clusters``)
re-encrypts everything the burst touched instead of paying the
per-delta fixed costs N times.

Flush triggers are explicit, and every burst boundary is counted by
reason so the flush policy is observable:

* ``ops`` — the configured op cap was reached mid-burst;
* ``save`` — the buffer synced (the burst reached the server);
* ``resync`` — authoritative content was adopted, pending edits
  discarded;
* ``conflict`` — a conflict recovery path resynced the buffer;
* ``drain`` — an external drain (fuzz harness end-of-trace, close).

Composition never changes *what* is saved — the composed delta is
semantically identical to applying the journal in order (property
tested, and the fuzz oracle checks the composed burst wire-for-wire
against the sequential IncE path).  ``sid:seq`` idempotency is
untouched: the resilient client still stamps one key per save, and a
burst is always entirely inside one save.
"""

from __future__ import annotations

from repro.core.delta import Delta
from repro.core.ot import compose
from repro.obs import counter

__all__ = ["EditCoalescer", "FLUSH_REASONS"]

#: burst-boundary causes; each has a ``client.coalesce.flush.<reason>``
#: counter
FLUSH_REASONS = ("ops", "save", "resync", "conflict", "drain")

#: non-empty bursts flushed (one coalesced IncE pass each)
_BURSTS = counter("client.coalesce.bursts")
#: keystroke-level deltas folded into bursts
_OPS_FOLDED = counter("client.coalesce.ops_folded")
#: journals abandoned mid-burst (diff fallback takes over)
_INVALIDATED = counter("client.coalesce.invalidated")
_FLUSHED = {
    reason: counter(f"client.coalesce.flush.{reason}")
    for reason in FLUSH_REASONS
}


def _compose_all(deltas: list[Delta]) -> Delta:
    """Fold ``deltas`` (applied left to right) into one delta.

    Pairwise tree reduction: composition is associative, and reducing
    by halves costs O(total ops x log n) where the left-fold a naive
    running compose performs is O(total ops x n) — the difference is
    what keeps :meth:`EditCoalescer.add` O(1) per keystroke with all
    compose cost paid once at the flush boundary.
    """
    if not deltas:
        return Delta(())
    layer = deltas
    while len(layer) > 1:
        folded = [compose(layer[i], layer[i + 1])
                  for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            folded.append(layer[-1])
        layer = folded
    return layer[0]


class EditCoalescer:
    """Accumulate keystroke deltas; emit one composed delta per burst.

    ``max_ops`` bounds a burst's op count; hitting it either flushes
    the burst (``overflow="flush"``, the default — :meth:`add` returns
    the composed delta) or invalidates the journal
    (``overflow="invalidate"`` — the owner falls back to diffing, which
    keeps worst-case compose cost bounded for callers whose flush
    points are save-aligned).

    :meth:`add` is O(1): deltas are journaled as a list and composed
    lazily (tree reduction, memoized) when :meth:`peek` or
    :meth:`flush` needs the burst.
    """

    def __init__(self, max_ops: int | None = None,
                 overflow: str = "flush"):
        if overflow not in ("flush", "invalidate"):
            raise ValueError(
                f"overflow must be flush/invalidate, got {overflow!r}")
        self._max_ops = max_ops
        self._overflow = overflow
        self._journal: list[Delta] = []
        self._composed: Delta | None = None  # memoized tree reduction
        self._ops = 0
        self._valid = True

    # -- inspection ----------------------------------------------------

    @property
    def valid(self) -> bool:
        """False once the journal stopped tracking (cap overflow in
        ``invalidate`` mode, or an out-of-band text replacement)."""
        return self._valid

    @property
    def pending_ops(self) -> int:
        """Keystroke deltas folded into the current burst."""
        return self._ops

    @property
    def dirty(self) -> bool:
        """Does the current burst change any document?"""
        if not self._journal:
            return False
        composed = self._compose()
        return bool(composed.ops) and not composed.is_identity

    def _compose(self) -> Delta:
        if self._composed is None:
            self._composed = _compose_all(self._journal)
        return self._composed

    def peek(self) -> Delta:
        """The burst composed so far, in canonical form, not flushed."""
        return self._compose().canonical()

    # -- journaling ----------------------------------------------------

    def add(self, delta: Delta) -> Delta | None:
        """Journal one keystroke delta into the burst (O(1)).

        Returns the composed burst when this add tripped a cap in
        ``flush`` overflow mode, else None.
        """
        if not self._valid or not delta.ops:
            return None
        self._journal.append(delta)
        self._composed = None
        self._ops += 1
        _OPS_FOLDED.inc()
        if self._max_ops is not None and self._ops >= self._max_ops:
            return self._overflowed("ops")
        return None

    def _overflowed(self, reason: str) -> Delta | None:
        if self._overflow == "flush":
            return self.flush(reason)
        self.invalidate()
        return None

    def flush(self, reason: str = "drain") -> Delta | None:
        """End the burst; return its composed delta (None when empty).

        ``reason`` names the trigger (see :data:`FLUSH_REASONS`) and is
        counted under ``client.coalesce.flush.<reason>``.  The journal
        restarts empty and valid.
        """
        try:
            _FLUSHED[reason].inc()
        except KeyError:
            raise ValueError(
                f"unknown flush reason {reason!r}; "
                f"known: {FLUSH_REASONS}") from None
        out = self.peek() if self._ops and self._valid else None
        if out is not None and out.ops:
            _BURSTS.inc()
        else:
            out = None
        self._journal = []
        self._composed = None
        self._ops = 0
        self._valid = True
        return out

    def invalidate(self) -> None:
        """Stop tracking the current burst (the owner must fall back to
        diffing until the next flush re-arms the journal)."""
        if self._valid:
            _INVALIDATED.inc()
        self._valid = False
        self._journal = []
        self._composed = None
        self._ops = 0
