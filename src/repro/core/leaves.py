"""Leaf stores: the mirror's blocks, and the stored wire text.

:class:`BlockLeaves` is the mirror's block store: leaves of consecutive
blocks under one index.

The paper indexes every encrypted block by character position in a
skip list (SV-C).  The mirror keeps that index over **leaves** instead:
runs of between B/2 and 2B - 1 consecutive blocks (B =
``leaf_blocks``; :data:`repro.core.document.LEAF_BLOCKS`), each held as
columns:

* ``texts`` — the blocks' plaintext chunks (a list of str);
* ``ends`` — the chunks' character prefix sums (``ends[i]`` is the
  number of characters in blocks ``0..i`` of the leaf);
* ``blocks`` — the blocks' 16-byte AES outputs back to back (one
  ``bytearray``);
* ``leads`` / ``payloads`` — RPC's 4-byte lead nonces and 8-byte padded
  payloads back to back (None for rECB).

The outer index — any :class:`repro.datastructures.BlockIndex` from the
document's ``index_factory`` — holds one counted node per leaf, ``(leaf,
chars, blocks)``, so it finds a leaf by block rank or by character in
``O(log(n/B))`` and a bisect over ``ends`` finishes the search.

A bulk build (load and Enc) cuts the columns into leaves of B to
2B - 1 blocks: a few objects per leaf for the cyclic garbage collector
to track, where a per-block index keeps two per block.  A splice
rewrites only the leaves its run touches — one leaf's columns are
updated in place; a result over 2B - 1 blocks is cut into new leaves
and one under B/2 takes in a neighbour — and ends with one outer
``splice``, so no update walks every leaf.  B = 1 gives one block per
leaf: the paper's per-block index.

Operation counts follow the per-block structures': a leaf bisect adds
its steps to ``index.node_visits`` and every block a read or a splice
covers adds one to ``index.range_visits``, on top of the outer index's
own counts.

:class:`LeafText` is the stored wire text itself, held the same way on
both sides of a gdocs save: the server's store keeps every document in
one and the mirror keeps its wire in one.  Every save is answered with
``contentFromServerHash``, the SHA-1 of the stored text, which both
sides must compute, and both an update and its hash should cost what
the edit touches, not the document.  So the text is a list of leaves
— consecutive substrings of at most ``2 * LEAF_CHARS`` characters —
with their end offsets and the SHA-1 midstate (a copied Python
``sha1`` object, the chaining value) after each:

* :meth:`LeafText.apply_delta` rewrites only the leaves an edit
  touches: one string splice of those leaves per insert or delete,
  one C-level prefix-sum pass for the end offsets after it, and it
  drops the midstates from the first touched leaf on.  It returns the
  text each delete removed, which is what the store's inverse log
  needs.
* :meth:`LeafText.hexdigest` resumes from the last midstate kept, so
  SHA-1 (Merkle–Damgård: the hash of ``a + b`` is the chaining value
  after ``a`` fed ``b``) reads the leaves from the first changed one
  on.  It never joins them.
* :meth:`LeafText.join` builds the whole text.

A text of up to ``2 * LEAF_CHARS`` characters is one leaf, and an edit
to it is one string splice.  A leaf that grows past the cap splits
evenly into leaves of ``LEAF_CHARS // 2`` to ``LEAF_CHARS``; an edit
that leaves one shorter absorbs its right neighbour.  So no leaf is
empty, and every leaf but the last holds at least ``LEAF_CHARS // 2``.
A midstate is a chaining value of text its holder already has: no key,
nothing the text itself does not give away (docs/security.md).
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import sha1
from itertools import accumulate, chain, islice
from typing import Callable, Iterator, NamedTuple

from repro.core.blocks import PAYLOAD_BYTES
from repro.core.delta import Delete, Delta, Insert, Retain
from repro.core.nonces import RPC_NONCE_BYTES
from repro.errors import DataStructureError, DeltaApplicationError
from repro.obs import counter

__all__ = ["LEAF_CHARS", "NO_BLOCKS", "BlockLeaves", "Leaf", "LeafText",
           "Run"]

#: shared with the per-block index structures
_NODE_VISITS = counter("index.node_visits")
_RANGE_VISITS = counter("index.range_visits")

_BLOCK = 16


class Run(NamedTuple):
    """Consecutive blocks read out of the store, as columns."""

    texts: list[str]
    blocks: bytes
    leads: bytes | None
    payloads: bytes | None


#: the empty run
NO_BLOCKS = Run([], b"", None, None)


def _join(runs: list[Run]) -> Run:
    """One run holding ``runs`` back to back."""
    rpc = runs[0].leads is not None
    return Run(
        list(chain.from_iterable(run.texts for run in runs)),
        b"".join(run.blocks for run in runs),
        b"".join(run.leads for run in runs) if rpc else None,
        b"".join(run.payloads for run in runs) if rpc else None,
    )


class Leaf:
    """One run of consecutive blocks, held as columns (never empty)."""

    __slots__ = ("texts", "ends", "blocks", "leads", "payloads")

    def __init__(self, texts: list[str], blocks: bytes,
                 leads: bytes | None, payloads: bytes | None):
        self.texts = texts
        self.ends = list(accumulate(map(len, texts)))
        self.blocks = bytearray(blocks)
        self.leads = leads
        self.payloads = payloads

    def __len__(self) -> int:
        return len(self.texts)

    def item(self) -> tuple["Leaf", int, int]:
        """The outer index's counted item for this leaf."""
        return self, self.ends[-1], len(self.texts)

    def run(self, i: int, j: int) -> Run:
        """Blocks ``[i, j)`` of this leaf, copied out."""
        leads, payloads = self.leads, self.payloads
        return Run(
            self.texts[i:j],
            bytes(self.blocks[_BLOCK * i : _BLOCK * j]),
            None if leads is None
            else leads[RPC_NONCE_BYTES * i : RPC_NONCE_BYTES * j],
            None if payloads is None
            else payloads[PAYLOAD_BYTES * i : PAYLOAD_BYTES * j],
        )

    def replace(self, i: int, j: int, new: Run) -> None:
        """Replace blocks ``[i, j)`` with ``new`` in place."""
        self.texts[i:j] = new.texts
        self.blocks[_BLOCK * i : _BLOCK * j] = new.blocks
        if self.leads is not None:
            n, p = RPC_NONCE_BYTES, PAYLOAD_BYTES
            self.leads = self.leads[: n * i] + new.leads + self.leads[n * j :]
            self.payloads = (self.payloads[: p * i] + new.payloads
                             + self.payloads[p * j :])
        self._refresh_ends(i)

    def _refresh_ends(self, i: int) -> None:
        """Recompute the prefix sums from block ``i`` on."""
        before = self.ends[i - 1] if i else 0
        self.ends[i:] = accumulate(map(len, self.texts[i:]), initial=before)
        del self.ends[i]  # the ``initial`` value, already at ``i - 1``


class BlockLeaves:
    """The mirror's blocks as leaves under an outer index.

    The block-level contract of :class:`repro.datastructures.BlockIndex`
    (``find_char``, ``get``, ``get_range``, ``char_start``, ``splice``,
    ``extend``), with blocks read and written as :class:`Run` columns.
    A splice takes the new blocks' texts (and RPC leads and payloads);
    their cipher blocks read as zeros until :meth:`write` stores them,
    so one deferred cipher call can serve every span of an update.
    """

    def __init__(self, index_factory: Callable[[], object], leaf_blocks: int):
        self._outer = index_factory()
        self._b = leaf_blocks
        self._cap = 2 * leaf_blocks - 1

    def __len__(self) -> int:
        """Number of blocks."""
        return len(self._outer)

    @property
    def total_chars(self) -> int:
        """Total characters across all blocks."""
        return self._outer.total_chars

    # -- queries -----------------------------------------------------------

    def find_char(self, index: int) -> tuple[int, int]:
        """``(rank, offset)`` of the block holding character ``index``."""
        leaf, rank, start = self._outer.locate_char(index)
        ends = leaf.ends
        off = index - start
        i = bisect_right(ends, off)
        _NODE_VISITS.inc(len(ends).bit_length())
        return rank + i, off - (ends[i - 1] if i else 0)

    def char_start(self, rank: int) -> int:
        """First character position covered by block ``rank``."""
        if rank == len(self._outer):
            return self._outer.total_chars
        leaf, lo, start = self._outer.locate(rank)
        i = rank - lo
        return start + (leaf.ends[i - 1] if i else 0)

    def get(self, rank: int) -> Run:
        """Block ``rank`` as a one-block run."""
        return self.get_range(rank, rank + 1)

    def get_range(self, ra: int, rb: int) -> Run:
        """Blocks ``[ra, rb)`` as one run: one outer descent, plus one
        outer walk when the run crosses a leaf boundary."""
        if not 0 <= ra <= rb <= len(self._outer):
            raise IndexError(
                f"range [{ra}, {rb}) out of range [0, {len(self._outer)}]"
            )
        _RANGE_VISITS.inc(rb - ra)
        if ra == rb:
            return NO_BLOCKS
        leaves, lo = self._covering(ra, rb)
        runs = []
        for leaf in leaves:
            runs.append(leaf.run(max(ra - lo, 0), min(rb - lo, len(leaf))))
            lo += len(leaf)
        return runs[0] if len(runs) == 1 else _join(runs)

    def _covering(self, ra: int, rb: int) -> tuple[list[Leaf], int]:
        """The leaves covering blocks ``[ra, rb)`` and the first one's
        first rank."""
        leaf, lo, _ = self._outer.locate(ra)
        if rb <= lo + len(leaf):
            return [leaf], lo
        return [value for value, _ in self._outer.get_range(lo, rb)], lo

    def texts(self) -> Iterator[str]:
        """Every block's plaintext chunk, in order."""
        return chain.from_iterable(
            leaf.texts for leaf in self._outer.values()
        )

    def columns(self) -> tuple[bytes, bytes]:
        """Every block's character count and AES block, as the wire's
        two record columns."""
        return (bytes(map(len, self.texts())),
                b"".join(leaf.blocks for leaf in self._outer.values()))

    # -- writers -------------------------------------------------------------

    def extend(self, texts: list[str], blocks: bytes,
               leads: bytes | None = None,
               payloads: bytes | None = None) -> None:
        """Append blocks given as columns (the bulk build of load and
        Enc): leaves of B to 2B - 1 blocks, one outer ``extend``."""
        size = len(self._outer)
        if size:
            self.splice(size, size, texts, leads, payloads)
            self.write(size, blocks)
            return
        self._outer.extend(
            leaf.item() for leaf in self._cut(Run(texts, blocks, leads,
                                                  payloads))
        )

    def splice(self, ra: int, rb: int, texts: list[str],
               leads: bytes | None = None,
               payloads: bytes | None = None) -> None:
        """Replace blocks ``[ra, rb)`` with ``texts`` (and RPC's
        ``leads`` and ``payloads``), whose cipher blocks read as zeros
        until :meth:`write`.

        Touches the leaves holding ``ra`` and ``rb - 1``, drops the
        leaves between them, and makes one outer ``splice``: in place
        when one leaf keeps between B/2 and 2B - 1 blocks, otherwise
        over new leaves cut from the result (plus a neighbour when the
        result is under B/2).
        """
        size = len(self._outer)
        if not 0 <= ra <= rb <= size:
            raise IndexError(f"range [{ra}, {rb}) out of range [0, {size}]")
        _RANGE_VISITS.inc(rb - ra)
        new = Run(texts, bytes(_BLOCK * len(texts)), leads, payloads)
        if not size:
            self._outer.extend(leaf.item() for leaf in self._cut(new))
            return
        first, lo, _ = self._outer.locate(min(ra, size - 1))
        last, last_lo = first, lo
        if rb > lo + len(first):
            last, last_lo, _ = self._outer.locate(rb - 1)
        hi = last_lo + len(last)
        i, j = ra - lo, rb - last_lo
        kept = i + len(texts) + len(last) - j
        short = 2 * kept < self._b and hi - lo < size
        if first is last and not short and 0 < kept <= self._cap:
            first.replace(i, j, new)
            self._outer.splice(lo, hi, [first.item()])
            return
        runs = [first.run(0, i), new, last.run(j, len(last))]
        if short and lo:
            prev, lo, _ = self._outer.locate(lo - 1)
            runs.insert(0, prev.run(0, len(prev)))
        elif short:
            after, _, _ = self._outer.locate(hi)
            runs.append(after.run(0, len(after)))
            hi += len(after)
        self._outer.splice(
            lo, hi, [leaf.item() for leaf in self._cut(_join(runs))]
        )

    def write(self, rank: int, data: bytes) -> None:
        """Store cipher blocks ``data`` (16 bytes each) for the blocks
        from ``rank`` on."""
        count = len(data) // _BLOCK
        if not count:
            return
        leaves, lo = self._covering(rank, rank + count)
        i = rank - lo
        done = 0
        for leaf in leaves:
            take = min(len(leaf) - i, count - done)
            leaf.blocks[_BLOCK * i : _BLOCK * (i + take)] = \
                data[_BLOCK * done : _BLOCK * (done + take)]
            done += take
            i = 0

    def _cut(self, run: Run) -> list[Leaf]:
        """``run`` as leaves: one when it fits in 2B - 1 blocks, else
        ``len // B`` leaves of near-equal size (each B to 2B - 1)."""
        m = len(run.texts)
        if not m:
            return []
        pieces = 1 if m <= self._cap else m // self._b
        base, extra = divmod(m, pieces)
        texts, blocks, leads, payloads = run
        n, p = RPC_NONCE_BYTES, PAYLOAD_BYTES
        leaves = []
        a = 0
        for piece in range(pieces):
            b = a + base + (piece < extra)
            leaves.append(Leaf(
                texts[a:b], blocks[_BLOCK * a : _BLOCK * b],
                None if leads is None else leads[n * a : n * b],
                None if payloads is None else payloads[p * a : p * b],
            ))
            a = b
        return leaves

    # -- verification ------------------------------------------------------

    def checkrep(self) -> None:
        """Validate the outer index, every leaf's columns and prefix
        sums, its outer item, and the leaf-size bounds."""
        self._outer.checkrep()
        leaves = list(self._outer.items())
        rank = chars = 0
        for leaf, width in leaves:
            m = len(leaf)
            if not 1 <= m <= self._cap:
                raise DataStructureError(
                    f"leaf of {m} blocks outside [1, {self._cap}]"
                )
            if len(leaves) > 1 and 2 * m < self._b:
                raise DataStructureError(
                    f"leaf of {m} blocks under half of B = {self._b}"
                )
            if leaf.ends != list(accumulate(map(len, leaf.texts))):
                raise DataStructureError("stale leaf prefix sums")
            if width != leaf.ends[-1]:
                raise DataStructureError(
                    f"outer width {width} != leaf chars {leaf.ends[-1]}"
                )
            if len(leaf.blocks) != _BLOCK * m or (
                leaf.leads is not None
                and (len(leaf.leads) != RPC_NONCE_BYTES * m
                     or len(leaf.payloads) != PAYLOAD_BYTES * m)
            ):
                raise DataStructureError("leaf columns out of step")
            value, first, start = self._outer.locate(rank)
            if value is not leaf or first != rank or start != chars:
                raise DataStructureError(
                    f"outer index places leaf at ({first}, {start}), "
                    f"expected ({rank}, {chars})"
                )
            rank += m
            chars += width
        if rank != len(self._outer) or chars != self._outer.total_chars:
            raise DataStructureError("outer totals out of step")


#: L: a split text leaf holds at most L characters, any text leaf at most 2L
LEAF_CHARS = 8_192

#: bytes fed to SHA-1 by every :class:`LeafText` digest, the store's and
#: the mirror's: the suffix after each change, not the whole text
_SHA1_BYTES = counter("crypto.sha1.bytes")


def _split(text: str) -> list[str]:
    """``text`` as leaves: itself up to 2L, else even parts of L/2 to L."""
    n = len(text)
    if n <= 2 * LEAF_CHARS:
        return [text] if text else []
    parts = -(-n // LEAF_CHARS)
    return [text[n * i // parts:n * (i + 1) // parts] for i in range(parts)]


class LeafText:
    """A mutable string stored as bounded leaves with SHA-1 midstates."""

    __slots__ = ("_leaves", "_ends", "_states", "walked")

    def __init__(self, text: str = "") -> None:
        self.reset(text)
        #: leaves the last :meth:`apply_delta` rewrote, neighbours it
        #: merged included
        self.walked = 0

    @property
    def length(self) -> int:
        """Length in characters, without joining."""
        return self._ends[-1] if self._ends else 0

    def join(self) -> str:
        """The whole text."""
        return "".join(self._leaves)

    def hexdigest(self) -> str:
        """SHA-1 of the text, fed the leaves from the first one changed
        since the last digest (equal to ``content_hash(self.join())``)."""
        leaves, states = self._leaves, self._states
        state = states[-1] if states else sha1()
        for leaf in leaves[len(states):]:
            data = leaf.encode()
            state = state.copy()
            state.update(data)
            _SHA1_BYTES.inc(len(data))
            states.append(state)
        return state.hexdigest()

    def reset(self, text: str) -> None:
        """Replace the whole text (a full save)."""
        self._leaves = _split(text)
        self._ends = list(accumulate(map(len, self._leaves)))
        #: ``_states[i]`` has hashed leaves ``0..i`` (UTF-8 encoded)
        self._states: list = []

    def apply_delta(self, delta: Delta) -> list[str]:
        """Apply ``delta`` in place, rewriting only the leaves it touches.

        Returns the text each ``Delete`` removed, in op order — what
        :meth:`Delta.inverse` needs to undo the edit.  Atomic: a delta
        that does not fit raises :class:`DeltaApplicationError` and
        leaves the text unchanged.
        """
        leaves, ends = self._leaves, self._ends
        length = self.length
        consumed = sum(op.count for op in delta.ops if type(op) is not Insert)
        if consumed > length:  # checked before anything changes
            raise DeltaApplicationError(
                f"delta consumes {consumed} chars, text has {length}")
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
            first, walked = 0, 1
        else:
            first, walked = len(leaves), 0
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
                first = min(first, lo)
        # every midstate from the first rewritten leaf on hashed text
        # that is gone
        del self._states[first:]
        self.walked = walked
        return deleted
