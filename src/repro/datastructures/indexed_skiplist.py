"""IndexedSkipList: the paper's block-index data structure (SV-C).

A classic SkipList [Pugh 90] orders elements by *key*; the paper's
variant attaches a ``skip_count`` to every forward pointer so the list
can be searched by **character index** instead (Algorithm 1).  That is
what makes variable-length multi-character blocks workable: inserting or
deleting a block shifts every later character position, but only the
``O(log n)`` pointers on the search path need their counts adjusted —
no block is re-aligned or re-encrypted.

This implementation generalizes the paper's description slightly: each
pointer carries *two* counts, elements skipped and characters skipped.
The element count gives each block's ordinal (its record index on the
wire, which ciphertext deltas are expressed in) at no extra asymptotic
cost; the character count is the paper's ``skip_count``.

Node layout: a node *is* one flat list, ``node[3*i]`` (the forward
pointer at level ``i``), ``node[3*i + 1]`` (elements spanned) and
``node[3*i + 2]`` (characters spanned) for each of its levels, then
``node[-3]`` (the elements it stands for), ``node[-2]`` (the value) and
``node[-1]`` (the width), so each node adds one container for the
cyclic garbage collector to walk.

Counted nodes: an item ``(value, width, count)`` makes one node that
stands for ``count`` consecutive elements (:mod:`repro.datastructures.items`),
and the element spans add up counts instead of nodes.  The encrypted
document indexes its leaves this way — one node per leaf, counted in
blocks — so a rank is a block rank and ``find_char`` returns the
leaf's first block.  Plain ``(value, width)`` items count one each.

Span convention: for a node ``x`` and level ``i``, the element and
character spans count the elements/characters strictly after ``x`` up
to and *including* the node ``x`` points to at level ``i``; pointers to
the end of the list count everything remaining.  All operations are
expected ``O(log n)``; ``checkrep`` validates every span and is run by
the property tests after each mutation.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Iterator

from repro.datastructures.items import weighted
from repro.errors import DataStructureError
from repro.obs import counter

__all__ = ["IndexedSkipList"]

_MAX_LEVEL = 32

#: horizontal search-path steps (shared with IndexedAVL) — the paper's
#: O(log n) claim for Algorithm 1, made countable
_NODE_VISITS = counter("index.node_visits")
_SEARCHES = counter("index.searches")
#: range operations (one descent amortized over a whole rank run)
_SPLICES = counter("index.splices")
#: level-0 steps taken inside get_range/splice — O(k), deliberately
#: separate from the O(log n) node_visits of the descents
_RANGE_VISITS = counter("index.range_visits")


#: a node: ``[next_0, elems_0, chars_0, ..., count, value, width]``.
#: Nodes are lists that point at each other, so they are compared with
#: ``is`` and keyed by ``id`` — ``==`` or ``in`` would walk the chain
_Node = list


def _new_node(value: Any, width: int, level: int, count: int = 1) -> _Node:
    node: _Node = [None, 0, 0] * level
    node.append(count)
    node.append(value)
    node.append(width)
    return node


def _level(node: _Node) -> int:
    return len(node) // 3 - 1


class IndexedSkipList:
    """Sequence of ``(value, width)`` blocks indexable by char position.

    Parameters
    ----------
    p:
        Pole-growth probability (paper's SkipList parameter; 0.5 default).
    rng:
        Source for pole heights.  Pass a seeded ``random.Random`` for
        reproducible structure (benchmarks do).
    """

    def __init__(self, p: float = 0.5, rng: random.Random | None = None):
        if not 0.0 < p < 1.0:
            raise DataStructureError(f"p must be in (0, 1), got {p}")
        self._p = p
        self._rng = rng if rng is not None else random.Random()
        self._head = _new_node(None, 0, _MAX_LEVEL, 0)
        self._level = 1  # number of levels currently in use
        self._size = 0
        self._chars = 0

    # -- basic properties ----------------------------------------------

    def __len__(self) -> int:
        """Number of blocks."""
        return self._size

    @property
    def total_chars(self) -> int:
        """Total characters across all blocks."""
        return self._chars

    # -- internal helpers ------------------------------------------------

    def _random_level(self) -> int:
        level = 1
        while level < _MAX_LEVEL and self._rng.random() < self._p:
            level += 1
        return level

    def _check_rank(self, rank: int, upper: int) -> None:
        if not 0 <= rank < upper:
            raise IndexError(f"rank {rank} out of range [0, {upper})")

    def _predecessors(self, rank: int) -> tuple[list[_Node], list[int], list[int]]:
        """Search path to the node of rank ``rank``.

        Returns per-level predecessor nodes together with each
        predecessor's rank and end-character position (characters up to
        and including that node).
        """
        update: list[_Node] = [self._head] * self._level
        ranks = [0] * self._level
        cends = [0] * self._level
        x = self._head
        pos = -1
        cend = 0
        visits = 0
        for i in range(self._level - 1, -1, -1):
            j = 3 * i
            nxt = x[j]
            while nxt is not None:
                step = pos + x[j + 1]
                if step >= rank:
                    break
                pos = step
                cend += x[j + 2]
                x = nxt
                nxt = x[j]
                visits += 1
            update[i] = x
            ranks[i] = pos
            cends[i] = cend
        _SEARCHES.inc()
        _NODE_VISITS.inc(visits)
        return update, ranks, cends

    # -- queries ---------------------------------------------------------

    def find_char(self, index: int) -> tuple[int, int]:
        """Locate the block containing character ``index``.

        Returns ``(rank, offset)``: the block's ordinal and the position
        of the character within it.  This is Algorithm 1 of the paper
        (descend the poles, subtracting ``skip_count``), returning the
        block instead of a single character.
        """
        _, rank, start = self.locate_char(index)
        return rank, index - start

    def locate_char(self, index: int) -> tuple[Any, int, int]:
        """The node holding character ``index``, as ``(value, rank,
        char)``: its value, first rank and first character."""
        if not 0 <= index < self._chars:
            raise IndexError(
                f"char index {index} out of range [0, {self._chars})"
            )
        x = self._head
        pos = -1
        cend = 0
        visits = 0
        for j in range(3 * self._level - 3, -1, -3):
            nxt = x[j]
            while nxt is not None:
                end = cend + x[j + 2]
                if end > index:
                    break
                pos += x[j + 1]
                cend = end
                x = nxt
                nxt = x[j]
                visits += 1
        _SEARCHES.inc()
        _NODE_VISITS.inc(visits)
        node = x[0]
        assert node is not None  # index < total_chars guarantees this
        return node[-2], pos + 1, cend

    def get(self, rank: int) -> tuple[Any, int]:
        """Return ``(value, width)`` of the block with ordinal ``rank``."""
        node, _, _ = self._node_at(rank)
        return node[-2], node[-1]

    def locate(self, rank: int) -> tuple[Any, int, int]:
        """The node covering ``rank``, as ``(value, rank, char)``: its
        value, first rank and first character."""
        node, pos, cend = self._node_at(rank)
        return node[-2], pos - node[-3] + 1, cend - node[-1]

    def _node_at(self, rank: int) -> tuple[_Node, int, int]:
        """The node covering ``rank`` with its last rank and end char."""
        self._check_rank(rank, self._size)
        x = self._head
        pos = -1
        cend = 0
        visits = 0
        for i in range(self._level - 1, -1, -1):
            j = 3 * i
            nxt = x[j]
            while nxt is not None:
                step = pos + x[j + 1]
                if step - nxt[-3] >= rank:  # nxt starts past rank
                    break
                pos = step
                cend += x[j + 2]
                x = nxt
                nxt = x[j]
                visits += 1
        _SEARCHES.inc()
        _NODE_VISITS.inc(visits)
        assert pos - x[-3] < rank <= pos
        return x, pos, cend

    def char_start(self, rank: int) -> int:
        """First character position covered by block ``rank``."""
        self._check_rank(rank, self._size + 1)  # size allowed: end position
        if rank == self._size:
            return self._chars
        _, ranks, cends = self._predecessors(rank)
        return cends[0]

    def get_range(self, ra: int, rb: int) -> list[tuple[Any, int]]:
        """Return ``(value, width)`` for every node covering ranks
        ``[ra, rb)``.

        One ``O(log n)`` descent to rank ``ra`` plus a level-0 walk of
        one step per node — versus one full descent per node for the
        equivalent :meth:`get` loop.
        """
        if not 0 <= ra <= rb <= self._size:
            raise IndexError(
                f"range [{ra}, {rb}) out of range [0, {self._size}]"
            )
        if ra == rb:
            return []
        update, ranks, _ = self._predecessors(ra)
        out: list[tuple[Any, int]] = []
        node = update[0][0]
        covered = ranks[0] + 1
        while covered < rb:
            assert node is not None
            out.append((node[-2], node[-1]))
            covered += node[-3]
            node = node[0]
        _RANGE_VISITS.inc(len(out))
        return out

    # -- mutations ---------------------------------------------------------

    def splice(
        self, ra: int, rb: int, items: Iterable[tuple[Any, int]]
    ) -> list[tuple[Any, int]]:
        """Replace ranks ``[ra, rb)`` with ``items``; return the removed
        ``(value, width)`` pairs.

        One predecessor-array walk serves the whole operation: the dead
        run is unlinked level by level along the existing pointers
        (``O(k)`` extra steps, counted in ``index.range_visits``) and the
        new nodes are threaded in ``extend``-style from the same
        predecessor state — no per-rank searches.  The paper's Insert
        and Delete are ``splice(r, r, [block])`` and
        ``splice(r, r + 1, [])``.  With counted nodes ``ra`` and ``rb``
        must fall on node boundaries.
        """
        if not 0 <= ra <= rb <= self._size:
            raise IndexError(
                f"range [{ra}, {rb}) out of range [0, {self._size}]"
            )
        items = weighted(items)
        update, ranks, cends = self._predecessors(ra)

        # Collect the dead run [ra, rb) before touching any pointer.
        removed: list[tuple[Any, int]] = []
        dead_ids: set[int] = set()
        walk_steps = 0
        node = update[0][0]
        removed_chars = 0
        k = 0
        while k < rb - ra:
            assert node is not None
            removed.append((node[-2], node[-1]))
            removed_chars += node[-1]
            k += node[-3]
            dead_ids.add(id(node))
            node = node[0]
            walk_steps += 1
        if ranks[0] + 1 != ra or k != rb - ra:
            raise DataStructureError(
                f"splice [{ra}, {rb}) does not fall on node boundaries"
            )
        _SPLICES.inc()
        # Unlink it.  Each level's pointers are fixed by walking only the
        # dead nodes linked at that level, so total work is O(k)
        # expected beyond the one descent above.
        if dead_ids:
            for i in range(self._level):
                j = 3 * i
                pred = update[i]
                nxt, span_e, span_c = pred[j], pred[j + 1], pred[j + 2]
                while nxt is not None and id(nxt) in dead_ids:
                    span_e += nxt[j + 1]
                    span_c += nxt[j + 2]
                    nxt = nxt[j]
                    walk_steps += 1
                pred[j] = nxt
                pred[j + 1] = span_e - k
                pred[j + 2] = span_c - removed_chars
            self._size -= k
            self._chars -= removed_chars
        _RANGE_VISITS.inc(walk_steps)

        # Thread the replacement nodes in, reusing the predecessor state
        # (still valid: every removed rank was >= ra > each pred's rank).
        last_node: list[_Node] = list(update)
        last_rank: list[int] = list(ranks)
        last_cend: list[int] = list(cends)
        rank = ra
        cstart = cends[0]
        for value, width, count in items:
            level = self._random_level()
            if level > self._level:
                head = self._head
                for i in range(self._level, level):
                    head[3 * i : 3 * i + 3] = [None, self._size, self._chars]
                    last_node.append(self._head)
                    last_rank.append(-1)
                    last_cend.append(0)
                self._level = level
            node = _new_node(value, width, level, count)
            end_new = cstart + width
            pos = rank + count - 1  # the node's last rank
            for i in range(level):
                j = 3 * i
                pred = last_node[i]
                node[j] = pred[j]
                node[j + 1] = last_rank[i] + pred[j + 1] + 1 - rank
                node[j + 2] = last_cend[i] + pred[j + 2] - cstart
                pred[j] = node
                pred[j + 1] = pos - last_rank[i]
                pred[j + 2] = end_new - last_cend[i]
                last_node[i] = node
                last_rank[i] = pos
                last_cend[i] = end_new
            for i in range(level, self._level):
                upper = last_node[i]
                upper[3 * i + 1] += count
                upper[3 * i + 2] += width
            self._size += count
            self._chars += width
            rank += count
            cstart = end_new

        while (self._level > 1
               and self._head[3 * (self._level - 1)] is None):
            self._level -= 1
        return removed

    def extend(self, items: Iterable[tuple[Any, int]]) -> None:
        """Append blocks at the end in O(n) total (bulk build).

        Equivalent to ``splice(len(self), len(self), items)``, but
        builds the pointers in one left-to-right pass with no per-node
        tail fix-ups — this is what makes whole-document encryption
        (10k+ blocks) cheap.
        """
        items = weighted(items)
        if not items:
            return
        update, ranks, cends = self._predecessors(self._size)
        last: list[tuple[_Node, int, int]] = [
            (update[i], ranks[i], cends[i]) for i in range(self._level)
        ]
        rank = self._size
        chars = self._chars
        for value, width, count in items:
            level = self._random_level()
            while self._level < level:
                last.append((self._head, -1, 0))
                self._level += 1
            node = _new_node(value, width, level, count)
            end = chars + width
            pos = rank + count - 1  # the node's last rank
            for i in range(level):
                prev_node, prev_rank, prev_cend = last[i]
                j = 3 * i
                prev_node[j] = node
                prev_node[j + 1] = pos - prev_rank
                prev_node[j + 2] = end - prev_cend
                last[i] = (node, pos, end)
            rank += count
            chars = end
        self._size = rank
        self._chars = chars
        for i in range(self._level):
            node, last_rank, last_cend = last[i]
            node[3 * i : 3 * i + 3] = [
                None, self._size - 1 - last_rank, self._chars - last_cend
            ]

    # -- iteration -----------------------------------------------------------

    def items(self) -> Iterator[tuple[Any, int]]:
        """Yield ``(value, width)`` for every block in order."""
        x = self._head[0]
        while x is not None:
            yield x[-2], x[-1]
            x = x[0]

    def values(self) -> Iterator[Any]:
        """Yield every block value in order (walks the nodes itself:
        ``EncryptedDocument.text`` joins through this on every open
        and full save, and re-yielding :meth:`items` doubled its
        cost)."""
        x = self._head[0]
        while x is not None:
            yield x[-2]
            x = x[0]

    def __iter__(self) -> Iterator[Any]:
        return self.values()

    # -- verification -----------------------------------------------------

    def checkrep(self) -> None:
        """Validate every structural invariant (property-test hook).

        Checks, at every level: forward pointers reach exactly the
        level-0 nodes of sufficient height, and every span equals the
        true element/character distance it claims to summarize.
        """
        # Walk level 0 to establish ground truth.
        nodes: list[_Node] = []
        x = self._head[0]
        while x is not None:
            nodes.append(x)
            x = x[0]
        if any(n[-3] < 1 for n in nodes):
            raise DataStructureError("node counts fewer than one element")
        if sum(n[-3] for n in nodes) != self._size:
            raise DataStructureError(
                f"size {self._size} != level-0 count "
                f"{sum(n[-3] for n in nodes)}"
            )
        if sum(n[-1] for n in nodes) != self._chars:
            raise DataStructureError("total_chars out of sync")

        #: per node: its last rank and its end character
        ends: dict[int, tuple[int, int]] = {}
        pos, acc = -1, 0
        for n in nodes:
            pos += n[-3]
            acc += n[-1]
            ends[id(n)] = (pos, acc)

        def elems_between(a: _Node | None, b: _Node | None) -> tuple[int, int]:
            pa, ca = (-1, 0) if a is self._head else ends[id(a)]
            if b is None:
                return self._size - 1 - pa, self._chars - ca
            pb, cb = ends[id(b)]
            return pb - pa, cb - ca

        for i in range(self._level):
            x = self._head
            while True:
                nxt, span_e, span_c = x[3 * i : 3 * i + 3]
                de, dc = elems_between(x, nxt)
                if span_e != de or span_c != dc:
                    raise DataStructureError(
                        f"span mismatch at level {i}: "
                        f"claims ({span_e}, {span_c}), "
                        f"actual ({de}, {dc})"
                    )
                if nxt is None:
                    break
                if _level(nxt) <= i:
                    raise DataStructureError(
                        f"node of height {_level(nxt)} linked at level {i}"
                    )
                x = nxt
        for i in range(self._level, _MAX_LEVEL):
            if self._head[3 * i] is not None:
                raise DataStructureError("pointer above list level")
