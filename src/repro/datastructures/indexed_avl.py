"""IndexedAVL: deterministic alternative to the IndexedSkipList.

The paper notes (SV-C) that "the idea of indexing could also be applied
to any of the well-known balanced tree data structures (e.g., AVL tree,
2-3 tree, etc.) to develop a similar non-probabilistic data structure."
This module realizes that remark: an AVL tree whose nodes aggregate
subtree element counts and character widths, giving worst-case
``O(log n)`` find-by-character-index and ``O(log n + k + m)`` splice
of ``k`` blocks for ``m`` new ones.

It implements the same interface as
:class:`repro.datastructures.indexed_skiplist.IndexedSkipList`, counted
nodes included (a node of count ``c`` covers ``c`` ranks and adds ``c``
to its subtree's element count), so the encrypted document can index
its leaves with either (``bench_ablation_structures`` compares them
per block).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.datastructures.items import weighted
from repro.errors import DataStructureError
from repro.obs import counter

__all__ = ["IndexedAVL"]

#: shared with the skip list: nodes touched on any search/mutation path
_NODE_VISITS = counter("index.node_visits")
_SEARCHES = counter("index.searches")
#: range operations (one split/join path amortized over a rank run)
_SPLICES = counter("index.splices")
#: in-order steps taken inside get_range/splice — O(k), deliberately
#: separate from the O(log n) node_visits of the descents
_RANGE_VISITS = counter("index.range_visits")
_ROTATIONS = counter("index.avl.rotations")


class _Node:
    __slots__ = ("value", "width", "count", "left", "right", "height",
                 "sub_elems", "sub_chars")

    def __init__(self, value: Any, width: int, count: int = 1):
        self.value = value
        self.width = width
        self.count = count
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.height = 1
        self.sub_elems = count
        self.sub_chars = width


def _h(node: _Node | None) -> int:
    return node.height if node is not None else 0


def _elems(node: _Node | None) -> int:
    return node.sub_elems if node is not None else 0


def _chars(node: _Node | None) -> int:
    return node.sub_chars if node is not None else 0


def _refresh(node: _Node) -> None:
    node.height = 1 + max(_h(node.left), _h(node.right))
    node.sub_elems = node.count + _elems(node.left) + _elems(node.right)
    node.sub_chars = node.width + _chars(node.left) + _chars(node.right)


def _rotate_right(y: _Node) -> _Node:
    x = y.left
    assert x is not None
    _ROTATIONS.inc()
    y.left = x.right
    x.right = y
    _refresh(y)
    _refresh(x)
    return x


def _rotate_left(x: _Node) -> _Node:
    y = x.right
    assert y is not None
    _ROTATIONS.inc()
    x.right = y.left
    y.left = x
    _refresh(x)
    _refresh(y)
    return y


def _balance(node: _Node) -> _Node:
    _refresh(node)
    bal = _h(node.left) - _h(node.right)
    if bal > 1:
        assert node.left is not None
        if _h(node.left.left) < _h(node.left.right):
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if bal < -1:
        assert node.right is not None
        if _h(node.right.right) < _h(node.right.left):
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


def _join(left: _Node | None, pivot: _Node, right: _Node | None) -> _Node:
    """Join ``left`` + ``pivot`` + ``right`` (all ranks in that order)
    into one valid AVL in ``O(|h(left) - h(right)|)``.

    ``pivot`` is a detached node; its old child pointers are ignored.
    """
    hl, hr = _h(left), _h(right)
    if abs(hl - hr) <= 1:
        pivot.left = left
        pivot.right = right
        _refresh(pivot)
        return pivot
    if hl > hr:
        left.right = _join(left.right, pivot, right)
        return _balance(left)
    right.left = _join(left, pivot, right.left)
    return _balance(right)


def _join2(left: _Node | None, right: _Node | None) -> _Node | None:
    """Join two trees with no pivot: the minimum of ``right`` serves."""
    if left is None:
        return right
    if right is None:
        return left
    first = right
    while first.left is not None:
        first = first.left
    pivot_tree, rest = _split(right, first.count)
    assert pivot_tree is not None
    pivot_tree.left = pivot_tree.right = None
    return _join(left, pivot_tree, rest)


def _split(node: _Node | None, count: int) -> tuple[_Node | None, _Node | None]:
    """Split into (first ``count`` elements, the rest), both valid AVLs.

    ``count`` must fall on a node boundary; one that falls inside a
    counted node raises (a caller error: the tree is left undefined).
    """
    if node is None:
        return None, None
    _NODE_VISITS.inc()
    left_elems = _elems(node.left)
    if count <= left_elems:
        first, rest = _split(node.left, count)
        return first, _join(rest, node, node.right)
    if count < left_elems + node.count:
        raise DataStructureError(
            "split point falls inside a counted node"
        )
    first, rest = _split(node.right, count - left_elems - node.count)
    return _join(node.left, node, first), rest


def _build_balanced(items: list, lo: int, hi: int) -> _Node | None:
    """Build a perfectly balanced subtree over items[lo:hi]."""
    if lo >= hi:
        return None
    mid = (lo + hi) // 2
    node = _Node(*items[mid])
    node.left = _build_balanced(items, lo, mid)
    node.right = _build_balanced(items, mid + 1, hi)
    _refresh(node)
    return node


class IndexedAVL:
    """Order-statistic AVL over ``(value, width)`` blocks."""

    def __init__(self) -> None:
        self._root: _Node | None = None

    def __len__(self) -> int:
        return _elems(self._root)

    @property
    def total_chars(self) -> int:
        return _chars(self._root)

    # -- queries ------------------------------------------------------

    def find_char(self, index: int) -> tuple[int, int]:
        """Locate the block containing character ``index``.

        Returns ``(rank, offset)`` exactly like the skip list.
        """
        _, rank, start = self.locate_char(index)
        return rank, index - start

    def locate_char(self, index: int) -> tuple[Any, int, int]:
        """The node holding character ``index``, as ``(value, rank,
        char)``: its value, first rank and first character."""
        if not 0 <= index < self.total_chars:
            raise IndexError(
                f"char index {index} out of range [0, {self.total_chars})"
            )
        node = self._root
        rank = 0
        start = 0
        visits = 0
        _SEARCHES.inc()
        while node is not None:
            visits += 1
            left_chars = _chars(node.left)
            if index < start + left_chars:
                node = node.left
            elif index < start + left_chars + node.width:
                _NODE_VISITS.inc(visits)
                return (node.value, rank + _elems(node.left),
                        start + left_chars)
            else:
                rank += _elems(node.left) + node.count
                start += left_chars + node.width
                node = node.right
        raise DataStructureError("find_char fell off the tree")

    def locate(self, rank: int) -> tuple[Any, int, int]:
        """The node covering ``rank``, as ``(value, rank, char)``: its
        value, first rank and first character."""
        node, first, start = self._node_at(rank)
        return node.value, first, start

    def _node_at(self, rank: int) -> tuple[_Node, int, int]:
        """The node covering ``rank``, its first rank and first char."""
        if not 0 <= rank < len(self):
            raise IndexError(f"rank {rank} out of range [0, {len(self)})")
        node = self._root
        first = 0
        start = 0
        visits = 0
        _SEARCHES.inc()
        while node is not None:
            visits += 1
            left = _elems(node.left)
            if rank < first + left:
                node = node.left
            elif rank < first + left + node.count:
                _NODE_VISITS.inc(visits)
                return node, first + left, start + _chars(node.left)
            else:
                first += left + node.count
                start += _chars(node.left) + node.width
                node = node.right
        raise DataStructureError("_node_at fell off the tree")

    def get(self, rank: int) -> tuple[Any, int]:
        """Return ``(value, width)`` of the block with ordinal ``rank``."""
        node, _, _ = self._node_at(rank)
        return node.value, node.width

    def char_start(self, rank: int) -> int:
        """First character position covered by block ``rank``."""
        if not 0 <= rank <= len(self):
            raise IndexError(f"rank {rank} out of range [0, {len(self)}]")
        if rank == len(self):
            return self.total_chars
        return self.locate(rank)[2]

    def get_range(self, ra: int, rb: int) -> list[tuple[Any, int]]:
        """Return ``(value, width)`` for every block in ranks ``[ra, rb)``.

        One descent to rank ``ra`` plus an in-order walk of ``rb - ra``
        steps — versus ``rb - ra`` full descents for a :meth:`get` loop.
        """
        if not 0 <= ra <= rb <= len(self):
            raise IndexError(
                f"range [{ra}, {rb}) out of range [0, {len(self)}]"
            )
        count = rb - ra
        if count == 0:
            return []
        _SEARCHES.inc()
        out: list[tuple[Any, int]] = []
        stack: list[_Node] = []
        node = self._root
        r = ra
        visits = 0
        while node is not None:
            visits += 1
            left = _elems(node.left)
            if r < left:
                stack.append(node)
                node = node.left
            elif r < left + node.count:
                count += r - left  # ranks of the first node before ra
                break
            else:
                r -= left + node.count
                node = node.right
        _NODE_VISITS.inc(visits)
        while node is not None and count > 0:
            out.append((node.value, node.width))
            count -= node.count
            if node.right is not None:
                node = node.right
                while node.left is not None:
                    stack.append(node)
                    node = node.left
            else:
                node = stack.pop() if stack else None
        _RANGE_VISITS.inc(len(out))
        return out

    # -- mutations ------------------------------------------------------

    def splice(
        self, ra: int, rb: int, items: "Iterable[tuple[Any, int]]"
    ) -> list[tuple[Any, int]]:
        """Replace ranks ``[ra, rb)`` with ``items``; return the removed
        ``(value, width)`` pairs.

        Implemented join-style: split out the doomed run, build a
        perfectly balanced subtree over the replacements, and join the
        three parts back — ``O(log n + k + m)``, one rebalance path per
        split/join.
        """
        if not 0 <= ra <= rb <= len(self):
            raise IndexError(
                f"range [{ra}, {rb}) out of range [0, {len(self)}]"
            )
        items = weighted(items)
        _SPLICES.inc()
        _SEARCHES.inc()
        left, rest = _split(self._root, ra)
        doomed, right = _split(rest, rb - ra)
        removed: list[tuple[Any, int]] = []
        stack: list[_Node] = []
        node = doomed
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            removed.append((node.value, node.width))
            node = node.right
        _RANGE_VISITS.inc(len(removed))
        middle = _build_balanced(items, 0, len(items))
        self._root = _join2(_join2(left, middle), right)
        return removed

    def extend(self, items: "Iterable[tuple[Any, int]]") -> None:
        """Append blocks at the end; O(n) when the tree starts empty
        (perfectly balanced build), a :meth:`splice` at the end
        otherwise."""
        if self._root is not None:
            self.splice(len(self), len(self), items)
            return
        items = weighted(items)
        self._root = _build_balanced(items, 0, len(items))

    # -- iteration ------------------------------------------------------

    def items(self) -> Iterator[tuple[Any, int]]:
        """Yield ``(value, width)`` for every block in order."""
        stack: list[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.value, node.width
            node = node.right

    def values(self) -> Iterator[Any]:
        """Yield every block value in order."""
        for value, _ in self.items():
            yield value

    def __iter__(self) -> Iterator[Any]:
        return self.values()

    # -- verification ------------------------------------------------------

    def checkrep(self) -> None:
        """Validate AVL balance and aggregate invariants."""

        def walk(node: _Node | None) -> tuple[int, int, int]:
            if node is None:
                return 0, 0, 0
            lh, le, lc = walk(node.left)
            rh, re, rc = walk(node.right)
            if abs(lh - rh) > 1:
                raise DataStructureError("AVL balance violated")
            if node.count < 1:
                raise DataStructureError("node counts fewer than one element")
            height = 1 + max(lh, rh)
            elems = node.count + le + re
            chars = node.width + lc + rc
            if node.height != height:
                raise DataStructureError("stale height")
            if node.sub_elems != elems:
                raise DataStructureError("stale sub_elems")
            if node.sub_chars != chars:
                raise DataStructureError("stale sub_chars")
            return height, elems, chars

        walk(self._root)
