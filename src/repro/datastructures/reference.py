"""Reference block index: a plain list with O(n) operations.

Used as the oracle in property tests (both real structures must agree
with it under arbitrary operation interleavings) and as the "naive"
lower bound in the structure ablation benchmark.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.datastructures.items import weighted
from repro.errors import DataStructureError

__all__ = ["ReferenceIndex"]


class ReferenceIndex:
    """Same interface as :class:`IndexedSkipList`, trivially correct."""

    def __init__(self) -> None:
        self._items: list[tuple[Any, int, int]] = []

    def __len__(self) -> int:
        return sum(count for _, _, count in self._items)

    @property
    def total_chars(self) -> int:
        return sum(width for _, width, _ in self._items)

    def _starts(self) -> list[tuple[int, int]]:
        """Each item's first rank and first character, then the totals."""
        starts = [(0, 0)]
        for _, width, count in self._items:
            rank, chars = starts[-1]
            starts.append((rank + count, chars + width))
        return starts

    def _position(self, rank: int, axis: int = 0) -> int:
        """List position of the item covering ``rank`` (``axis`` 0) or
        character ``rank`` (``axis`` 1)."""
        starts = self._starts()
        if rank >= 0:
            for position in range(len(self._items)):
                if starts[position + 1][axis] > rank:
                    return position
        raise IndexError(f"{('rank', 'char index')[axis]} {rank} "
                         "out of range")

    def _boundary(self, rank: int) -> int:
        """List position of the item starting at ``rank`` (or the end)."""
        for position, (first, _) in enumerate(self._starts()):
            if first == rank:
                return position
        raise DataStructureError(
            f"rank {rank} does not fall on an item boundary"
        )

    def find_char(self, index: int) -> tuple[int, int]:
        """Locate the block containing character ``index``."""
        _, rank, start = self.locate_char(index)
        return rank, index - start

    def locate_char(self, index: int) -> tuple[Any, int, int]:
        """The item holding character ``index``, as ``(value, rank,
        char)``: its value, first rank and first character."""
        position = self._position(index, axis=1)
        return self._items[position][0], *self._starts()[position]

    def locate(self, rank: int) -> tuple[Any, int, int]:
        """The item covering ``rank``, as ``(value, rank, char)``."""
        position = self._position(rank)
        return self._items[position][0], *self._starts()[position]

    def get(self, rank: int) -> tuple[Any, int]:
        """Return ``(value, width)`` of the block with ordinal ``rank``."""
        value, width, _ = self._items[self._position(rank)]
        return value, width

    def char_start(self, rank: int) -> int:
        """First character position covered by block ``rank``."""
        if rank == len(self):
            return self.total_chars
        return self._starts()[self._position(rank)][1]

    def get_range(self, ra: int, rb: int) -> list[tuple[Any, int]]:
        """Return ``(value, width)`` for every item covering ranks
        ``[ra, rb)``."""
        if not 0 <= ra <= rb <= len(self):
            raise IndexError(f"range [{ra}, {rb}) out of range")
        if ra == rb:
            return []
        lo, hi = self._position(ra), self._position(rb - 1)
        return [(value, width) for value, width, _ in self._items[lo:hi + 1]]

    def splice(self, ra: int, rb: int, items) -> list[tuple[Any, int]]:
        """Replace ranks ``[ra, rb)`` with ``items``; return the removed
        ``(value, width)`` pairs."""
        if not 0 <= ra <= rb <= len(self):
            raise IndexError(f"range [{ra}, {rb}) out of range")
        items = weighted(items)
        lo, hi = self._boundary(ra), self._boundary(rb)
        removed = [(value, width) for value, width, _ in self._items[lo:hi]]
        self._items[lo:hi] = items
        return removed

    def extend(self, items) -> None:
        """Append blocks at the end."""
        self.splice(len(self), len(self), items)

    def items(self) -> Iterator[tuple[Any, int]]:
        """Yield ``(value, width)`` for every block in order."""
        return iter([(value, width) for value, width, _ in self._items])

    def values(self) -> Iterator[Any]:
        """Yield every block value in order."""
        return iter([value for value, _, _ in self._items])

    def __iter__(self) -> Iterator[Any]:
        return self.values()

    def checkrep(self) -> None:
        """Nothing can go structurally wrong with a list."""
