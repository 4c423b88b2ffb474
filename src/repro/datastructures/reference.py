"""Reference block index: a plain list with O(n) operations.

Used as the oracle in property tests (both real structures must agree
with it under arbitrary operation interleavings) and as the "naive"
lower bound in the structure ablation benchmark.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import DataStructureError

__all__ = ["ReferenceIndex"]


class ReferenceIndex:
    """Same interface as :class:`IndexedSkipList`, trivially correct."""

    def __init__(self) -> None:
        self._items: list[tuple[Any, int]] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def total_chars(self) -> int:
        return sum(width for _, width in self._items)

    def find_char(self, index: int) -> tuple[int, int]:
        """Locate the block containing character ``index``."""
        if index < 0:
            raise IndexError(f"char index {index} out of range")
        acc = 0
        for rank, (_, width) in enumerate(self._items):
            if acc + width > index:
                return rank, index - acc
            acc += width
        raise IndexError(f"char index {index} out of range [0, {acc})")

    def get(self, rank: int) -> tuple[Any, int]:
        """Return ``(value, width)`` of the block with ordinal ``rank``."""
        if not 0 <= rank < len(self._items):
            raise IndexError(f"rank {rank} out of range")
        return self._items[rank]

    def char_start(self, rank: int) -> int:
        """First character position covered by block ``rank``."""
        if not 0 <= rank <= len(self._items):
            raise IndexError(f"rank {rank} out of range")
        return sum(width for _, width in self._items[:rank])

    def get_range(self, ra: int, rb: int) -> list[tuple[Any, int]]:
        """Return ``(value, width)`` for every block in ranks ``[ra, rb)``."""
        if not 0 <= ra <= rb <= len(self._items):
            raise IndexError(f"range [{ra}, {rb}) out of range")
        return self._items[ra:rb]

    def splice(self, ra: int, rb: int, items) -> list[tuple[Any, int]]:
        """Replace ranks ``[ra, rb)`` with ``items``; return the removed
        ``(value, width)`` pairs."""
        if not 0 <= ra <= rb <= len(self._items):
            raise IndexError(f"range [{ra}, {rb}) out of range")
        items = list(items)
        for _, width in items:
            if width < 0:
                raise DataStructureError(f"width must be >= 0, got {width}")
        removed = self._items[ra:rb]
        self._items[ra:rb] = items
        return removed

    def extend(self, items) -> None:
        """Append blocks at the end."""
        self.splice(len(self._items), len(self._items), items)

    def items(self) -> Iterator[tuple[Any, int]]:
        """Yield ``(value, width)`` for every block in order."""
        return iter(list(self._items))

    def values(self) -> Iterator[Any]:
        """Yield every block value in order."""
        return iter([value for value, _ in self._items])

    def __iter__(self) -> Iterator[Any]:
        return self.values()

    def checkrep(self) -> None:
        """Nothing can go structurally wrong with a list."""
