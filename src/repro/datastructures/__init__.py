"""Index structures for variable-length encrypted blocks.

:class:`IndexedSkipList` is the paper's data structure (SV-C);
:class:`IndexedAVL` is the deterministic balanced-tree variant the paper
sketches; :class:`ReferenceIndex` is the O(n) oracle used by tests and
ablation baselines.  All three implement the same interface — the
``BlockIndex`` protocol — so the encrypted-document layer is generic
over them.

The contract is six queries (``find_char``, ``get``, ``get_range``,
``char_start``, and ``locate`` / ``locate_char``, which return a node's
value with its first rank and first character) and two writers:
``splice(ra, rb, items)`` replaces a rank run, ``extend(items)``
appends (the bulk build).  The paper's Insert and Delete (SV-C) are
``splice(r, r, [block])`` and ``splice(r, r + 1, [])``.

An item may also be ``(value, width, count)``: one node standing for
``count`` consecutive ranks (:mod:`repro.datastructures.items`).  The
encrypted document's mirror indexes its leaves of blocks that way
(:mod:`repro.core.leaves`), one counted node per leaf.
"""

from typing import Any, Iterable, Iterator, Protocol, runtime_checkable

from repro.datastructures.indexed_avl import IndexedAVL
from repro.datastructures.indexed_skiplist import IndexedSkipList
from repro.datastructures.reference import ReferenceIndex


@runtime_checkable
class BlockIndex(Protocol):
    """Sequence of ``(value, width)`` blocks searchable by char index."""

    def __len__(self) -> int:  # pragma: no cover
        """Number of blocks."""
        ...

    @property
    def total_chars(self) -> int:  # pragma: no cover
        """Total characters across all blocks."""
        ...

    def find_char(self, index: int) -> tuple[int, int]:  # pragma: no cover
        """Locate the block containing character ``index`` as
        ``(rank, offset)``."""
        ...

    def get(self, rank: int) -> tuple[Any, int]:  # pragma: no cover
        """Return ``(value, width)`` of the block with ordinal ``rank``."""
        ...

    def get_range(self, ra: int, rb: int) -> list[tuple[Any, int]]:  # pragma: no cover
        """Return ``(value, width)`` for ranks ``[ra, rb)`` via one
        descent plus an in-order walk."""
        ...

    def char_start(self, rank: int) -> int:  # pragma: no cover
        """First character position covered by block ``rank``."""
        ...

    def locate(self, rank: int) -> tuple[Any, int, int]:  # pragma: no cover
        """``(value, first rank, first char)`` of the node covering
        ``rank``, in one descent."""
        ...

    def locate_char(self, index: int) -> tuple[Any, int, int]:  # pragma: no cover
        """``(value, first rank, first char)`` of the node holding
        character ``index``, in one descent."""
        ...

    def extend(self, items: Iterable[tuple[Any, int]]) -> None:  # pragma: no cover
        """Append blocks at the end (bulk build)."""
        ...

    def splice(
        self, ra: int, rb: int, items: Iterable[tuple[Any, int]]
    ) -> list[tuple[Any, int]]:  # pragma: no cover
        """Replace the contiguous rank run ``[ra, rb)`` with ``items``
        in one search-path walk; return the removed pairs."""
        ...

    def items(self) -> Iterator[tuple[Any, int]]:  # pragma: no cover
        """Yield ``(value, width)`` for every block in order."""
        ...

    def values(self) -> Iterator[Any]:  # pragma: no cover
        """Yield every block value in order."""
        ...

    def checkrep(self) -> None:  # pragma: no cover
        """Validate structural invariants (property-test hook)."""
        ...


__all__ = ["BlockIndex", "IndexedSkipList", "IndexedAVL", "ReferenceIndex"]
