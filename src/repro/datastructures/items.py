"""Item normalisation shared by the block indexes.

An index item is ``(value, width)`` — one element of ``width``
characters — or ``(value, width, count)``: one node standing for
``count`` consecutive elements, as the encrypted document's leaves do
(one node per leaf of ``count`` blocks).  Ranks count elements, so a
node of count ``c`` covers ``c`` consecutive ranks and rank arguments
that start or end a run must fall on node boundaries.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import DataStructureError

__all__ = ["weighted"]


def weighted(items: Iterable[tuple]) -> list[tuple[Any, int, int]]:
    """``items`` as ``(value, width, count)`` triples (a pair counts
    one element); rejects a negative width or a count below one."""
    out = []
    for item in items:
        if len(item) == 2:
            value, width = item
            count = 1
        else:
            value, width, count = item
        if width < 0:
            raise DataStructureError(f"width must be >= 0, got {width}")
        if count < 1:
            raise DataStructureError(f"count must be >= 1, got {count}")
        out.append((value, width, count))
    return out
