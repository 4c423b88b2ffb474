"""The one timing discipline of the benchmark harnesses.

A timed cell is a :class:`Sample`: ``REPS`` laps of the same block,
summarised with one nearest-rank quantile rule
(:func:`repro.obs.percentile`, shared with the metric histograms) as
median, q1, q3 and n -- the four keys of every timing cell a sidecar
records.  The paper prints each figure as a mean with a deviation, so a
sample gives those too.  Operation counts come from
:func:`repro.obs.capture` around the same block.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.obs import percentile

__all__ = ["REPS", "CELL_KEYS", "Sample", "percentile", "ms_per_char"]

#: laps per timing cell; at 5 the nearest-rank quartiles are the second
#: and fourth laps, not the extremes
REPS = 5

#: a timing cell's keys, in the order every sidecar writes them
CELL_KEYS = ("median", "q1", "q3", "n")


@dataclass
class Sample:
    """Repeated observations of one cell: timed laps (seconds) or any
    derived values, such as paired overhead ratios."""

    values: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        """Record one observation."""
        self.values.append(value)

    @contextmanager
    def lap(self) -> Iterator[None]:
        """Time the block into one lap, in seconds."""
        start = time.perf_counter()
        yield
        self.values.append(time.perf_counter() - start)

    def map(self, fn: Callable[[float], float]) -> Sample:
        """The sample of ``fn`` over every value (laps to rates, say)."""
        return Sample([fn(value) for value in self.values])

    @property
    def median(self) -> float:
        return percentile(self.values, 0.50)

    @property
    def q1(self) -> float:
        return percentile(self.values, 0.25)

    @property
    def q3(self) -> float:
        return percentile(self.values, 0.75)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.values) if self.values else 0.0

    @property
    def dev(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return statistics.stdev(self.values)

    def cell(self, digits: int) -> dict[str, float]:
        """The sidecar timing cell: ``CELL_KEYS``, quantiles rounded."""
        return {"median": round(self.median, digits),
                "q1": round(self.q1, digits),
                "q3": round(self.q3, digits),
                "n": len(self)}

    def __len__(self) -> int:
        return len(self.values)


def ms_per_char(seconds: float, chars: int) -> float:
    """The paper's Fig. 4 normalization: milliseconds per character."""
    if chars == 0:
        return 0.0
    return seconds * 1000.0 / chars
