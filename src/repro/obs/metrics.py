"""Instrument kinds and the registry.

Design constraints, in order:

1. **Hot-path cost.** ``Counter.inc`` sits inside ``AES.encrypt_block``
   and the skip-list search loops; it must be one slot attribute add,
   nothing more.  Callers in tight loops
   accumulate locally and ``inc(n)`` once per operation.
2. **No dependencies.** Pure stdlib, no imports from the rest of
   ``repro`` — every layer can instrument itself without cycles.
3. **Deterministic naming.** Instruments live in a flat dotted
   namespace (``crypto.aes.calls``); re-requesting a name returns the
   same instrument, and requesting it as a different kind is an error.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "Counter", "Gauge", "Histogram", "Registry", "Capture", "capture",
    "counter", "gauge", "histogram", "default_registry", "percentile",
    "value_of",
]


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by nearest rank (0.0 if
    empty) -- the one quantile rule of histograms and bench cells."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` events (callers batch loop-local counts into one call)."""
        self.value += n

    def reset(self) -> None:
        """Zero the count."""
        self.value = 0


class Gauge:
    """A value that goes up and down (current level of something)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def add(self, n: float) -> None:
        """Shift the current level by ``n`` (may be negative)."""
        self.value += n

    def reset(self) -> None:
        """Zero the level."""
        self.value = 0.0


class Histogram:
    """A distribution of observations with percentile summaries.

    Keeps exact ``count``/``total``/``min``/``max`` plus a bounded
    ring of the most recent observations (``max_samples``, default
    4096) from which percentiles are computed — long benchmark
    sessions cannot grow memory without bound.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_samples", "_max_samples", "_next")
    kind = "histogram"

    def __init__(self, name: str, max_samples: int = 4096):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self._max_samples = max_samples
        self.reset()

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self._max_samples:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % self._max_samples

    def reset(self) -> None:
        """Forget all observations."""
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._next = 0

    @property
    def mean(self) -> float:
        """Exact mean over *all* observations (not just retained ones)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of retained observations.

        Nearest-rank over the sample ring; exact while fewer than
        ``max_samples`` observations have been made.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return percentile(self._samples, q / 100.0)

    def summary(self) -> dict[str, float]:
        """The exported shape: count, sum, min/max, mean, p50/p90/p99."""
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class Registry:
    """A named, flat namespace of instruments.

    Creation is get-or-create: two calls with the same name return the
    same instrument (guarded by a lock so concurrent layers may
    register freely); the same name requested as a different kind
    raises ``ValueError``.
    """

    def __init__(self, name: str = "repro"):
        self.name = name
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}"
                    )
                return existing
            instrument = cls(name, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, max_samples: int = 4096) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(name, Histogram, max_samples=max_samples)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        """All registered instrument names, sorted."""
        return sorted(self._instruments)

    def instruments(self) -> Iterator[Counter | Gauge | Histogram]:
        """Yield every instrument in name order."""
        for name in self.names():
            yield self._instruments[name]

    def snapshot(self) -> dict[str, float]:
        """Scalar view of every instrument, for diffing.

        Counters and gauges map to their value; histograms map to their
        observation *count* (the diffable quantity).
        """
        out: dict[str, float] = {}
        for instrument in self.instruments():
            if isinstance(instrument, Histogram):
                out[instrument.name] = instrument.count
            else:
                out[instrument.name] = instrument.value
        return out

    def reset(self) -> None:
        """Zero every instrument (names stay registered)."""
        for instrument in self._instruments.values():
            instrument.reset()


_DEFAULT = Registry("repro")


def default_registry() -> Registry:
    """The process-global registry all library instrumentation uses."""
    return _DEFAULT


def counter(name: str) -> Counter:
    """Get or create ``name`` on the default registry."""
    return _DEFAULT.counter(name)


def gauge(name: str) -> Gauge:
    """Get or create ``name`` on the default registry."""
    return _DEFAULT.gauge(name)


def histogram(name: str, max_samples: int = 4096) -> Histogram:
    """Get or create ``name`` on the default registry."""
    return _DEFAULT.histogram(name, max_samples=max_samples)


def value_of(name: str, registry: Registry | None = None) -> float:
    """Scalar value of ``name`` (0 if unregistered) — snapshot semantics."""
    reg = registry if registry is not None else _DEFAULT
    instrument = reg.get(name)
    if instrument is None:
        return 0
    if isinstance(instrument, Histogram):
        return instrument.count
    return instrument.value


class Capture:
    """Deltas of every instrument across a :func:`capture` block.

    Indexable by metric name after the block exits; names absent from
    either snapshot read as 0 change.
    """

    def __init__(self) -> None:
        self._deltas: dict[str, float] = {}

    def _finish(self, before: dict[str, float],
                after: dict[str, float]) -> None:
        for name in set(before) | set(after):
            self._deltas[name] = after.get(name, 0) - before.get(name, 0)

    def __getitem__(self, name: str) -> float:
        return self._deltas.get(name, 0)

    def get(self, name: str, default: float = 0) -> float:
        """Delta for ``name``, or ``default`` if it never appeared."""
        return self._deltas.get(name, default)

    def nonzero(self) -> dict[str, float]:
        """All metrics that changed during the block."""
        return {k: v for k, v in sorted(self._deltas.items()) if v}


@contextmanager
def capture(registry: Registry | None = None) -> Iterator[Capture]:
    """Snapshot/diff context manager.

    ::

        with obs.capture() as cap:
            doc.apply_delta(delta)
        assert cap["crypto.aes.calls"] <= bound

    The yielded :class:`Capture` is populated when the block exits.
    """
    reg = registry if registry is not None else _DEFAULT
    cap = Capture()
    before = reg.snapshot()
    try:
        yield cap
    finally:
        cap._finish(before, reg.snapshot())
