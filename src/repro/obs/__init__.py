"""repro.obs — lightweight, zero-dependency metrics.

The paper's central performance claim (SV, Fig. 4-5) is *asymptotic*:
IncE touches only the edited cluster, doing ``O(log n + cluster)`` work
per delta.  Wall-clock benchmarks cannot distinguish a correct
implementation from one that quietly regressed to ``O(n)``
re-encryption on a fast machine — but *operation counts* can.  This
package provides the counting substrate:

* :class:`Counter`, :class:`Gauge`, :class:`Histogram` — the three
  instrument kinds, owned by a :class:`Registry` of dotted names;
* :func:`capture` — snapshot/diff context manager, the primitive the
  sub-linearity regression tests are written against;
* :mod:`repro.obs.export` — text and JSON renderings of a registry
  (the JSON form is the benchmark "metrics sidecar").

Every hot path of the library is instrumented against the process-global
default registry (:func:`default_registry`): the AES core counts block
invocations, the document engine counts blocks re-encrypted per delta,
the block indexes count search-path node visits, the channel counts
exchanges and wire bytes.  A timed path observes its seconds into a
histogram with :func:`time.perf_counter` (``doc.apply_delta_seconds``,
``server.shard.exec_seconds``); :func:`percentile` is the one
nearest-rank quantile rule, shared with the benchmark harnesses.
There is no tracing here yet: nothing follows one save across layers
(per-layer spans live in ``perfbench/tracing.py``).

The package is self-contained — it imports nothing from the rest of
``repro`` — so any layer may instrument itself without import cycles.
"""

from repro.obs.metrics import (
    Capture,
    Counter,
    Gauge,
    Histogram,
    Registry,
    capture,
    counter,
    default_registry,
    gauge,
    histogram,
    percentile,
    value_of,
)

__all__ = [
    "Capture",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "capture",
    "counter",
    "default_registry",
    "gauge",
    "histogram",
    "percentile",
    "value_of",
]
