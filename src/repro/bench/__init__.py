"""Benchmark harness utilities: the timing discipline, paper-style table
rendering, the sidecar writer, and the metrics column glue to
:mod:`repro.obs`."""

from repro.bench.reporting import (
    banner,
    metrics_cell,
    pct,
    render_table,
    write_sidecar,
)
from repro.bench.timing import REPS, Sample, ms_per_char, percentile

__all__ = ["REPS", "Sample", "percentile", "ms_per_char", "render_table",
           "pct", "banner", "metrics_cell", "write_sidecar"]
