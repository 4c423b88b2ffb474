"""Benchmark output: paper-style tables and the BENCH sidecar writer.

Every figure-reproducing benchmark prints its rows in the same layout
the paper uses, so EXPERIMENTS.md can place them side by side; every
sidecar-writing script records its run through :func:`write_sidecar`.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
from typing import Mapping, Sequence

__all__ = ["render_table", "pct", "banner", "metrics_cell", "write_sidecar"]


def pct(fraction: float) -> str:
    """Format a fraction as the paper formats degradation percentages."""
    value = fraction * 100.0
    if value >= 10:
        return f"{value:.0f}%"
    return f"{value:.1f}%"


def banner(title: str) -> str:
    """Render a section banner around ``title``."""
    bar = "=" * max(len(title), 8)
    return f"\n{bar}\n{title}\n{bar}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned plain-text table.

    Every row must have exactly ``len(headers)`` cells; a ragged row
    raises ``ValueError`` naming the offender (instead of the
    ``IndexError`` deep in column sizing it used to produce).
    """
    for i, row in enumerate(rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {len(headers)} "
                f"(headers: {list(headers)!r}, row: {list(row)!r})"
            )
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [
        max(len(row[col]) for row in cells)
        for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(banner(title))
    header_line = "  ".join(
        cells[0][col].ljust(widths[col]) for col in range(len(headers))
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append(
            "  ".join(row[col].ljust(widths[col]) for col in range(len(headers)))
        )
    return "\n".join(lines)


def metrics_cell(deltas: Mapping[str, float],
                 names: Mapping[str, str] | None = None) -> str:
    """Format counter deltas as one compact table cell.

    ``names`` maps metric name -> short label (defaults to the last
    dotted component): ``{"crypto.aes.calls": "aes"}`` renders
    ``aes=123``.  Used for the metrics column of benchmark tables.
    """
    parts = []
    for name, value in deltas.items():
        label = (names or {}).get(name, name.rsplit(".", 1)[-1])
        parts.append(f"{label}={int(value)}")
    return " ".join(parts)


def _commit(where: pathlib.Path) -> str | None:
    """``git rev-parse HEAD`` of the checkout holding ``where``."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=where,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def write_sidecar(path: pathlib.Path, schema: str, fields: dict,
                  merge: Sequence[str] = ()) -> dict:
    """Write one ``BENCH_*.json`` sidecar; return its payload.

    ``fields`` are the run's top-level keys, ``current`` among them.
    The first run of ``schema`` seeds ``baseline`` with its ``current``
    and later runs keep it, except that a section of ``current`` the
    baseline lacks is seeded by its own first run; a file of another
    schema counts as no file, so a new schema re-seeds.  Each block
    named in ``merge`` (the per-service blocks) updates the previous
    run's instead of replacing it, so re-measuring one service keeps
    the others.  ``commit`` is the checkout's HEAD, or ``None`` outside
    a git checkout.
    """
    previous = json.loads(path.read_text()) if path.exists() else {}
    if previous.get("schema") != schema:
        previous = {}
    fields = dict(fields)
    for key in merge:
        fields[key] = {**(previous.get(key) or {}), **(fields.get(key) or {})}
    payload = {"schema": schema, "commit": _commit(path.parent),
               "baseline": {**fields["current"],
                            **(previous.get("baseline") or {})},
               **fields}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload
