#!/usr/bin/env python3
"""docs-check: fail when the docs drift from the source tree.

The documentation cites three kinds of machine-checkable names, always
in backticks:

* **metric names** (``net.faults.injected``, ``client.retries.*``) —
  must exist in the obs registry after importing every ``repro``
  module (a trailing ``.*`` checks the prefix has at least one metric);
* **module / attribute paths** (``repro.net.faults.FaultPlan``) — must
  import / resolve;
* **repo file paths** (``src/repro/net/faults.py``,
  ``tests/chaos/test_fault_matrix.py::test_...``) — must exist on disk
  (a ``::test`` suffix additionally greps the named test into the
  file).

Anything else in backticks (shell lines, field names, prose) is
ignored.

It also validates the **benchmark sidecars** at the repo root: any
``BENCH_*.json`` present must declare a known ``schema`` string and
carry that schema's required keys, ``commit`` among them (for
``repro.bench.load/v1``, every measured cell must report ``sessions``,
``edits_per_sec``, ``save_p50_ms`` and ``save_p99_ms`` — the numbers
EXPERIMENTS.md quotes).  In a ``/v2`` sidecar every timing cell must be
``{"median", "q1", "q3", "n"}`` in that order, with
``q1 <= median <= q3``.  A missing sidecar is fine (they are build
artifacts); a malformed one is drift.

Run via ``make docs-check`` (part of ``make test``); exits non-zero
listing every stale citation with its file and line.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import pkgutil
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: the documents whose citations are contractual
DOCS = sorted(REPO.glob("docs/*.md")) + [
    REPO / "EXPERIMENTS.md", REPO / "README.md",
]

BACKTICKED = re.compile(r"`([^`\n]+)`")
#: dotted lowercase name, optionally ending in ".*" — metric shaped
METRIC = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+(\.\*)?$")
#: python path rooted at the package
MODULE = re.compile(r"^repro(\.[A-Za-z_][A-Za-z0-9_]*)+$")
#: repo-relative file, optionally with a ::test_name suffix
FILEPATH = re.compile(
    r"^(src|tests|docs|benchmarks|examples|tools)/[\w./-]+"
    r"(::[\w\[\]-]+)?$"
)


def _load_registry() -> tuple[set[str], set[str]]:
    """Import the whole package; return (metric names, scope roots)."""
    sys.path.insert(0, str(REPO / "src"))
    repro = importlib.import_module("repro")
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # running the CLI module would parse argv
        importlib.import_module(info.name)
    from repro.obs import default_registry
    names = set(default_registry().snapshot())
    return names, {name.split(".")[0] for name in names}


def _check_metric(token: str, metrics: set[str]) -> str | None:
    if token.endswith(".*"):
        prefix = token[:-1]  # keep the trailing dot
        if any(name.startswith(prefix) for name in metrics):
            return None
        return f"no metric under prefix {token!r} in the obs registry"
    if token in metrics:
        return None
    return f"metric {token!r} not in the obs registry"


def _check_module(token: str) -> str | None:
    parts = token.split(".")
    # longest importable prefix, then attribute traversal for the rest
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(name)
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return (f"{token!r}: module {name!r} has no "
                        f"attribute {attr!r}")
            obj = getattr(obj, attr)
        return None
    return f"{token!r} does not import"


def _check_filepath(token: str) -> str | None:
    path, _, test = token.partition("::")
    target = REPO / path
    if not target.exists():
        return f"path {path!r} does not exist"
    if test:
        test_name = test.split("[")[0]  # strip parametrize ids
        content = target.read_text()
        if f"def {test_name}" not in content and \
                f"class {test_name}" not in content:
            return f"{path!r} defines no test {test_name!r}"
    return None


#: sidecar filename -> (expected schema, top-level required keys)
SIDECARS = {
    "BENCH_edit_throughput.json": (
        "repro.bench.edit_throughput/v2", ("commit", "current")),
    "BENCH_faults.json": (
        "repro.bench.faults/v2", ("commit", "current", "seed")),
    "BENCH_load.json": (
        "repro.bench.load/v1", ("commit", "current", "seed", "fault_rate")),
    "BENCH_collab.json": (
        "repro.bench.collab/v1",
        ("commit", "current", "seed", "writer_counts")),
    "BENCH_search.json": ("repro.bench.search/v2", ("commit", "current")),
}

#: where each v2 sidecar keeps its timing cells: block -> key path,
#: ``*`` standing for every key at that level
_EVERY_CELL = {"baseline": ("*", "*"), "current": ("*", "*")}
TIMING_CELLS = {
    "repro.bench.edit_throughput/v2": _EVERY_CELL,
    "repro.bench.search/v2": _EVERY_CELL,
    "repro.bench.faults/v2": {
        "baseline": ("*", "edits_per_sec"),
        "current": ("*", "edits_per_sec"),
        "services": ("*", "*", "edits_per_sec"),
    },
}

#: every repro.bench.search/v2 block must carry these sections (the
#: scaling curves, warm and cold queries, plus the indexing-overhead
#: gate cells)
SEARCH_SECTIONS = ("query_usec", "query_cold_usec", "index_update",
                   "audit_verify_ms", "burst_overhead")

#: every measured load cell must report these (the chart axes)
LOAD_CELL_KEYS = ("sessions", "edits_per_sec", "save_p50_ms",
                  "save_p99_ms", "latency_source")

#: every measured collaboration cell must report these (the axes of
#: the conflict-rate and convergence-time charts, plus the oracles)
COLLAB_CELL_KEYS = ("writers", "conflict_rate", "merges", "converged",
                    "convergence_s", "leak_clean")


def _check_load_rows(payload: dict) -> list[str]:
    """repro.bench.load/v1: every cell row carries the chart axes."""
    errors = []
    for block_name in ("baseline", "current"):
        block = payload.get(block_name) or {}
        for service, rows in block.items():
            if not isinstance(rows, dict):
                continue
            for label, row in rows.items():
                if not isinstance(row, dict):
                    continue  # scalar entries like scaling_x_1000
                missing = [k for k in LOAD_CELL_KEYS if k not in row]
                if missing:
                    errors.append(
                        f"{block_name}.{service}.{label} lacks "
                        f"{', '.join(missing)}")
    return errors


def _check_collab_rows(payload: dict) -> list[str]:
    """repro.bench.collab/v1: every cell row carries its chart axes."""
    errors = []
    for block_name in ("baseline", "current"):
        block = payload.get(block_name) or {}
        for variant, rows in block.items():
            if variant == "headline" or not isinstance(rows, dict):
                continue
            for label, row in rows.items():
                if not isinstance(row, dict):
                    continue
                missing = [k for k in COLLAB_CELL_KEYS if k not in row]
                if missing:
                    errors.append(
                        f"{block_name}.{variant}.{label} lacks "
                        f"{', '.join(missing)}")
    return errors


def _check_search_rows(payload: dict) -> list[str]:
    """repro.bench.search/v2: every block carries every section of
    ``SEARCH_SECTIONS``, each a non-empty mapping of cells."""
    errors = []
    for block_name in ("baseline", "current"):
        block = payload.get(block_name) or {}
        for section in SEARCH_SECTIONS:
            rows = block.get(section)
            if not isinstance(rows, dict) or not rows:
                errors.append(f"{block_name}.{section} missing or empty")
    return errors


def _walk(node, path: tuple, label: str):
    """(label, value) at every end of ``path`` below ``node``."""
    if not path:
        yield label, node
    elif isinstance(node, dict):
        keys = node if path[0] == "*" else [path[0]]
        for key in keys:
            yield from _walk(node.get(key), path[1:], f"{label}.{key}")
    else:
        yield label, node  # a scalar where a block belongs


def _check_timing_cells(schema: str, payload: dict) -> list[str]:
    """/v2: each timing cell is exactly ``CELL_KEYS``, in order, with
    its quartiles around its median."""
    from repro.bench.timing import CELL_KEYS

    errors = []
    for block_name, path in TIMING_CELLS.get(schema, {}).items():
        for label, cell in _walk(payload.get(block_name), path,
                                 block_name):
            if not isinstance(cell, dict) or tuple(cell) != CELL_KEYS:
                errors.append(f"{label} is not a timing cell "
                              f"{{{', '.join(CELL_KEYS)}}}: {cell!r}")
            elif not cell["q1"] <= cell["median"] <= cell["q3"]:
                errors.append(f"{label} has q1 <= median <= q3 "
                              f"broken: {cell!r}")
    return errors


def check_sidecars() -> list[str]:
    """Validate whichever BENCH_*.json sidecars exist at the repo root."""
    problems = []
    for name, (schema, required) in SIDECARS.items():
        path = REPO / name
        if not path.exists():
            continue  # build artifact; absence is not drift
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            problems.append(f"{name}: not valid JSON ({exc})")
            continue
        if payload.get("schema") != schema:
            problems.append(
                f"{name}: schema is {payload.get('schema')!r}, "
                f"expected {schema!r}")
            continue
        for key in required:
            if key not in payload:
                problems.append(f"{name}: missing required key {key!r}")
        if schema == "repro.bench.load/v1":
            problems.extend(f"{name}: {e}"
                            for e in _check_load_rows(payload))
        if schema == "repro.bench.collab/v1":
            problems.extend(f"{name}: {e}"
                            for e in _check_collab_rows(payload))
        if schema == "repro.bench.search/v2":
            problems.extend(f"{name}: {e}"
                            for e in _check_search_rows(payload))
        problems.extend(f"{name}: {e}"
                        for e in _check_timing_cells(schema, payload))
    return problems


def main() -> int:
    metrics, scopes = _load_registry()
    problems: list[str] = list(check_sidecars())
    for doc in DOCS:
        if not doc.exists():
            problems.append(f"{doc.relative_to(REPO)}: file missing")
            continue
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for token in BACKTICKED.findall(line):
                token = token.strip()
                where = f"{doc.relative_to(REPO)}:{lineno}"
                if MODULE.match(token):
                    error = _check_module(token)
                elif FILEPATH.match(token) and "/" in token:
                    error = _check_filepath(token)
                elif METRIC.match(token) and \
                        token.split(".")[0] in scopes:
                    # docs sometimes cite modules repro-relatively
                    # (`net.channel`); an importable name is not a
                    # metric citation
                    if _check_module(f"repro.{token}") is None:
                        continue
                    error = _check_metric(token, metrics)
                else:
                    continue
                if error:
                    problems.append(f"{where}: {error}")
    if problems:
        print("docs-check: documentation drifted from the source tree:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"docs-check: {len(DOCS)} documents verified against "
          f"{len(metrics)} registered metrics and the source tree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
