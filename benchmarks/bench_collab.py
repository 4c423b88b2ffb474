"""Collaboration — conflict rate and convergence time vs writer count.

Before PR 8 a stale save had exactly one future: a ``conflict``
answer, a client-side resync, and another try.  With N writers on one
document that pipeline admits roughly one landing per round — the
conflict rate climbs toward 1 and convergence time grows with N².
This benchmark measures what the server-side OT merge path
(``repro.services.ot``) buys: for 2 / 8 / 32 / 100 writers sharing one
encrypted document it reports, per backend and over both transports,

* **conflict rate** — conflicted saves per non-noop save attempt,
* **merges** — stale saves the server rebased and acked with a
  ``mergePatch`` instead of rejecting,
* **convergence time** — from the last edit until every writer is
  looking at the same drained document (wall-clock over the socket,
  simulated-clock deltas in-process),
* the zero-leak tap — a lowercase sentinel typed by writer 0 must
  never appear in any exchanged bytes (Base32 ciphertext is
  uppercase-only).

Three variants sweep the writer counts: ``gdocs`` with the merge path
on, ``gdocs`` with it off (the conflict/resync baseline every headline
ratio is stated against), and ``bespin`` (whole-file — no delta
language to merge, so its cells ride full-document re-uploads and a
settle-save round).  The headline is the 32-writer gdocs pair: the
acceptance bar is a ≥5x lower conflict rate with the merge path on.

Run as a script (``make bench-collab``) it writes ``BENCH_collab.json``
(schema ``repro.bench.collab/v1``) at the repo root, preserving the
first recorded run as ``baseline``; ``--smoke`` runs the 8-writer
merge/baseline pair only.  The full-sweep assertions are pytest-marked
``slow``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench import write_sidecar
from repro.bench.collab import SEED, run_collab

SCHEMA = "repro.bench.collab/v1"
SIDECAR = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_collab.json"

#: the writer-count sweep of the issue
WRITER_COUNTS = (2, 8, 32, 100)
#: (service, merge) variants; merge=False on gdocs is the baseline
VARIANTS = (
    ("gdocs_merge", "gdocs", True),
    ("gdocs_conflict", "gdocs", False),
    ("bespin", "bespin", False),
)
TRANSPORTS = ("inprocess", "socket")
#: the writer count the headline ratio is stated at
HEADLINE_WRITERS = 32

#: edit rounds per writer, tapering so the N² baseline drain keeps
#: every cell minutes-bounded
ROUNDS = {2: 6, 8: 4, 32: 3, 100: 2}


def run_cells(service: str, merge: bool,
              counts=WRITER_COUNTS) -> dict[str, dict]:
    """The sweep for one (service, merge) variant: every writer count
    over both transports."""
    rows: dict[str, dict] = {}
    for count in counts:
        for transport in TRANSPORTS:
            cell = run_collab(
                writers=count, rounds=ROUNDS.get(count, 2),
                service=service, merge=merge, transport=transport,
            )
            rows[f"writers={count}/{transport}"] = cell.row()
    return rows


def headline(results: dict[str, dict],
             writers: int = HEADLINE_WRITERS) -> dict:
    """The 32-writer gdocs pair the acceptance bar is stated on."""
    key = f"writers={writers}/inprocess"
    base = results["gdocs_conflict"][key]
    merged = results["gdocs_merge"][key]
    rate_base, rate_merge = base["conflict_rate"], merged["conflict_rate"]
    return {
        "writers": writers,
        "baseline_conflict_rate": rate_base,
        "merge_conflict_rate": rate_merge,
        # None when the merge path produced zero conflicts (the ratio
        # is unbounded); the ≥5x bar is asserted on the rates directly
        "improvement_x": (round(rate_base / rate_merge, 1)
                          if rate_merge else None),
        "baseline_convergence_s": base["convergence_s"],
        "merge_convergence_s": merged["convergence_s"],
        "merges": merged["merges"],
    }


def run_smoke(writers: int = 8) -> dict[str, dict]:
    """The small merge/baseline pair ``--smoke`` runs (in-process)."""
    merged = run_collab(writers=writers, rounds=3, merge=True)
    base = run_collab(writers=writers, rounds=3, merge=False)
    return {"merge": merged.row(), "conflict_baseline": base.row()}


# -- pytest mode (collected with the other bench_* figures) --------------

import pytest  # noqa: E402


@pytest.fixture(scope="module")
def smoke_pair():
    return run_smoke(writers=8)


class TestCollabSmoke:
    def test_cells_converge_without_leaks(self, smoke_pair):
        for name, row in smoke_pair.items():
            assert row["converged"], name
            assert row["leak_clean"], name

    def test_merge_path_collapses_conflicts(self, smoke_pair):
        merged = smoke_pair["merge"]
        base = smoke_pair["conflict_baseline"]
        assert merged["merges"] > 0
        assert merged["conflict_rate"] < base["conflict_rate"]

    def test_merge_path_converges_faster(self, smoke_pair):
        assert (smoke_pair["merge"]["convergence_s"]
                < smoke_pair["conflict_baseline"]["convergence_s"])


@pytest.mark.slow
class TestCollabSweep:
    """The headline cells (minutes): merging must actually pay at N."""

    @pytest.fixture(scope="class")
    def gdocs_pair(self):
        return {
            "merge": run_cells("gdocs", True, counts=(HEADLINE_WRITERS,)),
            "base": run_cells("gdocs", False, counts=(HEADLINE_WRITERS,)),
        }

    def test_every_cell_converges_without_leaks(self, gdocs_pair):
        for variant in gdocs_pair.values():
            for label, row in variant.items():
                assert row["converged"], label
                assert row["leak_clean"], label

    def test_conflict_rate_at_least_five_x_lower(self, gdocs_pair):
        for transport in TRANSPORTS:
            key = f"writers={HEADLINE_WRITERS}/{transport}"
            base = gdocs_pair["base"][key]["conflict_rate"]
            merged = gdocs_pair["merge"][key]["conflict_rate"]
            assert base >= 5 * merged, (transport, base, merged)
            assert gdocs_pair["merge"][key]["merges"] > 0

    def test_bespin_settles_by_reopen(self):
        row = run_collab(writers=HEADLINE_WRITERS, rounds=2,
                         service="bespin", merge=False)
        assert row.converged and row.leak_clean
        assert row.drain_rounds == 1  # settle round, not drain-to-noop


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variant",
                        choices=tuple(v[0] for v in VARIANTS) + ("all",),
                        default="all",
                        help="re-measure one variant (default: all)")
    parser.add_argument("--writers", type=int, nargs="*", default=None,
                        help="override the writer-count sweep")
    parser.add_argument("--smoke", action="store_true",
                        help="8-writer merge/baseline pair only "
                             "(no sidecar write)")
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = _parse_args(sys.argv[1:])
    if args.smoke:
        results = run_smoke()
        json.dump(results, sys.stdout, indent=2)
        print()
        for name, row in results.items():
            if not (row["converged"] and row["leak_clean"]):
                sys.exit(f"smoke cell {name} failed its oracle")
        sys.exit(0)
    counts = tuple(args.writers) if args.writers else WRITER_COUNTS
    results = {}
    for name, service, merge in VARIANTS:
        if args.variant not in ("all", name):
            continue
        results[name] = run_cells(service, merge, counts)
    if args.variant == "all" and HEADLINE_WRITERS in counts:
        results["headline"] = headline(results)
    payload = write_sidecar(SIDECAR, SCHEMA, {
        "unit": "conflict rate (conflicts/save) + convergence time (s)",
        "seed": SEED,
        "writer_counts": list(WRITER_COUNTS),
        "current": results,
    }, merge=("current",))
    json.dump(payload["current"].get("headline", payload["current"]),
              sys.stdout, indent=2)
    print()
