"""Scale — save latency and aggregate edits/s vs concurrent sessions.

Every number before PR 7 was a *single* session talking to an
in-process callable.  This benchmark measures the stack the way the
paper imagines it deployed: many users, one provider, a real socket in
between.  For each backend it drives 100 / 1,000 / 10,000 concurrent
:class:`PrivateEditingSession`\\ s — faults on, retries live — through
the pooled, pipelined socket transport against the sharded asyncio
server (``repro.net.server``), and reports

* aggregate **edits/s** (edit+save rounds completed per second, all
  sessions together),
* **p50/p99 save latency** (wall-clock over the socket; simulated
  clock deltas for the in-process comparison row),
* a ``single_session`` row measured under identical server settings,
  and ``scaling_x_1000`` — how many times the 1,000-session aggregate
  exceeds it.  One synchronous session is latency-bound (it waits out
  every server handling time in series); a thousand overlap their
  waits across the server's event loop, which is where the ≥10x comes
  from.

An ``inprocess`` comparison row runs the same cell on the simulated
stack — one shared clock, one shared 4 MB/s link
(:class:`repro.net.latency.SharedLink`), so the simulated latencies are
comparable with the socket ones instead of assuming every session owns
the WAN.

Run as a script (``make bench-load``) it writes ``BENCH_load.json``
(schema ``repro.bench.load/v1``) at the repo root, preserving the
first recorded run as ``baseline``; ``--smoke`` runs the 16-session
in-process + socket pair only (wired into ``make test``), and the 10k
cells are pytest-marked ``slow``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench import write_sidecar
from repro.bench.load import SEED, run_load

SCHEMA = "repro.bench.load/v1"
SIDECAR = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_load.json"

#: the session-count sweep of the issue
SESSION_COUNTS = (100, 1_000, 10_000)
#: backends the sweep measures (gdocs + one whole-file provider)
SERVICES = ("gdocs", "bespin")
FAULT_RATE = 0.05
#: simulated per-request server handling time (socket server);
#: deliberately in the same regime as LatencyModel.server_mean so the
#: socket and simulated charts describe the same kind of provider
SERVICE_TIME = 0.020

#: rounds per session, tapering so every cell stays minutes-bounded
ROUNDS = {100: 4, 1_000: 2, 10_000: 1}
SINGLE_ROUNDS = 40


def run_cells(service: str, counts=SESSION_COUNTS,
              fault_rate: float = FAULT_RATE) -> dict[str, dict]:
    """The full sweep for one backend: single session, each socket
    count, one in-process comparison row, and the scaling ratio."""
    rows: dict[str, dict] = {}
    single = run_load(
        sessions=1, rounds=SINGLE_ROUNDS, service=service,
        transport="socket", workers=1, fault_rate=fault_rate,
        service_time=SERVICE_TIME,
    )
    rows["single_session"] = single.row()
    for count in counts:
        cell = run_load(
            sessions=count, rounds=ROUNDS.get(count, 2), service=service,
            transport="socket", workers=min(96, max(8, count // 8)),
            fault_rate=fault_rate, service_time=SERVICE_TIME,
        )
        rows[f"sessions={count}"] = cell.row()
    inproc = run_load(
        sessions=min(counts), rounds=ROUNDS.get(min(counts), 2),
        service=service, transport="inprocess", fault_rate=fault_rate,
    )
    rows[f"inprocess={min(counts)}"] = inproc.row()
    base = rows["single_session"]["edits_per_sec"]
    key = f"sessions={1_000 if 1_000 in counts else max(counts)}"
    rows["scaling_x_1000"] = round(
        rows[key]["edits_per_sec"] / base, 1) if base else 0.0
    return rows


def run_smoke(sessions: int = 16) -> dict[str, dict]:
    """The small-N pair ``make test`` runs: in-process + socket."""
    socket_cell = run_load(
        sessions=sessions, rounds=2, service="gdocs", transport="socket",
        workers=8, fault_rate=FAULT_RATE, service_time=SERVICE_TIME,
    )
    inproc_cell = run_load(
        sessions=sessions, rounds=2, service="gdocs",
        transport="inprocess", fault_rate=FAULT_RATE,
    )
    return {"socket": socket_cell.row(), "inprocess": inproc_cell.row()}


# -- pytest mode (collected with the other bench_* figures) --------------

import pytest  # noqa: E402


@pytest.fixture(scope="module")
def smoke_pair():
    return run_smoke(sessions=16)


class TestLoadSmoke:
    def test_both_transports_converge(self, smoke_pair):
        for name, row in smoke_pair.items():
            assert row["converged_sample"], name

    def test_both_transports_positive_throughput(self, smoke_pair):
        for name, row in smoke_pair.items():
            assert row["edits_per_sec"] > 0, name

    def test_latency_sources_labelled(self, smoke_pair):
        assert smoke_pair["socket"]["latency_source"] == "wall"
        assert smoke_pair["inprocess"]["latency_source"] == "simulated"

    def test_socket_percentiles_ordered(self, smoke_pair):
        row = smoke_pair["socket"]
        assert 0 < row["save_p50_ms"] <= row["save_p99_ms"]


@pytest.mark.slow
class TestLoadScaling:
    """The full sweep (minutes): concurrency must actually pay."""

    @pytest.fixture(scope="class")
    def gdocs_sweep(self):
        return run_cells("gdocs")

    def test_every_cell_converges(self, gdocs_sweep):
        for label, row in gdocs_sweep.items():
            if isinstance(row, dict):
                assert row["converged_sample"], label

    def test_ten_thousand_sessions_complete(self, gdocs_sweep):
        row = gdocs_sweep["sessions=10000"]
        assert row["saves"] >= 10_000
        assert row["edits_per_sec"] > 0

    def test_scaling_at_one_thousand(self, gdocs_sweep):
        # the acceptance bar is 10x; assert a conservative floor so a
        # noisy CI box doesn't flake the suite
        assert gdocs_sweep["scaling_x_1000"] >= 5.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--service", choices=SERVICES + ("all",),
                        default="all",
                        help="re-measure one backend (default: all)")
    parser.add_argument("--sessions", type=int, nargs="*", default=None,
                        help="override the session-count sweep")
    parser.add_argument("--fault-rate", type=float, default=FAULT_RATE)
    parser.add_argument("--smoke", action="store_true",
                        help="16-session in-process + socket pair only "
                             "(no sidecar write)")
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = _parse_args(sys.argv[1:])
    if args.smoke:
        results = run_smoke()
        json.dump(results, sys.stdout, indent=2)
        print()
        for name, row in results.items():
            if not row["converged_sample"]:
                sys.exit(f"smoke cell {name} did not converge")
        sys.exit(0)
    counts = tuple(args.sessions) if args.sessions else SESSION_COUNTS
    targets = SERVICES if args.service == "all" else (args.service,)
    results = {
        service: run_cells(service, counts, args.fault_rate)
        for service in targets
    }
    # per-service blocks merge over the previous run's, so
    # ``--service X`` re-measures one backend and keeps the others
    payload = write_sidecar(SIDECAR, SCHEMA, {
        "unit": "aggregate edits/sec + save-latency percentiles (ms)",
        "seed": SEED,
        "fault_rate": FAULT_RATE,
        "service_time": SERVICE_TIME,
        "current": results,
    }, merge=("current",))
    json.dump(payload, sys.stdout, indent=2)
    print()
