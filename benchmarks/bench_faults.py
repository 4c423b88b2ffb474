"""Fault tolerance under load — edits/sec and retries vs fault rate.

The resilience machinery (``repro.net.faults`` + ``repro.net.policy``)
is only worth its complexity if (a) a fault-free session pays almost
nothing for it and (b) a faulty session degrades gracefully — retries
and resyncs, not lost edits.  This benchmark drives a resilient
:class:`PrivateEditingSession` through the same edit script at fault
rates 0% / 1% / 5% / 20% and reports

* sustained edits/sec (wall-clock, includes retry work; the median
  and quartiles of ``REPS`` identical seeded sessions),
* retries, injected faults, resyncs, and idempotent replays straight
  from the obs registry,
* whether the session **converged** (stored ciphertext decrypts to the
  user's final text) — which must be True at every rate.

Since the resilience core is provider-agnostic
(``repro.client.resilient``), the sweep also runs per backend: every
service in ``repro.services.registry.SERVICE_NAMES`` gets its own rows
(``--service X`` re-measures just one), so the sidecar answers "does
graceful degradation hold on Bespin/Buzzword/replicated too, and what
does whole-file re-sending cost relative to deltas?".

Run as a script (``make bench-faults``) it writes the
``BENCH_faults.json`` sidecar at the repo root, keeping the first run
of its schema as ``baseline`` (same convention as
``BENCH_edit_throughput.json``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys

from repro.bench import REPS, Sample, write_sidecar
from repro.crypto.random import DeterministicRandomSource
from repro.extension.session import PrivateEditingSession
from repro.net.faults import FaultPlan, updates_only
from repro.net.policy import RetryPolicy
from repro.obs import capture
from repro.services import registry
from repro.workloads.text import make_text

SCHEMA = "repro.bench.faults/v2"
SIDECAR = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_faults.json"

#: per-exchange fault probability per kind, the sweep of the issue
RATES = (0.0, 0.01, 0.05, 0.20)
#: the shorter per-backend sweep (every backend, three weathers)
SERVICE_RATES = (0.0, 0.05, 0.20)
SCHEME = "rpc"
SEED = 20110613  # the paper's year+venue, fixed forever


def _session(rate: float, service: str) -> PrivateEditingSession:
    return PrivateEditingSession(
        f"bench-{rate}", "bench-password", scheme=SCHEME,
        faults=FaultPlan.uniform(rate, seed=SEED, match=updates_only),
        retry_policy=RetryPolicy(seed=SEED),
        verify_acks=True, rng=DeterministicRandomSource(SEED),
        service=service,
    )


def _run_rate(rate: float, edits: int,
              service: str = "gdocs") -> dict:
    """``REPS`` measured sessions of ``edits`` edit+save rounds at
    ``rate``.  Every session is seeded alike, so each must report the
    same counts; only the wall-clock rate varies."""
    laps, rows = Sample(), []
    for _ in range(REPS):
        session = _session(rate, service)
        rng = random.Random(SEED + int(rate * 1000))
        session.open()
        session.client.editor.set_text(make_text(2_000, rng))
        failures = 0
        with capture() as cap, laps.lap():
            if not session.save().ok:
                failures += 1
            for _ in range(edits):
                length = len(session.text)
                ncut = rng.randint(0, 8)
                pos = rng.randrange(max(1, length - ncut))
                session.delete_text(pos, min(ncut, length - pos))
                session.type_text(pos, "y" * rng.randint(1, 10))
                if not session.save().ok:
                    failures += 1
            if not session.settle().ok:
                failures += 1
        rows.append({
            "faults_injected": cap["net.faults.injected"],
            "retries": cap["client.retries.attempts"],
            "timeouts": cap["client.retries.timeouts"],
            "resyncs": cap["client.resyncs"],
            "idem_replays": cap["extension.idem_replays"],
            "dedup_hits": cap["services.gdocs.dedup_hits"],
            "save_failures": failures,
            "converged": session.stored_text() == session.text,
        })
    assert all(row == rows[0] for row in rows), (rate, service, rows)
    return {"edits_per_sec": laps.map(lambda seconds: edits / seconds
                                      ).cell(1), **rows[0]}


def run_suite(edits: int = 60, service: str = "gdocs",
              rates: tuple = RATES) -> dict[str, dict]:
    """The rate sweep for one backend; keys are labels ("rate=5%")."""
    return {
        f"rate={rate:.0%}": _run_rate(rate, edits, service)
        for rate in rates
    }


def run_service_suite(edits: int = 30,
                      services: tuple = registry.SERVICE_NAMES
                      ) -> dict[str, dict]:
    """Per-backend rows: the shorter sweep for every named service."""
    return {
        service: run_suite(edits, service, rates=SERVICE_RATES)
        for service in services
    }


# -- pytest mode (collected with the other bench_* figures) --------------

def _register(results: dict) -> None:
    from conftest import register_table
    from repro.bench import render_table

    rows = [
        [label,
         f"{row['edits_per_sec']['median']:.0f} edits/s",
         f"{row['faults_injected']:.0f}",
         f"{row['retries']:.0f}",
         f"{row['resyncs']:.0f}",
         "yes" if row["converged"] else "NO"]
        for label, row in results.items()
    ]
    register_table("faults", render_table(
        ["fault rate", "throughput", "injected", "retries", "resyncs",
         "converged"],
        rows,
        title="Fault tolerance - resilient session under uniform chaos",
    ))


import pytest  # noqa: E402


@pytest.fixture(scope="module")
def fault_sweep():
    results = run_suite(edits=30)
    _register(results)
    return results


@pytest.fixture(scope="module")
def service_sweep():
    return run_service_suite(edits=10)


class TestFaultSweep:
    def test_converges_at_every_rate(self, fault_sweep):
        for label, row in fault_sweep.items():
            assert row["converged"], label

    def test_clean_rate_injects_nothing(self, fault_sweep):
        clean = fault_sweep["rate=0%"]
        assert clean["faults_injected"] == 0
        assert clean["retries"] == 0
        assert clean["save_failures"] == 0

    def test_faulty_rates_actually_fault_and_retry(self, fault_sweep):
        worst = fault_sweep["rate=20%"]
        assert worst["faults_injected"] > 0
        assert worst["retries"] > 0

    def test_throughput_positive_everywhere(self, fault_sweep):
        for label, row in fault_sweep.items():
            assert row["edits_per_sec"]["median"] > 0, label


class TestServiceSweep:
    def test_every_backend_converges_at_every_rate(self, service_sweep):
        for service, rows in service_sweep.items():
            for label, row in rows.items():
                assert row["converged"], f"{service} {label}"

    def test_every_backend_measured(self, service_sweep):
        assert set(service_sweep) == set(registry.SERVICE_NAMES)
        for rows in service_sweep.values():
            for row in rows.values():
                assert row["edits_per_sec"]["median"] > 0

    def test_whole_file_backends_never_resync(self, service_sweep):
        """No revisions -> nothing to resync against; their recovery
        is pure full-save retransmission."""
        for service in ("bespin", "buzzword"):
            for label, row in service_sweep[service].items():
                assert row["resyncs"] == 0, f"{service} {label}"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--service", choices=registry.SERVICE_NAMES + ("all",),
        default="all",
        help="re-measure one backend's rows (default: gdocs sweep "
             "plus every backend)")
    parser.add_argument("--edits", type=int, default=60,
                        help="edit+save rounds per measured session")
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = _parse_args(sys.argv[1:])
    if args.service == "all":
        suite = run_suite(args.edits)
        services = run_service_suite(max(10, args.edits // 2))
    else:
        # one backend only: keep the previous gdocs sweep, merge rows
        suite = {}
        services = run_service_suite(max(10, args.edits // 2),
                                     services=(args.service,))
    payload = write_sidecar(SIDECAR, SCHEMA, {
        "unit": "edits/sec, median [q1, q3] of n runs (plus "
                "obs-registry fault/retry counts)",
        "scheme": SCHEME,
        "seed": SEED,
        "current": suite,
        "services": services,
    }, merge=("current", "services"))
    json.dump(payload, sys.stdout, indent=2)
    print()
