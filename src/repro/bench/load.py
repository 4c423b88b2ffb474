"""The load generator: N concurrent private-editing sessions, measured.

``benchmarks/bench_load.py`` (and ``repro loadgen``) drive this module.
One *cell* = :func:`run_load`: construct ``sessions`` independent
:class:`~repro.extension.session.PrivateEditingSession`\\ s against one
backend, open them all, run ``rounds`` edit+save rounds per session
with fault injection on, then quiesce and sample convergence.  The cell
reports aggregate **edits/s** (edit+save rounds completed per second)
and **p50/p99 save latency** — the two numbers the scaling story is
told in.

Two transports, two latency sources:

* ``transport="socket"`` — every session speaks pooled, pipelined TCP
  frames (:class:`repro.net.transport.AsyncioSocketTransport`) to a
  :class:`repro.net.server.ReproServer`, self-hosted on a background
  thread unless ``address`` points at a running one.  Latencies are
  **wall-clock**.  A pool of worker threads drives the sessions (each
  worker owns a fixed partition, so one session is never driven from
  two threads); the server's non-blocking ``service_time`` is where
  concurrency pays — a thousand sessions overlap their waits, one
  session cannot.  This is the cell the ≥10x scaling criterion is
  stated against.
* ``transport="inprocess"`` — the classic simulated stack, every
  session sharing one :class:`~repro.net.latency.SimClock` and one
  :class:`~repro.net.latency.SharedLink` (so 10k sessions do *not*
  each get a private 4 MB/s — see ``net/latency.py``).  Sessions are
  driven round-robin on one thread (simulated waits cost no wall time,
  so threads would add nothing but races).  Latencies are **simulated**
  clock deltas; the cell exists to keep simulated and socket numbers
  on one comparable chart.

Faults ride on top of either transport unchanged — the client-side
:class:`~repro.net.faults.FaultPlan` wraps delivery below the mediator,
which is the point of the transport seam.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field

from repro.bench.timing import percentile
from repro.extension.session import PrivateEditingSession
from repro.net.faults import FaultPlan, updates_only
from repro.net.latency import SharedLink, SimClock, WAN_2011
from repro.net.policy import RetryPolicy

__all__ = ["LoadCell", "run_load", "SEED"]

SEED = 20110613  # same fixed seed as every other bench in this repo

#: how many sessions get a full convergence check after quiesce
SAMPLE = 8


@dataclass
class LoadCell:
    """One measured cell of the load matrix."""

    service: str
    transport: str
    sessions: int
    rounds: int
    fault_rate: float
    edits_per_sec: float
    save_p50_ms: float
    save_p99_ms: float
    latency_source: str  # "wall" or "simulated"
    elapsed_s: float
    open_s: float
    saves: int
    save_failures: int
    converged_sample: bool
    counters: dict[str, float] = field(default_factory=dict)

    def row(self) -> dict:
        """The sidecar/JSON shape of this cell (fields in order)."""
        return asdict(self)


class _SessionDriver:
    """One session plus its per-session fault plan and edit RNG."""

    def __init__(self, index: int, service: str, scheme: str,
                 fault_rate: float, seed: int, transport=None,
                 latency=None, clock=None):
        import random

        self.index = index
        self.plan = (
            FaultPlan.uniform(fault_rate, seed=seed + index,
                              match=updates_only)
            if fault_rate > 0 else None
        )
        self.rng = random.Random(seed ^ (index * 2654435761))
        self.session = PrivateEditingSession(
            f"load-{index}", f"pw-{index}", scheme=scheme,
            faults=self.plan, retry_policy=RetryPolicy(seed=seed + index),
            verify_acks=True, service=service, transport=transport,
            latency=latency, clock=clock, max_log=8,
        )
        self.save_failures = 0
        self.saves = 0

    def open(self) -> None:
        self.session.open()
        if not self.session.text:
            self.session.type_text(0, f"doc {self.index}: ")

    def round(self, latencies: list[float], simulated: bool) -> None:
        """One edit+save round; appends the save latency (seconds)."""
        session, rng = self.session, self.rng
        length = len(session.text)
        pos = rng.randrange(max(1, length))
        session.type_text(pos, "x" * rng.randint(1, 12))
        if length > 16 and rng.random() < 0.3:
            cut = rng.randint(1, 4)
            session.delete_text(rng.randrange(length - cut), cut)
        if simulated:
            before = session.now
            outcome = session.save()
            latencies.append(session.now - before)
        else:
            before = time.perf_counter()
            outcome = session.save()
            latencies.append(time.perf_counter() - before)
        self.saves += 1
        if not outcome.ok:
            self.save_failures += 1

    def settle(self) -> None:
        """Land the recovery saves (``PrivateEditingSession.settle``);
        a session that saw no faults has nothing to recover."""
        if self.plan is not None:
            self.session.settle()

    def converged(self) -> bool:
        return self.session.stored_text() == self.session.text


def _drive_partition(drivers: list[_SessionDriver], rounds: int,
                     latencies: list[float], errors: list[BaseException],
                     ) -> None:
    """Worker body: interleave rounds across this worker's sessions."""
    local: list[float] = []
    try:
        for _ in range(rounds):
            for driver in drivers:
                driver.round(local, simulated=False)
    except BaseException as exc:  # surfaced by the main thread
        errors.append(exc)
    finally:
        latencies.extend(local)  # list.extend is atomic under the GIL


def run_load(sessions: int = 100, rounds: int = 2, *,
             service: str = "gdocs", transport: str = "socket",
             address: tuple[str, int] | None = None,
             workers: int = 64, fault_rate: float = 0.05,
             seed: int = SEED, scheme: str = "recb",
             service_time: float = 0.020, shards: int = 8,
             pool_size: int = 8, window: int = 64,
             sample: int = SAMPLE) -> LoadCell:
    """One load cell: ``sessions`` concurrent sessions, ``rounds``
    edit+save rounds each, faults at ``fault_rate``.

    Socket mode self-hosts a server (``shards`` document shards,
    ``service_time`` seconds of simulated per-request handling) unless
    ``address`` names a running one, and drives sessions from
    ``workers`` threads over one shared connection pool.  In-process
    mode runs single-threaded on a shared simulated clock and shared
    4 MB/s link.
    """
    if transport not in ("socket", "inprocess"):
        raise ValueError(f"unknown transport {transport!r}")
    if transport == "socket":
        return _run_socket(sessions, rounds, service, address, workers,
                           fault_rate, seed, scheme, service_time, shards,
                           pool_size, window, sample)
    return _run_inprocess(sessions, rounds, service, fault_rate, seed,
                          scheme, sample)


def _run_socket(sessions, rounds, service, address, workers, fault_rate,
                seed, scheme, service_time, shards, pool_size, window,
                sample) -> LoadCell:
    from repro.net.pool import ConnectionPool
    from repro.net.server import ServerThread
    from repro.net.transport import AsyncioSocketTransport
    from repro.obs import capture

    hosted = None
    if address is None:
        hosted = ServerThread(shards=shards, service_time=service_time)
        address = hosted.start()
    host, port = address
    pool = ConnectionPool(host, port, size=pool_size, window=window,
                          timeout=30.0)
    nworkers = max(1, min(workers, sessions))
    try:
        with capture() as cap:
            t0 = time.perf_counter()
            drivers = [
                _SessionDriver(
                    i, service, scheme, fault_rate, seed,
                    transport=AsyncioSocketTransport(
                        host, port, service=service, pool=pool
                    ),
                )
                for i in range(sessions)
            ]
            # opens ride the same worker partitions as the rounds, so
            # ten thousand handshakes overlap their server time too
            parts = [drivers[w::nworkers] for w in range(nworkers)]
            errors: list[BaseException] = []
            _fan_out(parts, errors,
                     lambda part: [d.open() for d in part])
            open_s = time.perf_counter() - t0
            if errors:
                raise errors[0]

            latencies: list[float] = []
            t1 = time.perf_counter()
            threads = [
                threading.Thread(
                    target=_drive_partition,
                    args=(part, rounds, latencies, errors),
                    name=f"loadgen-{w}",
                )
                for w, part in enumerate(parts)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - t1
            if errors:
                raise errors[0]

            _fan_out(parts, errors,
                     lambda part: [d.settle() for d in part])
            if errors:
                raise errors[0]
        step = max(1, sessions // max(1, sample))
        sampled = drivers[::step][:sample]
        converged = all(d.converged() for d in sampled)
        counters = {
            name: cap[name] for name in (
                "client.pool.connects", "client.pool.pipelined",
                "client.pool.window_waits", "net.transport.remote_requests",
                "server.shard.dispatches", "client.retries.attempts",
                "net.faults.injected",
            )
        }
    finally:
        pool.close()
        if hosted is not None:
            hosted.stop()
    total_rounds = sessions * rounds
    return LoadCell(
        service=service, transport="socket", sessions=sessions,
        rounds=rounds, fault_rate=fault_rate,
        edits_per_sec=round(total_rounds / elapsed, 1),
        save_p50_ms=round(percentile(latencies, 0.50) * 1000, 2),
        save_p99_ms=round(percentile(latencies, 0.99) * 1000, 2),
        latency_source="wall", elapsed_s=round(elapsed, 3),
        open_s=round(open_s, 3),
        saves=sum(d.saves for d in drivers),
        save_failures=sum(d.save_failures for d in drivers),
        converged_sample=converged, counters=counters,
    )


def _fan_out(parts, errors, fn) -> None:
    """Run ``fn(part)`` for every partition on its own thread."""
    def _body(part):
        try:
            fn(part)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=_body, args=(p,)) for p in parts]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _run_inprocess(sessions, rounds, service, fault_rate, seed, scheme,
                   sample) -> LoadCell:
    clock = SimClock()
    link = SharedLink(bytes_per_second=4_000_000.0)
    t0 = time.perf_counter()
    drivers = []
    for i in range(sessions):
        latency = WAN_2011(seed=seed + i)
        latency.link = link
        drivers.append(_SessionDriver(
            i, service, scheme, fault_rate, seed,
            latency=latency, clock=clock,
        ))
    for d in drivers:
        d.open()
    open_s = time.perf_counter() - t0

    latencies: list[float] = []
    t1 = time.perf_counter()
    sim_start = clock.now()
    for _ in range(rounds):
        for d in drivers:
            d.round(latencies, simulated=True)
    elapsed_wall = time.perf_counter() - t1
    sim_elapsed = max(clock.now() - sim_start, 1e-9)
    for d in drivers:
        d.settle()
    step = max(1, sessions // max(1, sample))
    sampled = drivers[::step][:sample]
    converged = all(d.converged() for d in sampled)
    total_rounds = sessions * rounds
    return LoadCell(
        service=service, transport="inprocess", sessions=sessions,
        rounds=rounds, fault_rate=fault_rate,
        # one shared clock = sequential semantics: sim throughput is the
        # honest number (wall time here measures only crypto compute)
        edits_per_sec=round(total_rounds / sim_elapsed, 1),
        save_p50_ms=round(percentile(latencies, 0.50) * 1000, 2),
        save_p99_ms=round(percentile(latencies, 0.99) * 1000, 2),
        latency_source="simulated", elapsed_s=round(elapsed_wall, 3),
        open_s=round(open_s, 3),
        saves=sum(d.saves for d in drivers),
        save_failures=sum(d.save_failures for d in drivers),
        converged_sample=converged,
    )
