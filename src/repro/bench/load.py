"""The load generator: N concurrent private-editing sessions, measured.

``benchmarks/bench_load.py`` (and ``repro loadgen``) drive this module.
One *cell* = :func:`run_load`: construct ``sessions`` independent
:class:`~repro.extension.session.PrivateEditingSession`\\ s against one
backend, open them all, run ``rounds`` edit+save rounds per session
with fault injection on, then quiesce and sample convergence.  The cell
reports aggregate **edits/s** (edit+save rounds completed per second)
and **p50/p99 save latency** — the two numbers the scaling story is
told in.

The sessions are a :mod:`repro.bench.fleet`, so either transport runs
the same body:

* ``transport="socket"`` — latencies are **wall-clock**.  ``workers``
  threads drive the sessions (each worker owns a fixed partition, so
  one session is never driven from two threads); the server's
  non-blocking ``service_time`` is where concurrency pays — a thousand
  sessions overlap their waits, one session cannot.  This is the cell
  the ≥10x scaling criterion is stated against.
* ``transport="inprocess"`` — one partition: the sessions are driven
  round-robin on one thread (simulated waits cost no wall time, so
  more threads would add nothing but races).  Latencies and edits/s
  are **simulated** clock deltas; the cell exists to keep simulated
  and socket numbers on one comparable chart.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field

from repro.bench.fleet import SEED, Driver, fleet
from repro.bench.timing import percentile
from repro.obs import capture

__all__ = ["LoadCell", "run_load", "SEED"]

#: how many sessions get a full convergence check after quiesce
SAMPLE = 8

#: the client/server counters a socket cell reports
_COUNTERS = (
    "client.pool.connects", "client.pool.pipelined",
    "client.pool.window_waits", "net.transport.remote_requests",
    "server.shard.dispatches", "client.retries.attempts",
    "net.faults.injected",
)


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


class _User(Driver):
    """One user editing their own document."""

    def open(self) -> None:
        self.session.open()
        if not self.session.text:
            self.session.type_text(0, f"doc {self.index}: ")

    def round(self, now) -> float:
        """One edit+save round; returns the save latency (seconds)."""
        session, rng = self.session, self.rng
        length = len(session.text)
        pos = rng.randrange(max(1, length))
        session.type_text(pos, "x" * rng.randint(1, 12))
        if length > 16 and rng.random() < 0.3:
            cut = rng.randint(1, 4)
            session.delete_text(rng.randrange(length - cut), cut)
        before = now()
        self.save()
        return now() - before

    def settle(self) -> None:
        """Land the recovery saves (``PrivateEditingSession.settle``);
        a session that saw no faults has nothing to recover."""
        if self.plan is not None:
            self.session.settle()


def _fan_out(parts: list[list[_User]], body) -> None:
    """Run ``body(part)`` for every partition on its own thread; raise
    the first error any of them hit."""
    errors: list[BaseException] = []

    def run(part):
        try:
            body(part)
        except BaseException as exc:  # surfaced by the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(p,), name=f"loadgen-{w}")
               for w, p in enumerate(parts)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


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
    mode runs on one thread on a shared simulated clock and shared
    4 MB/s link.
    """
    socket = transport == "socket"
    nworkers = max(1, min(workers, sessions)) if socket else 1
    latencies: list[float] = []
    with fleet(transport, service, seed, address=address, shards=shards,
               service_time=service_time, merge=False,
               pool_size=pool_size, window=window) as (keywords, now):
        with capture() as cap:
            t0 = time.perf_counter()
            users = [
                _User(i, f"load-{i}", f"pw-{i}", fault_rate, seed,
                      scheme=scheme, service=service, max_log=8,
                      **keywords(i, f"load-{i}"))
                for i in range(sessions)
            ]
            # opens ride the same worker partitions as the rounds, so
            # ten thousand handshakes overlap their server time too
            parts = [users[w::nworkers] for w in range(nworkers)]
            _fan_out(parts, lambda part: [u.open() for u in part])
            open_s = time.perf_counter() - t0

            def drive(part: list[_User]) -> None:
                for _ in range(rounds):
                    for user in part:
                        latencies.append(user.round(now))

            t1, start = time.perf_counter(), now()
            _fan_out(parts, drive)
            wall = time.perf_counter() - t1
            # one shared simulated clock = sequential semantics: there
            # the simulated throughput is the honest number (wall time
            # measures only crypto compute)
            elapsed = max(now() - start, 1e-9)
            _fan_out(parts, lambda part: [u.settle() for u in part])
        step = max(1, sessions // max(1, sample))
        converged = all(u.session.stored_text() == u.session.text
                        for u in users[::step][:sample])
    return LoadCell(
        service=service, transport=transport, sessions=sessions,
        rounds=rounds, fault_rate=fault_rate,
        edits_per_sec=round(sessions * rounds / elapsed, 1),
        save_p50_ms=round(percentile(latencies, 0.50) * 1000, 2),
        save_p99_ms=round(percentile(latencies, 0.99) * 1000, 2),
        latency_source="wall" if socket else "simulated",
        elapsed_s=round(wall, 3), open_s=round(open_s, 3),
        saves=sessions * rounds,  # one per round, noops included
        save_failures=sum(u.save_failures for u in users),
        converged_sample=converged,
        # the pool, transport and shard counters move only on a socket
        counters={name: cap[name] for name in _COUNTERS} if socket else {},
    )
