"""The collaboration bench: N writers, one document, conflict vs merge.

``benchmarks/bench_collab.py`` (and ``make bench-collab``) drive this
module.  One *cell* = :func:`run_collab`: ``writers`` encrypted
:class:`~repro.extension.session.PrivateEditingSession`\\ s share **one**
document (same password — collaborators by construction), interleave
``rounds`` edit+save rounds each, then drain to quiescence and judge
convergence with the plaintext oracle
(:meth:`~repro.extension.session.PrivateEditingSession.stored_text`).
The cell reports

* **conflict rate** — conflicted saves per non-noop save attempt, the
  number the server-side OT merge path exists to collapse;
* **merges** — stale saves the server rebased instead of rejecting;
* **drain rounds** and **convergence time** — how long after the last
  edit until every writer is quiescent on the same document
  (wall-clock over the socket, simulated clock deltas in-process);
* the zero-leak tap: a lowercase sentinel typed by writer 0 must never
  appear in any exchanged request/response body (Base32 ciphertext is
  uppercase-only, so a single lowercase leak is loud).  Each writer's
  channel tap checks every exchange as it completes; the channel's own
  log keeps only the newest 16.

Cells run with the merge path on (``merge=True``, gdocs only) or off —
the off cells are the conflict/resync baseline every headline ratio is
stated against.  Whole-file backends (bespin) have no delta language to
merge; their cells measure the same workload riding full-document
re-uploads, with the repo-wide settle-save rule standing in for a
drain-to-noop (a whole-file save is never a noop).

Both transports run: ``inprocess`` shares one simulated clock across
the writers; ``socket`` drives real pooled TCP frames against a
:class:`repro.net.server.ReproServer` hosted with
``merge_concurrent`` matching the cell.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from repro.crypto.random import DeterministicRandomSource
from repro.extension.session import PrivateEditingSession
from repro.fuzz.model import leak_blobs
from repro.net.faults import FaultPlan, updates_only
from repro.net.latency import SharedLink, SimClock, WAN_2011
from repro.net.policy import RetryPolicy
from repro.services import registry

__all__ = ["CollabCell", "run_collab", "SEED", "SENTINEL"]

SEED = 20110613  # same fixed seed as every other bench in this repo

#: lowercase canary typed by writer 0 — Base32 ciphertext is uppercase,
#: so any lowercase appearance in exchanged bytes is a leak
SENTINEL = "collabsentinel kilimanjaro"
_NEEDLE = SENTINEL.split()[0]

DOC_ID = "shared-collab-doc"
PASSWORD = "collab-password"


@dataclass
class CollabCell:
    """One measured cell of the collaboration matrix."""

    service: str
    transport: str
    merge: bool
    writers: int
    rounds: int
    fault_rate: float
    saves: int               # non-noop save attempts (edit + drain)
    conflicts: int
    merges: int              # server-side OT merges performed
    save_failures: int
    conflict_rate: float     # conflicts / saves
    drain_rounds: int
    converged: bool
    convergence_s: float     # drain duration (wall or simulated)
    latency_source: str      # "wall" or "simulated"
    leak_clean: bool
    counters: dict[str, float] = field(default_factory=dict)

    def row(self) -> dict:
        """The sidecar/JSON shape of this cell (fields in order)."""
        return asdict(self)


class _Writer:
    """One collaborating session plus its edit RNG and tallies."""

    def __init__(self, index: int, service: str, scheme: str,
                 fault_rate: float, seed: int, server=None,
                 transport=None, clock=None, latency=None):
        import random

        self.index = index
        self.plan = (
            FaultPlan.uniform(fault_rate, seed=seed + index,
                              match=updates_only)
            if fault_rate > 0 else None
        )
        self.rng = random.Random(seed ^ (index * 2654435761))
        self.session = PrivateEditingSession(
            DOC_ID, PASSWORD, scheme=scheme, server=server,
            rng=DeterministicRandomSource((seed << 4) + index + 1),
            faults=self.plan, retry_policy=RetryPolicy(seed=seed + index),
            verify_acks=True, service=service, transport=transport,
            latency=latency, clock=clock, max_log=16,
        )
        #: did any exchange carry the sentinel? (the log is a ring, so
        #: the tap judges each exchange as it completes)
        self.leaked = False
        self.session.channel.add_tap(self._tap)
        self.saves = 0
        self.conflicts = 0
        self.save_failures = 0

    def _tap(self, exchange) -> None:
        parts = (exchange.request.url, exchange.request.body,
                 exchange.response.body)
        self.leaked = self.leaked or any(_NEEDLE in part for part in parts)

    def _track(self, outcome) -> None:
        if outcome.kind == "noop":
            return
        self.saves += 1
        if outcome.conflict:
            self.conflicts += 1
        if not outcome.ok:
            self.save_failures += 1

    def save(self):
        outcome = self.session.save()
        self._track(outcome)
        return outcome

    def edit_and_save(self) -> None:
        """One small edit at a writer-local position, then a save."""
        session, rng = self.session, self.rng
        length = len(session.text)
        pos = rng.randrange(max(1, length))
        session.type_text(pos, f"w{self.index}x" * rng.randint(1, 3))
        if length > 40 and rng.random() < 0.25:
            cut = rng.randint(1, 3)
            session.delete_text(rng.randrange(length - cut), cut)
        self.save()

    def quiesce(self) -> None:
        if self.plan is not None:
            self.plan.quiesce()


def _drain(writers: list[_Writer], revisioned: bool) -> int:
    """Round-robin saves until every writer's save is a clean noop.

    Returns the number of rounds taken.  Conflict-mode drains land at
    most one writer per round, so the budget grows linearly with the
    writer count.  Whole-file backends never answer noop — for them
    one settle round (the repo-wide rule) re-asserts each writer's
    text and the *last* writer's save wins (LWW), which the callers
    then reconcile by re-opening.
    """
    if not revisioned:
        for writer in writers:
            writer.save()
        return 1
    budget = 4 + 2 * len(writers)
    for landed in range(1, budget + 1):
        outcomes = [w.save() for w in writers]
        if all(o.ok and o.kind == "noop" for o in outcomes):
            return landed
    return budget


def run_collab(writers: int = 8, rounds: int = 3, *,
               service: str = "gdocs", merge: bool = True,
               transport: str = "inprocess", scheme: str = "recb",
               fault_rate: float = 0.0, seed: int = SEED,
               address: tuple[str, int] | None = None,
               service_time: float = 0.0) -> CollabCell:
    """One collaboration cell: ``writers`` sessions on one document.

    ``merge`` selects the server-side OT merge path (rejected with
    ``ValueError`` by the registry for backends that cannot express
    it); ``merge=False`` on gdocs is the conflict/resync baseline.
    """
    if transport not in ("socket", "inprocess"):
        raise ValueError(f"unknown transport {transport!r}")
    if transport == "socket":
        return _run_socket(writers, rounds, service, merge, scheme,
                           fault_rate, seed, address, service_time)
    return _run_inprocess(writers, rounds, service, merge, scheme,
                          fault_rate, seed)


def _workload(crew: list[_Writer], rounds: int,
              now) -> tuple[int, float, bool]:
    """The shared cell body: seed, edit rounds, drain, converge-check.

    ``now`` is a zero-arg callable for the cell's notion of time.
    Returns (drain_rounds, convergence_s, converged).
    """
    first = crew[0]
    first.session.open()
    first.session.type_text(0, SENTINEL + " the quick brown fox. ")
    first.save()
    for writer in crew[1:]:
        writer.session.open()
        writer.save()  # session-opening save (deduped on gdocs)

    for _ in range(rounds):
        for writer in crew:
            writer.edit_and_save()

    for writer in crew:
        writer.quiesce()
    revisioned = registry.backend_for(
        crew[0].session.service).capabilities.revisioned
    t0 = now()
    drain_rounds = _drain(crew, revisioned)

    # the convergence judge: every editor re-opens to the same text.
    # The re-open is inside the timed window — convergence means every
    # writer is *looking at* the merged document, not just quiescent.
    texts = [w.session.open() for w in crew]
    convergence_s = now() - t0
    converged = all(t == texts[0] for t in texts[1:])
    return drain_rounds, convergence_s, converged


def _finish(crew: list[_Writer], converged: bool) -> tuple[bool, bool]:
    """Oracle + leak checks shared by both transports."""
    # plaintext oracle: the stored bytes decrypt to what writers see
    first = crew[0].session
    converged = converged and first.stored_text() == first.text
    leak_clean = not any(writer.leaked for writer in crew) and not any(
        _NEEDLE in blob
        for blob in leak_blobs(*(writer.session for writer in crew))
    )
    return converged, leak_clean


def _counters(cap) -> dict[str, float]:
    """The merge-path counters each cell reports (read after the
    capture context has closed — values finalize on exit)."""
    return {
        name: cap[name] for name in (
            "services.ot.transforms", "services.ot.composes",
            "services.ot.merges", "services.ot.rejects",
            "extension.merge_follows", "extension.merge_downgrades",
            "client.resyncs", "client.retries.attempts",
        )
    }


def _cell(service, transport, merge, writers, rounds, fault_rate, crew,
          drain_rounds, convergence_s, converged, leak_clean, counters,
          latency_source) -> CollabCell:
    saves = sum(w.saves for w in crew)
    conflicts = sum(w.conflicts for w in crew)
    return CollabCell(
        service=service, transport=transport, merge=merge,
        writers=writers, rounds=rounds, fault_rate=fault_rate,
        saves=saves, conflicts=conflicts,
        merges=int(counters.get("services.ot.merges", 0)),
        save_failures=sum(w.save_failures for w in crew),
        conflict_rate=round(conflicts / saves, 4) if saves else 0.0,
        drain_rounds=drain_rounds, converged=converged,
        convergence_s=round(convergence_s, 4),
        latency_source=latency_source, leak_clean=leak_clean,
        counters=counters,
    )


def _run_inprocess(writers, rounds, service, merge, scheme, fault_rate,
                   seed) -> CollabCell:
    from repro.obs import capture

    clock = SimClock()
    link = SharedLink(bytes_per_second=4_000_000.0)
    server = registry.make_server(service, merge_concurrent=merge)

    def writer(i: int) -> _Writer:
        latency = WAN_2011(seed=seed + i)
        latency.link = link
        return _Writer(i, service, scheme, fault_rate, seed,
                       server=server, clock=clock, latency=latency)

    with capture() as cap:
        crew = [writer(i) for i in range(writers)]
        drain_rounds, convergence_s, converged = _workload(
            crew, rounds, clock.now)
        converged, leak_clean = _finish(crew, converged)
    return _cell(service, "inprocess", merge, writers, rounds,
                 fault_rate, crew, drain_rounds, convergence_s,
                 converged, leak_clean, _counters(cap), "simulated")


def _run_socket(writers, rounds, service, merge, scheme, fault_rate,
                seed, address, service_time) -> CollabCell:
    from repro.net.pool import ConnectionPool
    from repro.net.server import ServerThread
    from repro.net.transport import AsyncioSocketTransport
    from repro.obs import capture

    hosted = None
    if address is None:
        hosted = ServerThread(shards=4, service_time=service_time,
                              merge_concurrent=merge)
        address = hosted.start()
    host, port = address
    pool = ConnectionPool(host, port, size=4, window=64, timeout=30.0)
    try:
        with capture() as cap:
            crew = [
                _Writer(i, service, scheme, fault_rate, seed,
                        transport=AsyncioSocketTransport(
                            host, port, service=service, pool=pool))
                for i in range(writers)
            ]
            drain_rounds, convergence_s, converged = _workload(
                crew, rounds, time.perf_counter)
            converged, leak_clean = _finish(crew, converged)
    finally:
        pool.close()
        if hosted is not None:
            hosted.stop()
    return _cell(service, "socket", merge, writers, rounds, fault_rate,
                 crew, drain_rounds, convergence_s, converged,
                 leak_clean, _counters(cap), "wall")
