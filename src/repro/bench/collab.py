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

The writers are a :mod:`repro.bench.fleet`, so both transports run
the same body: ``inprocess`` shares one simulated server and clock
across the writers; ``socket`` drives real pooled TCP frames against a
:class:`repro.net.server.ReproServer` hosted with
``merge_concurrent`` matching the cell.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.bench.fleet import SEED, Driver, fleet
from repro.crypto.random import DeterministicRandomSource
from repro.fuzz.model import leak_blobs
from repro.obs import capture
from repro.services import registry

__all__ = ["CollabCell", "run_collab", "SEED", "SENTINEL"]

#: lowercase canary typed by writer 0 — Base32 ciphertext is uppercase,
#: so any lowercase appearance in exchanged bytes is a leak
SENTINEL = "collabsentinel kilimanjaro"
_NEEDLE = SENTINEL.split()[0]

DOC_ID = "shared-collab-doc"
PASSWORD = "collab-password"

#: the merge-path counters each cell reports
_COUNTERS = (
    "services.ot.transforms", "services.ot.composes",
    "services.ot.merges", "services.ot.rejects",
    "extension.merge_follows", "extension.merge_downgrades",
    "client.resyncs", "client.retries.attempts",
)


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


class _Writer(Driver):
    """One collaborator on the shared document, with a leak tap."""

    def __init__(self, index: int, fault_rate: float, seed: int,
                 **session):
        super().__init__(
            index, DOC_ID, PASSWORD, fault_rate, seed, max_log=16,
            rng=DeterministicRandomSource((seed << 4) + index + 1),
            **session,
        )
        #: did any exchange carry the sentinel? (the log is a ring, so
        #: the tap judges each exchange as it completes)
        self.leaked = False
        self.session.channel.add_tap(self._tap)

    def _tap(self, exchange) -> None:
        parts = (exchange.request.url, exchange.request.body,
                 exchange.response.body)
        self.leaked = self.leaked or any(_NEEDLE in part for part in parts)

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


def _leak_clean(crew: list[_Writer]) -> bool:
    """No writer's tap saw the sentinel, and neither did the leak sweep
    over every blob the writers' sessions kept."""
    return not any(writer.leaked for writer in crew) and not any(
        _NEEDLE in blob
        for blob in leak_blobs(*(writer.session for writer in crew))
    )


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
    with fleet(transport, service, seed, address=address, shards=4,
               service_time=service_time, merge=merge, pool_size=4,
               window=64) as (keywords, now), capture() as cap:
        crew = [_Writer(i, fault_rate, seed, scheme=scheme,
                        service=service, **keywords(i, DOC_ID))
                for i in range(writers)]
        first = crew[0].session
        first.open()
        first.type_text(0, SENTINEL + " the quick brown fox. ")
        crew[0].save()
        for writer in crew[1:]:
            writer.session.open()
            writer.save()  # session-opening save (deduped on gdocs)
        for _ in range(rounds):
            for writer in crew:
                writer.edit_and_save()
        for writer in crew:
            if writer.plan is not None:
                writer.plan.quiesce()
        t0 = now()
        drain_rounds = _drain(
            crew, registry.backend_for(service).capabilities.revisioned)
        # the convergence judge: every editor re-opens to the same
        # text, inside the timed window — convergence means every
        # writer is *looking at* the merged document, not just
        # quiescent — and the stored bytes decrypt to that text
        texts = [w.session.open() for w in crew]
        convergence_s = now() - t0
        converged = all(t == texts[0] for t in texts[1:]) and \
            first.stored_text() == first.text
        leak_clean = _leak_clean(crew)
    saves = sum(w.saves for w in crew)
    conflicts = sum(w.conflicts for w in crew)
    return CollabCell(
        service=service, transport=transport, merge=merge,
        writers=writers, rounds=rounds, fault_rate=fault_rate,
        saves=saves, conflicts=conflicts,
        merges=int(cap["services.ot.merges"]),
        save_failures=sum(w.save_failures for w in crew),
        conflict_rate=round(conflicts / saves, 4) if saves else 0.0,
        drain_rounds=drain_rounds, converged=converged,
        convergence_s=round(convergence_s, 4),
        latency_source="wall" if transport == "socket" else "simulated",
        leak_clean=leak_clean,
        counters={name: cap[name] for name in _COUNTERS},
    )
