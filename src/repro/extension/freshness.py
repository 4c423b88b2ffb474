"""Rollback detection (a freshness extension beyond the paper).

The paper's schemes verify that a stored document is *internally*
consistent, but an old, internally consistent version replayed by the
server verifies just as well — the rollback attack demonstrated in
``tests/integration/test_attack_scenarios.py``.  Detecting staleness
fundamentally needs trusted state *outside* the document; the natural
place is the same place the paper already trusts: the client-side
extension.

The :class:`FreshnessMonitor` is that state: the one record of what
this client has witnessed of each document.

* **The RPC version.**  Every RPC update bumps a monotonic version
  counter bound into the (AES-protected) checksum record
  (:mod:`repro.core.rpc`).  The monitor remembers the highest version
  the server acknowledged or served; a document later loaded with a
  *lower* version is a replayed snapshot.
* **The audit anchor.**  For documents on the hash-chained audit trail
  (:mod:`repro.core.auditchain`) it remembers the newest verified
  entry.  :meth:`FreshnessMonitor.witness` is the one rule every audit
  input passes — an Ack's link and a fetched chain alike: entries at or
  before the anchor's revision must *be* the anchor, later ones must
  chain from it, and the head must match the store.
* **The alerts.**  Every integrity alert either check raises, as
  ``(doc_id, message)``.

Engines (mirrors and their taint) stay per session: one monitor may
serve two live sessions of a document, and a shared mirror would
splice one session's edits into the other's.

Limits (documented, not hidden): the monitor's memory is per client, so
a rollback to a state this client never saw — or a rollback served only
to a *different* collaborator — is not detected; that needs SPORC-style
cross-client machinery, which the paper explicitly leaves out of scope.
"""

from __future__ import annotations

from repro.core.auditchain import AuditEntry, verify_entries
from repro.errors import IntegrityError
from repro.obs import counter

__all__ = ["RollbackError", "FreshnessMonitor"]

#: reads that presented an older version than this client has seen
_STALE_READS = counter("extension.freshness.stale_reads")
#: integrity alerts raised (stale reads and audit-chain findings)
_ALERTS = counter("extension.freshness.alerts")


class RollbackError(IntegrityError):
    """The server presented an older version than this client has seen."""


class FreshnessMonitor:
    """Per-document RPC high-water marks, audit anchors and alerts."""

    def __init__(self) -> None:
        self._high_water: dict[str, int] = {}
        self._anchors: dict[str, AuditEntry] = {}
        #: every integrity alert ever raised, ``(doc_id, message)``
        self.alerts: list[tuple[str, str]] = []

    def alert(self, doc_id: str, message: str) -> list[str]:
        """Record one integrity alert; returns ``[message]``, the
        alerts raised."""
        self.alerts.append((doc_id, message))
        _ALERTS.inc()
        return [message]

    # -- the RPC version ---------------------------------------------------

    def last_seen(self, doc_id: str) -> int | None:
        """The highest version observed for ``doc_id`` (None if never)."""
        return self._high_water.get(doc_id)

    def observe(self, doc_id: str, version: int) -> None:
        """Record a version the server acknowledged or this client
        accepted."""
        current = self._high_water.get(doc_id, -1)
        if version > current:
            self._high_water[doc_id] = version

    def check(self, doc_id: str, version: int) -> None:
        """Raise :class:`RollbackError` (and alert) when ``version``
        regresses."""
        current = self._high_water.get(doc_id)
        if current is not None and version < current:
            _STALE_READS.inc()
            message = (
                f"document {doc_id!r} loaded at version {version}, but "
                f"this client has already seen version {current} "
                f"(server rollback/replay)")
            self.alert(doc_id, message)
            raise RollbackError(message)

    # -- the audit anchor --------------------------------------------------

    def anchor(self, doc_id: str) -> AuditEntry | None:
        """The newest audit entry witnessed and verified (None if none)."""
        return self._anchors.get(doc_id)

    def adopt(self, doc_id: str, entry: AuditEntry) -> None:
        """Trust ``entry`` on first use, with no anchor to check it by."""
        self._anchors[doc_id] = entry

    def witness(self, doc_id: str, entries, stored=None) -> list[str]:
        """Check audit ``entries`` against the anchor; adopt the last.

        Every entry at or before the anchor's revision must be the
        anchor; every later one must chain from it (from genesis when
        there is no anchor); ``stored``, the store's ``(rev,
        ciphertext_hash)``, must match the head.  Returns the alerts
        raised; the head becomes the anchor only when there are none.
        """
        anchor = self._anchors.get(doc_id)
        problems: list[str] = []
        at = 0
        while anchor is not None and at < len(entries) \
                and entries[at].rev <= anchor.rev:
            if entries[at].rev < anchor.rev:
                problems.append(f"audit rev {entries[at].rev} behind "
                                f"trusted rev {anchor.rev} (rollback)")
            elif entries[at] != anchor:
                problems.append(f"audit entry at trusted rev {anchor.rev} "
                                f"is not the anchor (forged chain)")
            at += 1
        problems += [f"audit chain corrupt: {problem}" for problem
                     in verify_entries(entries[at:], start=anchor)]
        head = entries[-1] if entries else None
        if head is None and anchor is not None:
            problems.append("audit chain vanished after it was witnessed")
        elif head is not None and stored is not None:
            if head.rev != stored[0]:
                problems.append(f"audit head rev {head.rev} != document rev "
                                f"{stored[0]} (rollback or unaudited writes)")
            elif head.ciphertext_hash != stored[1]:
                problems.append(f"stored ciphertext does not match audited "
                                f"head at rev {head.rev} (rollback)")
        for problem in problems:
            self.alert(doc_id, problem)
        if head is not None and not problems:
            self._anchors[doc_id] = head
        return problems

    def forget(self, doc_id: str) -> None:
        """Drop state (e.g. the user deliberately restored an old
        revision out of band)."""
        self._high_water.pop(doc_id, None)
        self._anchors.pop(doc_id, None)
