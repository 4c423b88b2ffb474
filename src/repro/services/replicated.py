"""Multi-provider replication (the availability extension).

The paper's introduction concedes: "a malicious or incompetent cloud
provider can easily prevent users from accessing their documents.  This
could be addressed using replication with multiple cloud providers, but
this is outside the scope of this paper."  This module builds that
replication — entirely client-side, requiring nothing from providers,
in the spirit of the rest of the system.

:class:`ReplicatedService` is itself an ``HttpRequest -> HttpResponse``
callable, so it slots in wherever one provider's server would: the
extension and client above it are unchanged and unaware.  It fans every
update out to N independent backends and reads with majority voting.
Everything provider-specific — how a request is classified, where the
document id lives, how per-provider session state is rewritten into a
fanned-out save, how raw stored bytes are copied for healing — goes
through a :class:`repro.services.backend.ServiceBackend`, so the facade
composes with *any* provider (gdocs sessions and revisions, Bespin
whole-file PUTs, Buzzword XML POSTs), not just Google Documents.

Mechanics worth noting:

* the facade routes by the backend's request grammar (``classify``),
  the same one the extension drops by: a request it classifies as
  :data:`~repro.services.backend.KIND_OTHER` (a server feature, an
  unknown path, method or form) is answered 404 and reaches no
  replica, and every replica answer is read through the backend's
  parsers (``parse_open`` for sid, revision and content;
  ``parse_save`` for revision and conflict);
* session-capable providers issue their own session ids and revision
  numbers, so the facade maintains per-backend ``sid``/``rev`` maps and
  rewrites them per backend through
  :meth:`~repro.services.backend.ServiceBackend.rewrite_session` — the
  client sees one logical session (sessionless providers need no
  rewriting and the hook is a no-op);
* a backend that errors or misses updates is marked **degraded** and is
  *healed* by copying the current (ciphertext!) stored bytes from a
  healthy backend — possible precisely because replication never needs
  to understand the data.  Incremental providers heal before the next
  delta fan-out (a delta applied to stale state would diverge);
  whole-file providers are healed by the very next full save, since
  every save rewrites the entire store;
* reads return the majority body; a provider that answers 404
  ("missing") casts an empty-content vote (a brand-new document looks
  missing everywhere — that must not count as degradation); disagreeing
  minorities are logged in ``divergences`` (an actively mismatching
  provider is adversary behaviour the caller may want to know about);
* writes succeed iff at least ``quorum`` backends acknowledged.

:class:`FlakyServer` wraps any backend with scriptable outages for the
availability tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.encoding.formenc import encode_form
from repro.errors import ProtocolError
from repro.net.http import HttpRequest, HttpResponse
from repro.services.backend import (
    GDOCS,
    KIND_OPEN,
    KIND_READ,
    KIND_SAVE_DELTA,
    KIND_SAVE_FULL,
    OpenState,
    SaveAck,
    ServiceBackend,
)

__all__ = ["ReplicatedService", "FlakyServer"]

Backend = Callable[[HttpRequest], HttpResponse]


class FlakyServer:
    """Wraps a backend with scriptable unavailability."""

    def __init__(self, backend: Backend):
        self._backend = backend
        self._down_for = 0
        self.requests_refused = 0

    def outage(self, requests: int) -> None:
        """Refuse the next ``requests`` requests."""
        self._down_for += requests

    def __call__(self, request: HttpRequest) -> HttpResponse:
        if self._down_for > 0:
            self._down_for -= 1
            self.requests_refused += 1
            return HttpResponse(503, encode_form({
                "error": "service unavailable",
            }))
        return self._backend(request)


@dataclass
class _BackendDocState:
    sid: str | None = None
    rev: int = -1
    degraded: bool = False


@dataclass
class _BackendSlot:
    backend: Backend
    docs: dict[str, _BackendDocState] = field(default_factory=dict)

    def doc(self, doc_id: str) -> _BackendDocState:
        return self.docs.setdefault(doc_id, _BackendDocState())


class ReplicatedService:
    """One logical document service over N independent backends.

    ``service`` names the wire protocol all backends speak (they must
    agree — replicating a gdocs server alongside a Bespin one would
    fan one provider's requests to another's endpoints).
    """

    def __init__(self, backends: list[Backend], quorum: int | None = None,
                 service: ServiceBackend = GDOCS):
        if not backends:
            raise ValueError("need at least one backend")
        self._slots = [_BackendSlot(b) for b in backends]
        self.quorum = quorum if quorum is not None else len(backends) // 2 + 1
        self.service = service
        self.divergences: list[str] = []
        self.failures: list[str] = []

    # -- dispatch --------------------------------------------------------

    def __call__(self, request: HttpRequest) -> HttpResponse:
        try:
            kind = self.service.classify(request)
            if kind == KIND_READ:
                return self._read(request)
            if kind in (KIND_SAVE_FULL, KIND_SAVE_DELTA):
                return self._write(request, kind)
            if kind == KIND_OPEN:
                return self._open(request)
        except ProtocolError as exc:
            # e.g. a corrupt fault mangled the body beyond parsing; a
            # real provider answers 400 (GDocsServer does the same) —
            # the facade must not crash the whole simulated cloud
            return HttpResponse(400, encode_form({"error": str(exc)}))
        return HttpResponse(404, encode_form({
            "error": f"unroutable request {request.method} {request.path}",
        }))

    # -- session open -------------------------------------------------------

    def _open(self, request: HttpRequest) -> HttpResponse:
        # Only a session protocol (gdocs) classifies a request as an
        # open, so every replica answers with a sid and a revision.
        doc_id = self.service.doc_id_of(request)
        opened: list[OpenState] = []
        for index, slot in enumerate(self._slots):
            session = self._session(index, doc_id, request)
            if session is None:
                self._mark_degraded(index, doc_id, "open failed")
            else:
                slot.doc(doc_id).degraded = False
                opened.append(session)
        if len(opened) < self.quorum:
            return HttpResponse(503, encode_form({
                "error": f"only {len(opened)} of {len(self._slots)} "
                         f"providers reachable (quorum {self.quorum})",
            }))
        # Logical session id: the facade's own token; content by majority.
        content = self._majority([s.content for s in opened], doc_id)
        return self.service.synthesize_open(
            doc_id, f"rep:{doc_id}", opened[0].rev, content
        )

    # -- writes -----------------------------------------------------------

    def _write(self, request: HttpRequest, kind: str) -> HttpResponse:
        doc_id = self.service.doc_id_of(request)
        acks: list[HttpResponse] = []
        is_full = kind == KIND_SAVE_FULL
        if not is_full:
            # Heal stragglers *before* fanning out, while every healthy
            # replica still holds the pre-update content (healing after
            # an update would copy post-update bytes and then apply the
            # delta twice).  Full saves need none of this: they rewrite
            # the whole store, healing degraded replicas as they land.
            for index, slot in enumerate(self._slots):
                if slot.doc(doc_id).degraded:
                    self._heal(index, doc_id)
        for index, slot in enumerate(self._slots):
            state = slot.doc(doc_id)
            if state.degraded and not is_full:
                continue  # heal failed; try again next update
            if self.service.capabilities.sessions and state.sid is None:
                if not self._reopen(index, doc_id):
                    continue
                state = slot.doc(doc_id)
            rewritten = self.service.rewrite_session(
                request, state.sid, state.rev
            )
            response = slot.backend(rewritten)
            ack = self._ack(response, state)
            if ack is None:
                self._mark_degraded(index, doc_id,
                                    f"status {response.status}")
            elif ack.conflict:
                # The backend diverged from the fleet; full saves heal.
                self._mark_degraded(index, doc_id, "conflict")
            else:
                state.degraded = False
                acks.append(response)
        if len(acks) < self.quorum:
            return HttpResponse(503, encode_form({
                "error": f"write acknowledged by {len(acks)} providers; "
                         f"quorum is {self.quorum}",
            }))
        return acks[0]

    # -- reads ------------------------------------------------------------

    def _read(self, request: HttpRequest) -> HttpResponse:
        doc_id = self.service.doc_id_of(request)
        votes: list[tuple[str, HttpResponse]] = []
        for index, slot in enumerate(self._slots):
            response = slot.backend(request)
            if response.ok:
                votes.append((response.body, response))
            elif response.status == 404:
                # "no such document" is a valid answer (empty vote), not
                # a provider failure — every replica starts that way.
                votes.append(("", response))
            else:
                self._mark_degraded(index, doc_id,
                                    f"read status {response.status}")
        if not votes:
            return HttpResponse(503, encode_form({
                "error": "no provider reachable",
            }))
        majority = self._majority([body for body, _ in votes], doc_id)
        winner = next(r for body, r in votes if body == majority)
        return winner

    # -- healing ------------------------------------------------------------

    def heal(self, doc_id: str) -> int:
        """Heal every degraded replica of ``doc_id`` now; returns how
        many were repaired.  (The write path calls :meth:`_heal` on its
        own schedule; this is the on-demand entry point for operators
        and tests.)"""
        healed = 0
        for index, slot in enumerate(self._slots):
            if slot.doc(doc_id).degraded and self._heal(index, doc_id):
                healed += 1
        return healed

    # -- internals ----------------------------------------------------------

    def _majority(self, bodies: list[str], doc_id: str) -> str:
        counts = Counter(bodies)
        winner, votes = counts.most_common(1)[0]
        if len(counts) > 1:
            self.divergences.append(
                f"{doc_id}: {len(counts)} distinct replicas "
                f"({votes}/{len(bodies)} agree)"
            )
        return winner

    def _session(self, index: int, doc_id: str,
                 request: HttpRequest) -> OpenState | None:
        """Send the open ``request`` to replica ``index`` and adopt the
        session it establishes; None when the open fails."""
        response = self._slots[index].backend(request)
        try:
            opened = self.service.parse_open(doc_id, response)
        except ProtocolError:
            return None
        state = self._slots[index].doc(doc_id)
        state.sid, state.rev = opened.sid, opened.rev
        return opened

    def _ack(self, response: HttpResponse,
             state: _BackendDocState) -> SaveAck | None:
        """A replica's save answer, its revision adopted into
        ``state``; None for a failed save (an error status, or an ack
        that does not parse)."""
        if not response.ok:
            return None
        try:
            ack = self.service.parse_save(response)
        except ProtocolError:
            return None
        if ack.rev is not None:
            state.rev = ack.rev
        return ack

    def _mark_degraded(self, index: int, doc_id: str, reason: str) -> None:
        self._slots[index].doc(doc_id).degraded = True
        self.failures.append(f"backend {index} / {doc_id}: {reason}")

    def _reopen(self, index: int, doc_id: str) -> bool:
        if not self.service.capabilities.sessions:
            return True  # nothing to establish
        return self._session(index, doc_id,
                             self.service.open_request(doc_id)) is not None

    def _heal(self, index: int, doc_id: str) -> bool:
        """Copy the (ciphertext) stored bytes from a healthy replica.

        The copy goes through
        :meth:`~repro.services.backend.ServiceBackend.store_request`,
        which writes *raw stored bytes* — not through the client-facing
        full-save builder, which may re-frame content (Buzzword's XML
        mapping) and would double-encode an already-stored body.
        """
        content: str | None = None
        for other_index, slot in enumerate(self._slots):
            if other_index == index:
                continue
            if slot.doc(doc_id).degraded:
                continue
            response = slot.backend(self.service.fetch_request(doc_id))
            if response.ok:
                content = response.body
                break
        if content is None:
            return False
        if not self._reopen(index, doc_id):
            return False
        slot = self._slots[index]
        state = slot.doc(doc_id)
        if self._ack(slot.backend(self.service.store_request(
            doc_id, state.sid, state.rev, content
        )), state) is None:
            return False
        state.degraded = False
        self.failures.append(f"backend {index} / {doc_id}: healed")
        return True

    # -- observability -------------------------------------------------------

    def backend_health(self, doc_id: str) -> list[bool]:
        """Per-backend health for ``doc_id`` (True = in sync)."""
        return [not slot.doc(doc_id).degraded for slot in self._slots]
