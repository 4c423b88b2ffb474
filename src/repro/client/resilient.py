"""The provider-agnostic resilient client core.

One session stack for every backend: this class owns everything that
used to be welded into the Google-Documents client — session/revision
bookkeeping, the retry loop driven by a
:class:`repro.net.policy.RetryPolicy`, idempotency keys, the typed
:class:`SaveOutcome` surface, conflict resync with OT rebase, and the
garbled-store full-save fallback.  What *varies* per provider (how to
phrase an open/save/fetch on the wire, how to read the answers, which
of these mechanisms the protocol can express at all) lives behind a
:class:`repro.services.backend.ServiceBackend`.  Bespin and Buzzword
sessions use this class as is; the Google Documents client adds only
its server-side feature calls.

Capability flags decide which machinery engages:

* ``incremental_updates`` — first save full, later saves delta; without
  it every save re-sends the whole document (the Bespin/Buzzword path,
  which is also the gdocs client's garbled-store fallback);
* ``revisioned`` — conflicts exist, so the resync-and-rebase recovery
  is reachable; without it saves are last-writer-wins;
* ``sessions`` — saving requires an open; sessionless providers accept
  a save cold;
* ``idempotency_keys`` — saves are stamped so a retried request is
  deduplicated rather than re-applied.

The client stays oblivious to the extension: it operates on plaintext
and never knows a mediator rewrote its traffic (requirement 2 of the
paper).  Fault behaviour is policy-gated exactly as before: with a
:class:`RetryPolicy` failures come back as ``SaveOutcome(ok=False)``
and never raise; without one any failed exchange raises — the
paper-faithful legacy contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.client.editor import EditorBuffer
from repro.core.delta import Delta
from repro.core.ot import transform
from repro.errors import (
    CryptoError,
    DeltaError,
    NetworkTimeoutError,
    PasswordError,
    ProtocolError,
    RetryBudgetExceededError,
    SessionError,
)
from repro.net.channel import Channel
from repro.net.http import HttpRequest, HttpResponse
from repro.net.policy import RetryPolicy, RetryState
from repro.obs import counter, histogram
from repro.services.backend import SaveAck, ServiceBackend
from repro.workloads.diff import derive_delta

__all__ = ["ResilientClient", "SaveOutcome", "CONFLICT_COMPLAINT"]

#: the user-visible complaint the paper reports during concurrent edits
CONFLICT_COMPLAINT = "multiple people editing the same region"

_RETRIES = counter("client.retries.attempts")
_TIMEOUTS = counter("client.retries.timeouts")
_GIVEUPS = counter("client.retries.giveups")
_BACKOFF = histogram("client.retries.backoff_seconds")
_RESYNCS = counter("client.resyncs")
_SAVE_FAILURES = counter("client.save_failures")
#: merged acks whose patch was applied to the editor text directly
#: (plaintext stacks; mediated stacks arrive with content instead)
_MERGES_ADOPTED = counter("client.merges_adopted")


@dataclass
class SaveOutcome:
    """What one save attempt did, for tests and benchmarks.

    ``ok`` is False only when a resilient client exhausted its retry
    budget or hit a non-retryable failure — the typed, non-raising
    surface of an unrecoverable fault (``error`` says which).  Legacy
    clients (no policy) raise instead, so their outcomes always have
    ``ok=True``.
    """

    kind: str              #: "full" | "delta" | "noop"
    ack: SaveAck | None = None
    conflict: bool = False
    complaints: list[str] = field(default_factory=list)
    ok: bool = True
    error: str | None = None
    attempts: int = 1
    resynced: bool = False


class ResilientClient:
    """One user's editing client for one document on any backend."""

    def __init__(self, channel: Channel, doc_id: str,
                 backend: ServiceBackend,
                 policy: RetryPolicy | None = None):
        self._channel = channel
        self.doc_id = doc_id
        self.backend = backend
        self.editor = EditorBuffer()
        self._sid: str | None = None
        self._rev = -1
        self._did_full_save = False
        #: None → legacy behaviour (failures raise, no retries, no idem
        #: keys, wire byte-identical to the paper's protocol)
        self._policy = policy
        #: per-session save sequence number; feeds idempotency keys
        self._seq = 0
        self.complaints: list[str] = []

    # -- session -----------------------------------------------------------

    @property
    def in_session(self) -> bool:
        return self._sid is not None

    @property
    def revision(self) -> int:
        return self._rev

    def open(self) -> str:
        """Open (or create) the document; returns its current text."""
        response = self._send(self.backend.open_request(self.doc_id))
        state = self.backend.parse_open(self.doc_id, response)
        self._sid = state.sid
        self._rev = state.rev
        self._did_full_save = False
        self.editor.resync(state.content)
        return self.editor.text

    def close(self) -> None:
        """End the session (a final save, then forget the sid)."""
        if self.editor.dirty:
            self.save()
        self._sid = None

    # -- editing sugar ----------------------------------------------------

    def type_text(self, pos: int, text: str) -> None:
        """User action: insert ``text`` at ``pos``."""
        self.editor.insert(pos, text)

    def delete_text(self, pos: int, count: int) -> None:
        """User action: delete ``count`` characters at ``pos``."""
        self.editor.delete(pos, count)

    def apply_delta(self, delta: Delta) -> None:
        """Apply a scripted edit to the local buffer."""
        self.editor.apply_delta(delta)

    # -- resilient delivery (policy-gated) ---------------------------------

    def _send(self, request: HttpRequest) -> HttpResponse:
        """One exchange, retried under the policy when one is set."""
        if self._policy is None:
            return self._channel.send(request)
        return self._deliver(request,
                             self._policy.make_state(self._channel.clock))

    def _deliver(self, request: HttpRequest,
                 state: RetryState) -> HttpResponse:
        """Send ``request``, retrying timeouts and retryable statuses.

        Returns the first conclusive response — success or a
        non-retryable error, or the last retryable error response once
        the budget is spent.  Raises
        :class:`~repro.errors.RetryBudgetExceededError` only when the
        budget dies on a *timeout* (no response to surface).
        """
        while True:
            try:
                response = self._channel.send(request)
            except NetworkTimeoutError as exc:
                _TIMEOUTS.inc()
                delay = state.backoff()
                if delay is None:
                    _GIVEUPS.inc()
                    raise RetryBudgetExceededError(
                        f"gave up after {state.attempts} attempts "
                        f"({state.elapsed:.2f}s simulated): {exc}"
                    ) from exc
                self._pause(delay)
                continue
            if not response.ok and self._policy.retryable(response):
                delay = state.backoff(response)
                if delay is None:
                    _GIVEUPS.inc()
                    return response
                self._pause(delay)
                continue
            return response

    def _pause(self, seconds: float) -> None:
        """Back off on the simulated clock (the only time source)."""
        _RETRIES.inc()
        _BACKOFF.observe(seconds)
        self._channel.clock.advance(seconds)

    # -- saving ------------------------------------------------------------

    def save(self) -> SaveOutcome:
        """Autosave: full on the session's first save, delta afterwards
        (providers without ``incremental_updates`` re-send the whole
        document every time — their protocol has nothing smaller).

        With a retry policy set, failures come back as a typed
        ``SaveOutcome(ok=False)`` instead of raising, and every save
        carries an idempotency key when the protocol supports one.
        """
        if self._policy is not None:
            return self._save_resilient()
        return self._save_legacy()

    def _require_session(self) -> None:
        if self.backend.capabilities.sessions and self._sid is None:
            raise SessionError("save outside an edit session")

    def _is_noop(self) -> bool:
        """Whole-file providers re-send even a clean buffer: the save
        *is* the protocol's only way to assert the stored state (and it
        overwrites anything a reordered stale save left behind)."""
        return (self.backend.capabilities.incremental_updates
                and self._did_full_save and not self.editor.dirty)

    def _build_save(self, idem: str | None) -> tuple[str, HttpRequest]:
        if self.backend.capabilities.incremental_updates \
                and self._did_full_save:
            return "delta", self.backend.delta_save_request(
                self.doc_id, self._sid, self._rev,
                self.editor.pending_delta().serialize(), idem=idem,
            )
        return "full", self.backend.full_save_request(
            self.doc_id, self._sid, self._rev, self.editor.text, idem=idem,
        )

    def _save_legacy(self) -> SaveOutcome:
        """The paper-faithful save path: any failed exchange raises."""
        self._require_session()
        if self._is_noop():
            return SaveOutcome(kind="noop")

        kind, request = self._build_save(idem=None)
        response = self._channel.send(request)
        if not response.ok:
            # Recover conservatively: the server's state is unknown, so
            # the next save re-sends the whole document (which also lets
            # a mediating extension rebuild its ciphertext mirror).
            self._did_full_save = False
            raise ProtocolError(f"save failed: {response.body}")
        ack = self.backend.parse_save(response)
        outcome = SaveOutcome(kind=kind, ack=ack, conflict=ack.conflict)

        if ack.conflict:
            self._handle_conflict(ack, outcome)
        elif ack.merged:
            # The server transformed this delta past concurrent edits
            # and echoed the merged result: adopt it silently (the
            # collaboration behaviour of the real client).
            self._adopt_merge(ack)
        else:
            self._adopt_ack(ack)
            self._check_consistency(ack, outcome)
        return outcome

    def _save_resilient(self) -> SaveOutcome:
        """Save under the retry policy: idempotent, typed, non-raising.

        The idempotency key makes the retry loop safe against the
        blackhole ambiguity (server processed the save but the ack was
        lost): the re-sent request carries the same key, so the server
        answers from its replay cache instead of applying twice — and
        the mediating extension re-sends the same ciphertext instead of
        re-transforming (which would corrupt its mirror).  Providers
        without idempotency keys get plain at-least-once retries, which
        is safe because their saves are whole-document overwrites.
        """
        self._require_session()
        if self._is_noop():
            return SaveOutcome(kind="noop")

        self._seq += 1
        idem = None
        if self.backend.capabilities.idempotency_keys:
            idem = f"{self._sid}:{self._seq}"
        kind, request = self._build_save(idem=idem)

        state = self._policy.make_state(self._channel.clock)
        try:
            response = self._deliver(request, state)
        except RetryBudgetExceededError as exc:
            return self._save_failed(kind, state, f"timeout: {exc}")
        except (DeltaError, CryptoError, PasswordError) as exc:
            # A mediating extension failed to transform the save (its
            # mirror diverged — e.g. the stored ciphertext was damaged
            # and a resync adopted unexpected state).  Typed failure;
            # the full-save fallback rebuilds the mirror from scratch.
            return self._save_failed(kind, state, f"transform: {exc}")
        if not response.ok:
            return self._save_failed(
                kind, state, f"http {response.status}: {response.body}"
            )
        try:
            ack = self.backend.parse_save(response)
        except ProtocolError as exc:
            # The response was mangled in flight; the server's state is
            # unknown, so recover exactly as for an error response.
            return self._save_failed(kind, state, f"malformed ack: {exc}")

        outcome = SaveOutcome(kind=kind, ack=ack, conflict=ack.conflict,
                              attempts=state.attempts)
        if ack.conflict:
            self._resync_and_rebase(outcome, state)
        elif ack.merged:
            # The merged content already includes this save's delta
            # (the server transformed and applied it); adopt it as the
            # legacy path does.  Rebasing pending edits over it — the
            # conflict recovery — would apply them a second time.
            self._adopt_merge(ack)
        else:
            self._adopt_ack(ack)
            self._check_consistency(ack, outcome)
        return outcome

    def _adopt_ack(self, ack: SaveAck) -> None:
        """A clean ack: the save landed; adopt the server's revision
        (providers that don't number revisions answer ``rev=None`` and
        the local counter stands)."""
        if ack.rev is not None:
            self._rev = ack.rev
        self._did_full_save = True
        self.editor.mark_synced()

    def _adopt_merge(self, ack: SaveAck) -> None:
        """Adopt a merged save.

        A mediating extension rewrites the merged Ack to carry the
        merged *plaintext* (it already fast-forwarded its mirror over
        the ciphertext patch), so the content branch resyncs as before.
        On a plaintext stack the Ack instead carries the server's
        ``mergePatch`` — a delta from our post-save document to the
        merged one — which we apply locally: the hash check first
        detects replayed merge Acks (the patch is already in; patch
        application is not idempotent), then validates the patched
        result before the editor adopts it.
        """
        if ack.rev is not None:
            self._rev = ack.rev
        self._did_full_save = True
        if ack.content_from_server:
            self.editor.resync(ack.content_from_server)
            return
        if ack.merge_patch:
            if self.backend.ack_consistent(ack, self.editor.text):
                self.editor.mark_synced()  # replayed merge Ack
                return
            merged: str | None
            try:
                merged = Delta.parse(ack.merge_patch).apply(self.editor.text)
            except DeltaError:
                merged = None
            if merged is not None and \
                    self.backend.ack_consistent(ack, merged) is not False:
                _MERGES_ADOPTED.inc()
                self.editor.resync(merged)
                return
            # The patch does not reproduce the server's merged state —
            # re-assert the local text with a full save next round.
            self._did_full_save = False
            self.complaints.append(
                "merge patch did not apply cleanly; scheduling a full "
                "save"
            )
            return
        self.editor.mark_synced()

    def _save_failed(self, kind: str, state: RetryState,
                     error: str) -> SaveOutcome:
        """Typed unrecoverable-save surface: never an exception, and the
        next save re-sends the whole document (rebuilding the mediating
        extension's mirror along the way)."""
        _SAVE_FAILURES.inc()
        self._did_full_save = False
        return SaveOutcome(kind=kind, ok=False, error=error,
                           attempts=state.attempts)

    def _resync_and_rebase(self, outcome: SaveOutcome,
                           state: RetryState) -> None:
        """Conflict recovery: fetch, adopt, replay pending local edits.

        Only reachable on ``revisioned`` backends (others never answer
        ``conflict``).  The server's authoritative content comes from
        the Ack when present, else from a document fetch (which, under
        a mediating extension, also rebuilds the extension's ciphertext
        mirror from the stored bytes).  Local edits not yet acknowledged
        are rebased over the server's concurrent change with the server
        given priority, then left pending for the next save.
        """
        _RESYNCS.inc()
        outcome.resynced = True
        ack = outcome.ack
        synced = self.editor.synced_text
        local = self.editor.text

        if ack is not None and ack.content_from_server:
            fetched = ack.content_from_server
            rev = ack.rev if ack.rev is not None else self._rev
        else:
            try:
                response = self._deliver(
                    self.backend.fetch_request(self.doc_id), state
                )
            except RetryBudgetExceededError as exc:
                outcome.ok = False
                outcome.error = f"resync fetch timed out: {exc}"
                outcome.attempts = state.attempts
                _SAVE_FAILURES.inc()
                self._did_full_save = False
                return
            if not response.ok:
                outcome.ok = False
                outcome.error = (
                    f"resync fetch failed: http {response.status}"
                )
                outcome.attempts = state.attempts
                _SAVE_FAILURES.inc()
                self._did_full_save = False
                return
            fetch = self.backend.parse_fetch(self.doc_id, response,
                                             self._rev)
            fetched = fetch.content
            rev = fetch.rev

        if self._looks_garbled(fetched):
            # What came back is not readable text — under a mediating
            # extension this means the stored ciphertext no longer
            # decrypts (corrupted at rest or in flight).  Abandon the
            # fetched state and schedule a full save: the local
            # plaintext overwrites the damaged store.
            complaint = "stored document unreadable; re-saving local copy"
            self.complaints.append(complaint)
            outcome.complaints.append(complaint)
            self._did_full_save = False
            # adopt the server's stated revision outright: a corrupted
            # Ack may have forged our _rev HIGHER than the server's
            # truth, and max() would keep the forgery forever (every
            # later save conflicting on a revision that never existed)
            self._rev = rev if ack is None or ack.rev is None else ack.rev
            return

        if fetched == local:
            # The save we believed lost (or conflicted) actually
            # landed: the server's text already IS our local text.
            # There is nothing to replay — rebasing the pending edit
            # over it would apply the edit a second time.
            self.editor.resync(fetched, reason="conflict")
            self._rev = rev
            self._did_full_save = True
            return

        pending = derive_delta(synced, local)
        server_change = derive_delta(synced, fetched)
        self.editor.resync(fetched, reason="conflict")
        try:
            rebased = transform(pending, server_change, priority="right")
            self.editor.set_text(rebased.apply(fetched))
        except DeltaError:
            # Rebase impossible (divergence too deep): keep the server's
            # text; the user's unsaved edits are lost, reported loudly.
            complaint = CONFLICT_COMPLAINT
            self.complaints.append(complaint)
            outcome.complaints.append(complaint)
        self._rev = rev
        self._did_full_save = True

    @staticmethod
    def _looks_garbled(content: str) -> bool:
        """Would a user recognize this as *their* document?  Models the
        human glance that notices ciphertext/pseudo-prose where prose
        should be (the client stays oblivious of crypto details; these
        detectors are the simulation's stand-in for that glance).

        The uppercase-ratio fallback catches ciphertext whose header
        was damaged in flight — it no longer parses as a wire document,
        but it still does not read as the user's prose."""
        from repro.encoding.stego import looks_stego
        from repro.encoding.wire import looks_encrypted
        if looks_encrypted(content) or looks_stego(content):
            return True
        letters = [c for c in content if c.isalpha()]
        if len(letters) < 16:
            return False
        upper = sum(1 for c in letters if c.isupper())
        return upper / len(letters) > 0.9

    def _handle_conflict(self, ack: SaveAck,
                         outcome: SaveOutcome) -> None:
        """Resync from the server's authoritative content when it is
        available; otherwise (the extension blanked it) complain exactly
        as the paper observed."""
        if ack.content_from_server:
            self.editor.resync(ack.content_from_server, reason="conflict")
            if ack.rev is not None:
                self._rev = ack.rev
        else:
            complaint = CONFLICT_COMPLAINT
            self.complaints.append(complaint)
            outcome.complaints.append(complaint)
            # Recover by re-entering the full-save path next time.
            self._did_full_save = False
            if ack.rev is not None:
                self._rev = ack.rev

    def _check_consistency(self, ack: SaveAck,
                           outcome: SaveOutcome) -> None:
        """The backend's ack-vs-local consistency check, when its
        protocol has one (gdocs' ``contentFromServerHash``; a neutral
        hash carries no information and the check abstains — the
        behaviour the paper relied on when blanking these fields)."""
        verdict = self.backend.ack_consistent(ack, self.editor.text)
        if verdict is None or verdict:
            return
        complaint = "local text diverged from server content"
        self.complaints.append(complaint)
        outcome.complaints.append(complaint)
        if ack.content_from_server:
            self.editor.resync(ack.content_from_server)

    # -- read-only refresh (the passive collaborator) ------------------

    def refresh(self) -> str:
        """Fetch current content outside the save path (passive reader)."""
        response = self._send(self.backend.fetch_request(self.doc_id))
        if not response.ok and response.status != 404:
            raise ProtocolError(f"refresh failed: {response.body}")
        fetch = self.backend.parse_fetch(self.doc_id, response, self._rev)
        self.editor.resync(fetch.content)
        self._rev = fetch.rev
        return self.editor.text

    # -- client-side features (keep working under the extension) ----------

    def word_count(self) -> int:
        """Client-side feature: operates on local plaintext only."""
        return len(self.editor.text.split())
