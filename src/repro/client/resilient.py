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
paper).  :meth:`ResilientClient.save` is the one code path that builds,
sends, parses and recovers a save; the retry policy is a policy of that
path, not a second one.  With a :class:`RetryPolicy` failures come back
as ``SaveOutcome(ok=False)`` and never raise, and a conflict is resolved
by fetch and rebase.  Without one the save is the paper's: one attempt,
no idempotency key, any failure raises, and a conflict adopts the Ack's
content or raises the paper's complaint.  Either way one failure
handler makes the next save a full one.
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
    surface of an unrecoverable fault (``error`` says which).  Clients
    without a policy raise instead, so their outcomes always have
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

    @property
    def clean(self) -> bool:
        """Landed with nothing left to repair: ok, no conflict, no
        resync (a resync leaves rebased edits pending)."""
        return self.ok and not self.conflict and not self.resynced


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
        #: None → the paper's client (failures raise, no retries, no
        #: idem keys, wire byte-identical to the paper's protocol)
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
        response = self._send(self.backend.open_request(self.doc_id),
                              self._retry_state())
        state = self.backend.parse_open(self.doc_id, response)
        self._sid = state.sid
        self._rev = state.rev
        self._did_full_save = False
        plain = self._plaintext(state.content)
        self.editor.resync(state.content if plain is None else plain)
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

    # -- the rewritable components: a client that rewrites its own
    # traffic overrides these and inherits every save, open and recovery

    def _full_payload(self, text: str) -> str:
        """What a full save carries for the document ``text``."""
        return text

    def _delta_payload(self, delta: Delta) -> str:
        """What a delta save carries for the pending edit ``delta``."""
        return delta.serialize()

    def _plaintext(self, content: str) -> str | None:
        """The text the server's ``content`` stands for; None when it
        cannot be read."""
        return content

    def _hashed_text(self) -> str:
        """The stored form of the document the Ack's hash covers."""
        return self.editor.text

    # -- delivery (retried under the policy) -------------------------------

    def _retry_state(self) -> RetryState | None:
        """A fresh retry budget for one operation; None without a
        policy (one attempt, failures raise)."""
        if self._policy is None:
            return None
        return self._policy.make_state(self._channel.clock)

    def _send(self, request: HttpRequest,
              state: RetryState | None = None) -> HttpResponse:
        """Send ``request`` once, or under ``state`` retrying timeouts
        and retryable statuses.

        Under a budget, returns the first conclusive response — success
        or a non-retryable error, or the last retryable error response
        once the budget is spent — and raises
        :class:`~repro.errors.RetryBudgetExceededError` only when the
        budget dies on a *timeout* (no response to surface).
        """
        if state is None:
            return self._channel.send(request)
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

    def _require_session(self) -> None:
        if self.backend.capabilities.sessions and self._sid is None:
            raise SessionError("save outside an edit session")

    def _is_noop(self) -> bool:
        """Whole-file providers re-send even a clean buffer: the save
        *is* the protocol's only way to assert the stored state (and it
        overwrites anything a reordered stale save left behind)."""
        return (self.backend.capabilities.incremental_updates
                and self._did_full_save and not self.editor.dirty)

    def _build_save(self, kind: str, idem: str | None) -> HttpRequest:
        if kind == "delta":
            return self.backend.delta_save_request(
                self.doc_id, self._sid, self._rev,
                self._delta_payload(self.editor.pending_delta()), idem=idem,
            )
        return self.backend.full_save_request(
            self.doc_id, self._sid, self._rev,
            self._full_payload(self.editor.text), idem=idem,
        )

    def save(self) -> SaveOutcome:
        """Autosave: full on the session's first save, delta afterwards
        (providers without ``incremental_updates`` re-send the whole
        document every time — their protocol has nothing smaller).

        With a retry policy set, failures come back as a typed
        ``SaveOutcome(ok=False)`` instead of raising, and every save
        carries an idempotency key when the protocol supports one.  The
        key makes the retry loop safe against the blackhole ambiguity
        (server processed the save but the ack was lost): the re-sent
        request carries the same key, so the server answers from its
        replay cache instead of applying twice — and the mediating
        extension re-sends the same ciphertext instead of
        re-transforming (which would corrupt its mirror).  Providers
        without idempotency keys get plain at-least-once retries, which
        is safe because their saves are whole-document overwrites.

        Without a policy (the paper's client) the save gets one attempt
        and no key, and a failure raises.  Either way a failure makes
        the next save a full one.
        """
        self._require_session()
        if self._is_noop():
            return SaveOutcome(kind="noop")

        state = self._retry_state()
        self._seq += 1
        idem = None
        if state is not None and self.backend.capabilities.idempotency_keys:
            idem = f"{self._sid}:{self._seq}"
        kind = "full"
        if self.backend.capabilities.incremental_updates \
                and self._did_full_save:
            kind = "delta"
        outcome = SaveOutcome(kind=kind)
        try:
            response = self._send(self._build_save(kind, idem), state)
        except (NetworkTimeoutError, RetryBudgetExceededError) as exc:
            return self._save_failed(outcome, state, f"timeout: {exc}", exc)
        except (DeltaError, CryptoError, PasswordError) as exc:
            # A mediating extension (or a rewritten payload component)
            # failed to transform the save: its mirror diverged — e.g.
            # the stored ciphertext was damaged and a resync adopted
            # unexpected state.  The full save rebuilds the mirror.
            return self._save_failed(outcome, state, f"transform: {exc}",
                                     exc)
        if not response.ok:
            return self._save_failed(
                outcome, state, f"http {response.status}: {response.body}",
                ProtocolError(f"save failed: {response.body}"),
            )
        try:
            ack = self.backend.parse_save(response)
        except ProtocolError as exc:
            # The response was mangled in flight; the server's state is
            # unknown, so recover exactly as for an error response.
            return self._save_failed(outcome, state,
                                     f"malformed ack: {exc}", exc)

        outcome.ack = ack
        outcome.conflict = ack.conflict
        if state is not None:
            outcome.attempts = state.attempts
        if ack.conflict and state is not None:
            self._resync_and_rebase(outcome, state)
        elif ack.conflict:
            self._adopt_conflict(outcome)
        elif ack.merged:
            # The merged content already includes this save's delta
            # (the server transformed and applied it): adopt it.
            # Rebasing pending edits over it — the conflict recovery —
            # would apply them a second time.
            self._adopt_merge(ack)
        else:
            self._adopt_ack(ack)
            self._check_consistency(ack, outcome)
        return outcome

    def _save_failed(self, outcome: SaveOutcome, state: RetryState | None,
                     error: str, exc: Exception | None = None) -> SaveOutcome:
        """The one failure handler.  The server's state is unknown, so
        the next save re-sends the whole document (rebuilding a
        mediating extension's mirror along the way).  Under a policy
        the failure is the typed outcome ``error``; without one, ``exc``
        is raised."""
        self._did_full_save = False  # a failed save: full-save next time
        if state is None:
            raise exc
        _SAVE_FAILURES.inc()
        outcome.ok = False
        outcome.error = error
        outcome.attempts = state.attempts
        return outcome

    def _complain(self, outcome: SaveOutcome, complaint: str) -> None:
        self.complaints.append(complaint)
        outcome.complaints.append(complaint)

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
        merged = self._plaintext(ack.content_from_server)
        if merged:
            self.editor.resync(merged)
            return
        if ack.merge_patch:
            if self.backend.ack_consistent(ack, self.editor.text):
                self.editor.mark_synced()  # replayed merge Ack
                return
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

    def _adopt_conflict(self, outcome: SaveOutcome) -> None:
        """The paper's conflict handling: resync from the server's
        authoritative content when the Ack carries it readably;
        otherwise (the extension blanked it) complain exactly as the
        paper observed and full-save next time.  Never fetches."""
        ack = outcome.ack
        if ack.rev is not None:
            self._rev = ack.rev
        content = self._plaintext(ack.content_from_server)
        if content:
            self.editor.resync(content, reason="conflict")
            return
        self._complain(outcome, CONFLICT_COMPLAINT)
        self._did_full_save = False

    def _resync_and_rebase(self, outcome: SaveOutcome,
                           state: RetryState) -> None:
        """Conflict recovery under a policy: fetch, adopt, replay
        pending local edits.

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
            content = ack.content_from_server
            rev = ack.rev if ack.rev is not None else self._rev
        else:
            try:
                response = self._send(
                    self.backend.fetch_request(self.doc_id), state
                )
            except RetryBudgetExceededError as exc:
                self._save_failed(outcome, state,
                                  f"resync fetch timed out: {exc}")
                return
            if not response.ok:
                self._save_failed(
                    outcome, state,
                    f"resync fetch failed: http {response.status}",
                )
                return
            fetch = self.backend.parse_fetch(self.doc_id, response,
                                             self._rev)
            content = fetch.content
            rev = fetch.rev

        fetched = self._plaintext(content)
        if fetched is None or self._looks_garbled(fetched):
            # What came back is not readable text — under a mediating
            # extension this means the stored ciphertext no longer
            # decrypts (corrupted at rest or in flight).  Abandon the
            # fetched state and schedule a full save: the local
            # plaintext overwrites the damaged store.
            self._complain(
                outcome, "stored document unreadable; re-saving local copy"
            )
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
            self._complain(outcome, CONFLICT_COMPLAINT)
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

    def _check_consistency(self, ack: SaveAck,
                           outcome: SaveOutcome) -> None:
        """The backend's ack-vs-local consistency check, when its
        protocol has one (gdocs' ``contentFromServerHash``; a neutral
        hash carries no information and the check abstains — the
        behaviour the paper relied on when blanking these fields)."""
        verdict = self.backend.ack_consistent(ack, self._hashed_text())
        if verdict is None or verdict:
            return
        self._complain(outcome, "local text diverged from server content")
        content = self._plaintext(ack.content_from_server)
        if content:
            self.editor.resync(content)

    # -- read-only refresh (the passive collaborator) ------------------

    def refresh(self) -> str:
        """Fetch current content outside the save path (passive reader)."""
        response = self._send(self.backend.fetch_request(self.doc_id),
                              self._retry_state())
        if not response.ok and response.status != 404:
            raise ProtocolError(f"refresh failed: {response.body}")
        fetch = self.backend.parse_fetch(self.doc_id, response, self._rev)
        plain = self._plaintext(fetch.content)
        self.editor.resync(fetch.content if plain is None else plain)
        self._rev = fetch.rev
        return self.editor.text

    # -- client-side features (keep working under the extension) ----------

    def word_count(self) -> int:
        """Client-side feature: operates on local plaintext only."""
        return len(self.editor.text.split())
