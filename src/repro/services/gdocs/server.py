"""The simulated Google Documents server.

Implements the protocol of :mod:`repro.services.gdocs.protocol` over the
literal store of :mod:`repro.services.gdocs.storage`:

* session management (``POST /Doc?docID=...`` opens a session);
* full saves (``docContents``) and incremental saves (``delta``);
* Ack responses carrying ``contentFromServer`` / ``contentFromServerHash``;
* a conservative conflict rule: a delta whose base revision is stale is
  rejected with ``conflict=1`` (the real server ran operational
  transforms; rejection models the *client-visible* outcome — the
  resync dance — without reimplementing Google's merge);
* idempotency-key deduplication: a save carrying an ``idem`` form field
  the server has already answered (same session) gets the cached Ack
  back without re-applying — what makes client retries and duplicated/
  late-delivered requests safe under the fault model of
  :mod:`repro.net.faults`;
* the server-side features the extension must break: spell checking,
  translation, export, and drawing (SVII-A's functionality losses), all
  of which read the *stored* content — which is exactly why they stop
  working once the store holds ciphertext.

The server is a plain callable ``HttpRequest -> HttpResponse`` so it
plugs straight into :class:`repro.net.channel.Channel`.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict

from repro.encoding.formenc import encode_form
from repro.errors import DeltaError, ProtocolError, QuotaExceededError
from repro.net.http import HttpRequest, HttpResponse
from repro.obs import counter
from repro.services.gdocs import protocol
from repro.services.gdocs.storage import DocumentStore, StoredDocument
from repro.workloads.text import WORDS

__all__ = ["GDocsServer", "EditSession"]

#: requests by endpoint: services.gdocs.requests.{open,full_save,
#: delta_save,fetch,feature,error}
_REQ_OPEN = counter("services.gdocs.requests.open")
_REQ_FULL_SAVE = counter("services.gdocs.requests.full_save")
_REQ_DELTA_SAVE = counter("services.gdocs.requests.delta_save")
_REQ_FETCH = counter("services.gdocs.requests.fetch")
_REQ_FEATURE = counter("services.gdocs.requests.feature")
_REQ_ERROR = counter("services.gdocs.requests.error")
_MERGES = counter("services.gdocs.merges")
_DEDUP_HITS = counter("services.gdocs.dedup_hits")

#: idempotency-key responses remembered per server (a ring; replays of
#: saves older than this window are no longer deduplicated)
IDEM_CACHE_SIZE = 256


class EditSession:
    """One client's edit session on one document."""

    def __init__(self, sid: str, doc_id: str):
        self.sid = sid
        self.doc_id = doc_id
        self.saw_full_save = False


class GDocsServer:
    """A callable HTTP endpoint implementing the gdocs protocol.

    ``reject_encrypted=True`` models the hostile provider of SVI-A that
    "could recognize the use of encryption and refuse to store any
    content that appears to be encrypted" — saves whose resulting
    content trips :func:`repro.security.analysis.encryption_score` are
    refused with 403.  The steganographic mode of the extension exists
    to defeat exactly this policy.
    """

    def __init__(self, store: DocumentStore | None = None,
                 reject_encrypted: bool = False,
                 merge_concurrent: bool = False):
        self.store = store if store is not None else DocumentStore()
        self.reject_encrypted = reject_encrypted
        #: merge stale deltas via operational transformation instead of
        #: rejecting them (what the real 2011 server did)
        self.merge_concurrent = merge_concurrent
        self._sessions: dict[str, EditSession] = {}
        self._sid_counter = itertools.count(1)
        self.merges_performed = 0
        #: (sid, idempotency key) -> the Ack already sent for that save;
        #: a retransmit (client retry or network duplicate) replays the
        #: cached answer instead of re-applying the content
        self._idem_cache: OrderedDict[tuple[str, str], HttpResponse] = \
            OrderedDict()

    def _censor(self, content: str) -> HttpResponse | None:
        if not self.reject_encrypted:
            return None
        from repro.security.analysis import (
            ENCRYPTION_THRESHOLD,
            encryption_score,
        )
        if encryption_score(content) > ENCRYPTION_THRESHOLD:
            return _error(403, "content appears to be encrypted; refused")
        return None

    # -- dispatch -------------------------------------------------------

    def __call__(self, request: HttpRequest) -> HttpResponse:
        try:
            return self._dispatch(request)
        except QuotaExceededError as exc:
            return _error(413, str(exc))
        except ProtocolError as exc:
            return _error(400, str(exc))
        except DeltaError as exc:
            # a delta field the client sent (or the network mangled)
            # that does not parse or apply is bad input, not a crash
            return _error(400, f"bad delta: {exc}")

    def _dispatch(self, request: HttpRequest) -> HttpResponse:
        if request.path != protocol.DOC_PATH:
            return _error(404, f"no such path {request.path!r}")
        params = request.query
        doc_id = params.get("docID")
        if not doc_id:
            return _error(400, "missing docID")

        action = params.get("action")
        if request.method == "GET":
            _REQ_FETCH.inc()
            return self._fetch(doc_id)
        if request.method != "POST":
            return _error(405, f"method {request.method} not allowed")
        if action:
            _REQ_FEATURE.inc()
            return self._feature(doc_id, action, request)

        form = request.form if request.body else {}
        if protocol.F_DOC_CONTENTS in form:
            _REQ_FULL_SAVE.inc()
            return self._full_save(doc_id, form)
        if protocol.F_DELTA in form:
            _REQ_DELTA_SAVE.inc()
            return self._delta_save(doc_id, form)
        _REQ_OPEN.inc()
        return self._open(doc_id)

    # -- session & saves -----------------------------------------------

    def _open(self, doc_id: str) -> HttpResponse:
        doc = self.store.get_or_create(doc_id)
        sid = f"s{next(self._sid_counter)}"
        self._sessions[sid] = EditSession(sid, doc_id)
        return HttpResponse(200, encode_form({
            protocol.F_SID: sid,
            protocol.A_REV: str(doc.revision),
            protocol.A_CONTENT: doc.content,
        }))

    def _session(self, form: dict[str, str], doc_id: str) -> EditSession:
        sid = form.get(protocol.F_SID, "")
        session = self._sessions.get(sid)
        if session is None or session.doc_id != doc_id:
            raise ProtocolError(f"invalid session {sid!r} for {doc_id!r}")
        return session

    # -- idempotency -----------------------------------------------------

    def _replayed(self, session: EditSession,
                  form: dict[str, str]) -> HttpResponse | None:
        """The cached Ack for this idempotency key, if already answered."""
        idem = form.get(protocol.F_IDEM)
        if not idem:
            return None
        cached = self._idem_cache.get((session.sid, idem))
        if cached is not None:
            _DEDUP_HITS.inc()
        return cached

    def _remember(self, session: EditSession, form: dict[str, str],
                  response: HttpResponse) -> HttpResponse:
        """Cache a save's Ack under its idempotency key (ring-capped)."""
        idem = form.get(protocol.F_IDEM)
        if idem:
            self._idem_cache[(session.sid, idem)] = response
            while len(self._idem_cache) > IDEM_CACHE_SIZE:
                self._idem_cache.popitem(last=False)
        return response

    def _full_save(self, doc_id: str, form: dict[str, str]) -> HttpResponse:
        session = self._session(form, doc_id)
        replayed = self._replayed(session, form)
        if replayed is not None:
            return replayed
        content = form[protocol.F_DOC_CONTENTS]
        refused = self._censor(content)
        if refused is not None:
            return refused
        doc = self.store.get(doc_id)
        if content == doc.content:
            # Identical re-upload (typically a session's opening save):
            # no new revision — keeps merge windows across sessions open.
            session.saw_full_save = True
            return self._remember(session, form,
                                  self._ack(doc, conflict=False))
        doc = self.store.set_content(doc_id, content)
        session.saw_full_save = True
        return self._remember(session, form, self._ack(doc, conflict=False))

    def _delta_save(self, doc_id: str, form: dict[str, str]) -> HttpResponse:
        session = self._session(form, doc_id)
        replayed = self._replayed(session, form)
        if replayed is not None:
            return replayed
        if not session.saw_full_save:
            raise ProtocolError(
                "protocol violation: delta save before the session's "
                "full save"
            )
        doc = self.store.get(doc_id)
        try:
            base_rev = int(form.get(protocol.F_REV, "-1"))
        except ValueError:
            raise ProtocolError(
                f"malformed rev {form.get(protocol.F_REV)!r}"
            ) from None
        if base_rev != doc.revision:
            if self.merge_concurrent and 0 <= base_rev < doc.revision:
                merged = self._merge_stale_delta(doc_id, base_rev, form)
                if merged is not None:
                    return self._remember(session, form, merged)
            # Someone else advanced the document: reject and let the
            # client resync from contentFromServer.
            return self._remember(session, form,
                                  self._ack(doc, conflict=True))
        if self.reject_encrypted:
            from repro.core.delta import Delta
            candidate = Delta.parse(form[protocol.F_DELTA]).apply(doc.content)
            refused = self._censor(candidate)
            if refused is not None:
                return refused
        doc = self.store.apply_delta(doc_id, form[protocol.F_DELTA])
        return self._remember(session, form,
                              self._ack(doc, conflict=False,
                                        echo_content=False))

    def _merge_stale_delta(self, doc_id: str, base_rev: int,
                           form: dict[str, str]) -> HttpResponse | None:
        """Rebase a stale delta over the concurrent updates and apply
        it (what the real server's collaboration machinery did).

        The OT walk lives in :mod:`repro.services.ot`: it yields both
        the ``rebased`` delta (applied to the head here) and the
        mirror-image ``patch``, which the Ack carries back so the stale
        client can fast-forward its own state to the merged document —
        no content echo, no resync round-trip.

        Returns None when merging is impossible (a full save intervened,
        history was compacted, or the transformed delta no longer fits),
        in which case the caller falls back to the conflict path.
        """
        from repro.core.delta import Delta
        from repro.errors import DeltaError
        from repro.services import ot

        doc = self.store.get(doc_id)
        concurrent = doc.deltas_since(base_rev)
        if concurrent is None:
            ot.reject()
            return None
        try:
            incoming = Delta.parse(form[protocol.F_DELTA])
            merge = ot.rebase(incoming, concurrent)
            if self.reject_encrypted:
                refused = self._censor(merge.rebased.apply(doc.content))
                if refused is not None:
                    return refused
            doc = self.store.apply_delta(doc_id, merge.rebased.serialize())
        except DeltaError:
            ot.reject()
            return None
        self.merges_performed += 1
        _MERGES.inc()
        # No content echo: the patch carries the saver to the merged
        # state, and the hash lets it verify the result.
        return self._ack(doc, conflict=False, echo_content=False,
                         merged=True,
                         merge_patch=merge.patch.serialize())

    def _ack(self, doc: StoredDocument, conflict: bool,
             echo_content: bool = True, merged: bool = False,
             merge_patch: str | None = None) -> HttpResponse:
        """Acknowledge an update with contentFromServer(Hash).

        The full content is echoed on full saves and on conflicts (the
        client needs it to resync); a routine delta Ack carries only the
        hash — echoing a multi-hundred-kB ciphertext on every autosave
        would make the macro-benchmark measure transfer, not the scheme
        (see DESIGN.md, substitution table).  A merged Ack likewise
        skips the echo and instead carries the OT ``mergePatch`` (the
        delta from the saver's post-save document to the merged one).
        """
        fields = {
            protocol.A_STATUS: "ok",
            protocol.A_REV: str(doc.revision),
            protocol.A_CONTENT: doc.content if (echo_content or conflict) else "",
            protocol.A_CONTENT_HASH: doc.content_hash(),
            protocol.A_CONFLICT: "1" if conflict else "0",
            protocol.A_MERGED: "1" if merged else "0",
        }
        if merged:
            fields[protocol.A_MERGE_PATCH] = merge_patch or ""
        return HttpResponse(200, encode_form(fields))

    def _fetch(self, doc_id: str) -> HttpResponse:
        doc = self.store.get(doc_id)
        return HttpResponse(200, doc.content, headers={
            protocol.A_REV: str(doc.revision),
        })

    # -- server-side features (broken by design under encryption) --------

    def _feature(self, doc_id: str, action: str,
                 request: HttpRequest) -> HttpResponse:
        doc = self.store.get(doc_id)
        if action == "spellcheck":
            return HttpResponse(200, encode_form({
                "misspelled": " ".join(_misspelled(doc.content)),
            }))
        if action == "translate":
            return HttpResponse(200, _mock_translate(doc.content))
        if action == "export":
            return HttpResponse(
                200,
                "{\\rtf1 " + doc.content.replace("\n", "\\par ") + "}",
                headers={"Content-Type": "application/rtf"},
            )
        if action == "drawing":
            primitives = request.form.get("primitives", "")
            return HttpResponse(200, f"PNG[{len(primitives)} ops]",
                                headers={"Content-Type": "image/png"})
        return _error(400, f"unknown action {action!r}")


def _misspelled(content: str) -> list[str]:
    """Words outside the service's dictionary (the workload vocabulary)."""
    vocabulary = set(WORDS)
    seen: list[str] = []
    for token in content.split():
        word = token.strip(".,;:!?").lower()
        if word and word not in vocabulary and word not in seen:
            seen.append(word)
    return seen


def _mock_translate(content: str) -> str:
    """A stand-in 'translation': word-reversal, obviously content-dependent."""
    return " ".join(word[::-1] for word in content.split())


def _error(status: int, message: str) -> HttpResponse:
    _REQ_ERROR.inc()
    return HttpResponse(status, encode_form({"error": message}))
