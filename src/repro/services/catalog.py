"""The tenant catalog: doc listing, encrypted search index, audit trail.

PR 7 made the server multi-tenant and document-sharded; this module is
the *service side* of the multi-document workspace story.  A
:class:`CatalogService` wraps any registry server callable and adds,
without touching a byte of the wrapped protocol:

* ``POST /Catalog?op=list`` — the document ids this tenant has touched;
* ``POST /Catalog?op=store`` — apply encrypted index records directly;
* ``POST /Catalog?op=lookup`` — the posting blobs filed under one
  opaque trapdoor (the server cannot tell which word it serves);
* ``POST /Catalog?op=chain`` — the audit chain for one document,
  from revision ``since`` on (the whole chain by default);
* piggybacked maintenance: a save request may carry ``idx`` (encrypted
  index delta records, emitted by the workspace indexer as a side
  effect of IncE) and ``aud=1`` (opt into the hash-chained audit
  trail, :mod:`repro.core.auditchain`).  On an acknowledged save the
  records are applied and a chain link over ``(rev, contentHash)`` is
  minted; audited acks gain an ``auditLink`` field.

Privacy: everything the catalog stores is opaque.  A search token is
``HMAC(k_search, word)`` — the server never sees a word; a posting
blob is the doc id encrypted under a key derived from ``k_blob`` and
the trapdoor — the server can serve and dedup blobs but not read them.
The whole scheme is the deterministic-trapdoor construction of the
encrypted-search literature (PAPERS.md: *Global Heuristic Search on
Encrypted Data*), grafted onto the paper's mediation architecture.

Wire-compatibility is load-bearing: a request that carries neither
``/Catalog`` path nor opt-in fields passes through byte-identically
(the fuzz digests and the chaos parity matrix pin this), so every
single-document baseline is untouched.

Layering: this module is provider territory.  It must not import the
trusted layer and — like the OT engine — must never hold key material
(``tools/layering_check.py`` enforces both): a catalog that could
decrypt its own postings would be a provider that can read.
"""

from __future__ import annotations

import threading

from repro.core.auditchain import AuditChain, encode_entries
from repro.encoding.formenc import encode_form
from repro.errors import ProtocolError
from repro.net.http import HttpRequest, HttpResponse
from repro.obs import counter, gauge
from repro.services.gdocs import protocol

__all__ = [
    "CATALOG_PATH",
    "F_INDEX",
    "F_AUDIT",
    "A_AUDIT_LINK",
    "encode_records",
    "decode_records",
    "catalog_list_request",
    "catalog_store_request",
    "catalog_lookup_request",
    "catalog_chain_request",
    "CatalogStore",
    "CatalogService",
]

#: the catalog endpoint (same host as the document protocol; the
#: extension's mediator does not understand it, so workspace catalog
#: traffic rides its own unmediated channel)
CATALOG_PATH = "/Catalog"

#: save-request form field carrying encrypted index delta records
F_INDEX = "idx"
#: save-request form field opting the save into the audit trail
F_AUDIT = "aud"
#: ack response field carrying the current audit chain head link
A_AUDIT_LINK = "auditLink"

_REQUESTS = counter("services.catalog.requests")
_RECORDS = counter("services.catalog.records_applied")
_LOOKUPS = counter("services.catalog.lookups")
_CHAIN_APPENDS = counter("services.catalog.chain_appends")
_POSTINGS = gauge("services.catalog.postings")


# -- the record codec --------------------------------------------------------
#
# One index delta record is ("+" | "-", trapdoor, blob): add or remove
# one posting blob under one trapdoor.  All components are hex, so the
# wire form needs no escaping: "op:trapdoor:blob" joined by ";".


def encode_records(records) -> str:
    """Wire form of a list of ``(op, trapdoor, blob)`` records."""
    return ";".join(f"{op}:{trap}:{blob}" for op, trap, blob in records)


def decode_records(text: str) -> list[tuple[str, str, str]]:
    """Parse :func:`encode_records` output (raises
    :class:`~repro.errors.ProtocolError` on malformed records)."""
    records: list[tuple[str, str, str]] = []
    if not text:
        return records
    for part in text.split(";"):
        try:
            op, trap, blob = part.split(":")
        except ValueError:
            raise ProtocolError(
                f"malformed index record {part!r}") from None
        if op not in ("+", "-"):
            raise ProtocolError(f"unknown index record op {op!r}")
        records.append((op, trap, blob))
    return records


# -- request builders --------------------------------------------------------


def _catalog_url(op: str) -> str:
    return f"http://{protocol.HOST}{CATALOG_PATH}?{encode_form({'op': op})}"


def catalog_list_request() -> HttpRequest:
    """All document ids the tenant's catalog has seen."""
    return HttpRequest("POST", _catalog_url("list"), body="")


def catalog_store_request(records) -> HttpRequest:
    """Apply index delta records out of band (bulk rebuild path)."""
    return HttpRequest("POST", _catalog_url("store"),
                       body=encode_form({F_INDEX: encode_records(records)}))


def catalog_lookup_request(trapdoor: str) -> HttpRequest:
    """The posting blobs filed under one opaque trapdoor."""
    return HttpRequest("POST", _catalog_url("lookup"),
                       body=encode_form({"tok": trapdoor}))


def catalog_chain_request(doc_id: str, since: int = 0) -> HttpRequest:
    """The audit chain recorded for ``doc_id``, from revision
    ``since`` on."""
    return HttpRequest("POST", _catalog_url("chain"), body=encode_form(
        {"doc": doc_id, "since": str(since)}))


# -- the store ---------------------------------------------------------------


class CatalogStore:
    """Per-tenant catalog state: doc ids, postings, audit chains.

    One instance is shared by every shard of a (service, tenant) pair
    in :class:`repro.net.server.ReproServer` — searches and listings
    are tenant-global while document state stays sharded — so all
    mutators take the internal lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._doc_ids: set[str] = set()
        # trapdoor -> insertion-ordered set of posting blobs (dict keys)
        self._postings: dict[str, dict[str, None]] = {}
        self._chains: dict[str, AuditChain] = {}
        # doc_id -> newest revision whose piggybacked records/audit were
        # applied; an idempotent replay answers from the wrapped
        # server's cache with the same rev, so it must not re-apply
        self._applied_rev: dict[str, int] = {}

    # -- doc catalog ----------------------------------------------------

    def note_doc(self, doc_id: str) -> None:
        """Record that the tenant touched ``doc_id``."""
        with self._lock:
            self._doc_ids.add(doc_id)

    def doc_ids(self) -> list[str]:
        """Every document id this tenant's catalog has seen, sorted."""
        with self._lock:
            return sorted(self._doc_ids)

    # -- encrypted index ------------------------------------------------

    def apply_records(self, records) -> int:
        """Apply ``(op, trapdoor, blob)`` records; returns how many."""
        with self._lock:
            return self._apply_locked(records)

    def _apply_locked(self, records) -> int:
        applied = 0
        for op, trap, blob in records:
            postings = self._postings.setdefault(trap, {})
            if op == "+":
                if blob not in postings:
                    postings[blob] = None
                    _POSTINGS.add(1)
            else:
                if postings.pop(blob, 0) is None:
                    _POSTINGS.add(-1)
            applied += 1
        _RECORDS.inc(applied)
        return applied

    def lookup(self, trapdoor: str) -> list[str]:
        """The posting blobs under ``trapdoor`` (insertion order)."""
        _LOOKUPS.inc()
        with self._lock:
            return list(self._postings.get(trapdoor, ()))

    @property
    def posting_count(self) -> int:
        with self._lock:
            return sum(len(blobs) for blobs in self._postings.values())

    # -- audit chains ---------------------------------------------------

    def chain(self, doc_id: str) -> AuditChain:
        """The audit chain for ``doc_id``; an empty one, not stored,
        when nothing was committed for it (a read grows no state)."""
        with self._lock:
            chain = self._chains.get(doc_id)
            return chain if chain is not None else AuditChain()

    def commit(self, doc_id: str, rev: int, content_hash: str,
               records=(), audit: bool = False) -> bool:
        """Apply one acknowledged save's piggybacked catalog work.

        Returns False (a no-op) when ``rev`` does not advance past the
        newest applied revision — the idempotent-replay and
        deduplicated-full-save cases, where the wrapped server answered
        without storing anything new.
        """
        with self._lock:
            self._doc_ids.add(doc_id)
            if rev <= self._applied_rev.get(doc_id, -1):
                return False
            self._applied_rev[doc_id] = rev
            if records:
                self._apply_locked(records)
            if audit:
                chain = self._chains.setdefault(doc_id, AuditChain())
                chain.append(rev, content_hash)
                _CHAIN_APPENDS.inc()
            return True

    def head_link(self, doc_id: str) -> str | None:
        """The newest audit link for ``doc_id`` (None: never audited)."""
        with self._lock:
            chain = self._chains.get(doc_id)
            head = chain.head if chain is not None else None
            return head.link if head is not None else None


# -- the service wrapper -----------------------------------------------------


class CatalogService:
    """Wrap any registry server callable with the catalog endpoint.

    Requests for :data:`CATALOG_PATH` are answered from the
    :class:`CatalogStore`; everything else is delegated to the wrapped
    server untouched (attribute access delegates too, so
    ``registry.server_view`` and the test helpers keep working against
    the wrapped instance).  Only requests that opt in — ``idx`` index
    records or ``aud=1`` — trigger any post-processing of the wrapped
    server's answer, which is what keeps every pre-existing wire byte
    identical.
    """

    def __init__(self, inner, store: CatalogStore | None = None):
        self.inner = inner
        self.catalog = store if store is not None else CatalogStore()

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def __call__(self, request: HttpRequest) -> HttpResponse:
        if request.path == CATALOG_PATH:
            return self._serve_catalog(request)
        response = self.inner(request)
        return self._post_process(request, response)

    # -- the catalog endpoint -------------------------------------------

    def _serve_catalog(self, request: HttpRequest) -> HttpResponse:
        _REQUESTS.inc()
        op = request.query.get("op", "")
        try:
            form = request.form if request.body else {}
        except ProtocolError as exc:
            return self._error(400, f"malformed catalog request: {exc}")
        if op == "list":
            return HttpResponse(
                status=200, body=",".join(self.catalog.doc_ids()))
        if op == "store":
            try:
                records = decode_records(form.get(F_INDEX, ""))
            except ProtocolError as exc:
                return self._error(400, str(exc))
            applied = self.catalog.apply_records(records)
            return HttpResponse(status=200, body=str(applied))
        if op == "lookup":
            trapdoor = form.get("tok", "")
            if not trapdoor:
                return self._error(400, "lookup without a trapdoor")
            return HttpResponse(
                status=200, body=",".join(self.catalog.lookup(trapdoor)))
        if op == "chain":
            doc_id = form.get("doc", "")
            if not doc_id:
                return self._error(400, "chain request without a doc id")
            try:
                since = int(form.get("since", "0"))
            except ValueError:
                return self._error(400, "chain since is not a revision")
            entries = self.catalog.chain(doc_id).since(since)
            return HttpResponse(status=200, body=encode_entries(entries))
        return self._error(400, f"unknown catalog op {op!r}")

    @staticmethod
    def _error(status: int, message: str) -> HttpResponse:
        return HttpResponse(status=status,
                            body=encode_form({"error": message}))

    # -- piggybacked maintenance ----------------------------------------

    def _post_process(self, request: HttpRequest,
                      response: HttpResponse) -> HttpResponse:
        doc_id = request.query.get("docID", "")
        if doc_id:
            self.catalog.note_doc(doc_id)
        if not response.ok or request.method != "POST" or not request.body:
            return response
        try:
            form = request.form
        except ProtocolError:
            return response
        audited = form.get(F_AUDIT) == "1"
        raw_records = form.get(F_INDEX, "")
        if not audited and not raw_records:
            return response  # the entire single-doc legacy wire
        try:
            fields = response.form
        except ProtocolError:
            return response
        if fields.get(protocol.A_STATUS) != "ok" or \
                fields.get(protocol.A_CONFLICT) == "1":
            return response
        try:
            rev = int(fields.get(protocol.A_REV, ""))
        except ValueError:
            return response
        try:
            records = decode_records(raw_records)
        except ProtocolError:
            records = ()
        self.catalog.commit(
            doc_id, rev, fields.get(protocol.A_CONTENT_HASH, ""),
            records=records, audit=audited,
        )
        if audited:
            head = self.catalog.head_link(doc_id)
            if head is not None:
                return response.with_form({**fields, A_AUDIT_LINK: head})
        return response
