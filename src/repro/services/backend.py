"""The provider-agnostic service protocol: one contract, many clouds.

The paper's mediation argument (§III) only holds if the client-side
machinery generalizes across untrusted services — Google Documents,
Bespin, and Buzzword are three *instances*, not three architectures.
This module is the seam that makes that true in code: a
:class:`ServiceBackend` describes everything provider-specific about
one cloud editor —

* **capability flags** (:class:`BackendCapabilities`): does the wire
  protocol carry incremental deltas?  revisions and conflicts?  edit
  sessions?  idempotency keys?
* **request builders**: how to phrase an open, a full save, a delta
  save, and a fetch as :class:`~repro.net.http.HttpRequest` objects;
* **response parsers**: how to read the provider's answers back into
  the neutral :class:`OpenState` / :class:`SaveAck` / :class:`FetchState`
  shapes the shared client core consumes;
* **content framing** (``map_content``): where the document content
  sits inside a body — the whole body, or each Buzzword ``<textRun>``;
* **routing helpers**: how a request is classified and which document
  it addresses (shared by the replication facade
  :class:`repro.services.replicated.ReplicatedService` and the
  whole-file mediator), plus how the facade rewrites per-provider
  session state and copies raw stored bytes between replicas.

Everything above this seam — the resilient client core
(``repro.client.resilient``), the replication facade, the chaos matrix,
the fuzzer, the CLI — is written against the protocol and iterates over
backends instead of assuming Google Documents.

Layering note: this module builds and parses *messages* only.  The
simulated servers (``repro.services.gdocs.server``, the ``BespinServer``
and ``BuzzwordServer`` classes) stay out of it, so client and extension
code may import this module without reaching server internals
(enforced by ``tools/layering_check.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

from repro.encoding.formenc import encode_form
from repro.errors import ProtocolError
from repro.net.http import HttpRequest, HttpResponse
from repro.services import bespin, buzzword
from repro.services.gdocs import protocol

__all__ = [
    "KIND_OPEN",
    "KIND_SAVE_FULL",
    "KIND_SAVE_DELTA",
    "KIND_READ",
    "KIND_OTHER",
    "BackendCapabilities",
    "OpenState",
    "FetchState",
    "SaveAck",
    "ServiceBackend",
    "GDocsBackend",
    "BespinBackend",
    "BuzzwordBackend",
    "GDOCS",
    "BESPIN",
    "BUZZWORD",
    "split_paragraphs",
    "join_paragraphs",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """What one provider's wire protocol can express.

    The shared client core keys every behavioural branch off these
    flags — a backend never needs to be *named* above the seam.
    """

    #: saves after the first may carry only a delta (vs whole document)
    incremental_updates: bool = False
    #: the server tracks revisions and can reject a stale save as a
    #: conflict (arming the client's resync-and-rebase machinery)
    revisioned: bool = False
    #: opening establishes an edit session (a ``sid`` the saves carry)
    sessions: bool = False
    #: the wire protocol accepts idempotency keys on saves
    idempotency_keys: bool = False
    #: a stale-revision save can come back *merged* — the server OT-
    #: rebases it over the intervening history (repro.services.ot) and
    #: acks with a ``mergePatch`` instead of a conflict.  Requires
    #: incremental updates and revisions; the whole-file providers
    #: (Bespin, Buzzword) have no delta language to merge in, so their
    #: protocol cannot express it.
    merges_stale_saves: bool = False
    #: save acks can carry the catalog's piggybacked maintenance — the
    #: encrypted-index ``idx`` records and the ``aud=1`` audit-trail
    #: opt-in of repro.services.catalog.  Every hosted service exposes
    #: the ``/Catalog`` endpoint itself (the wrapper delegates blind),
    #: but only an ack-shaped save protocol can mint chain links.
    catalog_acks: bool = False


@dataclass(frozen=True)
class OpenState:
    """What opening a document established."""

    content: str
    sid: str | None = None
    rev: int = -1


@dataclass(frozen=True)
class FetchState:
    """What a read-only fetch returned."""

    content: str
    rev: int = -1


@dataclass(frozen=True)
class SaveAck:
    """A provider's acknowledgement of a save, in neutral shape.

    Field names deliberately mirror :class:`repro.services.gdocs.protocol.Ack`
    — the richest instance — with ``rev=None`` meaning "this provider
    does not number revisions" (the client keeps its own counter
    unchanged).
    """

    rev: int | None = None
    conflict: bool = False
    merged: bool = False
    content_from_server: str = ""
    content_from_server_hash: str = ""
    #: on merged acks: the delta that carries the saver's post-save
    #: document to the merged revision (empty when not merged)
    merge_patch: str = ""


#: classification labels a replication facade dispatches on
KIND_OPEN = "open"
KIND_SAVE_FULL = "save_full"
KIND_SAVE_DELTA = "save_delta"
KIND_READ = "read"
KIND_OTHER = "other"


@runtime_checkable
class ServiceBackend(Protocol):
    """Everything provider-specific, behind one interface.

    The first block (builders + parsers) serves the client core;
    ``map_content`` and ``classify``/``doc_id_of`` serve the
    whole-file mediator; the routing block serves the replication
    facade.  Implementations are stateless — all session state lives
    in the caller.
    """

    name: str
    capabilities: BackendCapabilities

    # -- client-side: building requests ---------------------------------

    def open_request(self, doc_id: str) -> HttpRequest:
        """The request that opens (or creates) ``doc_id``."""
        ...

    def fetch_request(self, doc_id: str) -> HttpRequest:
        """The read-only request for the stored document."""
        ...

    def full_save_request(self, doc_id: str, sid: str | None, rev: int,
                          content: str,
                          idem: str | None = None) -> HttpRequest:
        """A save carrying the whole document ``content``."""
        ...

    def delta_save_request(self, doc_id: str, sid: str | None, rev: int,
                           delta_text: str,
                           idem: str | None = None) -> HttpRequest:
        """A save carrying only ``delta_text`` (incremental backends;
        others raise — their protocol has no such message)."""
        ...

    # -- client-side: parsing responses ----------------------------------

    def parse_open(self, doc_id: str,
                   response: HttpResponse) -> OpenState:
        """Interpret the open response (raises
        :class:`~repro.errors.ProtocolError` on a hard failure)."""
        ...

    def parse_fetch(self, doc_id: str, response: HttpResponse,
                    fallback_rev: int) -> FetchState:
        """Interpret a fetch response (``fallback_rev`` when the wire
        carries no revision)."""
        ...

    def parse_save(self, response: HttpResponse) -> SaveAck:
        """Interpret a save acknowledgement (raises
        :class:`~repro.errors.ProtocolError` when unparseable)."""
        ...

    def ack_consistent(self, ack: SaveAck,
                       local_text: str) -> bool | None:
        """Does the ack agree with ``local_text``?  ``None`` = the
        protocol carries no consistency information (check abstains)."""
        ...

    def map_content(self, body: str, fn: Callable[[str], str]) -> str:
        """``body`` with every piece of document content inside it
        rewritten through ``fn`` and the framing left as it is — how a
        whole-file mediator encrypts a save body or decrypts a read,
        and how the convergence oracle decrypts stored bytes."""
        ...

    # -- replication-side: routing raw stored traffic ---------------------

    def classify(self, request: HttpRequest) -> str:
        """One of the ``KIND_*`` labels for dispatching ``request``."""
        ...

    def doc_id_of(self, request: HttpRequest) -> str:
        """The document id ``request`` addresses."""
        ...

    def rewrite_session(self, request: HttpRequest, sid: str | None,
                        rev: int) -> HttpRequest:
        """``request`` with per-provider session state substituted
        (identity for sessionless protocols)."""
        ...

    def session_of_open(self,
                        response: HttpResponse) -> tuple[str, int] | None:
        """The ``(sid, rev)`` an open response established, or None."""
        ...

    def store_request(self, doc_id: str, sid: str | None, rev: int,
                      stored_body: str) -> HttpRequest:
        """A write placing *raw stored bytes* — for replica healing;
        unlike :meth:`full_save_request` this must not re-frame."""
        ...

    def is_missing(self, response: HttpResponse) -> bool:
        """Is this the protocol's "document does not exist" answer?"""
        ...

    def rev_of_save(self, response: HttpResponse, prev: int) -> int:
        """The revision a save response reports (``prev`` if none)."""
        ...

    def save_conflict(self, response: HttpResponse) -> bool:
        """Did this save response signal a revision conflict?"""
        ...

    def content_of_open(self, response: HttpResponse) -> str:
        """The document content an open response carries."""
        ...

    def synthesize_open(self, doc_id: str, sid: str, rev: int,
                        content: str) -> HttpResponse:
        """Fabricate the open response a facade answers with."""
        ...


# -- Google Documents ---------------------------------------------------------


class GDocsBackend:
    """The reverse-engineered Google Documents protocol (SIV-A)."""

    name = "gdocs"
    capabilities = BackendCapabilities(
        incremental_updates=True,
        revisioned=True,
        sessions=True,
        idempotency_keys=True,
        merges_stale_saves=True,
        catalog_acks=True,
    )

    # -- builders --------------------------------------------------------

    def open_request(self, doc_id: str) -> HttpRequest:
        """Session-opening POST (``/Doc?docID=...``, empty body)."""
        return protocol.open_request(doc_id)

    def fetch_request(self, doc_id: str) -> HttpRequest:
        """Document download GET."""
        return protocol.fetch_request(doc_id)

    def full_save_request(self, doc_id: str, sid: str | None, rev: int,
                          content: str,
                          idem: str | None = None) -> HttpRequest:
        """First-save POST: whole contents in ``docContents``."""
        return protocol.full_save_request(doc_id, sid or "", rev, content,
                                          idem=idem)

    def delta_save_request(self, doc_id: str, sid: str | None, rev: int,
                           delta_text: str,
                           idem: str | None = None) -> HttpRequest:
        """Subsequent-save POST: only the difference, in ``delta``."""
        return protocol.delta_save_request(doc_id, sid or "", rev,
                                           delta_text, idem=idem)

    # -- parsers ---------------------------------------------------------

    def parse_open(self, doc_id: str, response: HttpResponse) -> OpenState:
        """Read the open ack: session id, revision, current content."""
        if not response.ok:
            raise ProtocolError(f"open failed: {response.body}")
        fields = response.form
        try:
            return OpenState(
                content=fields.get(protocol.A_CONTENT, ""),
                sid=fields[protocol.F_SID],
                rev=int(fields[protocol.A_REV]),
            )
        except KeyError as exc:
            raise ProtocolError(f"open ack missing field {exc}") from None
        except ValueError as exc:
            raise ProtocolError(f"open ack unparseable: {exc}") from None

    def parse_fetch(self, doc_id: str, response: HttpResponse,
                    fallback_rev: int) -> FetchState:
        """Fetched body is the content; revision rides in a header."""
        try:
            rev = int(response.headers.get(protocol.A_REV, fallback_rev))
        except ValueError:
            rev = fallback_rev
        return FetchState(content=response.body, rev=rev)

    def parse_save(self, response: HttpResponse) -> SaveAck:
        """Parse the Ack (raises ProtocolError when mangled)."""
        ack = protocol.Ack.from_response(response)
        return SaveAck(
            rev=ack.rev,
            conflict=ack.conflict,
            merged=ack.merged,
            content_from_server=ack.content_from_server,
            content_from_server_hash=ack.content_from_server_hash,
            merge_patch=ack.merge_patch,
        )

    def ack_consistent(self, ack: SaveAck,
                       local_text: str) -> bool | None:
        """The ``contentFromServerHash`` check; a neutral hash ("0")
        carries no information (the blanking the paper relied on)."""
        if ack.content_from_server_hash == protocol.NEUTRAL_HASH:
            return None
        return ack.content_from_server_hash == \
            protocol.content_hash(local_text)

    def map_content(self, body: str, fn: Callable[[str], str]) -> str:
        """A stored document is one wire document."""
        return fn(body)

    # -- replication helpers ----------------------------------------------

    def classify(self, request: HttpRequest) -> str:
        """GET = read; save field present = save; other POSTs open."""
        if request.method == "GET":
            return KIND_READ
        form = request.form if request.body else {}
        if protocol.F_DOC_CONTENTS in form:
            return KIND_SAVE_FULL
        if protocol.F_DELTA in form:
            return KIND_SAVE_DELTA
        return KIND_OPEN

    def doc_id_of(self, request: HttpRequest) -> str:
        """The ``docID`` query parameter."""
        return request.query.get("docID", "")

    def rewrite_session(self, request: HttpRequest, sid: str | None,
                        rev: int) -> HttpRequest:
        """Substitute this provider's ``sid``/``rev`` form fields."""
        form = request.form if request.body else {}
        return request.with_form({
            **form,
            protocol.F_SID: sid or "",
            protocol.F_REV: str(rev),
        })

    def session_of_open(self,
                        response: HttpResponse) -> tuple[str, int] | None:
        """The sid/rev pair of a successful open ack."""
        fields = response.form
        try:
            return fields[protocol.F_SID], int(fields[protocol.A_REV])
        except (KeyError, ValueError):
            return None

    def store_request(self, doc_id: str, sid: str | None, rev: int,
                      stored_body: str) -> HttpRequest:
        """Stored bytes ARE the ``docContents`` payload here."""
        return protocol.full_save_request(doc_id, sid or "", rev,
                                          stored_body)

    def is_missing(self, response: HttpResponse) -> bool:
        """404 (the simulated server auto-creates, so rarely seen)."""
        return response.status == 404

    def rev_of_save(self, response: HttpResponse, prev: int) -> int:
        """The Ack's ``rev`` field, tolerating its absence."""
        try:
            return int(response.form.get(protocol.A_REV, prev))
        except ValueError:
            return prev

    def save_conflict(self, response: HttpResponse) -> bool:
        """The Ack's ``conflict`` flag."""
        return response.form.get(protocol.A_CONFLICT) == "1"

    def content_of_open(self, response: HttpResponse) -> str:
        """The open ack's ``contentFromServer`` field."""
        return response.form.get(protocol.A_CONTENT, "")

    def synthesize_open(self, doc_id: str, sid: str, rev: int,
                        content: str) -> HttpResponse:
        """An open ack in the provider's form encoding."""
        return HttpResponse(200, encode_form({
            protocol.F_SID: sid,
            protocol.A_REV: str(rev),
            protocol.A_CONTENT: content,
        }))


# -- Mozilla Bespin -----------------------------------------------------------


class BespinBackend:
    """Whole-file HTTP PUTs; no sessions, revisions, or deltas (SIII)."""

    name = "bespin"
    capabilities = BackendCapabilities()

    # -- builders --------------------------------------------------------

    def open_request(self, doc_id: str) -> HttpRequest:
        """Opening is just a GET (there are no sessions)."""
        return bespin.get_request(doc_id)

    def fetch_request(self, doc_id: str) -> HttpRequest:
        """File GET."""
        return bespin.get_request(doc_id)

    def full_save_request(self, doc_id: str, sid: str | None, rev: int,
                          content: str,
                          idem: str | None = None) -> HttpRequest:
        """Whole-file PUT (Bespin's only write; sid/rev/idem unused)."""
        return bespin.put_request(doc_id, content)

    def delta_save_request(self, doc_id: str, sid: str | None, rev: int,
                           delta_text: str,
                           idem: str | None = None) -> HttpRequest:
        """Unsupported: SIII found no incremental update mechanism."""
        raise ProtocolError("Bespin has no incremental update mechanism")

    # -- parsers ---------------------------------------------------------

    def parse_open(self, doc_id: str, response: HttpResponse) -> OpenState:
        """File body; a 404 means "not created yet" (empty buffer)."""
        if response.status == 404:
            return OpenState(content="")
        if not response.ok:
            raise ProtocolError(f"open failed: {response.body}")
        return OpenState(content=response.body)

    def parse_fetch(self, doc_id: str, response: HttpResponse,
                    fallback_rev: int) -> FetchState:
        """File body; missing file reads as empty."""
        if response.status == 404:
            return FetchState(content="", rev=fallback_rev)
        return FetchState(content=response.body, rev=fallback_rev)

    def parse_save(self, response: HttpResponse) -> SaveAck:
        """Bespin acks carry nothing; a neutral SaveAck."""
        return SaveAck()

    def ack_consistent(self, ack: SaveAck,
                       local_text: str) -> bool | None:
        """No content information in acks — always abstains."""
        return None

    def map_content(self, body: str, fn: Callable[[str], str]) -> str:
        """The whole file body is the content."""
        return fn(body)

    # -- replication helpers ----------------------------------------------

    def classify(self, request: HttpRequest) -> str:
        """PUT/DELETE mutate whole files; GETs (file or listing) read."""
        if request.path.startswith("/file/at/"):
            if request.method in ("PUT", "DELETE"):
                return KIND_SAVE_FULL
            if request.method == "GET":
                return KIND_READ
        if request.path.startswith("/file/list/") and \
                request.method == "GET":
            return KIND_READ
        return KIND_OTHER

    def doc_id_of(self, request: HttpRequest) -> str:
        """The file path after the endpoint prefix."""
        for prefix in ("/file/at/", "/file/list/"):
            if request.path.startswith(prefix):
                return request.path[len(prefix):]
        return request.path

    def rewrite_session(self, request: HttpRequest, sid: str | None,
                        rev: int) -> HttpRequest:
        """Identity: no per-provider session state exists."""
        return request

    def session_of_open(self,
                        response: HttpResponse) -> tuple[str, int] | None:
        """Never a session."""
        return None

    def store_request(self, doc_id: str, sid: str | None, rev: int,
                      stored_body: str) -> HttpRequest:
        """A PUT already writes raw bytes."""
        return bespin.put_request(doc_id, stored_body)

    def is_missing(self, response: HttpResponse) -> bool:
        """404 = no such file."""
        return response.status == 404

    def rev_of_save(self, response: HttpResponse, prev: int) -> int:
        """Bespin does not number revisions."""
        return prev

    def save_conflict(self, response: HttpResponse) -> bool:
        """Last writer wins; conflicts cannot be expressed."""
        return False

    def content_of_open(self, response: HttpResponse) -> str:
        """The file body ("" for a file that does not exist yet)."""
        return "" if response.status == 404 else response.body

    def synthesize_open(self, doc_id: str, sid: str, rev: int,
                        content: str) -> HttpResponse:
        """An open answer is just the file content."""
        return HttpResponse(200, content)


# -- Adobe Buzzword -----------------------------------------------------------


def split_paragraphs(text: str) -> list[str]:
    """The client text ↔ paragraph-list mapping (inverse of join)."""
    return text.split("\n") if text else []


def join_paragraphs(paragraphs: list[str]) -> str:
    """Paragraphs as one editor text (newline-joined)."""
    return "\n".join(paragraphs)


class BuzzwordBackend:
    """Whole-document XML POSTs; paragraphs ride in ``<textRun>`` tags."""

    name = "buzzword"
    capabilities = BackendCapabilities()

    # -- builders --------------------------------------------------------

    def open_request(self, doc_id: str) -> HttpRequest:
        """Opening is just a document GET (no sessions)."""
        return buzzword.get_request(doc_id)

    def fetch_request(self, doc_id: str) -> HttpRequest:
        """Document GET."""
        return buzzword.get_request(doc_id)

    def full_save_request(self, doc_id: str, sid: str | None, rev: int,
                          content: str,
                          idem: str | None = None) -> HttpRequest:
        """Whole-document XML POST; the newline-joined ``content`` is
        split back into one ``<textRun>`` per paragraph."""
        xml = buzzword.document_xml(split_paragraphs(content))
        return buzzword.post_request(doc_id, xml)

    def delta_save_request(self, doc_id: str, sid: str | None, rev: int,
                           delta_text: str,
                           idem: str | None = None) -> HttpRequest:
        """Unsupported: Buzzword re-sends everything on every save."""
        raise ProtocolError("Buzzword re-sends the whole document XML")

    # -- parsers ---------------------------------------------------------

    def parse_open(self, doc_id: str, response: HttpResponse) -> OpenState:
        """Text runs joined to one text; 404 = not created yet."""
        if response.status == 404:
            return OpenState(content="")
        if not response.ok:
            raise ProtocolError(f"open failed: {response.body}")
        return OpenState(
            content=join_paragraphs(buzzword.text_runs(response.body))
        )

    def parse_fetch(self, doc_id: str, response: HttpResponse,
                    fallback_rev: int) -> FetchState:
        """Same framing as opens; missing document reads as empty."""
        if response.status == 404:
            return FetchState(content="", rev=fallback_rev)
        return FetchState(
            content=join_paragraphs(buzzword.text_runs(response.body)),
            rev=fallback_rev,
        )

    def parse_save(self, response: HttpResponse) -> SaveAck:
        """Buzzword acks carry nothing; a neutral SaveAck."""
        return SaveAck()

    def ack_consistent(self, ack: SaveAck,
                       local_text: str) -> bool | None:
        """No content information in acks — always abstains."""
        return None

    def map_content(self, body: str, fn: Callable[[str], str]) -> str:
        """Each ``<textRun>`` body is content; the XML structure
        (paragraphs, ordering) is framing."""
        return buzzword.map_text_runs(body, fn)

    # -- replication helpers ----------------------------------------------

    def classify(self, request: HttpRequest) -> str:
        """POSTs to ``/doc/`` save whole documents; document GETs
        read.  A GET below a document (``/doc/<id>/wordcount``) is a
        server feature, not a read."""
        if not request.path.startswith("/doc/"):
            return KIND_OTHER
        if request.method == "POST":
            return KIND_SAVE_FULL
        if request.method == "GET" and "/" not in self.doc_id_of(request):
            return KIND_READ
        return KIND_OTHER

    def doc_id_of(self, request: HttpRequest) -> str:
        """The document id after ``/doc/``."""
        if request.path.startswith("/doc/"):
            return request.path[len("/doc/"):]
        return request.path

    def rewrite_session(self, request: HttpRequest, sid: str | None,
                        rev: int) -> HttpRequest:
        """Identity: no per-provider session state exists."""
        return request

    def session_of_open(self,
                        response: HttpResponse) -> tuple[str, int] | None:
        """Never a session."""
        return None

    def store_request(self, doc_id: str, sid: str | None, rev: int,
                      stored_body: str) -> HttpRequest:
        """POST the raw stored XML as-is (no paragraph re-framing —
        the bytes are already a stored document)."""
        return buzzword.post_request(doc_id, stored_body)

    def is_missing(self, response: HttpResponse) -> bool:
        """404 = no such document."""
        return response.status == 404

    def rev_of_save(self, response: HttpResponse, prev: int) -> int:
        """Buzzword does not number revisions."""
        return prev

    def save_conflict(self, response: HttpResponse) -> bool:
        """Last writer wins; conflicts cannot be expressed."""
        return False

    def content_of_open(self, response: HttpResponse) -> str:
        """The stored XML ("" for a document that does not exist)."""
        if response.status == 404:
            return ""
        return response.body

    def synthesize_open(self, doc_id: str, sid: str, rev: int,
                        content: str) -> HttpResponse:
        """An open answer is just the stored document body."""
        return HttpResponse(200, content)


#: shared singleton instances (backends are stateless)
GDOCS = GDocsBackend()
BESPIN = BespinBackend()
BUZZWORD = BuzzwordBackend()
