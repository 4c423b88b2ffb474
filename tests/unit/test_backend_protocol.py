"""Unit contract of the ServiceBackend seam (repro.services.backend).

The shared client core and the replication facade are written against
this protocol; these tests pin the per-provider behaviours they rely
on — capability flags, request classification (for gdocs the one
request grammar the extension drops by and the facade routes by),
session rewriting, the parsers the facade reads replica answers
through, the paragraph bijection, and the raw-bytes guarantee of
``store_request``.
"""

from __future__ import annotations

import pytest

from repro.errors import BlockedRequestError, ProtocolError
from repro.extension.gdocs_ext import GDocsExtension
from repro.extension.passwords import PasswordVault
from repro.net.channel import Channel
from repro.net.http import HttpRequest, HttpResponse
from repro.services import bespin, buzzword, registry
from repro.services.backend import (
    BESPIN,
    BUZZWORD,
    GDOCS,
    KIND_OPEN,
    KIND_OTHER,
    KIND_READ,
    KIND_SAVE_DELTA,
    KIND_SAVE_FULL,
    OpenState,
    ServiceBackend,
    join_paragraphs,
    split_paragraphs,
)
from repro.services.buzzword import document_xml, text_runs
from repro.services.gdocs import protocol
from repro.services.gdocs.server import GDocsServer

ALL = (GDOCS, BESPIN, BUZZWORD)


@pytest.mark.parametrize("backend", ALL, ids=lambda b: b.name)
def test_every_backend_satisfies_the_protocol(backend):
    assert isinstance(backend, ServiceBackend)


def test_capability_flags_match_the_paper():
    """SIV-A gives gdocs the full protocol; SIII found Bespin and
    Buzzword re-sending everything with no sessions or revisions."""
    assert GDOCS.capabilities.incremental_updates
    assert GDOCS.capabilities.revisioned
    assert GDOCS.capabilities.sessions
    assert GDOCS.capabilities.idempotency_keys
    for backend in (BESPIN, BUZZWORD):
        caps = backend.capabilities
        assert not caps.incremental_updates
        assert not caps.revisioned
        assert not caps.sessions
        assert not caps.idempotency_keys


@pytest.mark.parametrize("backend", (BESPIN, BUZZWORD),
                         ids=lambda b: b.name)
def test_whole_file_backends_reject_delta_saves(backend):
    with pytest.raises(ProtocolError):
        backend.delta_save_request("doc", None, 0, "delta")


# -- classification ----------------------------------------------------------


def test_gdocs_classification():
    assert GDOCS.classify(GDOCS.open_request("d")) == KIND_OPEN
    assert GDOCS.classify(GDOCS.fetch_request("d")) == KIND_READ
    assert GDOCS.classify(
        GDOCS.full_save_request("d", "s", 0, "body")) == KIND_SAVE_FULL
    assert GDOCS.classify(
        GDOCS.delta_save_request("d", "s", 1, "=0\ti\thi")) == KIND_SAVE_DELTA


#: gdocs requests outside the grammar (server features, other paths,
#: methods and form shapes) — the extension drops each one and the
#: replication facade answers each one 404 without fanning it out
GDOCS_UNROUTABLE = {
    "spellcheck-post": protocol.feature_request("doc", "spellcheck",
                                                text="helo"),
    "export-post": protocol.feature_request("doc", "export"),
    "export-get": HttpRequest(
        "GET", f"http://{protocol.HOST}/Doc?docID=doc&action=export"),
    "other-path": HttpRequest(
        "POST", f"http://{protocol.HOST}/Other?docID=doc", body=""),
    "no-doc-id": HttpRequest("POST", f"http://{protocol.HOST}/Doc"),
    "put": HttpRequest(
        "PUT", f"http://{protocol.HOST}/Doc?docID=doc",
        body=protocol.full_save_request("doc", "s", 0, "body").body),
    "unknown-field": HttpRequest(
        "POST", f"http://{protocol.HOST}/Doc?docID=doc",
        body="mystery=field"),
}


@pytest.mark.parametrize("name", sorted(GDOCS_UNROUTABLE))
def test_gdocs_grammar_rejects(name):
    assert GDOCS.classify(GDOCS_UNROUTABLE[name]) == KIND_OTHER


def _recording_facade():
    """A registry-built replicated facade whose replicas log every
    request that reaches them."""
    facade = registry.make_server("replicated")
    seen: list[HttpRequest] = []
    for slot in facade._slots:
        replica = slot.backend

        def recorded(request, replica=replica):
            seen.append(request)
            return replica(request)

        slot.backend = recorded
    return facade, seen


@pytest.mark.parametrize("name", sorted(GDOCS_UNROUTABLE))
def test_facade_answers_unroutable_without_fan_out(name):
    facade, seen = _recording_facade()
    response = facade(GDOCS_UNROUTABLE[name])
    assert response.status == 404
    assert "unroutable" in response.form["error"]
    assert seen == []


@pytest.mark.parametrize("name", sorted(GDOCS_UNROUTABLE))
def test_extension_drops_unroutable(name):
    channel = Channel(registry.make_server("gdocs"))
    channel.set_mediator(GDocsExtension(PasswordVault({"doc": "pw"})))
    with pytest.raises(BlockedRequestError):
        channel.send(GDOCS_UNROUTABLE[name])


def test_grammar_still_passes_the_protocol():
    """Open, full save, delta save and fetch reach every replica
    through the facade, and pass the extension."""
    facade, seen = _recording_facade()
    channel = Channel(registry.make_server("gdocs"))
    channel.set_mediator(GDocsExtension(PasswordVault({"doc": "pw"})))
    for send in (facade, channel.send):
        opened = GDOCS.parse_open("doc", send(GDOCS.open_request("doc")))
        full = GDOCS.parse_save(send(GDOCS.full_save_request(
            "doc", opened.sid, opened.rev, "hello")))
        delta = GDOCS.parse_save(send(GDOCS.delta_save_request(
            "doc", opened.sid, full.rev, "=5\t+!")))
        assert not full.conflict and not delta.conflict
        fetched = send(GDOCS.fetch_request("doc"))
        assert fetched.ok
    assert [GDOCS.classify(r) for r in seen] == [
        kind for kind in (KIND_OPEN, KIND_SAVE_FULL, KIND_SAVE_DELTA,
                          KIND_READ)
        for _ in range(registry.REPLICA_COUNT)
    ]
    assert channel.send(GDOCS.fetch_request("doc")).body == "hello!"


def test_gdocs_classify_form_reads_a_parsed_body():
    """The extension hands over the form it already parsed; the
    grammar must answer from it without decoding the body again."""
    save = GDOCS.delta_save_request("d", "s", 1, "=0\ti\thi")
    assert GDOCS.classify_form(save, save.form) == KIND_SAVE_DELTA
    # the given form wins over the body: nothing re-parses it
    assert GDOCS.classify_form(save, {}) == KIND_OPEN
    assert GDOCS.classify_form(save, {"mystery": "x"}) == KIND_OTHER


def test_bespin_classification():
    assert BESPIN.classify(BESPIN.open_request("p")) == KIND_READ
    assert BESPIN.classify(
        BESPIN.full_save_request("p", None, 0, "body")) == KIND_SAVE_FULL
    other = GDOCS.open_request("p")  # a gdocs URL is not a Bespin one
    assert BESPIN.classify(other) == KIND_OTHER
    listing = f"http://{bespin.HOST}/file/list/p/"
    assert BESPIN.classify(HttpRequest("GET", listing)) == KIND_READ
    assert BESPIN.classify(HttpRequest("POST", listing)) == KIND_OTHER


def test_buzzword_classification():
    assert BUZZWORD.classify(BUZZWORD.open_request("n")) == KIND_READ
    assert BUZZWORD.classify(
        BUZZWORD.full_save_request("n", None, 0, "text")) == KIND_SAVE_FULL
    assert BUZZWORD.classify(GDOCS.open_request("n")) == KIND_OTHER
    # a server feature below a document is not a read of it
    assert BUZZWORD.classify(buzzword.get_request("n/wordcount")) == \
        KIND_OTHER


@pytest.mark.parametrize("backend", ALL, ids=lambda b: b.name)
def test_doc_id_round_trips_through_requests(backend):
    for build in (backend.open_request, backend.fetch_request):
        assert backend.doc_id_of(build("some/doc")) == "some/doc"
    save = backend.full_save_request("some/doc", "sid", 3, "content")
    assert backend.doc_id_of(save) == "some/doc"


# -- session rewriting -------------------------------------------------------


def test_gdocs_rewrite_session_substitutes_sid_and_rev():
    save = GDOCS.full_save_request("d", "old-sid", 1, "content")
    rewritten = GDOCS.rewrite_session(save, "new-sid", 9)
    form = rewritten.form
    assert form[protocol.F_SID] == "new-sid"
    assert form[protocol.F_REV] == "9"
    assert form[protocol.F_DOC_CONTENTS] == "content"


@pytest.mark.parametrize("backend", (BESPIN, BUZZWORD),
                         ids=lambda b: b.name)
def test_sessionless_rewrite_is_identity(backend):
    save = backend.full_save_request("d", None, 0, "content")
    assert backend.rewrite_session(save, "sid", 9) is save
    opened = backend.parse_open("d", HttpResponse(200, "x"))
    assert opened.sid is None and opened.rev == -1


# -- parsing -----------------------------------------------------------------


@pytest.mark.parametrize("backend", (BESPIN, BUZZWORD),
                         ids=lambda b: b.name)
def test_missing_document_opens_empty(backend):
    gone = HttpResponse(404, "no such thing")
    assert backend.parse_open("d", gone) == OpenState(content="")
    assert backend.parse_fetch("d", gone, 5).content == ""


def test_gdocs_open_parse_rejects_mangled_acks():
    with pytest.raises(ProtocolError):
        GDOCS.parse_open("d", HttpResponse(500, "boom"))
    with pytest.raises(ProtocolError):
        GDOCS.parse_open("d", HttpResponse(200, "not&a=form"))


def test_synthesize_open_round_trips():
    """What the facade fabricates, the client's parser reads back."""
    fake = GDOCS.synthesize_open("d", "rep:d", 4, "stored-bytes")
    assert GDOCS.parse_open("d", fake) == OpenState(
        content="stored-bytes", sid="rep:d", rev=4)
    assert BESPIN.parse_open("d", BESPIN.synthesize_open(
        "d", "", -1, "stored-bytes")) == OpenState(content="stored-bytes")
    stored = document_xml(["one", "two"])
    assert BUZZWORD.parse_open("d", BUZZWORD.synthesize_open(
        "d", "", -1, stored)) == OpenState(content="one\ntwo")


def test_buzzword_text_and_paragraphs_are_bijective():
    for paragraphs in ([], ["one"], ["one", ""], ["", ""],
                       ["a", "b", "c"]):
        assert split_paragraphs(join_paragraphs(paragraphs)) == paragraphs


def test_buzzword_full_save_frames_and_parse_unframes():
    text = "first paragraph\nsecond paragraph"
    save = BUZZWORD.full_save_request("n", None, 0, text)
    assert text_runs(save.body) == ["first paragraph", "second paragraph"]
    opened = BUZZWORD.parse_open("n", HttpResponse(200, save.body))
    assert opened.content == text


def test_buzzword_store_request_keeps_raw_bytes():
    """Healing copies *stored* bytes: re-framing XML through the
    paragraph splitter would double-wrap it."""
    stored = document_xml(["CIPHERTEXTRUN"])
    raw = BUZZWORD.store_request("n", None, 0, stored)
    assert raw.body == stored


def test_rev_bookkeeping_per_backend():
    """The facade's per-replica revision and conflict come from
    ``parse_save`` — here on real server Acks."""
    server = GDocsServer()
    opened = GDOCS.parse_open("d", server(GDOCS.open_request("d")))
    first = GDOCS.parse_save(server(GDOCS.full_save_request(
        "d", opened.sid, opened.rev, "text")))
    assert first.rev == opened.rev + 1 and not first.conflict
    second = GDOCS.parse_save(server(GDOCS.delta_save_request(
        "d", opened.sid, first.rev, "=4\t+!")))
    assert second.rev == first.rev + 1 and not second.conflict
    stale = GDOCS.parse_save(server(GDOCS.delta_save_request(
        "d", opened.sid, first.rev, "+?")))
    assert stale.conflict and stale.rev == second.rev
    flat = HttpResponse(200, "")
    for backend in (BESPIN, BUZZWORD):
        assert backend.parse_save(flat).rev is None
        assert not backend.parse_save(flat).conflict
        assert backend.ack_consistent(backend.parse_save(flat), "x") is None


@pytest.mark.parametrize("field", (protocol.A_STATUS, protocol.A_REV,
                                   protocol.A_CONTENT,
                                   protocol.A_CONTENT_HASH))
def test_gdocs_save_parse_rejects_incomplete_acks(field):
    server = GDocsServer()
    opened = GDOCS.parse_open("d", server(GDOCS.open_request("d")))
    ack = server(GDOCS.full_save_request("d", opened.sid, opened.rev, "t"))
    assert GDOCS.parse_save(ack).content_from_server == "t"
    fields = ack.form
    del fields[field]
    with pytest.raises(ProtocolError, match="missing field"):
        GDOCS.parse_save(ack.with_form(fields))
    with pytest.raises(ProtocolError, match="unparseable"):
        GDOCS.parse_save(ack.with_form({**ack.form, protocol.A_REV: "x"}))


# -- the registry ------------------------------------------------------------


def test_registry_names_and_factories():
    assert registry.SERVICE_NAMES == ("gdocs", "bespin", "buzzword",
                                      "replicated")
    for name in registry.SERVICE_NAMES:
        backend = registry.backend_for(name)
        assert isinstance(backend, ServiceBackend)
        server = registry.make_server(name)
        assert callable(server)
    # the facade speaks gdocs toward the client
    assert registry.backend_for("replicated") is GDOCS


def test_registry_rejects_unknown_services():
    with pytest.raises(ValueError):
        registry.backend_for("etherpad")
    with pytest.raises(ValueError):
        registry.make_server("etherpad")
    with pytest.raises(ValueError):
        registry.decrypt_view("etherpad", "x", "pw")
