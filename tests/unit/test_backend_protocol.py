"""Unit contract of the ServiceBackend seam (repro.services.backend).

The shared client core and the replication facade are written against
this protocol; these tests pin the per-provider behaviours they rely
on — capability flags, request classification, session rewriting, the
paragraph bijection, and the raw-bytes guarantee of ``store_request``.
"""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
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
    ServiceBackend,
    join_paragraphs,
    split_paragraphs,
)
from repro.services.buzzword import document_xml, text_runs
from repro.services.gdocs import protocol

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
    assert backend.session_of_open(HttpResponse(200, "x")) is None


# -- parsing -----------------------------------------------------------------


@pytest.mark.parametrize("backend", (BESPIN, BUZZWORD),
                         ids=lambda b: b.name)
def test_missing_document_opens_empty(backend):
    gone = HttpResponse(404, "no such thing")
    assert backend.is_missing(gone)
    assert backend.parse_open("d", gone).content == ""
    assert backend.parse_fetch("d", gone, 5).content == ""
    assert backend.content_of_open(gone) == ""


def test_gdocs_open_parse_rejects_mangled_acks():
    with pytest.raises(ProtocolError):
        GDOCS.parse_open("d", HttpResponse(500, "boom"))
    with pytest.raises(ProtocolError):
        GDOCS.parse_open("d", HttpResponse(200, "not&a=form"))


def test_synthesize_open_round_trips():
    for backend, sid, rev in ((GDOCS, "s", 4), (BESPIN, "", -1),
                              (BUZZWORD, "", -1)):
        fake = backend.synthesize_open("d", sid, rev, "stored-bytes")
        assert backend.content_of_open(fake) == "stored-bytes"


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
    ack = HttpResponse(
        200, f"{protocol.A_REV}=7&{protocol.A_CONFLICT}=0")
    assert GDOCS.rev_of_save(ack, 3) == 7
    assert not GDOCS.save_conflict(ack)
    flat = HttpResponse(200, "")
    for backend in (BESPIN, BUZZWORD):
        assert backend.rev_of_save(flat, 3) == 3
        assert not backend.save_conflict(flat)
        assert backend.parse_save(flat).rev is None
        assert backend.ack_consistent(backend.parse_save(flat), "x") is None


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
