"""The service-side catalog: record codec, the tenant store, and the
``/Catalog`` endpoint (including its error branches).

The store is exercised directly; the endpoint through a
:class:`CatalogService` wrapping a stub server, so the delegation and
piggyback paths are pinned without dragging in a whole session stack
(test_workspace.py covers that end to end).
"""

from __future__ import annotations

import pytest

from repro.core.auditchain import decode_entries
from repro.encoding.formenc import encode_form
from repro.errors import ProtocolError
from repro.net.http import HttpRequest, HttpResponse
from repro.services.catalog import (
    CATALOG_PATH,
    F_AUDIT,
    F_INDEX,
    A_AUDIT_LINK,
    CatalogService,
    CatalogStore,
    catalog_chain_request,
    catalog_list_request,
    catalog_lookup_request,
    catalog_store_request,
    decode_records,
    encode_records,
)
from repro.services.gdocs import protocol


RECORDS = [("+", "aa" * 16, "bb" * 12), ("-", "cc" * 16, "dd" * 12)]


class TestRecordCodec:
    def test_round_trip(self):
        assert decode_records(encode_records(RECORDS)) == RECORDS
        assert decode_records("") == []
        assert encode_records([]) == ""

    def test_malformed_record_raises(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_records("no-colons-here")
        with pytest.raises(ProtocolError, match="unknown index record"):
            decode_records("?:aa:bb")


class TestCatalogStore:
    def test_postings_add_dedup_remove(self):
        store = CatalogStore()
        assert store.apply_records([("+", "t1", "blob")]) == 1
        store.apply_records([("+", "t1", "blob")])  # duplicate add
        assert store.lookup("t1") == ["blob"]
        assert store.posting_count == 1
        store.apply_records([("-", "t1", "blob")])
        assert store.lookup("t1") == []
        assert store.posting_count == 0
        assert store.lookup("never-seen") == []

    def test_doc_catalog(self):
        store = CatalogStore()
        store.note_doc("b")
        store.note_doc("a")
        store.note_doc("b")
        assert store.doc_ids() == ["a", "b"]

    def test_commit_mints_chain_links_and_dedups_replays(self):
        store = CatalogStore()
        assert store.commit("d", 1, "h1", audit=True) is True
        assert store.commit("d", 2, "h2", audit=True) is True
        # an idempotent replay answers from cache with the same rev —
        # the catalog must not double-append
        assert store.commit("d", 2, "h2", audit=True) is False
        assert store.commit("d", 1, "h1", audit=True) is False
        chain = store.chain("d")
        assert [e.rev for e in chain.entries] == [1, 2]
        assert store.head_link("d") == chain.head.link
        assert store.head_link("never-audited") is None

    def test_commit_applies_piggybacked_records_once(self):
        store = CatalogStore()
        records = [("+", "t1", "blob")]
        store.commit("d", 1, "h1", records=records)
        store.commit("d", 1, "h1", records=records)  # replay: no-op
        assert store.lookup("t1") == ["blob"]


def _stub_inner(response: HttpResponse):
    """A wrapped 'server' that records calls and answers canned."""
    def inner(request: HttpRequest) -> HttpResponse:
        inner.calls.append(request)
        return response
    inner.calls = []
    inner.sentinel_attr = "delegated"
    return inner


class TestCatalogEndpoint:
    def _service(self) -> CatalogService:
        return CatalogService(_stub_inner(HttpResponse(200, body="x")))

    def test_list_store_lookup_chain(self):
        svc = self._service()
        assert svc(catalog_list_request()).body == ""
        assert svc(catalog_store_request(
            [("+", "t1", "blob")])).body == "1"
        assert svc(catalog_lookup_request("t1")).body == "blob"
        svc.catalog.commit("doc", 1, "h1", audit=True)
        entries = decode_entries(svc(catalog_chain_request("doc")).body)
        assert [e.rev for e in entries] == [1]
        svc.catalog.commit("doc", 2, "h2", audit=True)
        entries = decode_entries(svc(catalog_chain_request("doc", 2)).body)
        assert [e.rev for e in entries] == [2]
        # none of the catalog ops touched the wrapped server
        assert svc.inner.calls == []

    def test_chain_reads_for_unknown_ids_store_nothing(self):
        svc = self._service()
        svc.catalog.commit("doc", 1, "h1", audit=True)
        before = dict(svc.catalog._chains)
        known = svc(catalog_chain_request("doc")).body
        for i in range(1_000):
            response = svc(catalog_chain_request(f"unknown-{i}"))
            assert (response.status, response.body) == (200, "")
        assert svc.catalog._chains == before
        assert svc(catalog_chain_request("doc")).body == known
        assert svc.inner.calls == []

    def test_error_branches_answer_400(self):
        svc = self._service()
        cases = [
            # unknown op
            HttpRequest("POST", f"http://h{CATALOG_PATH}?op=teleport",
                        body=""),
            # lookup without a trapdoor
            HttpRequest("POST", f"http://h{CATALOG_PATH}?op=lookup",
                        body=""),
            # chain without a doc id
            HttpRequest("POST", f"http://h{CATALOG_PATH}?op=chain",
                        body=""),
            # chain from a revision that is not an integer
            HttpRequest("POST", f"http://h{CATALOG_PATH}?op=chain",
                        body=encode_form({"doc": "d", "since": "two"})),
            # store with malformed records
            HttpRequest("POST", f"http://h{CATALOG_PATH}?op=store",
                        body=encode_form({F_INDEX: "garbage"})),
        ]
        for request in cases:
            response = svc(request)
            assert response.status == 400, request.url
            assert "error" in response.form

    def test_non_catalog_requests_delegate_untouched(self):
        svc = self._service()
        response = svc(HttpRequest("GET", "http://h/Edit?docID=d"))
        assert response.body == "x"
        assert len(svc.inner.calls) == 1
        # attribute access delegates too (registry helpers rely on it)
        assert svc.sentinel_attr == "delegated"


class TestPiggyback:
    def _ack(self, rev: int, chash: str) -> HttpResponse:
        return HttpResponse(200, body=encode_form({
            protocol.A_STATUS: "ok",
            protocol.A_REV: str(rev),
            protocol.A_CONTENT_HASH: chash,
        }))

    def _save_request(self, fields: dict) -> HttpRequest:
        return HttpRequest("POST", "http://h/Edit?docID=d",
                           body=encode_form(fields))

    def test_audited_ack_gains_the_head_link(self):
        svc = CatalogService(_stub_inner(self._ack(1, "h1")))
        response = svc(self._save_request({F_AUDIT: "1"}))
        assert response.form[A_AUDIT_LINK] == svc.catalog.head_link("d")
        assert svc.catalog.doc_ids() == ["d"]

    def test_index_records_ride_the_save(self):
        svc = CatalogService(_stub_inner(self._ack(1, "h1")))
        svc(self._save_request({F_INDEX: encode_records(
            [("+", "t9", "blob9")])}))
        assert svc.catalog.lookup("t9") == ["blob9"]

    def test_legacy_wire_passes_through_byte_identical(self):
        """A request with neither idx nor aud — the entire pre-PR-10
        wire — must come back exactly as the wrapped server answered."""
        ack = self._ack(1, "h1")
        svc = CatalogService(_stub_inner(ack))
        response = svc(self._save_request({"docContents": "cipher"}))
        assert response is ack
        assert svc.catalog.head_link("d") is None

    def test_failed_save_commits_nothing(self):
        svc = CatalogService(_stub_inner(HttpResponse(500, body="boom")))
        svc(self._save_request({F_AUDIT: "1"}))
        assert svc.catalog.head_link("d") is None
