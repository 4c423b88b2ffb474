"""The simulated Google Documents server and its storage."""

import gc

import pytest

from repro.errors import ProtocolError, QuotaExceededError
from repro.net.channel import Channel
from repro.services.backend import GDOCS
from repro.services.gdocs import protocol
from repro.services.gdocs.server import GDocsServer
from repro.obs import capture
from repro.services.gdocs.storage import (
    MAX_DOCUMENT_CHARS,
    DocumentStore,
)


class TestStore:
    def test_create_get(self):
        store = DocumentStore()
        store.create("d", "hello")
        assert store.get("d").content == "hello"
        assert "d" in store and len(store) == 1

    def test_duplicate_create(self):
        store = DocumentStore()
        store.create("d")
        with pytest.raises(ProtocolError):
            store.create("d")

    def test_missing_get(self):
        with pytest.raises(ProtocolError):
            DocumentStore().get("nope")

    def test_set_content_bumps_revision_and_history(self):
        store = DocumentStore()
        store.create("d", "v0")
        store.set_content("d", "v1")
        store.set_content("d", "v2")
        doc = store.get("d")
        assert doc.revision == 2
        assert doc.history == ["v0", "v1"]

    def test_apply_delta_is_structural(self):
        store = DocumentStore()
        store.create("d", "abcdefg")
        store.apply_delta("d", "=2\t-3\t+uv\t=2\t+w")
        assert store.get("d").content == "abuvfgw"

    def test_bad_delta(self):
        store = DocumentStore()
        store.create("d", "ab")
        with pytest.raises(ProtocolError):
            store.apply_delta("d", "=5\t-1")

    def test_quota(self):
        store = DocumentStore()
        store.create("d")
        with pytest.raises(QuotaExceededError):
            store.set_content("d", "x" * (MAX_DOCUMENT_CHARS + 1))

    def test_quota_via_delta(self):
        store = DocumentStore()
        store.create("d", "x" * MAX_DOCUMENT_CHARS)
        with pytest.raises(QuotaExceededError):
            store.apply_delta("d", "+y")


@pytest.fixture
def channel():
    return Channel(GDocsServer())


def open_session(channel, doc_id="doc"):
    resp = channel.send(protocol.open_request(doc_id))
    return resp.form[protocol.F_SID], int(resp.form[protocol.A_REV])


class TestServer:
    def test_open_creates_document(self, channel):
        sid, rev = open_session(channel)
        assert sid.startswith("s") and rev == 0

    def test_full_save_then_delta(self, channel):
        sid, rev = open_session(channel)
        resp = channel.send(
            protocol.full_save_request("doc", sid, rev, "hello world")
        )
        ack = GDOCS.parse_save(resp)
        assert ack.content_from_server == "hello world"
        assert ack.content_from_server_hash == protocol.content_hash(
            "hello world"
        )
        resp = channel.send(
            protocol.delta_save_request("doc", sid, ack.rev, "=5\t+!")
        )
        ack = GDOCS.parse_save(resp)
        # routine delta Acks carry only the hash (no content echo)
        assert ack.content_from_server == ""
        assert ack.content_from_server_hash == protocol.content_hash(
            "hello! world"
        )
        assert not ack.conflict

    def test_delta_before_full_save_rejected(self, channel):
        sid, rev = open_session(channel)
        resp = channel.send(
            protocol.delta_save_request("doc", sid, rev, "+x")
        )
        assert resp.status == 400

    def test_stale_revision_conflicts_without_applying(self, channel):
        sid, rev = open_session(channel)
        channel.send(protocol.full_save_request("doc", sid, rev, "base"))
        resp = channel.send(
            protocol.delta_save_request("doc", sid, 999, "+x")
        )
        ack = GDOCS.parse_save(resp)
        assert ack.conflict
        assert ack.content_from_server == "base"

    def test_invalid_session(self, channel):
        resp = channel.send(
            protocol.full_save_request("doc", "bogus", 0, "x")
        )
        assert resp.status == 400

    def test_fetch(self, channel):
        sid, rev = open_session(channel)
        channel.send(protocol.full_save_request("doc", sid, rev, "body"))
        resp = channel.send(protocol.fetch_request("doc"))
        assert resp.body == "body"

    def test_missing_doc_id(self, channel):
        from repro.net.http import HttpRequest
        resp = channel.send(HttpRequest("POST", "http://h/Doc"))
        assert resp.status == 400

    def test_unknown_path(self, channel):
        from repro.net.http import HttpRequest
        resp = channel.send(HttpRequest("POST", "http://h/Nope?docID=d"))
        assert resp.status == 404

    def test_quota_reported_as_413(self, channel):
        sid, rev = open_session(channel)
        resp = channel.send(protocol.full_save_request(
            "doc", sid, rev, "x" * (MAX_DOCUMENT_CHARS + 1)
        ))
        assert resp.status == 413


class TestServerFeatures:
    def test_spellcheck_reads_stored_content(self, channel):
        sid, rev = open_session(channel)
        channel.send(protocol.full_save_request(
            "doc", sid, rev, "the quick zzyzx"
        ))
        resp = channel.send(protocol.feature_request("doc", "spellcheck"))
        assert "zzyzx" in resp.form["misspelled"]

    def test_translate(self, channel):
        sid, rev = open_session(channel)
        channel.send(protocol.full_save_request("doc", sid, rev, "ab cd"))
        resp = channel.send(protocol.feature_request("doc", "translate"))
        assert resp.body == "ba dc"

    def test_export(self, channel):
        sid, rev = open_session(channel)
        channel.send(protocol.full_save_request("doc", sid, rev, "body"))
        resp = channel.send(protocol.feature_request("doc", "export"))
        assert resp.body.startswith("{\\rtf1")
        assert "body" in resp.body

    def test_drawing(self, channel):
        sid, rev = open_session(channel)
        channel.send(protocol.full_save_request("doc", sid, rev, ""))
        resp = channel.send(protocol.feature_request(
            "doc", "drawing", primitives="line circle"
        ))
        assert resp.body.startswith("PNG[")

    def test_unknown_action(self, channel):
        sid, rev = open_session(channel)
        resp = channel.send(protocol.feature_request("doc", "mine-bitcoin"))
        assert resp.status == 400


class TestStoredBytesGauge:
    """``services.gdocs.stored_bytes`` is the characters held by every
    stored document in the process: each length change moves it."""

    @pytest.fixture(autouse=True)
    def _collect_earlier_garbage(self):
        # an earlier test's document collected inside a capture would
        # move the gauge
        gc.collect()

    def test_two_servers_sum(self):
        channels = [Channel(GDocsServer()) for _ in range(2)]
        with capture() as cap:
            for channel, content in zip(channels,
                                        ("hello", "a longer document")):
                sid, rev = open_session(channel)
                ack = GDOCS.parse_save(channel.send(
                    protocol.full_save_request("doc", sid, rev, content)))
                channel.send(protocol.delta_save_request(
                    "doc", sid, ack.rev, "=2\t-1\t+xyz"))
        assert cap["services.gdocs.stored_bytes"] == (5 + 2) + (17 + 2)

    def test_collected_servers_leave_it(self):
        """A server that is gone no longer stores its documents."""
        with capture() as cap:
            channels = [Channel(GDocsServer()) for _ in range(3)]
            for channel in channels:
                sid, rev = open_session(channel)
                channel.send(protocol.full_save_request(
                    "doc", sid, rev, "x" * 2159))
            del channels, channel
            gc.collect()
        assert cap["services.gdocs.stored_bytes"] == 0

    def test_quota_refused_saves_leave_it_unchanged(self):
        store = DocumentStore()
        store.create("d", "x" * MAX_DOCUMENT_CHARS)
        with capture() as cap:
            with pytest.raises(QuotaExceededError):
                store.apply_delta("d", "+y")
            with pytest.raises(QuotaExceededError):
                store.set_content("d", "x" * (MAX_DOCUMENT_CHARS + 1))
        assert cap["services.gdocs.stored_bytes"] == 0

    def test_assignment_moves_it(self):
        store = DocumentStore()
        store.create("d", "abcdef")
        with capture() as cap:
            store.get("d").content = "ab"
        assert cap["services.gdocs.stored_bytes"] == -4
