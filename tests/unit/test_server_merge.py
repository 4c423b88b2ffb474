"""GDocsServer merge mode: unit-level behaviour of the OT path."""

import pytest

from repro.net.channel import Channel
from repro.services.backend import GDOCS
from repro.services.gdocs import protocol
from repro.services.gdocs.server import GDocsServer


def session(channel, doc_id="doc"):
    """Open a session and return (sid, rev)."""
    resp = channel.send(protocol.open_request(doc_id))
    return resp.form[protocol.F_SID], int(resp.form[protocol.A_REV])


@pytest.fixture
def merging():
    server = GDocsServer(merge_concurrent=True)
    return server, Channel(server)


class TestMergePath:
    def test_stale_delta_is_transformed(self, merging):
        server, ch = merging
        sid, rev = session(ch)
        ch.send(protocol.full_save_request("doc", sid, rev, "abcdef"))
        # concurrent session appends at the end (rev 1 -> 2)
        sid2, _ = session(ch)
        ch.send(protocol.full_save_request("doc", sid2, 1, "abcdef"))  # dedup
        ch.send(protocol.delta_save_request("doc", sid2, 1, "=6\t+TAIL"))
        # first session's stale delta (base rev 1) inserts at the front
        resp = ch.send(protocol.delta_save_request("doc", sid, 1, "+HEAD "))
        ack = GDOCS.parse_save(resp)
        assert ack.merged and not ack.conflict
        # no content echo: the Ack carries the mergePatch instead, a
        # delta from the saver's post-save text to the merged text
        assert ack.content_from_server == ""
        assert server.store.get("doc").content == "HEAD abcdefTAIL"
        from repro.core.delta import Delta
        patched = Delta.parse(ack.merge_patch).apply("HEAD abcdef")
        assert patched == "HEAD abcdefTAIL"
        assert ack.content_from_server_hash == \
            protocol.content_hash("HEAD abcdefTAIL")
        assert server.merges_performed == 1

    def test_merge_blocked_by_intervening_full_save(self, merging):
        server, ch = merging
        sid, rev = session(ch)
        ch.send(protocol.full_save_request("doc", sid, rev, "v1"))
        sid2, _ = session(ch)
        ch.send(protocol.full_save_request("doc", sid2, 1,
                                           "completely new"))  # real full save
        resp = ch.send(protocol.delta_save_request("doc", sid, 1, "+x"))
        ack = GDOCS.parse_save(resp)
        assert ack.conflict and not ack.merged  # cannot transform past it
        assert server.merges_performed == 0

    def test_identity_full_save_does_not_bump_revision(self, merging):
        server, ch = merging
        sid, rev = session(ch)
        ch.send(protocol.full_save_request("doc", sid, rev, "stable"))
        rev_after_first = server.store.get("doc").revision
        sid2, _ = session(ch)
        ch.send(protocol.full_save_request("doc", sid2, rev_after_first,
                                           "stable"))
        assert server.store.get("doc").revision == rev_after_first

    def test_merge_disabled_by_default(self):
        server = GDocsServer()
        ch = Channel(server)
        sid, rev = session(ch)
        ch.send(protocol.full_save_request("doc", sid, rev, "base"))
        sid2, _ = session(ch)
        ch.send(protocol.full_save_request("doc", sid2, 1, "base"))
        ch.send(protocol.delta_save_request("doc", sid2, 1, "+x"))
        resp = ch.send(protocol.delta_save_request("doc", sid, 1, "+y"))
        assert GDOCS.parse_save(resp).conflict

    def test_merge_respects_censor(self):
        server = GDocsServer(merge_concurrent=True, reject_encrypted=True)
        ch = Channel(server)
        sid, rev = session(ch)
        ch.send(protocol.full_save_request("doc", sid, rev, "plain text"))
        sid2, _ = session(ch)
        ch.send(protocol.full_save_request("doc", sid2, 1, "plain text"))
        ch.send(protocol.delta_save_request("doc", sid2, 1, "+ok "))
        wall = "A2B3C4D5E6F7" * 60
        resp = ch.send(protocol.delta_save_request("doc", sid, 1,
                                                   f"+{wall}"))
        assert resp.status == 403  # merged result would look encrypted

    def test_ops_log_tracks_deltas(self, merging):
        server, ch = merging
        sid, rev = session(ch)
        ch.send(protocol.full_save_request("doc", sid, rev, "abc"))
        ch.send(protocol.delta_save_request("doc", sid, 1, "+x"))
        doc = server.store.get("doc")
        assert doc.ops_log == [None, "+x"]
        assert doc.deltas_since(1) == ["+x"]
        assert doc.deltas_since(0) is None  # full save in the window
