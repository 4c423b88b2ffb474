"""Failure injection: quotas, in-flight corruption, broken servers.

The stack must fail *closed and loud* — no scenario may silently show
the user wrong plaintext or leak plaintext to the wire.
"""

import pytest

from repro.crypto.random import DeterministicRandomSource
from repro.encoding.wire import looks_encrypted
from repro.client.gdocs_client import CONFLICT_COMPLAINT
from repro.errors import (
    NetworkTimeoutError,
    ProtocolError,
    QuotaExceededError,
)
from repro.extension import PrivateEditingSession
from repro.net.faults import FaultPlan, FaultSpec, updates_only
from repro.net.http import HttpResponse
from repro.services.gdocs import storage
from repro.services.gdocs.server import GDocsServer


def make_session(seed=1, **kw):
    return PrivateEditingSession(
        "doc", "pw", scheme="rpc", rng=DeterministicRandomSource(seed),
        **kw,
    )


class TestQuota:
    def test_blowup_hits_quota_sooner(self, monkeypatch):
        """SV-C's motivation: the ciphertext blow-up, not the plaintext
        size, is what hits the provider's cap."""
        monkeypatch.setattr(storage, "MAX_DOCUMENT_CHARS", 20_000)
        session = make_session(block_chars=1)
        session.open()
        # 2,000 plaintext chars -> ~56,000 ciphertext chars >> 20,000
        session.type_text(0, "x" * 2_000)
        with pytest.raises(ProtocolError):
            session.save()

    def test_same_text_fits_at_b8(self, monkeypatch):
        monkeypatch.setattr(storage, "MAX_DOCUMENT_CHARS", 20_000)
        session = make_session(block_chars=8)
        session.open()
        session.type_text(0, "x" * 2_000)  # ~7,000 ciphertext chars
        session.save()
        assert looks_encrypted(session.server_view())

    def test_store_raises_quota_error_directly(self):
        store = storage.DocumentStore()
        store.create("d")
        with pytest.raises(QuotaExceededError):
            store.set_content("d", "x" * (storage.MAX_DOCUMENT_CHARS + 1))


class TestInFlightCorruption:
    def test_corrupted_upload_detected_on_reload(self):
        """A network adversary flips ciphertext in flight; the server
        stores the corrupt version; the next reader refuses it."""
        session = make_session(2)

        def corrupt(request):
            if "docContents" in request.body:
                return request.with_body(
                    request.body.replace("A", "B", 1)
                )
            return request

        session.channel.set_tamperers(on_request=corrupt)
        session.open()
        session.type_text(0, "integrity matters")
        session.save()

        reader = make_session(3, server=session.server)
        seen = reader.open()
        assert "integrity" not in seen
        assert reader.extension.warnings

    def test_corrupted_response_never_shows_wrong_plaintext(self):
        session = make_session(4)
        session.open()
        session.type_text(0, "truthful content")
        session.save()
        session.close()

        reader = make_session(5, server=session.server)

        def corrupt(response):
            if response.ok and "PE1-" in response.body:
                # flip ciphertext characters near the end of the body
                return response.with_body(
                    response.body[:-30]
                    + ("A" * 30 if not response.body.endswith("A" * 30)
                       else "B" * 30)
                )
            return response

        reader.channel.set_tamperers(on_response=corrupt)
        seen = reader.open()
        # Integrity (or parsing) fails: the user sees *something other
        # than wrong plaintext* — raw bytes, never a silently altered
        # document.
        assert seen != "truthful content"
        assert reader.extension.warnings or "PE1-" in seen or seen != (
            "truthful content"
        )


class TestBrokenServer:
    class ExplodingServer(GDocsServer):
        def __init__(self):
            super().__init__()
            self.explode_next = 0

        def __call__(self, request):
            if self.explode_next > 0:
                self.explode_next -= 1
                return HttpResponse(500, "internal error")
            return super().__call__(request)

    def test_save_failure_surfaces_and_recovers(self):
        server = self.ExplodingServer()
        session = make_session(6, server=server)
        session.open()
        session.type_text(0, "persist me")
        server.explode_next = 1
        with pytest.raises(ProtocolError):
            session.save()
        # the buffer is still dirty; the retry succeeds and syncs
        outcome = session.save()
        assert outcome.kind == "full"
        assert looks_encrypted(session.server_view())

    def test_failed_delta_keeps_mirror_consistent(self):
        """A delta save that dies on the server must not desync the
        extension mirror from the stored ciphertext permanently: the
        next save recovers."""
        server = self.ExplodingServer()
        session = make_session(7, server=server)
        session.open()
        session.type_text(0, "base text here")
        session.save()
        session.type_text(0, "lost? ")
        server.explode_next = 1
        with pytest.raises(ProtocolError):
            session.save()
        # Mirror advanced but server did not; rev mismatch now triggers
        # the conflict/full-save recovery on the next attempt.
        session.type_text(0, "more. ")
        session.save()
        session.save()  # possible conflict recovery second round
        reader = make_session(8, server=server)
        assert reader.open() == session.text


class TestLostSaveOnThePapersPath:
    @pytest.mark.parametrize("kind", ["drop", "blackhole"])
    def test_lost_save_raises_then_full_save_recovers(self, kind):
        """Without a retry policy a lost save raises, and the next save
        re-sends the whole document: the server may or may not have
        applied the lost delta, so a delta against either state would
        be refused ("delete past end") or taken for a second writer's
        conflict."""
        session = make_session(9, faults=FaultPlan(
            [FaultSpec(kind, at=(3,), match=updates_only)], seed=1,
        ))
        session.open()
        session.type_text(0, "a lost save must not ")
        assert session.save().kind == "full"
        session.type_text(0, "one. ")
        assert session.save().kind == "delta"
        session.type_text(0, "two. ")
        with pytest.raises(NetworkTimeoutError):
            session.save()
        session.type_text(0, "three. ")
        outcome = session.save()
        assert outcome.kind == "full"
        assert outcome.ok and not outcome.conflict
        assert outcome.complaints == []
        assert CONFLICT_COMPLAINT not in session.client.complaints
        reader = make_session(10, server=session.server)
        assert reader.open() == session.text
