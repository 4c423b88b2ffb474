"""The Workspace: one tenant secret fanned out over many documents,
encrypted search, and audit-chain rollback detection.

Everything runs against a real catalog-wrapped gdocs server from the
registry — no mocks — because the load-bearing claims are end to end:
a word typed into one document is findable (and only there) via a
trapdoor the server cannot read, and a provider that rolls a document
back is caught whether or not it bothers to forge a consistent chain.
"""

from __future__ import annotations

import hmac
import types

import pytest

from repro import obs
from repro.client.workspace import CATALOG_LOG_ENTRIES, Workspace
from repro.extension import catalog as catalog_module
from repro.core.auditchain import decode_entries
from repro.crypto.random import DeterministicRandomSource
from repro.errors import NetworkTimeoutError
from repro.net.faults import FaultPlan, FaultSpec, updates_only
from repro.security.adversary import ActiveServerAdversary
from repro.services import registry
from repro.services.gdocs import protocol


@pytest.fixture()
def server():
    return registry.make_server("gdocs", catalog=True)


@pytest.fixture()
def ws(server):
    workspace = Workspace("tenant-secret", server=server, rng_seed=7)
    yield workspace
    workspace.close_all()


def _seed_doc(ws, doc_id: str, text: str) -> None:
    ws.open(doc_id)
    ws.type_text(doc_id, 0, text)
    assert ws.save(doc_id).ok


class TestConstruction:
    def test_needs_exactly_one_backend(self, server):
        with pytest.raises(ValueError, match="exactly one"):
            Workspace("s")
        with pytest.raises(ValueError, match="exactly one"):
            Workspace("s", server=server, transport=object())

    def test_per_document_passwords_derive_from_the_secret(self, server):
        ws = Workspace("tenant-secret", server=server)
        again = Workspace("tenant-secret", server=server)
        other = Workspace("other-secret", server=server)
        assert ws.password_for("a") == again.password_for("a")
        assert ws.password_for("a") != ws.password_for("b")
        assert ws.password_for("a") != other.password_for("a")
        assert "tenant-secret" not in ws.password_for("a")


class TestEditingAndSearch:
    def test_multi_doc_round_trip_stays_encrypted(self, ws, server):
        _seed_doc(ws, "alpha", "the walrus sings")
        _seed_doc(ws, "beta", "the carpenter weeps")
        assert ws.text("alpha") == "the walrus sings"
        # the provider stores ciphertext, never the plaintext
        assert "walrus" not in server.store.get("alpha").content
        assert ws.session("alpha").stored_text() == "the walrus sings"

    def test_search_finds_exactly_the_right_documents(self, ws):
        _seed_doc(ws, "alpha", "the walrus sings")
        _seed_doc(ws, "beta", "the carpenter weeps")
        assert ws.search("walrus") == ["alpha"]
        assert ws.search("the") == ["alpha", "beta"]
        assert ws.search("absent") == []

    def test_index_follows_edits_and_deletes(self, ws):
        _seed_doc(ws, "alpha", "ephemeral word")
        assert ws.search("ephemeral") == ["alpha"]
        ws.delete_text("alpha", 0, len("ephemeral "))
        assert ws.save("alpha").ok
        assert ws.search("ephemeral") == []
        assert ws.search("word") == ["alpha"]

    def test_list_docs_reflects_the_catalog(self, ws):
        _seed_doc(ws, "beta", "b")
        _seed_doc(ws, "alpha", "a")
        assert ws.list_docs() == ["alpha", "beta"]

    def test_reopen_adopts_saved_state(self, ws):
        _seed_doc(ws, "alpha", "persistent walrus")
        ws.close("alpha")
        assert "alpha" not in ws.open_docs
        assert ws.open("alpha") == "persistent walrus"
        assert ws.search("persistent") == ["alpha"]
        assert ws.alerts == []  # a clean reopen raises nothing

    def test_reopen_repeats_no_key_derivation(self, ws):
        """Closing and reopening an unchanged document derives no key
        (the KDF memo) and builds one AES key schedule: the document
        cipher's, not a re-seeded nonce generator's."""
        _seed_doc(ws, "alpha", "reopened without a kdf " * 40)
        ws.close("alpha")
        with obs.capture() as cap:
            assert ws.open("alpha") == "reopened without a kdf " * 40
        assert cap["crypto.kdf.derivations"] == 0
        assert cap["crypto.aes.key_schedules"] == 1

    def test_reopen_continues_the_nonce_stream(self, ws, monkeypatch):
        """Under ``rng_seed`` each document keeps one nonce stream across
        close and reopen; re-seeding it would hand the second session
        the very bytes the first one drew."""
        drawn: list[bytes] = []
        token = DeterministicRandomSource.token

        def recording(self, nbytes):
            drawn.append(token(self, nbytes))
            return drawn[-1]

        monkeypatch.setattr(DeterministicRandomSource, "token", recording)
        _seed_doc(ws, "alpha", "first session text")
        first = b"".join(drawn)
        ws.close("alpha")
        drawn.clear()
        ws.open("alpha")
        ws.type_text("alpha", 0, "second ")
        assert ws.save("alpha").ok
        second = b"".join(drawn)
        assert len(first) >= 16 and len(second) >= 16
        assert second[:16] not in first

    def test_forged_posting_blobs_are_dropped(self, ws, server):
        """A tampering catalog can suppress results but not inject
        document ids: a blob it makes up fails authentication."""
        _seed_doc(ws, "alpha", "real word")
        trapdoor = ws.indexer.trapdoor("real")
        server.catalog.apply_records([("+", trapdoor, "ff" * 20)])
        assert ws.search("real") == ["alpha"]

    def test_catalog_log_is_a_bounded_ring(self, ws):
        """Every search is a catalog exchange; the channel keeps only
        the newest :data:`CATALOG_LOG_ENTRIES` of them."""
        _seed_doc(ws, "alpha", "the walrus sings")
        for _ in range(CATALOG_LOG_ENTRIES + 5):
            ws.search("walrus")
        log = ws.catalog_channel.exchange_log
        assert len(log) == CATALOG_LOG_ENTRIES
        assert "/Catalog" in log[-1].request.url

    def test_document_logs_are_bounded_rings(self, ws):
        """Every save is a document exchange; each document session's
        channel keeps only the newest :data:`CATALOG_LOG_ENTRIES`."""
        _seed_doc(ws, "alpha", "the walrus sings")
        for i in range(CATALOG_LOG_ENTRIES + 5):
            ws.type_text("alpha", 0, f"{i} ")
            assert ws.save("alpha").ok
        log = ws.session("alpha").channel.exchange_log
        assert len(log) == CATALOG_LOG_ENTRIES
        assert log[-1].request.url.endswith("docID=alpha")


class TestSearchMemo:
    """``WorkspaceIndexer.decrypt_blob`` remembers every blob that
    authenticated under its trapdoor, so a repeated search skips the
    HMACs — and answers exactly what a full decryption would."""

    @pytest.fixture()
    def hmac_calls(self, monkeypatch):
        calls = []

        def digest(key, message, name):
            calls.append(message)
            return hmac.digest(key, message, name)

        monkeypatch.setattr(catalog_module, "hmac",
                            types.SimpleNamespace(digest=digest))
        return calls

    def test_repeated_search_computes_no_hmac(self, ws, hmac_calls):
        _seed_doc(ws, "alpha", "the walrus sings")
        _seed_doc(ws, "beta", "the carpenter weeps")
        ws.search("the")
        del hmac_calls[:]
        assert ws.search("the") == ["alpha", "beta"]
        assert hmac_calls == []
        # a new word's postings are decrypted (and remembered) once
        assert ws.search("walrus") == ["alpha"]
        assert hmac_calls
        del hmac_calls[:]
        assert ws.search("walrus") == ["alpha"]
        assert hmac_calls == []

    def test_blob_served_under_another_trapdoor_is_dropped(self, ws,
                                                           server):
        """A genuine posting authenticated under one trapdoor does not
        authenticate under another, remembered or not."""
        _seed_doc(ws, "alpha", "the walrus sings")
        indexer = ws.indexer
        walrus = indexer.trapdoor("walrus")
        blob = indexer.blob(walrus, "alpha")
        assert ws.search("walrus") == ["alpha"]
        assert indexer.decrypt_blob(walrus, blob) == "alpha"
        assert indexer.decrypt_blob(indexer.trapdoor("absent"), blob) is None
        server.catalog.apply_records(
            [("+", indexer.trapdoor("absent"), blob)])
        assert ws.search("absent") == []

    def test_corrupted_blob_is_dropped_on_every_search(self, ws, server,
                                                       hmac_calls):
        _seed_doc(ws, "alpha", "real word")
        trapdoor = ws.indexer.trapdoor("real")
        genuine = ws.indexer.blob(trapdoor, "alpha")
        flipped = genuine[:-1] + ("0" if genuine[-1] != "0" else "1")
        server.catalog.apply_records([("+", trapdoor, flipped)])
        for _ in range(2):
            del hmac_calls[:]
            assert ws.search("real") == ["alpha"]
            assert hmac_calls  # the corrupted blob is checked again
        assert (trapdoor, flipped) not in ws.indexer._authenticated

    def test_only_the_canonical_spelling_is_remembered(self, ws, server):
        """Hex-case variants of a genuine posting authenticate, but the
        memo keeps one entry per genuine posting."""
        _seed_doc(ws, "alpha", "real word")
        trapdoor = ws.indexer.trapdoor("real")
        shouted = ws.indexer.blob(trapdoor, "alpha").upper()
        server.catalog.apply_records([("+", trapdoor, shouted)])
        assert ws.search("real") == ["alpha"]
        assert ws.search("real") == ["alpha"]
        assert (trapdoor, shouted) not in ws.indexer._authenticated

    def test_suppressed_posting_stays_suppressed(self, ws, server):
        _seed_doc(ws, "alpha", "shared word")
        _seed_doc(ws, "beta", "shared too")
        assert ws.search("shared") == ["alpha", "beta"]
        trapdoor = ws.indexer.trapdoor("shared")
        server.catalog.apply_records(
            [("-", trapdoor, ws.indexer.blob(trapdoor, "alpha"))])
        assert ws.search("shared") == ["beta"]


class TestAuditTrail:
    def _history(self, ws, doc_id: str, texts) -> None:
        ws.open(doc_id)
        for text in texts:
            ws.type_text(doc_id, 0, text + " ")
            assert ws.save(doc_id).ok

    def test_honest_history_verifies_clean(self, ws):
        self._history(ws, "alpha", ["one", "two", "three"])
        assert ws.verify_history("alpha") == []
        assert ws.alerts == []

    def test_plain_rollback_is_detected(self, ws, server):
        self._history(ws, "alpha", ["one", "two", "three"])
        ActiveServerAdversary(server.store).rollback("alpha", 1)
        alerts = ws.verify_history("alpha")
        assert alerts and any("rollback" in a for a in alerts)
        assert ws.alerts  # recorded on the workspace too

    def test_forged_self_consistent_chain_is_detected(self, ws, server):
        """The sophisticated rollback: rewind the store AND rebuild a
        chain whose every link recomputes over the stale content.  Only
        the client's remembered (rev, link) anchor can refute it."""
        self._history(ws, "alpha", ["one", "two", "three"])
        adv = ActiveServerAdversary(server.store)
        stored = server.store.get("alpha")
        old = stored.history[1]
        adv.overwrite("alpha", old)
        rev_now = ws.session("alpha").client.revision
        history = [(rev, protocol.content_hash(f"forged-{rev}"))
                   for rev in range(1, rev_now)]
        history.append((rev_now, protocol.content_hash(old)))
        adv.forge_chain(server.catalog, "alpha", history)
        alerts = ws.verify_history("alpha")
        assert alerts and any("forged chain" in a for a in alerts)

    def test_vanished_chain_is_detected(self, ws, server):
        self._history(ws, "alpha", ["one"])
        with server.catalog._lock:
            server.catalog._chains.clear()
        alerts = ws.verify_history("alpha")
        assert alerts and any("vanished" in a for a in alerts)

    def test_incremental_adoption_tracks_saves(self, ws):
        """Every acknowledged save advances the trust anchor without a
        full chain re-fetch — and without false alarms."""
        self._history(ws, "alpha", ["one", "two", "three", "four"])
        assert ws.alerts == []
        assert ws.freshness.anchor("alpha").rev == \
            ws.session("alpha").client.revision


def _blackhole_next_save(ws, doc_id: str) -> None:
    """Lose the response to ``doc_id``'s next save: the server lands it
    and the client times out."""
    ws.session(doc_id).channel.faults = FaultPlan([FaultSpec(
        "blackhole", at=(0,), limit=1, match=updates_only)])
    ws.type_text(doc_id, 0, "lost ack ")
    with pytest.raises(NetworkTimeoutError):
        ws.save(doc_id)


class TestAckAnchorPath:
    """Each clean Ack's audit link goes through
    ``FreshnessMonitor.witness`` against the anchor; the workspace
    fetches the chain only when the Ack left the anchor behind."""

    @staticmethod
    def _replay_last_ack(ws, doc_id: str, **changes) -> None:
        """Feed the extension a copy of the newest Ack with ``changes``
        (a tampering provider)."""
        session = ws.session(doc_id)
        last = session.channel.exchange_log[-1]
        fields = {**last.response.form, **changes}
        session.extension.on_response(
            last.request, last.response.with_form(fields))

    def test_ack_that_does_not_extend_the_anchor_alerts(self, ws):
        _seed_doc(ws, "alpha", "the walrus sings")
        anchor = ws.freshness.anchor("alpha")
        self._replay_last_ack(ws, "alpha", rev=str(anchor.rev + 1),
                              auditLink="ab" * 32)
        assert [doc for doc, _ in ws.alerts] == ["alpha"]
        assert "does not recompute" in ws.alerts[0][1]
        assert ws.freshness.anchor("alpha") == anchor

    def test_same_revision_with_another_link_alerts(self, ws):
        _seed_doc(ws, "alpha", "the walrus sings")
        anchor = ws.freshness.anchor("alpha")
        self._replay_last_ack(ws, "alpha", auditLink="ab" * 32)
        assert len(ws.alerts) == 1 and "forged chain" in ws.alerts[0][1]
        assert ws.freshness.anchor("alpha") == anchor

    def test_revision_behind_the_anchor_alerts(self, ws):
        _seed_doc(ws, "alpha", "the walrus sings")
        ws.type_text("alpha", 0, "more ")
        assert ws.save("alpha").ok
        anchor = ws.freshness.anchor("alpha")
        self._replay_last_ack(ws, "alpha", rev=str(anchor.rev - 1))
        assert len(ws.alerts) == 1 and "rollback" in ws.alerts[0][1]
        assert ws.freshness.anchor("alpha") == anchor

    def test_replayed_ack_is_silent(self, ws):
        _seed_doc(ws, "alpha", "the walrus sings")
        self._replay_last_ack(ws, "alpha")
        assert ws.alerts == []

    def test_gap_free_saves_fetch_no_chain(self, ws):
        _seed_doc(ws, "alpha", "the walrus sings")
        with obs.capture() as cap:
            for i in range(5):
                ws.type_text("alpha", 0, f"{i} ")
                assert ws.save("alpha").ok
        assert cap["client.workspace.history_verifies"] == 0
        assert ws.freshness.anchor("alpha").rev == \
            ws.session("alpha").client.revision
        assert ws.alerts == []

    def test_revision_gap_fetches_the_chain_once(self, ws):
        _seed_doc(ws, "alpha", "the walrus sings")
        _blackhole_next_save(ws, "alpha")
        ws.type_text("alpha", 0, "after ")
        with obs.capture() as cap:
            assert ws.save("alpha").ok
        assert cap["client.workspace.history_verifies"] == 1
        assert ws.alerts == []
        assert ws.freshness.anchor("alpha").rev == \
            ws.session("alpha").client.revision

    def test_unchanged_reopen_fetches_one_chain_entry(self, ws):
        bodies: list[str] = []
        ws.catalog_channel.add_tap(
            lambda exchange: bodies.append(exchange.response.body))
        _seed_doc(ws, "alpha", "the walrus sings")
        for i in range(6):
            ws.type_text("alpha", 0, f"{i} ")
            assert ws.save("alpha").ok
        ws.close("alpha")
        del bodies[:]
        assert ws.open("alpha").endswith("the walrus sings")
        (body,) = bodies
        assert len(decode_entries(body)) == 1
        assert ws.alerts == []

    def test_close_after_a_blackholed_save_flushes_and_verifies(self, ws):
        """The flush's Ack skips the blackholed revision; ``close``
        verifies the chain while the session is still there."""
        _seed_doc(ws, "alpha", "the walrus sings")
        _blackhole_next_save(ws, "alpha")
        ws.type_text("alpha", 0, "flushed ")
        text = ws.text("alpha")
        ws.close("alpha")
        assert ws.open_docs == []
        assert ws.alerts == []
        assert ws.open("alpha") == text
        assert ws.alerts == []

    def test_rpc_documents_gain_version_freshness(self, server):
        ws = Workspace("tenant-secret", server=server, scheme="rpc",
                       rng_seed=7)
        _seed_doc(ws, "alpha", "version one")
        ws.type_text("alpha", 0, "version two: ")
        assert ws.save("alpha").ok
        ws.close("alpha")
        ActiveServerAdversary(server.store).rollback("alpha")
        assert "version one" not in ws.open("alpha")
        assert any("server rollback/replay" in message
                   for _, message in ws.alerts)
        ws.close_all()


class _RecordingMediator:
    """Passes every message through the real extension and keeps the
    body of each one it sees or produces."""

    def __init__(self, inner):
        self.inner = inner
        self.bodies: list[str] = []

    def on_request(self, request):
        mediated = self.inner.on_request(request)
        self.bodies += [request.body, mediated.body]
        return mediated

    def on_response(self, request, response):
        rewritten = self.inner.on_response(request, response)
        self.bodies += [response.body, rewritten.body]
        return rewritten


class TestSavePathParsing:
    def test_delta_save_decodes_each_body_at_most_once(self, ws):
        """A verified delta save crosses four bodies: the client's
        request, the mediated request, the server's response and the
        rewritten response.  The extension, the catalog wrapper, the
        server and the client share their parses, so no body is
        decoded twice."""
        _seed_doc(ws, "alpha", "the walrus sings, loudly & long")
        session = ws.session("alpha")
        recorder = _RecordingMediator(session.extension)
        session.channel.set_mediator(recorder)
        ws.type_text("alpha", 4, "old ")
        with obs.capture() as cap:
            assert ws.save("alpha").ok
        client_req, mediated, server_resp, rewritten = recorder.bodies
        assert protocol.F_DELTA + "=" in mediated
        distinct = {client_req, mediated, server_resp, rewritten}
        # the extension must read the plaintext request at least once
        assert len(client_req) <= cap["formenc.bytes_decoded"] \
            <= sum(map(len, distinct))
