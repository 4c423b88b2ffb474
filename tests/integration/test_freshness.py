"""Rollback detection with the freshness monitor (beyond-the-paper).

Without it, rollback is undetectable (shown in
``test_attack_scenarios.py``); with it, a client that has seen version
N refuses anything older.
"""

import pytest

from repro.core import load_document
from repro.core.auditchain import AuditChain
from repro.crypto.random import DeterministicRandomSource
from repro.encoding.wire import looks_encrypted
from repro.errors import NetworkTimeoutError
from repro.extension import FreshnessMonitor, PrivateEditingSession, RollbackError
from repro.net.faults import FaultPlan, FaultSpec, updates_only
from repro.security.adversary import ActiveServerAdversary


def session_with_monitor(monitor, server=None, seed=1):
    return PrivateEditingSession(
        "doc", "pw", server=server, scheme="rpc",
        rng=DeterministicRandomSource(seed), freshness=monitor,
    )


class TestVersionCounter:
    def test_version_increments_per_update(self, keys, nonce_rng):
        from repro.core.document import RpcDocument
        doc = RpcDocument.create("v", key_material=keys, rng=nonce_rng)
        assert doc.version == 0
        doc.insert(0, "a")
        assert doc.version == 1
        doc.delete(0, 1)
        assert doc.version == 2

    def test_version_survives_reload(self, keys, nonce_rng):
        from repro.core.document import RpcDocument
        doc = RpcDocument.create("v", key_material=keys, rng=nonce_rng)
        doc.insert(0, "abc")
        doc.insert(0, "def")
        reloaded = RpcDocument.load(doc.wire(), key_material=keys)
        assert reloaded.version == 2

    def test_rewrite_bumps_version(self, keys, nonce_rng):
        from repro.core.document import RpcDocument
        doc = RpcDocument.create("some text", key_material=keys,
                                 rng=nonce_rng)
        doc.insert(0, "x")
        before = doc.version
        doc.delete(0, doc.char_length)  # full-rewrite path
        assert doc.version == before + 1

    def test_version_zero_matches_unversioned_encoding(self, keys,
                                                       nonce_rng):
        """Backward compatibility: a fresh (version 0) document's wire
        is identical to what the pre-version scheme produced, because
        XOR with a zero version is the identity."""
        from repro.core.document import RpcDocument
        doc = RpcDocument.create("compat", key_material=keys, rng=nonce_rng)
        assert doc.version == 0
        doc.verify()


class TestMonitor:
    def test_observe_and_check(self):
        monitor = FreshnessMonitor()
        assert monitor.last_seen("d") is None
        monitor.observe("d", 3)
        monitor.check("d", 3)
        monitor.check("d", 7)  # newer is fine
        with pytest.raises(RollbackError):
            monitor.check("d", 2)

    def test_observe_never_regresses(self):
        monitor = FreshnessMonitor()
        monitor.observe("d", 5)
        monitor.observe("d", 2)
        assert monitor.last_seen("d") == 5

    def test_forget(self):
        monitor = FreshnessMonitor()
        monitor.observe("d", 5)
        monitor.adopt("d", _chain(2)[-1])
        monitor.forget("d")
        monitor.check("d", 0)  # no state, no complaint
        assert monitor.anchor("d") is None

    def test_rollback_error_is_an_alert(self):
        monitor = FreshnessMonitor()
        monitor.observe("d", 5)
        with pytest.raises(RollbackError) as raised:
            monitor.check("d", 4)
        assert monitor.alerts == [("d", str(raised.value))]


def _chain(depth: int, prefix: str = "h"):
    chain = AuditChain()
    for rev in range(1, depth + 1):
        chain.append(rev, f"{prefix}-{rev}")
    return list(chain.entries)


class TestWitness:
    """``witness``: the one anchor rule for Acks and fetched chains."""

    def test_no_anchor_verifies_from_genesis(self):
        monitor = FreshnessMonitor()
        entries = _chain(3)
        assert monitor.witness("d", entries, (3, "h-3")) == []
        assert monitor.anchor("d") == entries[-1]
        assert monitor.alerts == []

    def test_chain_continues_from_the_anchor(self):
        monitor = FreshnessMonitor()
        entries = _chain(6)
        monitor.adopt("d", entries[2])
        assert monitor.witness("d", entries[2:], (6, "h-6")) == []
        assert monitor.anchor("d") == entries[-1]

    def test_entry_at_the_anchor_must_be_the_anchor(self):
        monitor = FreshnessMonitor()
        monitor.adopt("d", _chain(3)[-1])
        forged = _chain(4, prefix="forged")
        problems = monitor.witness("d", forged[2:])
        assert any("forged chain" in p for p in problems)
        assert monitor.anchor("d") == _chain(3)[-1]
        assert len(monitor.alerts) == len(problems)

    def test_entry_behind_the_anchor_is_a_rollback(self):
        monitor = FreshnessMonitor()
        entries = _chain(3)
        monitor.adopt("d", entries[-1])
        problems = monitor.witness("d", entries[1:])
        assert len(problems) == 1 and "rollback" in problems[0]

    def test_later_entries_must_chain_from_the_anchor(self):
        monitor = FreshnessMonitor()
        monitor.adopt("d", _chain(3)[-1])
        problems = monitor.witness("d", _chain(4, prefix="other")[3:])
        assert any("does not recompute" in p for p in problems)

    def test_head_must_match_the_store(self):
        monitor = FreshnessMonitor()
        entries = _chain(3)
        assert "rollback" in monitor.witness("d", entries, (3, "old"))[0]
        assert "unaudited" in monitor.witness("d", entries, (4, "h-3"))[0]
        assert monitor.anchor("d") is None

    def test_vanished_chain_alerts_only_with_an_anchor(self):
        monitor = FreshnessMonitor()
        assert monitor.witness("d", []) == []
        monitor.adopt("d", _chain(1)[0])
        assert "vanished" in monitor.witness("d", [])[0]


class TestEndToEnd:
    def test_rollback_now_detected(self):
        monitor = FreshnessMonitor()
        session = session_with_monitor(monitor)
        session.open()
        session.type_text(0, "version one")
        session.save()
        session.type_text(0, "version two: ")
        session.save()
        session.close()

        adversary = ActiveServerAdversary(session.server.store)
        adversary.rollback("doc")

        # The same client (same monitor) reopens: rollback is caught,
        # the stale plaintext is NOT shown.
        reader = session_with_monitor(monitor, server=session.server,
                                      seed=2)
        seen = reader.open()
        assert looks_encrypted(seen)
        assert "version one" not in seen
        assert any("rollback" in w or "version" in w
                   for w in reader.extension.warnings)

    def test_honest_history_never_trips(self):
        monitor = FreshnessMonitor()
        session = session_with_monitor(monitor)
        session.open()
        session.type_text(0, "start")
        session.save()
        for i in range(10):
            session.type_text(0, f"{i} ")
            session.save()
        session.close()
        reader = session_with_monitor(monitor, server=session.server,
                                      seed=3)
        assert reader.open() == session.text
        assert reader.extension.warnings == []

    def test_honest_history_with_reopens_never_trips(self):
        """Every reopened session's first save is a full post; it must
        carry the version counter on from the loaded document.  A full
        save that restarted at version 0 made the next reopen look like
        a rollback to the shared monitor (and showed the user
        ciphertext)."""
        monitor = FreshnessMonitor()
        writer = session_with_monitor(monitor)
        writer.open()
        writer.type_text(0, "start")
        writer.save()
        for i in range(5):
            writer.type_text(0, f"{i} ")
            writer.save()
        writer.close()
        server, text = writer.server, writer.text
        for seed in (11, 12, 13):
            session = session_with_monitor(monitor, server=server,
                                           seed=seed)
            assert session.open() == text
            assert session.extension.warnings == []
            session.type_text(len(text) // 2, "x")
            assert session.save().kind == "full"
            session.close()
            text = session.text
        assert monitor.last_seen("doc") == 8
        reader = session_with_monitor(monitor, server=server, seed=14)
        assert reader.open() == text
        assert reader.extension.warnings == []

    def test_fresh_client_cannot_detect(self):
        """The documented limit: a client with no memory of the
        document accepts the rolled-back version."""
        session = session_with_monitor(FreshnessMonitor())
        session.open()
        session.type_text(0, "version one")
        session.save()
        session.type_text(0, "version two: ")
        session.save()
        session.close()
        ActiveServerAdversary(session.server.store).rollback("doc")

        naive = session_with_monitor(FreshnessMonitor(),
                                     server=session.server, seed=4)
        assert naive.open() == "version one"


@pytest.mark.parametrize("kind,landed", [("drop", "one "),
                                         ("blackhole", "two one ")])
def test_lost_save_is_no_rollback(kind, landed):
    """The monitor observes a version when the server acknowledges it,
    not when the request leaves: a save whose request or response was
    lost must not make the last landed version look stale."""
    monitor = FreshnessMonitor()
    session = session_with_monitor(monitor)
    session.open()
    session.type_text(0, "one ")
    assert session.save().ok
    session.channel.faults = FaultPlan([FaultSpec(
        kind, at=(0,), limit=1, match=updates_only)])
    session.type_text(0, "two ")
    with pytest.raises(NetworkTimeoutError):
        session.save()
    reader = session_with_monitor(monitor, server=session.server, seed=2)
    assert reader.open() == landed
    assert reader.extension.warnings == []
    assert monitor.alerts == []
