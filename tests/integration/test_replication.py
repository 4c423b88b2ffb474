"""Replication across untrusted providers (availability extension).

The extension + client stack runs unchanged on top of
:class:`ReplicatedService`; these tests exercise outages, healing,
quorum loss, and divergence detection.
"""

import pytest

from repro.crypto.random import DeterministicRandomSource
from repro.errors import ProtocolError
from repro.extension import PrivateEditingSession
from repro.services.gdocs.server import GDocsServer
from repro.services.replicated import FlakyServer, ReplicatedService


def replicated_session(n_backends=3, seed=1, **kw):
    backends = [FlakyServer(GDocsServer()) for _ in range(n_backends)]
    service = ReplicatedService(backends, **kw)
    session = PrivateEditingSession(
        "doc", "pw", server=_Shim(service), scheme="rpc",
        rng=DeterministicRandomSource(seed),
    )
    return session, service, backends


class _Shim:
    """Duck-type the PrivateEditingSession's server expectations."""

    def __init__(self, service):
        self._service = service
        self.store = None  # server_view() not meaningful here

    def __call__(self, request):
        return self._service(request)


class TestHappyPath:
    def test_all_replicas_converge(self):
        session, service, backends = replicated_session()
        session.open()
        session.type_text(0, "replicate me")
        session.save()
        session.type_text(0, "v2: ")
        session.save()
        stored = {b._backend.store.get("doc").content for b in backends}
        assert len(stored) == 1  # byte-identical ciphertext everywhere
        assert service.divergences == []
        assert service.backend_health("doc") == [True, True, True]

    def test_reader_survives_one_dead_provider(self):
        session, service, backends = replicated_session()
        session.open()
        session.type_text(0, "durable text")
        session.save()
        session.close()
        backends[0].outage(10_000)
        reader = PrivateEditingSession(
            "doc", "pw", server=_Shim(service),
            rng=DeterministicRandomSource(2),
        )
        assert reader.open() == "durable text"


class TestOutagesAndHealing:
    def test_writes_continue_through_minority_outage(self):
        session, service, backends = replicated_session()
        session.open()
        session.type_text(0, "start. ")
        session.save()
        backends[2].outage(1)
        session.type_text(0, "during outage. ")
        session.save()  # 2/3 ack -> success
        assert service.backend_health("doc") == [True, True, False]
        # Next save heals the straggler by ciphertext copy.
        session.type_text(0, "after. ")
        session.save()
        assert service.backend_health("doc") == [True, True, True]
        stored = {b._backend.store.get("doc").content for b in backends}
        assert len(stored) == 1
        assert any("healed" in f for f in service.failures)

    def test_quorum_loss_fails_closed(self):
        session, service, backends = replicated_session()
        session.open()
        session.type_text(0, "seed")
        session.save()
        backends[0].outage(10)
        backends[1].outage(10)
        session.type_text(0, "x")
        with pytest.raises(ProtocolError):
            session.save()

    def test_healed_content_is_authentic(self):
        """Healing copies ciphertext — the healed replica's copy still
        verifies under the document key."""
        session, service, backends = replicated_session()
        session.open()
        session.type_text(0, "authentic content here")
        session.save()
        backends[1].outage(1)
        session.type_text(0, "more. ")
        session.save()
        session.type_text(0, "heal trigger. ")
        session.save()
        from repro.core import load_document
        wire = backends[1]._backend.store.get("doc").content
        doc = load_document(wire, password="pw")
        assert doc.text == session.text


class TestWholeFileReplication:
    """The facade is provider-agnostic: the same outage/heal story over
    three Bespin file stores, routed entirely through the
    :class:`~repro.services.backend.ServiceBackend` protocol."""

    def _stack(self):
        from repro.client.resilient import ResilientClient
        from repro.extension.gdocs_ext import GDocsExtension
        from repro.extension.passwords import PasswordVault
        from repro.net.channel import Channel
        from repro.net.policy import RetryPolicy
        from repro.services.backend import BESPIN
        from repro.services.bespin import BespinServer

        backends = [FlakyServer(BespinServer()) for _ in range(3)]
        service = ReplicatedService(backends, service=BESPIN)
        channel = Channel(service)
        path = "proj/notes.txt"
        channel.set_mediator(GDocsExtension(
            PasswordVault({path: "pw"}), backend=BESPIN,
            rng=DeterministicRandomSource(5),
        ))
        client = ResilientClient(channel, path, BESPIN,
                                 policy=RetryPolicy(seed=5))
        return client, service, backends, path

    def test_full_save_heals_whole_file_straggler(self):
        client, service, backends, path = self._stack()
        client.open()
        client.type_text(0, "replicated across file stores. ")
        assert client.save().ok
        backends[2].outage(1)
        client.type_text(0, "during outage. ")
        assert client.save().ok  # 2/3 quorum
        assert service.backend_health(path) == [True, True, False]
        # whole-file providers need no copy-heal: the very next full
        # save rewrites the entire store, straggler included
        client.type_text(0, "after. ")
        assert client.save().ok
        assert service.backend_health(path) == [True, True, True]
        stored = {b._backend.files[path] for b in backends}
        assert len(stored) == 1

    def test_explicit_heal_copies_ciphertext(self):
        from repro.core.transform import EncryptionEngine

        client, service, backends, path = self._stack()
        client.open()
        client.type_text(0, "authentic bespin bytes")
        assert client.save().ok
        backends[1].outage(1)
        client.type_text(0, "v2. ")
        assert client.save().ok
        assert service.backend_health(path) == [True, False, True]
        # operator-style on-demand heal, no further saves required
        assert service.heal(path) == 1
        assert service.backend_health(path) == [True, True, True]
        assert any("healed" in f for f in service.failures)
        stored = {b._backend.files[path] for b in backends}
        assert len(stored) == 1
        wire = stored.pop()
        assert "authentic" not in wire  # ciphertext at rest, replicated
        recovered = EncryptionEngine(password="pw",
                                     scheme="recb").decrypt(wire)
        assert recovered == client.editor.text


class TestDivergence:
    def test_minority_tampering_outvoted_and_logged(self):
        session, service, backends = replicated_session()
        session.open()
        session.type_text(0, "the agreed truth")
        session.save()
        session.close()
        # one provider silently swaps in different bytes
        backends[2]._backend.store.get("doc").content = "tampered!"
        reader = PrivateEditingSession(
            "doc", "pw", server=_Shim(service),
            rng=DeterministicRandomSource(3),
        )
        assert reader.open() == "the agreed truth"  # majority wins
        assert service.divergences  # and the minority is reported
