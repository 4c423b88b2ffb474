"""Collaborative editing under the extension (SVII-A).

"Collaborative editing is partially functional in that every passive
reader gets automatic content refreshing.  Simultaneous editing by
different parties leads to client's complaints of multiple people
editing the same region of the document.  This is due to the fact that
the extension does not update the contentFromServerHash value..."
"""

import hashlib

from repro.client.gdocs_client import CONFLICT_COMPLAINT, GDocsClient
from repro.crypto.random import DeterministicRandomSource
from repro.extension import GDocsExtension, PasswordVault
from repro.net.channel import Channel
from repro.services.gdocs import protocol
from repro.services.gdocs.server import GDocsServer


def make_user(server, doc_id, password, seed, decrypt_acks=False):
    """One user's full stack: channel + extension + client, sharing the
    server (and, by password, the document key)."""
    channel = Channel(server)
    extension = GDocsExtension(
        PasswordVault({doc_id: password}),
        rng=DeterministicRandomSource(seed),
        decrypt_acks=decrypt_acks,
    )
    channel.set_mediator(extension)
    return GDocsClient(channel, doc_id)


class TestSharedDocument:
    def test_share_by_password(self):
        server = GDocsServer()
        alice = make_user(server, "doc", "shared-pw", 1)
        alice.open()
        alice.type_text(0, "alice's shared notes")
        alice.save()

        bob = make_user(server, "doc", "shared-pw", 2)
        assert bob.open() == "alice's shared notes"

    def test_passive_reader_gets_refreshes(self):
        server = GDocsServer()
        alice = make_user(server, "doc", "pw", 3)
        alice.open()
        alice.type_text(0, "v1")
        alice.save()
        reader = make_user(server, "doc", "pw", 4)
        reader.open()
        alice.type_text(2, " then v2")
        alice.save()
        assert reader.refresh() == "v1 then v2"


class TestSimultaneousEditing:
    def test_conflict_produces_the_papers_complaint(self):
        """Concurrent edits + blanked Ack fields → the complaint string
        the paper reports, faithfully reproduced."""
        server = GDocsServer()
        alice = make_user(server, "doc", "pw", 5)
        bob = make_user(server, "doc", "pw", 6)

        alice.open()
        alice.type_text(0, "base text from alice. ")
        alice.save()

        bob.open()  # sees alice's text
        bob.type_text(0, "bob's insert. ")
        bob.save()  # advances the server revision

        # alice edits against her stale revision
        alice.type_text(0, "alice again. ")
        outcome = alice.save()
        assert outcome.conflict
        assert CONFLICT_COMPLAINT in alice.complaints

    def test_recovery_overwrites_via_full_save(self):
        """After complaining, the client recovers with a full save —
        which silently clobbers the other editor's change (exactly the
        degraded collaboration the paper describes)."""
        server = GDocsServer()
        alice = make_user(server, "doc", "pw", 7)
        bob = make_user(server, "doc", "pw", 8)

        alice.open()
        alice.type_text(0, "base. ")
        alice.save()
        bob.open()
        bob.type_text(0, "bob. ")
        bob.save()

        alice.type_text(0, "alice. ")
        assert alice.save().conflict      # complaint
        outcome = alice.save()            # recovery
        assert outcome.kind == "full" and not outcome.conflict

        reader = make_user(server, "doc", "pw", 9)
        text = reader.open()
        assert "alice." in text
        assert "bob." not in text  # lost update

    def test_decrypt_acks_option_repairs_resync(self):
        """Beyond-the-paper ablation: decrypting Ack content (instead of
        blanking it) lets the conflicting client resync like the
        unencrypted client does — no complaint, no lost update."""
        server = GDocsServer()
        alice = make_user(server, "doc", "pw", 10, decrypt_acks=True)
        bob = make_user(server, "doc", "pw", 11, decrypt_acks=True)

        alice.open()
        alice.type_text(0, "base. ")
        alice.save()
        bob.open()
        bob.type_text(0, "bob. ")
        bob.save()

        alice.type_text(0, "alice. ")
        outcome = alice.save()
        assert outcome.conflict
        assert alice.complaints == []        # silent resync
        assert alice.editor.text == "bob. base. "  # adopted merge base
        alice.type_text(0, "alice. ")
        alice.save()
        reader = make_user(server, "doc", "pw", 12)
        text = reader.open()
        assert "alice." in text and "bob." in text  # nothing lost


class TestPaperWire:
    #: SHA-256 of the scripted session's request bodies, recorded from
    #: the client before its no-policy save path was folded into the
    #: retrying one; any change here means the paper's wire moved
    WIRE_SHA256 = (
        "f0de2e94b71512dfc284beefdbf95d192b34b8987437d45358fffacb0ff8abc3"
    )

    def test_no_policy_wire_is_pinned(self):
        """The paper's client (no retry policy) through open, a full
        save, three delta saves, a conflict whose Ack content the
        extension blanked, and the recovery full save: no request
        carries an idempotency key, and the bytes never move."""
        server = GDocsServer()
        alice = make_user(server, "doc", "pw", 13)
        bob = make_user(server, "doc", "pw", 14)

        alice.open()
        alice.type_text(0, "the first paragraph. ")
        assert alice.save().kind == "full"
        for edit in ("one. ", "two. ", "three. "):
            alice.type_text(0, edit)
            assert alice.save().kind == "delta"

        bob.open()
        bob.type_text(0, "bob. ")
        bob.save()
        alice.type_text(0, "alice. ")
        outcome = alice.save()
        assert outcome.conflict
        assert outcome.complaints == [CONFLICT_COMPLAINT]
        recovery = alice.save()
        assert recovery.kind == "full" and not recovery.conflict

        requests = [exchange.request
                    for exchange in alice._channel.exchange_log]
        assert len(requests) == 7
        assert not any(protocol.F_IDEM in request.form
                       for request in requests if request.body)
        digest = hashlib.sha256()
        for request in requests:
            digest.update(request.body.encode("utf-8") + b"\n")
        assert digest.hexdigest() == self.WIRE_SHA256
