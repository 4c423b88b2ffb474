"""User-JavaScript-style deployment (SIII, interception option 3).

"User JavaScript is a convenient way to inject a piece of JavaScript to
run with the same privilege as scripts originally coming from a web
site.  However, it provides no interface to directly manipulate network
traffic.  Implementing the transformer using User JavaScript requires
deeper understanding of the client code and rewriting relevant
components."

Modelled here as a *self-encrypting client*: instead of an oblivious
client plus a traffic mediator, the client's own save/open components
are rewritten to run the encryption engine inline.  The server-visible
behaviour is identical to the extension deployment (the integration
tests assert byte-level equivalence of what the provider can learn);
the trade-off is fidelity of the paper's point — this deployment has to
re-implement client internals instead of wrapping them.
"""

from __future__ import annotations

from repro.client.gdocs_client import GDocsClient, SaveOutcome
from repro.core.transform import EncryptionEngine
from repro.encoding.wire import looks_encrypted
from repro.errors import DecryptionError, ProtocolError, SessionError
from repro.net.channel import Channel
from repro.services.gdocs import protocol

__all__ = ["SelfEncryptingGDocsClient"]


class SelfEncryptingGDocsClient(GDocsClient):
    """A rewritten client that encrypts within its own save path.

    No mediator is installed on the channel; the rewriting happens in
    the overridden ``open``/``save``/``refresh`` components.
    """

    def __init__(self, channel: Channel, doc_id: str, password: str,
                 scheme: str = "rpc", block_chars: int = 8, rng=None):
        super().__init__(channel, doc_id)
        self._engine = EncryptionEngine(
            password, scheme=scheme, block_chars=block_chars, rng=rng
        )

    # -- rewritten components ------------------------------------------

    def open(self) -> str:
        """Open and decrypt inline (the rewritten open component)."""
        content = super().open()
        if looks_encrypted(content):
            try:
                plain = self._engine.decrypt(content)
            except DecryptionError:
                return content  # appears as ciphertext
            self.editor.resync(plain)
        return self.editor.text

    def save(self) -> SaveOutcome:
        """Save through the inline encryption engine (rewritten component)."""
        if self._sid is None:
            raise SessionError("save outside an edit session")
        if self._did_full_save and not self.editor.dirty:
            return SaveOutcome(kind="noop")

        if not self._did_full_save:
            payload = self._engine.encrypt(self.editor.text)
            request = protocol.full_save_request(
                self.doc_id, self._sid, self._rev, payload
            )
            kind = "full"
        else:
            delta = self.editor.pending_delta()
            cdelta = self._engine.mirror.apply_delta(delta)
            request = protocol.delta_save_request(
                self.doc_id, self._sid, self._rev, cdelta.serialize()
            )
            kind = "delta"

        response = self._channel.send(request)
        if not response.ok:
            raise ProtocolError(f"save failed: {response.body}")
        ack = self.backend.parse_save(response)
        outcome = SaveOutcome(kind=kind, ack=ack, conflict=ack.conflict)
        if ack.conflict:
            # The Ack's content is ciphertext; resync through the engine.
            if looks_encrypted(ack.content_from_server):
                try:
                    self.editor.resync(
                        self._engine.decrypt(ack.content_from_server)
                    )
                    self._rev = ack.rev
                    return outcome
                except DecryptionError:
                    pass
            self._did_full_save = False
            self._rev = ack.rev
            outcome.complaints.append("conflict; will full-save")
            return outcome
        self._rev = ack.rev
        self._did_full_save = True
        self.editor.mark_synced()
        # The hash covers ciphertext; the rewritten client knows that
        # and checks against its mirror instead of its plaintext.
        if ack.content_from_server_hash != protocol.NEUTRAL_HASH:
            mirror = self._engine.mirror
            if mirror is not None and ack.content_from_server_hash != \
                    protocol.content_hash(mirror.wire()):
                outcome.complaints.append("mirror diverged from server")
                self.complaints.append("mirror diverged from server")
        return outcome

    def refresh(self) -> str:
        """Fetch and decrypt inline (rewritten passive-reader path)."""
        content = super().refresh()
        if looks_encrypted(content):
            try:
                self.editor.resync(self._engine.decrypt(content))
            except DecryptionError:
                pass
        return self.editor.text
