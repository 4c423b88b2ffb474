"""User-JavaScript-style deployment (SIII, interception option 3).

"User JavaScript is a convenient way to inject a piece of JavaScript to
run with the same privilege as scripts originally coming from a web
site.  However, it provides no interface to directly manipulate network
traffic.  Implementing the transformer using User JavaScript requires
deeper understanding of the client code and rewriting relevant
components."

Modelled here as a *self-encrypting client*: instead of an oblivious
client plus a traffic mediator, the client's own components are
rewritten to run the encryption engine inline — the payload encoder
(encrypt a full save, transform a delta) and the content reader
(decrypt what the server returns, check the Ack hash against the
ciphertext mirror).  Everything else, the save path with its failure
and conflict handling included, is the shared client core's.  The
server-visible behaviour is identical to the extension deployment (the
integration tests assert byte-level equivalence of what the provider
can learn); the trade-off is fidelity of the paper's point — this
deployment has to re-implement client internals instead of wrapping
them.
"""

from __future__ import annotations

from repro.client.gdocs_client import GDocsClient
from repro.core.delta import Delta
from repro.core.transform import EncryptionEngine
from repro.encoding.wire import looks_encrypted
from repro.errors import DecryptionError
from repro.net.channel import Channel

__all__ = ["SelfEncryptingGDocsClient"]


class SelfEncryptingGDocsClient(GDocsClient):
    """A rewritten client that encrypts within its own save path.

    No mediator is installed on the channel; the rewriting happens in
    the overridden payload encoder and content reader, which run the
    engine inline for every save, open, refresh and conflict.
    """

    def __init__(self, channel: Channel, doc_id: str, password: str,
                 scheme: str = "rpc", block_chars: int = 8, rng=None):
        super().__init__(channel, doc_id)
        self._engine = EncryptionEngine(
            password, scheme=scheme, block_chars=block_chars, rng=rng
        )

    # -- rewritten components ------------------------------------------

    def _full_payload(self, text: str) -> str:
        """Encrypt the whole document afresh (a new mirror)."""
        return self._engine.encrypt(text)

    def _delta_payload(self, delta: Delta) -> str:
        """Transform the plaintext delta into its ciphertext delta."""
        return self._engine.transform_delta(delta.serialize())

    def _plaintext(self, content: str) -> str | None:
        """Decrypt stored ciphertext (adopting it as the mirror); other
        content is shown as it is."""
        if not looks_encrypted(content):
            return content
        try:
            return self._engine.decrypt(content)
        except DecryptionError:
            return None

    def _hashed_text(self) -> str:
        """The hash covers ciphertext: check it against the mirror."""
        return self._engine.mirror.wire()
