"""The benign Google-Documents-like client.

A thin adapter: the session/revision bookkeeping, retry loop,
idempotency keys, typed :class:`SaveOutcome`, and conflict
resync-with-rebase all live in the shared provider-agnostic core
(:class:`repro.client.resilient.ResilientClient`); this module binds
that core to the reverse-engineered SIV-A protocol
(:class:`repro.services.backend.GDocsBackend`) and adds the
server-side feature calls the paper's extension must block.

The client half of SIV-A: open an edit session, send the session's
first save as a full ``docContents`` POST, send every later save as a
``delta``, and interpret Acks — including the
``contentFromServer(Hash)`` consistency check whose neutralization by
the extension produces the paper's partially-functional collaboration.

The client is oblivious to the extension: it always operates on
plaintext and never knows whether a mediator rewrote its traffic.  That
obliviousness is requirement 2 of the paper ("requires no cooperation
from the application provider").

Fault tolerance (beyond the paper): constructed with a
:class:`repro.net.policy.RetryPolicy`, the client retries timed-out and
429/5xx saves under that policy, stamps every save with an idempotency
key (so a replay of an already-processed save is deduplicated by the
server rather than re-applied), and recovers from revision conflicts by
re-fetching the document and rebasing its pending local edits over the
server's state.  Without a policy the same save path behaves as the
paper's client: one attempt, no idempotency key, any failed exchange
raises, and the next save is a full one.
"""

from __future__ import annotations

from repro.client.resilient import (
    CONFLICT_COMPLAINT,
    ResilientClient,
    SaveOutcome,
)
from repro.net.channel import Channel
from repro.net.policy import RetryPolicy
from repro.services.backend import GDOCS
from repro.services.gdocs import protocol

__all__ = ["GDocsClient", "SaveOutcome", "CONFLICT_COMPLAINT"]


class GDocsClient(ResilientClient):
    """One user's editing client for one Google Documents document."""

    def __init__(self, channel: Channel, doc_id: str,
                 policy: RetryPolicy | None = None):
        super().__init__(channel, doc_id, GDOCS, policy=policy)

    # -- server-side features (will be blocked under the extension) ------

    def spellcheck(self) -> str:
        """Server-side spell check (blocked under the extension)."""
        response = self._channel.send(
            protocol.feature_request(self.doc_id, "spellcheck")
        )
        return response.form.get("misspelled", "")

    def translate(self) -> str:
        """Server-side translation (blocked under the extension)."""
        response = self._channel.send(
            protocol.feature_request(self.doc_id, "translate")
        )
        return response.body

    def export(self) -> str:
        """Server-side document export (blocked under the extension)."""
        response = self._channel.send(
            protocol.feature_request(self.doc_id, "export")
        )
        return response.body

    def draw(self, primitives: str) -> str:
        """Server-side drawing rendering (blocked under the extension)."""
        response = self._channel.send(
            protocol.feature_request(self.doc_id, "drawing",
                                     primitives=primitives)
        )
        return response.body
