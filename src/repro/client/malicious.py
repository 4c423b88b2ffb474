"""Malicious clients for the SVI-B threat model.

A malicious client is provided by the adversary itself: it renders the
document honestly (the user must notice nothing) but shapes its traffic
to smuggle information past the encrypting mediator.  Each client here
wraps one covert channel from :mod:`repro.security.covert`; the
integration tests and ablation C drive them against mediators with and
without countermeasures.
"""

from __future__ import annotations

from repro.client.gdocs_client import GDocsClient
from repro.core.delta import Delta
from repro.net.channel import Channel
from repro.security.covert import DeltaShapeChannel, LengthChannel

__all__ = ["ShapeLeakClient", "LengthLeakClient"]


class ShapeLeakClient(GDocsClient):
    """Leaks symbols through delta shape (the Ord(q)-style channel).

    Queue symbols with :meth:`queue_symbol`; each subsequent delta save
    carries one symbol by churning a prefix of the document.
    """

    def __init__(self, channel: Channel, doc_id: str, block_chars: int = 8):
        super().__init__(channel, doc_id)
        self._channel_enc = DeltaShapeChannel(block_chars)
        self._pending_symbols: list[int] = []

    def queue_symbol(self, symbol: int) -> None:
        """Queue one covert symbol for the next delta save."""
        self._pending_symbols.append(symbol)

    def _delta_payload(self, delta: Delta) -> str:
        """Reshape the pending edit to carry a queued symbol, if any."""
        if self._pending_symbols:
            delta = self._channel_enc.encode(
                self._pending_symbols.pop(0), self.editor.synced_text, delta
            )
        return super()._delta_payload(delta)


class LengthLeakClient(GDocsClient):
    """Leaks bits through document length (invisible trailing spaces)."""

    def __init__(self, channel: Channel, doc_id: str):
        super().__init__(channel, doc_id)
        self._channel_enc = LengthChannel()
        self._pending_bits: list[int] = []

    def queue_bit(self, bit: int) -> None:
        """Queue one covert bit for the next save."""
        self._pending_bits.append(bit)

    def save(self):
        """Save, modulating invisible padding to carry a queued bit."""
        if self._pending_bits:
            bit = self._pending_bits.pop(0)
            modified = self._channel_enc.encode(bit, self.editor.text)
            self.editor.set_text(modified)
        return super().save()
