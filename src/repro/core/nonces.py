"""Nonce drawing and XOR helpers shared by the schemes."""

from __future__ import annotations

from repro.crypto.random import RandomSource

#: rECB nonce width — the paper sets n to 64 bits (SVI-A).
RECB_NONCE_BYTES = 8

#: RPC chaining-nonce width.  One AES block must hold two nonces plus the
#: 8-byte payload field, so 2k + 8 = 16 gives k = 4 bytes.  (The paper
#: quotes 64-bit nonces but that arithmetic cannot close for a 128-bit
#: block with any payload; see DESIGN.md.)
RPC_NONCE_BYTES = 4


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"xor length mismatch: {len(a)} vs {len(b)}")
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(len(a), "big")


def draw_nonces(rng: RandomSource, count: int, nbytes: int) -> list[bytes]:
    """Draw ``count`` fresh nonces in one bulk request."""
    blob = rng.token(count * nbytes)
    return [blob[i * nbytes : (i + 1) * nbytes] for i in range(count)]
