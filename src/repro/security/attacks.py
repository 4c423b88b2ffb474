"""Active-attack constructions against stored ciphertext (SVI-A).

These functions build the tampered documents the security analysis
reasons about: record replication, reordering, truncation, cross-
document splicing, bit flips — the attacks rECB cannot withstand and
RPC must detect.

The module also demonstrates *why the length amendment matters*
(Wang–Kao–Yeh [35]): :func:`build_colliding_document` manufactures an
RPC document containing a nonce-colliding segment whose XOR
contributions cancel, and :func:`excise_cancelling_segment` removes it.
The forgery passes every unamended check
(:func:`verify_without_length_amendment`) yet is caught by the full
verifier, because the excision changes the document length bound into
the checksum block.
"""

from __future__ import annotations

from repro.core import blocks
from repro.core.nonces import RPC_NONCE_BYTES, xor_bytes
from repro.core.rpc import RpcCodec, RpcState
from repro.crypto.blockcipher import AesCipher
from repro.crypto.random import RandomSource
from repro.encoding.wire import (
    RECORD_CHARS,
    DocumentHeader,
    Record,
    encode_records,
    split_header,
)
from repro.errors import IntegrityError

__all__ = [
    "replicate_record",
    "remove_record",
    "swap_records",
    "flip_record_byte",
    "splice_documents",
    "build_colliding_document",
    "excise_cancelling_segment",
    "verify_without_length_amendment",
]


def _records_of(wire_text: str) -> tuple[str, list[str]]:
    """Split a wire document into its header text and record chunks."""
    _, area = split_header(wire_text)
    header_text = wire_text[: len(wire_text) - len(area)]
    chunks = [
        area[i : i + RECORD_CHARS] for i in range(0, len(area), RECORD_CHARS)
    ]
    return header_text, chunks


def replicate_record(wire_text: str, rank: int) -> str:
    """Duplicate one record in place (the replication attack)."""
    header, recs = _records_of(wire_text)
    return header + "".join(recs[: rank + 1] + [recs[rank]] + recs[rank + 1 :])


def remove_record(wire_text: str, rank: int) -> str:
    """Drop one record (truncation within the document)."""
    header, recs = _records_of(wire_text)
    return header + "".join(recs[:rank] + recs[rank + 1 :])


def swap_records(wire_text: str, i: int, j: int) -> str:
    """Reorder two records."""
    header, recs = _records_of(wire_text)
    recs[i], recs[j] = recs[j], recs[i]
    return header + "".join(recs)


def flip_record_byte(wire_text: str, rank: int, offset: int = 0) -> str:
    """Corrupt one character of one record (keeping a valid Base32
    alphabet character so the corruption is not a parse error)."""
    header, recs = _records_of(wire_text)
    record = recs[rank]
    old = record[offset]
    new = "A" if old != "A" else "B"
    recs[rank] = record[:offset] + new + record[offset + 1 :]
    return header + "".join(recs)


def splice_documents(wire_a: str, wire_b: str, keep_a: int) -> str:
    """Graft the tail of document B onto the first ``keep_a`` records of
    document A (both under the same key)."""
    header_a, recs_a = _records_of(wire_a)
    _, recs_b = _records_of(wire_b)
    return header_a + "".join(recs_a[:keep_a] + recs_b[keep_a:])


# ---------------------------------------------------------------------------
# The forgery the length amendment defeats
# ---------------------------------------------------------------------------


class _RiggedNonceSource:
    """RandomSource returning scripted nonces, then deferring to a real
    source — how the attack construction forces nonce collisions.

    (An actual attacker cannot force collisions, but with 32-bit nonces
    they occur naturally by the birthday bound within ~2^16 blocks; the
    rig just makes the demonstration deterministic.)
    """

    def __init__(self, scripted: list[bytes], fallback: RandomSource):
        self._buffer = b"".join(scripted)
        self._fallback = fallback

    def token(self, nbytes: int) -> bytes:
        out = bytearray()
        take = min(nbytes, len(self._buffer))
        out += self._buffer[:take]
        self._buffer = self._buffer[take:]
        if len(out) < nbytes:
            out += self._fallback.token(nbytes - len(out))
        return bytes(out)


def build_colliding_document(
    key: bytes,
    rng: RandomSource,
    filler: str = "abcdefgh",
    duplicated: str = "DUPDUPDU",
    amended: bool = True,
) -> tuple[str, DocumentHeader]:
    """Build an RPC wire document with a cancelling segment.

    Layout: ``[filler, duplicated, duplicated, filler]`` where the two
    ``duplicated`` blocks share one nonce value ``v`` as both lead and
    tail, and carry identical payloads.  Excising them leaves a valid
    chain with unchanged XOR aggregates — only the *length* differs.

    ``amended=False`` writes the checksum as the *original* (pre-[35])
    RPC scheme would — without the document length folded in — which is
    the configuration the forgery defeats.
    """
    if len(duplicated) != blocks.PAYLOAD_BYTES:
        raise ValueError("duplicated chunk must fill a whole block")
    codec = RpcCodec(key, rng)
    state = codec.fresh_state()
    v = rng.token(RPC_NONCE_BYTES)
    first_lead = rng.token(RPC_NONCE_BYTES)
    # prepare_span draws interior nonces from the rng: script the three
    # interior leads to the same value v, so the duplicated pair reads
    # (v, dup, v)(v, dup, v) and excising it re-links the chain at v.
    codec._rng = _RiggedNonceSource([v, v, v], codec._rng)
    chunks = [filler, duplicated, duplicated, filler]
    plain, leads, payloads = codec.prepare_span(chunks, first_lead, state.r0)
    for chunk, lead, payload in zip(chunks, leads, payloads):
        state.add_block(lead, payload, len(chunk))
    if amended:
        suffix_plain = codec.suffix_plain(state)
    else:
        suffix_plain = (xor_bytes(state.r0, state.lead_xor)
                        + state.payload_xor + state.lead_xor)
    blob = codec.encrypt_blob(
        codec.prefix_plain(state, first_lead) + plain + suffix_plain
    )
    counts = [0, *map(len, chunks), 0]
    records = [Record(count, blob[16 * i : 16 * i + 16])
               for i, count in enumerate(counts)]
    header = DocumentHeader(
        scheme="rpc", block_chars=blocks.MAX_BLOCK_CHARS,
        nonce_bits=RPC_NONCE_BYTES * 8, salt=b"\x00" * 10,
    )
    return header.encode() + encode_records(records), header


def excise_cancelling_segment(wire_text: str) -> str:
    """The server's forgery: silently remove the duplicated pair
    (records 2 and 3 of the data area: start record is index 0)."""
    header, recs = _records_of(wire_text)
    return header + "".join(recs[:2] + recs[4:])


def verify_without_length_amendment(wire_text: str, key: bytes) -> str:
    """Verify an RPC document as the *unamended* scheme would.

    Checks the start marker, the full nonce chain with circular closure,
    and both XOR aggregates in the checksum block — everything except
    the document-length binding [35] adds.  Returns the decrypted text
    on success, raises :class:`IntegrityError` otherwise.
    """
    from repro.core.rpc import ALPHA

    _, area = split_header(wire_text)
    cipher = AesCipher(key)
    records = [
        Record(char_count=ord_byte, block=block)
        for ord_byte, block in _decode_area(area)
    ]
    start_plain = cipher.decrypt_block(records[0].block)
    if start_plain[RPC_NONCE_BYTES : RPC_NONCE_BYTES + len(ALPHA)] != ALPHA:
        raise IntegrityError("unamended verify: start marker mismatch")
    r0 = start_plain[:RPC_NONCE_BYTES]
    expected = start_plain[RPC_NONCE_BYTES + len(ALPHA) :]

    state = RpcState(r0=r0)
    text: list[str] = []
    for record in records[1:-1]:
        plain = cipher.decrypt_block(record.block)
        lead = plain[:RPC_NONCE_BYTES]
        payload = plain[RPC_NONCE_BYTES : RPC_NONCE_BYTES + blocks.PAYLOAD_BYTES]
        tail = plain[RPC_NONCE_BYTES + blocks.PAYLOAD_BYTES :]
        if lead != expected:
            raise IntegrityError("unamended verify: chain broken")
        chunk = blocks.unpack_chars(payload)
        state.add_block(lead, payload, len(chunk))
        text.append(chunk)
        expected = tail
    if expected != r0:
        raise IntegrityError("unamended verify: chain does not close")

    check = cipher.decrypt_block(records[-1].block)
    if check[:RPC_NONCE_BYTES] != xor_bytes(state.r0, state.lead_xor):
        raise IntegrityError("unamended verify: nonce aggregate mismatch")
    if check[RPC_NONCE_BYTES + blocks.PAYLOAD_BYTES :] != state.lead_xor:
        raise IntegrityError("unamended verify: lead-XOR field mismatch")
    got = check[RPC_NONCE_BYTES : RPC_NONCE_BYTES + blocks.PAYLOAD_BYTES]
    # The unamended checksum binds only the payload XOR — no length.
    if got != state.payload_xor:
        raise IntegrityError("unamended verify: payload aggregate mismatch")
    return "".join(text)


def _decode_area(area: str) -> list[tuple[int, bytes]]:
    from repro.encoding import base32

    out: list[tuple[int, bytes]] = []
    for i in range(0, len(area), RECORD_CHARS):
        raw = base32.decode(area[i : i + RECORD_CHARS])
        out.append((raw[0], raw[1:]))
    return out
