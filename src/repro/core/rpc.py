"""RPC mode: incremental unforgeable encryption (confidentiality + integrity).

Following SV-B, RPC mode chains neighbouring blocks with random nonces
before applying the block cipher::

    F_sk(r0 || alpha || r1), F_sk(r1 || d1 || r2), ..., F_sk(rn || dn || r0),
    F_sk(xor_{i=0..n} ri || xor_i di || xor_{i=1..n} ri)

``alpha`` marks the start, the last data block chains *back* to ``r0``
(making the chain circular, so prefix-truncation breaks it), and the
final checksum block binds the XOR of all nonces and payloads.  We also
apply the Wang–Kao–Yeh amendment [35]: the document length is folded
into the checksum payload, defeating forgeries that preserve XOR
aggregates by duplicating pairs of blocks.

Block layout (one AES block per record)::

    data:     [ lead nonce : 4 ][ pad8(chunk) : 8 ][ tail nonce : 4 ]
    start:    [ r0 : 4 ][ alpha : 8 ][ lead of first data block : 4 ]
    checksum: [ r0 xor XOR(leads) : 4 ][ XOR(payloads) xor len : 8 ]
              [ XOR(leads) : 4 ]

Nonces are 32-bit: one AES block must carry two nonces plus the 8-byte
payload field (2k + 8 = 16).  The paper quotes 64-bit nonces but that
packing cannot close for AES-128; see DESIGN.md.

Incremental updates re-encrypt a contiguous span of blocks, *reusing
the lead nonce at the left boundary and the tail nonce at the right
boundary* so neighbours stay chained without being touched, and update
the XOR aggregates incrementally (XOR is its own inverse, so removing a
block's contribution is one more XOR) — the "slightly more, but
constant, extra resources" of the paper is exactly: one checksum-record
rewrite per update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import blocks
from repro.core.nonces import RPC_NONCE_BYTES, draw_nonces, xor_bytes
from repro.core.scheme import BlockCodec
from repro.encoding.wire import Record
from repro.errors import CiphertextFormatError, DecryptionError, IntegrityError

__all__ = ["RpcCodec", "RpcState", "ALPHA"]

#: the start-of-document marker (the paper's arbitrary symbol alpha)
ALPHA = b"\xceRPCDOC\xb1"

_ZERO_NONCE = bytes(RPC_NONCE_BYTES)
_ZERO_PAYLOAD = bytes(blocks.PAYLOAD_BYTES)


def _pack_length(length: int) -> bytes:
    return length.to_bytes(blocks.PAYLOAD_BYTES, "big")


def _pack_version(version: int) -> bytes:
    return (version & 0xFFFFFFFF).to_bytes(RPC_NONCE_BYTES, "big")


@dataclass
class RpcState:
    """Per-document RPC state: ``r0`` plus running XOR aggregates.

    The aggregates make checksum maintenance O(1) per update: adding or
    removing a block XORs its lead nonce and padded payload into/out of
    the running values.

    ``version`` is a monotonic update counter folded into the checksum
    record (a freshness extension beyond the paper: with client-side
    memory of the last version, a rolled-back document is detectable —
    see :mod:`repro.extension.freshness`).  It is XORed into the
    checksum's trailing field, so version 0 encodes exactly as the
    unversioned scheme would.
    """

    r0: bytes
    lead_xor: bytes = field(default=_ZERO_NONCE)
    payload_xor: bytes = field(default=_ZERO_PAYLOAD)
    length: int = 0
    version: int = 0

    def add_block(self, lead: bytes, payload: bytes, chars: int) -> None:
        """Fold a data block's contribution into the aggregates."""
        self.lead_xor = xor_bytes(self.lead_xor, lead)
        self.payload_xor = xor_bytes(self.payload_xor, payload)
        self.length += chars

    def remove_block(self, lead: bytes, payload: bytes, chars: int) -> None:
        """Remove a data block's contribution (XOR is self-inverse)."""
        self.lead_xor = xor_bytes(self.lead_xor, lead)
        self.payload_xor = xor_bytes(self.payload_xor, payload)
        self.length -= chars


class RpcCodec(BlockCodec):
    """Block codec for RPC mode with the length amendment."""

    name = "rpc"
    supports_integrity = True
    nonce_bits = RPC_NONCE_BYTES * 8

    # -- document bookkeeping ------------------------------------------

    def fresh_state(self) -> RpcState:
        """Draw ``r0`` and zeroed aggregates for a new document."""
        return RpcState(r0=self._rng.token(RPC_NONCE_BYTES))

    def prefix_plain(self, state: RpcState, first_lead: bytes | None) -> bytes:
        """The start record's pre-cipher image ``r0 || alpha || first_lead``.

        For an empty document the chain loops straight back: the start
        record's tail is ``r0`` itself.
        """
        tail = first_lead if first_lead is not None else state.r0
        return state.r0 + ALPHA + tail

    def suffix_plain(self, state: RpcState) -> bytes:
        """The checksum record's pre-cipher block image (one AES block).

        The engine encrypts it in the same batched cipher call as the
        data blocks, so a coalesced update pays the length amendment
        once per burst, not once per keystroke.
        """
        payload = xor_bytes(state.payload_xor, _pack_length(state.length))
        trailer = xor_bytes(state.lead_xor, _pack_version(state.version))
        return xor_bytes(state.r0, state.lead_xor) + payload + trailer

    # -- data records --------------------------------------------------

    def prepare_span(
        self,
        chunks: list[str],
        lead_first: bytes,
        tail_last: bytes,
    ) -> tuple[bytes, list[bytes], list[bytes]]:
        """Draw chain nonces and lay out a span's pre-cipher blocks.

        The first record's lead nonce is forced to ``lead_first`` and
        the last record's tail to ``tail_last`` so the run splices into
        an existing chain without touching its neighbours; interior
        nonces are fresh.  Returns ``(plain, leads, payloads)``; the
        caller encrypts ``plain`` (ECB, so several spans' images may
        share one batched cipher call without changing the bytes),
        slices it into records, and folds leads/payloads into the
        aggregates.
        """
        if not chunks:
            raise CiphertextFormatError("RPC span must contain >= 1 block")
        leads = [lead_first] + draw_nonces(
            self._rng, len(chunks) - 1, RPC_NONCE_BYTES
        )
        tails = leads[1:] + [tail_last]
        plain = bytearray()
        payloads: list[bytes] = []
        for lead, chunk, tail in zip(leads, chunks, tails):
            payload = blocks.pack_chars(chunk)
            payloads.append(payload)
            plain += lead + payload + tail
        return bytes(plain), leads, payloads

    def decrypt_record(self, record: Record) -> tuple[bytes, str, bytes, bytes]:
        """Decrypt one data record into ``(lead, chunk, tail, payload)``.

        Performs only local checks; chain verification needs the whole
        document (see :meth:`load`).
        """
        plain = self._cipher.decrypt_block(record.block)
        lead = plain[:RPC_NONCE_BYTES]
        payload = plain[RPC_NONCE_BYTES : RPC_NONCE_BYTES + blocks.PAYLOAD_BYTES]
        tail = plain[RPC_NONCE_BYTES + blocks.PAYLOAD_BYTES :]
        try:
            chunk = blocks.unpack_chars(payload)
        except UnicodeDecodeError:
            raise IntegrityError(
                "data block decodes to invalid UTF-8"
            ) from None
        if len(chunk) != record.char_count:
            raise IntegrityError(
                f"record header claims {record.char_count} chars, payload "
                f"holds {len(chunk)}"
            )
        return lead, chunk, tail, payload

    # -- full-document verify-and-decrypt ---------------------------------

    def load(
        self, counts: bytes, ciphertext: bytes
    ) -> tuple[RpcState, list[str], bytes, bytes]:
        """Verify a whole ciphertext document and decrypt it.

        Reads the full record area as columns
        (:func:`repro.encoding.wire.decode_area`): ``counts`` holds
        each record's header byte and ``ciphertext`` its AES blocks
        back to back — start record, data records, checksum record.
        Returns the reconstructed state and three data-block columns:
        the chunks, the lead nonces back to back (4 bytes each) and the
        padded payloads back to back (8 bytes each).

        Raises :class:`IntegrityError` naming the first failed check —
        start marker, chain link, circular closure, checksum aggregates,
        or the length amendment.
        """
        if len(counts) < 2:
            raise CiphertextFormatError(
                "RPC document needs at least start + checksum records"
            )
        start_plain = self._cipher.decrypt_block(ciphertext[:16])
        if start_plain[RPC_NONCE_BYTES : RPC_NONCE_BYTES + len(ALPHA)] != ALPHA:
            raise DecryptionError(
                "start marker mismatch (wrong password or tampered start "
                "record)"
            )
        r0 = start_plain[:RPC_NONCE_BYTES]
        expected_lead = start_plain[RPC_NONCE_BYTES + len(ALPHA) :]

        data_counts = counts[1:-1]
        state = RpcState(r0=r0)
        chunks: list[str] = []
        lead_column = payload_column = b""
        if data_counts:
            blob = self._cipher.decrypt_many(ciphertext[16:-16])
            lo, hi = RPC_NONCE_BYTES, RPC_NONCE_BYTES + blocks.PAYLOAD_BYTES
            plain = np.frombuffer(blob, dtype=np.uint8).reshape(-1, 16)
            leads, payloads = plain[:, :lo], plain[:, lo:hi]
            # block i's lead must equal block i-1's tail (the start
            # record's tail for block 0).  The blocks before the first
            # break get their local checks first, in order, exactly as a
            # block-by-block walk would raise them.
            chained = np.empty_like(leads)
            chained[0] = np.frombuffer(expected_lead, dtype=np.uint8)
            chained[1:] = plain[:-1, hi:]
            breaks = np.flatnonzero((leads != chained).any(axis=1))
            intact = int(breaks[0]) if breaks.size else len(data_counts)
            chunks = blocks.unpack_ascii(payloads[:intact],
                                         data_counts[:intact])
            if chunks is None:
                chunks = [
                    _checked_chunk(i, blob[16 * i + lo : 16 * i + hi],
                                   data_counts[i])
                    for i in range(intact)
                ]
            if breaks.size:
                raise IntegrityError(
                    f"nonce chain broken at data block {intact}"
                )
            state.length = sum(map(len, chunks))
            lead_column = leads.tobytes()
            payload_column = payloads.tobytes()
            state.lead_xor = np.bitwise_xor.reduce(leads, axis=0).tobytes()
            state.payload_xor = np.bitwise_xor.reduce(payloads, axis=0).tobytes()
            expected_lead = blob[-RPC_NONCE_BYTES:]
        if expected_lead != r0:
            raise IntegrityError(
                "chain does not close back to r0 (truncation or splice)"
            )

        check_plain = self._cipher.decrypt_block(ciphertext[-16:])
        want_first = xor_bytes(state.r0, state.lead_xor)
        want_payload = xor_bytes(state.payload_xor, _pack_length(state.length))
        if check_plain[:RPC_NONCE_BYTES] != want_first:
            raise IntegrityError("checksum record: nonce aggregate mismatch")
        # The trailing field carries lead_xor XOR version; lead_xor is
        # already bound by the first field, so recover the version here.
        state.version = int.from_bytes(
            xor_bytes(
                check_plain[RPC_NONCE_BYTES + blocks.PAYLOAD_BYTES :],
                state.lead_xor,
            ),
            "big",
        )
        got_payload = check_plain[
            RPC_NONCE_BYTES : RPC_NONCE_BYTES + blocks.PAYLOAD_BYTES
        ]
        if got_payload != want_payload:
            # Distinguish a pure length-amendment failure for the attack
            # harness: same payload XOR but different claimed length.
            claimed = int.from_bytes(
                xor_bytes(got_payload, state.payload_xor), "big"
            )
            if claimed != state.length:
                raise IntegrityError(
                    f"length amendment mismatch: checksum binds {claimed} "
                    f"chars, document has {state.length}"
                )
            raise IntegrityError("checksum record: payload aggregate mismatch")
        return state, chunks, lead_column, payload_column


def _checked_chunk(i: int, payload: bytes, char_count: int) -> str:
    """Data block ``i``'s characters, checked against its header."""
    try:
        chunk = blocks.unpack_chars(payload)
    except UnicodeDecodeError:
        raise IntegrityError(
            f"data block {i} decodes to invalid UTF-8"
        ) from None
    if len(chunk) != char_count:
        raise IntegrityError(
            f"record {i} header claims {char_count} "
            f"chars, payload holds {len(chunk)}"
        )
    return chunk
