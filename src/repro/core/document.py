"""EncryptedDocument: the incremental-encryption engine (SV).

An :class:`EncryptedDocument` is the client-side mirror the extension
keeps of the ciphertext stored by the untrusted server.  It combines

* a scheme codec (:mod:`repro.core.recb` or :mod:`repro.core.rpc`) for
  per-block cryptography,
* a block index (:class:`repro.datastructures.IndexedSkipList` by
  default) mapping character positions to variable-length blocks, and
* the wire format (:mod:`repro.encoding.wire`) the server actually
  stores,

and exposes the scheme 4-tuple: ``create`` (Enc), ``load``/``text``
(Dec, verifying integrity when the scheme provides it), and
``apply_delta`` (IncE), which edits the ciphertext *in place* and
returns the **cdelta** — a delta over the server's stored wire string
that reproduces the same edit server-side.

How IncE stays sub-linear
-------------------------
A plaintext delta is first re-anchored into original-document
coordinates, then grouped into *clusters* of nearby edits.  Each cluster
maps to a contiguous run of blocks; only that run is re-encrypted (for
RPC, reusing the boundary nonces so neighbours stay chained), the index
run is read with one ``get_range`` walk and replaced with one ``splice``
along a single ``O(log n)`` search path — ``O(log n + cluster)`` total,
never a per-rank get/delete/insert loop — and the cdelta patches
exactly those records.  Bookkeeping records are patched as needed — for
RPC the checksum record is rewritten once per update (its running XOR
aggregates make that O(1)), which is the paper's "slightly more, but
constant, extra resources".

The mirror applies the same cdelta to its own kept wire text, so
:meth:`EncryptedDocument.wire` costs one string splice per update, not
a Base32 re-encode of every record.  The extension verifies every Ack
against :meth:`EncryptedDocument.wire_hash`, which keeps SHA-1
midstates over that text and resumes from the last one before the
cdelta's first changed character, so it hashes the suffix after the
edit, not the whole wire.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core import blocks
from repro.core.delta import (
    Delta,
    DeltaOp,
    Delete,
    Insert,
    Retain,
    SourceDelete,
    SourceEdit,
    SourceInsert,
)
from repro.core.keys import KeyMaterial
from repro.core.recb import RecbCodec, RecbState
from repro.core.rpc import RpcCodec, RpcState
from repro.core.scheme import register_scheme, scheme_factory
from repro.crypto.random import RandomSource, SystemRandomSource
from repro.crypto.sha1 import Sha1Midstates
from repro.datastructures import BlockIndex, IndexedSkipList
from repro.encoding.wire import (
    RECORD_CHARS,
    DocumentHeader,
    Record,
    decode_area,
    encode_records,
    record_columns,
    split_header,
)
from repro.errors import (
    CiphertextFormatError,
    DeltaApplicationError,
    PasswordError,
)
from repro.obs import counter, histogram

_DELTAS = counter("doc.deltas")
_CLUSTERS = counter("doc.clusters")
_CLUSTERS_PER_DELTA = histogram("doc.clusters_per_delta")
#: blocks freshly encrypted by IncE — bounded by O(cluster) per delta
_BLOCKS_REENCRYPTED = counter("doc.blocks_reencrypted")
#: old blocks spliced out of the index and re-packed into new chunks
_BLOCKS_REPACKED = counter("doc.blocks_repacked")
_CDELTA_RECORDS = counter("doc.cdelta_records")
_CDELTA_BYTES = counter("doc.cdelta_bytes")
_FULL_REWRITES = counter("doc.full_rewrites")
_REKEYS = counter("doc.rekeys")
_APPLY_SECONDS = histogram("doc.apply_delta_seconds")

__all__ = [
    "BlockMeta",
    "EncryptedDocument",
    "RecbDocument",
    "RpcDocument",
    "create_document",
    "load_document",
]


@dataclass(slots=True)
class BlockMeta:
    """Client-side view of one encrypted data block.

    A mirror keeps one per block, so it holds the bare 16-byte AES
    ``block`` rather than a :class:`Record`: the record's header count
    is just ``len(text)`` (``load`` checks exactly that), and without a
    ``__dict__`` or a record this object and its skip-list node are the
    only two objects per block the cyclic garbage collector tracks.

    ``block`` is None only transiently inside ``_apply_clusters``:
    freshly prepared blocks are spliced into the index before the
    (single, deferred) cipher call of the update, then patched with
    their blocks — nothing reads ``block`` in between.
    """

    text: str                       #: the plaintext characters in this block
    block: bytes | None = None      #: the AES block currently storing them
    lead: bytes | None = None       #: RPC lead nonce (None for rECB)
    payload: bytes | None = None    #: RPC padded payload (None for rECB)

    @property
    def record(self) -> Record:
        """The wire record storing this block (built on demand)."""
        return Record(char_count=len(self.text), block=self.block)


@dataclass
class _Cluster:
    """A run of nearby edits, in original-document coordinates."""

    lo: int
    hi: int
    edits: list[SourceEdit] = field(default_factory=list)


def _cluster_edits(edits: Sequence[SourceEdit], gap: int) -> list[_Cluster]:
    """Group source-coordinate edits whose spans are within ``gap``."""
    clusters: list[_Cluster] = []
    for edit in edits:
        lo = edit.pos
        hi = edit.pos + (edit.count if isinstance(edit, SourceDelete) else 0)
        if clusters and lo - clusters[-1].hi <= gap:
            last = clusters[-1]
            last.hi = max(last.hi, hi)
            last.edits.append(edit)
        else:
            clusters.append(_Cluster(lo, hi, [edit]))
    return clusters


def _apply_edits_local(text: str, edits: Sequence[SourceEdit],
                       span_start: int) -> str:
    """Apply source-coordinate ``edits`` to the local span ``text``
    (which begins at document position ``span_start``)."""
    out = text
    shift = 0
    for edit in edits:
        pos = edit.pos - span_start + shift
        if isinstance(edit, SourceInsert):
            out = out[:pos] + edit.text + out[pos:]
            shift += len(edit.text)
        else:
            out = out[:pos] + out[pos + edit.count :]
            shift -= edit.count
    return out


class EncryptedDocument(ABC):
    """Base class for ciphertext-document mirrors.

    Use the classmethods :meth:`create` / :meth:`load` (or the module
    factories :func:`create_document` / :func:`load_document`) rather
    than the constructor.
    """

    #: scheme codec class, set by subclasses
    _codec_class: type
    #: must an RPC-style chain splice always contain >= 1 block?
    _require_nonempty_span: bool
    #: rebuild the whole ciphertext when the text becomes (or is) empty?
    _full_rewrite_on_empty: bool
    #: encrypt all of an update's spans (and its checksum) in one
    #: deferred cipher call.  ECB + deterministic nonce draws make the
    #: output byte-identical to per-span calls; False forces the
    #: per-span reference path (the fuzz differential flips this)
    _coalesce_ciphers: bool = True

    def __init__(
        self,
        key_material: KeyMaterial,
        block_chars: int = blocks.MAX_BLOCK_CHARS,
        rng: RandomSource | None = None,
        index_factory: Callable[[], BlockIndex] | None = None,
    ):
        self._block_chars = blocks.validate_block_chars(block_chars)
        self._rng = rng if rng is not None else SystemRandomSource()
        self._index_factory = index_factory or IndexedSkipList
        self._set_keys(key_material)
        self._index: BlockIndex = self._index_factory()
        self._state: object = None
        #: the bookkeeping records before and after the data records,
        #: as ``(char_count, block)`` pairs
        self._prefix: list[tuple[int, bytes]] = []
        self._suffix: list[tuple[int, bytes]] = []
        #: the stored wire text, built on first :meth:`wire` and then
        #: kept in step by splicing each update's cdelta into it
        self._wire: str | None = None
        #: SHA-1 midstates over ``_wire`` (:meth:`wire_hash`), cut back
        #: to each update's first changed character
        self._wire_hash = Sha1Midstates()

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        text: str,
        password: str | None = None,
        key_material: KeyMaterial | None = None,
        block_chars: int = blocks.MAX_BLOCK_CHARS,
        rng: RandomSource | None = None,
        index_factory: Callable[[], BlockIndex] | None = None,
        version: int = 0,
    ) -> "EncryptedDocument":
        """Enc: encrypt ``text`` into a fresh document.

        ``version`` seeds the RPC version counter (ignored by schemes
        without one), so a fresh re-encryption of a document this
        client already stored at version N can continue at N + 1.
        """
        keys = _resolve_keys(password, key_material, rng)
        doc = cls(keys, block_chars, rng, index_factory)
        doc._build_fresh(text, version=version)
        return doc

    @classmethod
    def load(
        cls,
        wire_text: str,
        password: str | None = None,
        key_material: KeyMaterial | None = None,
        rng: RandomSource | None = None,
        index_factory: Callable[[], BlockIndex] | None = None,
    ) -> "EncryptedDocument":
        """Dec: parse, verify, and decrypt a stored wire document.

        The record area is read as ``decode_area``'s two columns (no
        :class:`Record` per record).  The fetched text becomes the kept
        wire: ``decode_area`` accepts only the canonical encoding of the
        records it returns, so the record area is byte-for-byte what
        :meth:`wire` would encode, and a header that is not spelled
        canonically is replaced by the canonical one.
        """
        header, area = split_header(wire_text)
        counts, ciphertext = decode_area(area)
        if header.scheme != cls._codec_class.name:
            raise CiphertextFormatError(
                f"document uses scheme {header.scheme!r}, "
                f"expected {cls._codec_class.name!r}"
            )
        if key_material is None:
            if password is None:
                raise PasswordError("a password or key material is required")
            key_material = KeyMaterial.from_password(password, salt=header.salt)
        doc = cls(key_material, header.block_chars, rng, index_factory)
        doc._load_records(counts, ciphertext)
        canonical = doc._header.encode()
        if not wire_text.startswith(canonical):
            wire_text = canonical + area
        doc._wire = wire_text
        return doc

    def _set_keys(self, key_material: KeyMaterial) -> None:
        """Install key material and the codec and header bound to it."""
        self._keys = key_material
        self._codec = self._codec_class(key_material.key, self._rng)
        self._header = DocumentHeader(
            scheme=self._codec.name,
            block_chars=self._block_chars,
            nonce_bits=self._codec.nonce_bits,
            salt=key_material.salt,
        )

    def _build_fresh(self, text: str, version: int = 0) -> None:
        """(Re)initialize all ciphertext state from plaintext.

        Enc is IncE applied to the empty document: every chunk is
        staged as one span with ``_prepare_span`` (for RPC, the chain
        splice between ``r0`` and ``r0``), and the prefix, data and
        suffix images are encrypted in one ``encrypt_blob`` call.
        """
        self._state = self._codec.fresh_state()
        if hasattr(self._state, "version"):
            self._state.version = version
        plain, metas = self._prepare_span(
            [], blocks.chunk_text(text, self._block_chars), None
        )
        prefix_plain = self._codec.prefix_plain(
            self._state, metas[0].lead if metas else None
        )
        blob = self._codec.encrypt_blob(
            prefix_plain + plain + self._codec.suffix_plain(self._state)
        )
        data_start = len(prefix_plain)
        data_end = data_start + len(plain)
        for meta, off in zip(metas, range(data_start, data_end, 16)):
            meta.block = blob[off : off + 16]
        self._prefix = [(0, blob[i : i + 16]) for i in range(0, data_start, 16)]
        self._suffix = [(0, blob[i : i + 16])
                        for i in range(data_end, len(blob), 16)]
        self._index = self._index_factory()
        self._index.extend((meta, len(meta.text)) for meta in metas)
        self._wire = None
        self._wire_hash.truncate(0)

    def _rebuild(self, text: str) -> None:
        """Enc of ``text``, continuing this document's RPC version."""
        self._build_fresh(
            text, version=getattr(self._state, "version", -1) + 1
        )

    # -- subclass hooks --------------------------------------------------

    @abstractmethod
    def _load_records(self, counts: bytes, ciphertext: bytes) -> None:
        """Verify and decrypt the stored record columns (header bytes,
        AES blocks back to back), populating index and state; each
        mirror block keeps a slice of ``ciphertext``."""

    @abstractmethod
    def _prepare_span(
        self,
        old_metas: list[BlockMeta],
        chunks: list[str],
        next_lead: bytes | None,
    ) -> tuple[bytes, list[BlockMeta]]:
        """Stage the replacement of a contiguous block run.

        Draws nonces, updates scheme state, and returns ``(plain,
        metas)``: the span's concatenated pre-cipher block images and
        its new metas *without blocks* — the caller runs the cipher
        (batched across every span of the update) and patches each
        meta's block from the output.  Empty ``old_metas`` stage a
        fresh document's whole text (``_build_fresh``).
        """

    # -- inspection --------------------------------------------------------

    @property
    def scheme(self) -> str:
        return self._codec.name

    @property
    def supports_integrity(self) -> bool:
        return self._codec.supports_integrity

    @property
    def block_chars(self) -> int:
        return self._block_chars

    @property
    def key_material(self) -> KeyMaterial:
        return self._keys

    @property
    def char_length(self) -> int:
        """Plaintext length in characters."""
        return self._index.total_chars

    @property
    def block_count(self) -> int:
        """Number of data blocks."""
        return len(self._index)

    @property
    def text(self) -> str:
        """Dec: the current plaintext."""
        return "".join(meta.text for meta in self._index.values())

    def wire(self) -> str:
        """The full stored form: header + bookkeeping + data records.

        Encoded from the records on first use only; every later update
        splices its cdelta into the kept text, so a delta save encodes
        just its new records instead of the whole document.
        """
        if self._wire is None:
            self._wire = self._header.encode() + encode_records(
                self._records()
            )
        return self._wire

    def wire_hash(self) -> str:
        """The SHA-1 hex digest of :meth:`wire` — the gdocs Ack's
        ``contentFromServerHash`` of the stored text — hashing only the
        wire after the last midstate no update has changed since."""
        return self._wire_hash.hexdigest(self.wire())

    def wire_length(self) -> int:
        """Length of :meth:`wire` without materializing it."""
        n_records = (
            len(self._prefix) + len(self._index) + len(self._suffix)
        )
        return self._header.wire_length + n_records * RECORD_CHARS

    def blowup(self) -> float:
        """Stored characters per plaintext character (Fig. 7 metric)."""
        if self.char_length == 0:
            return float("inf")
        return self.wire_length() / self.char_length

    def block_fill_histogram(self) -> dict[int, int]:
        """Histogram of block fill (chars per block) — fragmentation view."""
        hist: dict[int, int] = {}
        for _, width in self._index.items():
            hist[width] = hist.get(width, 0) + 1
        return hist

    # -- IncE ---------------------------------------------------------------

    def apply_delta(self, delta: Delta) -> Delta:
        """IncE: apply a plaintext delta; return the ciphertext delta.

        The returned cdelta, applied by the *server* to its stored wire
        string, produces exactly this mirror's new :meth:`wire`.
        """
        start = time.perf_counter()
        try:
            cdelta = self._apply_delta_inner(delta)
        finally:
            _APPLY_SECONDS.observe(time.perf_counter() - start)
        _DELTAS.inc()
        inserted = sum(
            len(op.text) for op in cdelta.ops if isinstance(op, Insert)
        )
        _CDELTA_RECORDS.inc(inserted // RECORD_CHARS)
        _CDELTA_BYTES.inc(inserted)
        return cdelta

    def _apply_delta_inner(self, delta: Delta) -> Delta:
        consumed = sum(
            op.count for op in delta.ops if isinstance(op, (Retain, Delete))
        )
        if consumed > self.char_length:
            raise DeltaApplicationError(
                f"delta consumes {consumed} chars, document has "
                f"{self.char_length}"
            )
        for op in delta.ops:
            if isinstance(op, Insert):
                blocks.validate_text(op.text)

        edits = delta.source_edits()
        if not edits:
            return Delta(())

        new_length = self.char_length + delta.length_change
        if self._full_rewrite_on_empty and (
            self.char_length == 0 or new_length == 0
        ):
            return self._rewrite(delta.apply(self.text))

        return self._apply_clusters(edits)

    def insert(self, pos: int, text: str) -> Delta:
        """IncE sugar: insert ``text`` at ``pos``; returns the cdelta."""
        return self.apply_delta(Delta.insertion(pos, text))

    def delete(self, pos: int, count: int) -> Delta:
        """IncE sugar: delete ``count`` chars at ``pos``; returns the cdelta."""
        return self.apply_delta(Delta.deletion(pos, count))

    def replace(self, pos: int, count: int, text: str) -> Delta:
        """IncE sugar: replace a range; returns the cdelta."""
        return self.apply_delta(Delta.replacement(pos, count, text))

    def rekey(
        self,
        password: str | None = None,
        key_material: KeyMaterial | None = None,
        rng: RandomSource | None = None,
    ) -> Delta:
        """Re-encrypt the whole document under new key material.

        Used when a per-document password must change (a collaborator is
        revoked, a password leaked).  Necessarily a full re-encryption —
        every block is bound to the old key — so the returned cdelta
        replaces the entire stored document, header included (the salt
        changes).  Documents opened with the old password afterwards
        fail.
        """
        _REKEYS.inc()
        new_keys = _resolve_keys(password, key_material,
                                 rng if rng is not None else self._rng)
        old_length = self.wire_length()
        text = self.text
        self._set_keys(new_keys)
        self._rebuild(text)
        return Delta([Delete(old_length), Insert(self.wire())])

    # -- internals -----------------------------------------------------------

    def _records(self) -> list[Record]:
        """Every stored record in wire order: prefix, data, suffix."""
        return (
            [Record(count, block) for count, block in self._prefix]
            + [meta.record for meta in self._index.values()]
            + [Record(count, block) for count, block in self._suffix]
        )

    def _data_area_start(self) -> int:
        return self._header.wire_length + len(self._prefix) * RECORD_CHARS

    def _rewrite(self, new_text: str) -> Delta:
        """Full-rewrite fallback (empty-document transitions)."""
        _FULL_REWRITES.inc()
        old_area = self.wire_length() - self._header.wire_length
        self._rebuild(new_text)
        return Delta([Retain(self._header.wire_length), Delete(old_area),
                      Insert(encode_records(self._records()))])

    def _apply_clusters(self, edits: list[SourceEdit]) -> Delta:
        """Re-encrypt every edited cluster with ONE deferred cipher call.

        Two phases.  Phase 1 walks the clusters exactly as before —
        locate the span, rewrite its text, draw nonces, update scheme
        state, splice the index — but only *stages* each span's
        pre-cipher block images (``_prepare_span``).  Phase 2 encrypts
        the concatenation of every staged image (plus the checksum
        image, for schemes that keep one) in a single ``encrypt_many``,
        so a coalesced multi-span burst crosses the batched-AES
        threshold that per-span calls never reached, then patches the
        blocks back into the already-spliced metas and builds the
        cdelta.  ECB independence plus the buffered DRBG's
        draw-order-only dependence make the output bytes identical to
        the per-span path (``_coalesce_ciphers = False``, kept as the
        reference for the fuzz differential).
        """
        gap = max(16, 2 * self._block_chars)
        clusters = _cluster_edits(edits, gap)
        _CLUSTERS.inc(len(clusters))
        _CLUSTERS_PER_DELTA.observe(len(clusters))

        base = self._data_area_start()
        old_data_count = len(self._index)
        rank_shift = 0  # current rank - old rank, left of the frontier
        char_shift = 0  # current char pos - old char pos, ditto

        #: per cluster: (old-rank span, metas awaiting blocks)
        staged: list[tuple[int, int, list[BlockMeta]]] = []
        plain_parts: list[bytes] = []

        for cluster in clusters:
            ra, rb, old_metas = self._locate_span(cluster, char_shift)
            span_text = "".join(meta.text for meta in old_metas)
            span_start = (
                self._index.char_start(ra) - char_shift
                if len(self._index)
                else 0
            )
            new_text = _apply_edits_local(span_text, cluster.edits, span_start)
            chunks = blocks.chunk_text(new_text, self._block_chars)

            if not chunks and self._require_nonempty_span:
                ra, rb, old_metas, new_text = self._absorb_neighbor(
                    ra, rb, old_metas
                )
                span_text = "".join(meta.text for meta in old_metas)
                chunks = blocks.chunk_text(new_text, self._block_chars)

            next_lead = (
                self._index.get(rb)[0].lead if rb < len(self._index) else None
            )
            plain, new_metas = self._prepare_span(old_metas, chunks, next_lead)
            _BLOCKS_REENCRYPTED.inc(len(new_metas))
            _BLOCKS_REPACKED.inc(rb - ra)

            self._index.splice(
                ra, rb, ((meta, len(meta.text)) for meta in new_metas)
            )

            plain_parts.append(plain)
            staged.append((ra - rank_shift, rb - rank_shift, new_metas))
            rank_shift += len(new_metas) - (rb - ra)
            char_shift += len(new_text) - len(span_text)

        suffix_plain = b""
        if self._suffix:
            if hasattr(self._state, "version"):
                self._state.version += 1
            suffix_plain = self._codec.suffix_plain(self._state)

        if self._coalesce_ciphers:
            blob = self._codec.encrypt_blob(
                b"".join(plain_parts) + suffix_plain
            )
        else:
            blob = b"".join(
                self._codec.encrypt_blob(part) for part in plain_parts if part
            )
            if suffix_plain:
                blob += self._codec.encrypt_blob(suffix_plain)

        off = 0
        ops: list[DeltaOp] = []
        cursor = 0      # old-wire characters already consumed
        for ra_old, rb_old, new_metas in staged:
            for meta in new_metas:
                meta.block = blob[off : off + 16]
                off += 16
            pos_old = base + ra_old * RECORD_CHARS
            if pos_old > cursor:
                ops.append(Retain(pos_old - cursor))
            if rb_old > ra_old:
                ops.append(Delete((rb_old - ra_old) * RECORD_CHARS))
            if new_metas:
                ops.append(
                    Insert(encode_records([m.record for m in new_metas]))
                )
            cursor = base + rb_old * RECORD_CHARS

        if self._suffix:
            checksum = blob[off : off + 16]
            off += 16
            pos_old = base + old_data_count * RECORD_CHARS
            if pos_old > cursor:
                ops.append(Retain(pos_old - cursor))
            ops.append(Delete(len(self._suffix) * RECORD_CHARS))
            ops.append(Insert(encode_records([Record(0, checksum)])))
            self._suffix = [(0, checksum)]

        cdelta = Delta(ops)
        if self._wire is not None:
            self._wire = cdelta.apply(self._wire)
            self._wire_hash.truncate(ops[0].count)  # the leading Retain
        return cdelta

    def _locate_span(
        self, cluster: _Cluster, char_shift: int
    ) -> tuple[int, int, list[BlockMeta]]:
        """Map a cluster's char span to the current block-rank range,
        returning the run's metas from one ``get_range`` walk instead of
        a per-rank ``get`` loop."""
        size = len(self._index)
        if size == 0:
            return 0, 0, []
        if cluster.lo == cluster.hi:  # pure insertion
            pos = cluster.lo + char_shift
            if pos >= self._index.total_chars:
                ra = size - 1
            else:
                ra, _ = self._index.find_char(pos)
            rb = ra + 1
        else:
            ra, _ = self._index.find_char(cluster.lo + char_shift)
            rb_block, _ = self._index.find_char(cluster.hi - 1 + char_shift)
            rb = rb_block + 1
        metas = [value for value, _ in self._index.get_range(ra, rb)]
        return ra, rb, metas

    def _absorb_neighbor(
        self, ra: int, rb: int, old_metas: list[BlockMeta]
    ) -> tuple[int, int, list[BlockMeta], str]:
        """Extend an emptied span over one untouched neighbour so a chain
        splice always carries at least one block."""
        if rb < len(self._index):
            neighbor = self._index.get(rb)[0]
            return ra, rb + 1, old_metas + [neighbor], neighbor.text
        if ra > 0:
            neighbor = self._index.get(ra - 1)[0]
            return ra - 1, rb, [neighbor] + old_metas, neighbor.text
        raise AssertionError(
            "document would become empty; handled by the rewrite path"
        )


class RecbDocument(EncryptedDocument):
    """Confidentiality-only document: rECB mode (SV-B)."""

    _codec_class = RecbCodec
    _require_nonempty_span = False
    _full_rewrite_on_empty = False

    _codec: RecbCodec
    _state: RecbState

    def _load_records(self, counts: bytes, ciphertext: bytes) -> None:
        if not counts:
            raise CiphertextFormatError("rECB document missing its r0 record")
        r0_block = ciphertext[:16]
        self._state = self._codec.parse_prefix(r0_block)
        self._prefix = [(counts[0], r0_block)]
        self._suffix = []
        texts = self._codec.decrypt_records(
            self._state, counts[1:], ciphertext[16:]
        )
        self._index = self._index_factory()
        self._index.extend(
            (BlockMeta(chunk, ciphertext[off : off + 16]), len(chunk))
            for off, chunk in zip(range(16, len(ciphertext), 16), texts)
        )

    def _prepare_span(
        self,
        old_metas: list[BlockMeta],
        chunks: list[str],
        next_lead: bytes | None,
    ) -> tuple[bytes, list[BlockMeta]]:
        plain = self._codec.prepare_chunks(self._state, chunks)
        return plain, [BlockMeta(text=chunk) for chunk in chunks]

    def decrypt_char(self, index: int) -> str:
        """Random access: decrypt the single block holding character
        ``index`` (the 2-record access pattern described in SV-B)."""
        rank, offset = self._index.find_char(index)
        meta = self._index.get(rank)[0]
        chunk = self._codec.decrypt_record(self._state, meta.record)
        return chunk[offset]

    def decrypt_range(self, start: int, end: int) -> str:
        """Random access to ``[start, end)``: decrypt only the blocks
        that cover the range.

        This is rECB's structural advantage over RPC — a reader can pull
        one paragraph of a huge document by touching O(range/b) records
        (plus the r0 record), never the whole chain.
        """
        if not 0 <= start <= end <= self.char_length:
            raise IndexError(
                f"range [{start}, {end}) outside document of "
                f"{self.char_length} chars"
            )
        if start == end:
            return ""
        first, offset = self._index.find_char(start)
        last, _ = self._index.find_char(end - 1)
        pieces = [
            self._codec.decrypt_record(self._state, meta.record)
            for meta, _ in self._index.get_range(first, last + 1)
        ]
        text = "".join(pieces)
        return text[offset : offset + (end - start)]


class RpcDocument(EncryptedDocument):
    """Confidentiality-and-integrity document: RPC mode (SV-B)."""

    _codec_class = RpcCodec
    _require_nonempty_span = True
    _full_rewrite_on_empty = True

    _codec: RpcCodec
    _state: RpcState

    def _load_records(self, counts: bytes, ciphertext: bytes) -> None:
        state, data = self._codec.load(counts, ciphertext)
        self._state = state
        self._prefix = [(counts[0], ciphertext[:16])]
        self._suffix = [(counts[-1], ciphertext[-16:])]
        self._index = self._index_factory()
        self._index.extend(
            (BlockMeta(chunk, ciphertext[off : off + 16], lead, payload),
             len(chunk))
            for off, (chunk, lead, payload) in zip(
                range(16, len(ciphertext), 16), data
            )
        )

    def _prepare_span(
        self,
        old_metas: list[BlockMeta],
        chunks: list[str],
        next_lead: bytes | None,
    ) -> tuple[bytes, list[BlockMeta]]:
        if old_metas:
            lead_first = old_metas[0].lead
            assert lead_first is not None
        elif chunks:  # Enc: the first lead is fresh, the chain closes at r0
            lead_first = self._rng.token(len(self._state.r0))
        else:
            return b"", []
        assert chunks, "RPC span replacement always produces >= 1 block"
        tail_last = next_lead if next_lead is not None else self._state.r0
        for meta in old_metas:
            assert meta.lead is not None and meta.payload is not None
            self._state.remove_block(meta.lead, meta.payload, len(meta.text))
        plain, leads, payloads = self._codec.prepare_span(
            chunks, lead_first, tail_last
        )
        metas: list[BlockMeta] = []
        for chunk, lead, payload in zip(chunks, leads, payloads):
            self._state.add_block(lead, payload, len(chunk))
            metas.append(BlockMeta(text=chunk, lead=lead, payload=payload))
        return plain, metas

    @property
    def version(self) -> int:
        """Monotonic update counter bound into the checksum record."""
        return self._state.version

    def verify(self) -> None:
        """Re-verify the mirror's own wire form end to end.

        Mostly a testing/diagnostic aid: tampering normally surfaces on
        :meth:`load` of the *server's* copy.
        """
        self._codec.load(*record_columns(self._records()))


def _resolve_keys(
    password: str | None,
    key_material: KeyMaterial | None,
    rng: RandomSource | None,
) -> KeyMaterial:
    if key_material is not None:
        return key_material
    if password is None:
        raise PasswordError("a password or key material is required")
    return KeyMaterial.from_password(password, rng=rng)


def create_document(
    text: str,
    password: str | None = None,
    key_material: KeyMaterial | None = None,
    scheme: str = "recb",
    block_chars: int = blocks.MAX_BLOCK_CHARS,
    rng: RandomSource | None = None,
    index_factory: Callable[[], BlockIndex] | None = None,
    version: int = 0,
) -> EncryptedDocument:
    """Encrypt ``text`` under the named scheme (factory for Enc)."""
    cls = scheme_factory(scheme)
    return cls.create(
        text,
        password=password,
        key_material=key_material,
        block_chars=block_chars,
        rng=rng,
        index_factory=index_factory,
        version=version,
    )


def load_document(
    wire_text: str,
    password: str | None = None,
    key_material: KeyMaterial | None = None,
    rng: RandomSource | None = None,
    index_factory: Callable[[], BlockIndex] | None = None,
) -> EncryptedDocument:
    """Load a stored wire document, dispatching on its header's scheme."""
    header, _ = split_header(wire_text)
    cls = scheme_factory(header.scheme)
    return cls.load(
        wire_text,
        password=password,
        key_material=key_material,
        rng=rng,
        index_factory=index_factory,
    )


register_scheme("recb", RecbDocument)
register_scheme("rpc", RpcDocument)
