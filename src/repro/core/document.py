"""EncryptedDocument: the incremental-encryption engine (SV).

An :class:`EncryptedDocument` is the client-side mirror the extension
keeps of the ciphertext stored by the untrusted server.  It combines

* a scheme codec (:mod:`repro.core.recb` or :mod:`repro.core.rpc`) for
  per-block cryptography,
* a block store (:class:`repro.core.leaves.BlockLeaves`) mapping
  character positions to variable-length blocks: leaves of
  :data:`LEAF_BLOCKS` to ``2 * LEAF_BLOCKS - 1`` consecutive blocks held
  as columns, under an outer index
  (:class:`repro.datastructures.IndexedSkipList` by default) with one
  node per leaf — with one block per leaf it is the paper's per-block
  skip list (SV-C), kept as :func:`per_block` — and
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
RPC, reusing the boundary nonces so neighbours stay chained), the run
is read with one ``get_range`` and replaced with one ``splice`` that
rewrites the one or two leaves holding it — ``O(log(n/B) + B +
cluster)`` total, never a per-rank get/delete/insert loop — and the
cdelta patches exactly those records.  Bookkeeping records are patched
as needed — for RPC the checksum record is rewritten once per update
(its running XOR aggregates make that O(1)), which is the paper's
"slightly more, but constant, extra resources".

The mirror keeps its wire in the same :class:`repro.core.leaves.LeafText`
the gdocs store keeps it in and applies each cdelta to it, so an update
rewrites the wire leaves the cdelta touches instead of re-encoding
every record in Base32.  The extension verifies every Ack against
:meth:`EncryptedDocument.wire_hash`, that text's digest, which resumes
from the SHA-1 midstate before the first changed leaf, so it hashes the
suffix after the edit, not the whole wire.
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
from repro.core.leaves import NO_BLOCKS, BlockLeaves, LeafText, Run
from repro.core.nonces import RPC_NONCE_BYTES
from repro.core.recb import RecbCodec, RecbState
from repro.core.rpc import RpcCodec, RpcState
from repro.core.scheme import register_scheme, scheme_factory
from repro.crypto.random import RandomSource, SystemRandomSource
from repro.datastructures import BlockIndex, IndexedSkipList
from repro.encoding.wire import (
    RECORD_CHARS,
    DocumentHeader,
    Record,
    decode_area,
    encode_area,
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
    "LEAF_BLOCKS",
    "EncryptedDocument",
    "RecbDocument",
    "RpcDocument",
    "create_document",
    "load_document",
    "per_block",
]

#: B, the mirror's leaf size: a leaf holds B to 2B - 1 consecutive
#: blocks (a lone leaf may hold fewer).  B = 1 is the paper's per-block
#: index (SV-C); :func:`per_block` keeps it for the ablations and as the
#: fuzz reference
LEAF_BLOCKS = 32


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
    #: blocks per mirror leaf; :func:`per_block` makes the B = 1 twin
    _leaf_blocks: int = LEAF_BLOCKS

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
        self._leaves = self._new_leaves()
        self._state: object = None
        #: the bookkeeping records before and after the data records,
        #: as ``(char_count, block)`` pairs
        self._prefix: list[tuple[int, bytes]] = []
        self._suffix: list[tuple[int, bytes]] = []
        #: the stored wire text, built on first use and then kept in
        #: step by applying each update's cdelta to it
        self._wire: LeafText | None = None

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
        doc._wire = LeafText(wire_text)
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

    def _new_leaves(self) -> BlockLeaves:
        return BlockLeaves(self._index_factory, self._leaf_blocks)

    def _build_fresh(self, text: str, version: int = 0) -> None:
        """(Re)initialize all ciphertext state from plaintext.

        Enc is IncE applied to the empty document: every chunk is
        staged as one span with ``_prepare_span`` (for RPC, the chain
        splice between ``r0`` and ``r0``), the prefix, data and suffix
        images are encrypted in one ``encrypt_blob`` call, and the
        leaves are cut straight from the chunk and cipher columns.
        """
        self._state = self._codec.fresh_state()
        if hasattr(self._state, "version"):
            self._state.version = version
        self._leaves = self._new_leaves()
        chunks = blocks.chunk_text(text, self._block_chars)
        plain, leads, payloads = self._prepare_span(NO_BLOCKS, chunks, 0)
        prefix_plain = self._codec.prefix_plain(
            self._state, leads[:RPC_NONCE_BYTES] if leads else None
        )
        blob = self._codec.encrypt_blob(
            prefix_plain + plain + self._codec.suffix_plain(self._state)
        )
        data_start = len(prefix_plain)
        data_end = data_start + len(plain)
        self._prefix = [(0, blob[i : i + 16]) for i in range(0, data_start, 16)]
        self._suffix = [(0, blob[i : i + 16])
                        for i in range(data_end, len(blob), 16)]
        self._leaves.extend(chunks, blob[data_start:data_end], leads, payloads)
        self._wire = None

    def _rebuild(self, text: str) -> None:
        """Enc of ``text``, continuing this document's RPC version."""
        self._build_fresh(
            text, version=getattr(self._state, "version", -1) + 1
        )

    # -- subclass hooks --------------------------------------------------

    @abstractmethod
    def _load_records(self, counts: bytes, ciphertext: bytes) -> None:
        """Verify and decrypt the stored record columns (header bytes,
        AES blocks back to back), populating leaves and state straight
        from the columns."""

    @abstractmethod
    def _prepare_span(
        self, old: Run, chunks: list[str], after: int
    ) -> tuple[bytes, bytes | None, bytes | None]:
        """Stage the replacement of the contiguous block run ``old``,
        which ends before block ``after``.

        Draws nonces, updates scheme state, and returns ``(plain,
        leads, payloads)``: the span's concatenated pre-cipher block
        images and, for RPC, the new blocks' lead and payload columns
        (None for rECB).  The caller splices the chunks in, runs the
        cipher (batched across every span of the update) and writes the
        blocks back.  An empty ``old`` stages a fresh document's whole
        text (``_build_fresh``).
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
        return self._leaves.total_chars

    @property
    def block_count(self) -> int:
        """Number of data blocks."""
        return len(self._leaves)

    @property
    def text(self) -> str:
        """Dec: the current plaintext."""
        return "".join(self._leaves.texts())

    def _kept_wire(self) -> LeafText:
        """The kept wire text, encoded from the records on first use
        only; every later update applies its cdelta to it, so a delta
        save encodes just its new records instead of the whole
        document."""
        if self._wire is None:
            self._wire = LeafText(
                self._header.encode() + encode_area(*self._columns()))
        return self._wire

    def wire(self) -> str:
        """The full stored form: header + bookkeeping + data records."""
        return self._kept_wire().join()

    def wire_hash(self) -> str:
        """The SHA-1 hex digest of :meth:`wire` — the gdocs Ack's
        ``contentFromServerHash`` of the stored text — hashing the wire
        from the first leaf an update changed since the last digest;
        the leaves before it reuse their SHA-1 midstates."""
        return self._kept_wire().hexdigest()

    def wire_length(self) -> int:
        """Length of :meth:`wire` without materializing it."""
        n_records = (
            len(self._prefix) + len(self._leaves) + len(self._suffix)
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
        for chunk in self._leaves.texts():
            hist[len(chunk)] = hist.get(len(chunk), 0) + 1
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

    def _columns(self) -> tuple[bytes, bytes]:
        """Every stored record in wire order — prefix, data, suffix —
        as the two record columns (header counts, AES blocks)."""
        counts, data = self._leaves.columns()
        outer = (self._prefix, self._suffix)
        head, tail = (bytes(count for count, _ in part) for part in outer)
        first, last = (b"".join(block for _, block in part) for part in outer)
        return head + counts + tail, first + data + last

    def _data_area_start(self) -> int:
        return self._header.wire_length + len(self._prefix) * RECORD_CHARS

    def _rewrite(self, new_text: str) -> Delta:
        """Full-rewrite fallback (empty-document transitions)."""
        _FULL_REWRITES.inc()
        old_area = self.wire_length() - self._header.wire_length
        self._rebuild(new_text)
        return Delta([Retain(self._header.wire_length), Delete(old_area),
                      Insert(encode_area(*self._columns()))])

    def _apply_clusters(self, edits: list[SourceEdit]) -> Delta:
        """Re-encrypt every edited cluster with ONE deferred cipher call.

        Two phases.  Phase 1 walks the clusters exactly as before —
        locate the span, rewrite its text, draw nonces, update scheme
        state, splice the leaves — but only *stages* each span's
        pre-cipher block images (``_prepare_span``).  Phase 2 encrypts
        the concatenation of every staged image (plus the checksum
        image, for schemes that keep one) in a single ``encrypt_many``,
        so a coalesced multi-span burst crosses the batched-AES
        threshold that per-span calls never reached, then writes the
        blocks into the already-spliced leaves and builds the cdelta.
        ECB independence plus the buffered DRBG's draw-order-only
        dependence make the output bytes identical to the per-span path
        (``_coalesce_ciphers = False``, kept as the reference for the
        fuzz differential).
        """
        gap = max(16, 2 * self._block_chars)
        clusters = _cluster_edits(edits, gap)
        _CLUSTERS.inc(len(clusters))
        _CLUSTERS_PER_DELTA.observe(len(clusters))

        base = self._data_area_start()
        old_data_count = len(self._leaves)
        rank_shift = 0  # current rank - old rank, left of the frontier
        char_shift = 0  # current char pos - old char pos, ditto

        #: per cluster: (current first rank, old-rank span, new chunks)
        staged: list[tuple[int, int, int, list[str]]] = []
        plain_parts: list[bytes] = []

        for cluster in clusters:
            ra, rb, span_start, old = self._locate_span(cluster, char_shift)
            span_text = "".join(old.texts)
            new_text = _apply_edits_local(span_text, cluster.edits, span_start)
            chunks = blocks.chunk_text(new_text, self._block_chars)

            if not chunks and self._require_nonempty_span:
                ra, rb, old, new_text = self._absorb_neighbor(ra, rb)
                span_text = "".join(old.texts)
                chunks = blocks.chunk_text(new_text, self._block_chars)

            plain, leads, payloads = self._prepare_span(old, chunks, rb)
            _BLOCKS_REENCRYPTED.inc(len(chunks))
            _BLOCKS_REPACKED.inc(rb - ra)

            self._leaves.splice(ra, rb, chunks, leads, payloads)

            plain_parts.append(plain)
            staged.append((ra, ra - rank_shift, rb - rank_shift, chunks))
            rank_shift += len(chunks) - (rb - ra)
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
        for ra, ra_old, rb_old, chunks in staged:
            data = blob[off : off + 16 * len(chunks)]
            off += len(data)
            self._leaves.write(ra, data)
            pos_old = base + ra_old * RECORD_CHARS
            if pos_old > cursor:
                ops.append(Retain(pos_old - cursor))
            if rb_old > ra_old:
                ops.append(Delete((rb_old - ra_old) * RECORD_CHARS))
            if chunks:
                ops.append(Insert(encode_area(bytes(map(len, chunks)), data)))
            cursor = base + rb_old * RECORD_CHARS

        if self._suffix:
            checksum = blob[off : off + 16]
            off += 16
            pos_old = base + old_data_count * RECORD_CHARS
            if pos_old > cursor:
                ops.append(Retain(pos_old - cursor))
            ops.append(Delete(len(self._suffix) * RECORD_CHARS))
            ops.append(Insert(encode_area(b"\0", checksum)))
            self._suffix = [(0, checksum)]

        cdelta = Delta(ops)
        if self._wire is not None:
            self._wire.apply_delta(cdelta)
        return cdelta

    def _locate_span(
        self, cluster: _Cluster, char_shift: int
    ) -> tuple[int, int, int, Run]:
        """Map a cluster's char span to the current block-rank range
        ``[ra, rb)``, returning it with its first character in original
        coordinates and the run itself, read with one ``get_range``
        instead of a per-rank ``get`` loop."""
        size = len(self._leaves)
        if size == 0:
            return 0, 0, 0, NO_BLOCKS
        pos = cluster.lo + char_shift
        if pos < self._leaves.total_chars:
            ra, offset = self._leaves.find_char(pos)
            start = pos - offset
        else:  # a pure insertion at the end
            ra = size - 1
            start = self._leaves.char_start(ra)
        if cluster.lo == cluster.hi:  # pure insertion
            rb = ra + 1
        else:
            rb = self._leaves.find_char(cluster.hi - 1 + char_shift)[0] + 1
        return ra, rb, start - char_shift, self._leaves.get_range(ra, rb)

    def _absorb_neighbor(self, ra: int, rb: int) -> tuple[int, int, Run, str]:
        """Extend an emptied span over one untouched neighbour so a chain
        splice always carries at least one block; returns the wider
        span, its run and the neighbour's text."""
        if rb < len(self._leaves):
            rb, neighbor = rb + 1, -1
        elif ra > 0:
            ra, neighbor = ra - 1, 0
        else:
            raise AssertionError(
                "document would become empty; handled by the rewrite path"
            )
        old = self._leaves.get_range(ra, rb)
        return ra, rb, old, old.texts[neighbor]


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
        self._leaves.extend(texts, ciphertext[16:])

    def _prepare_span(
        self, old: Run, chunks: list[str], after: int
    ) -> tuple[bytes, None, None]:
        return self._codec.prepare_chunks(self._state, chunks), None, None

    def _decrypt_run(self, run: Run) -> list[str]:
        """Decrypt each block of ``run`` as its own record."""
        return [
            self._codec.decrypt_record(
                self._state,
                Record(len(chunk), run.blocks[16 * i : 16 * i + 16]),
            )
            for i, chunk in enumerate(run.texts)
        ]

    def decrypt_char(self, index: int) -> str:
        """Random access: decrypt the single block holding character
        ``index`` (the 2-record access pattern described in SV-B)."""
        rank, offset = self._leaves.find_char(index)
        return self._decrypt_run(self._leaves.get(rank))[0][offset]

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
        first, offset = self._leaves.find_char(start)
        last, _ = self._leaves.find_char(end - 1)
        text = "".join(
            self._decrypt_run(self._leaves.get_range(first, last + 1))
        )
        return text[offset : offset + (end - start)]


class RpcDocument(EncryptedDocument):
    """Confidentiality-and-integrity document: RPC mode (SV-B)."""

    _codec_class = RpcCodec
    _require_nonempty_span = True
    _full_rewrite_on_empty = True

    _codec: RpcCodec
    _state: RpcState

    def _load_records(self, counts: bytes, ciphertext: bytes) -> None:
        state, chunks, leads, payloads = self._codec.load(counts, ciphertext)
        self._state = state
        self._prefix = [(counts[0], ciphertext[:16])]
        self._suffix = [(counts[-1], ciphertext[-16:])]
        self._leaves.extend(chunks, ciphertext[16:-16], leads, payloads)

    def _prepare_span(
        self, old: Run, chunks: list[str], after: int
    ) -> tuple[bytes, bytes, bytes]:
        n, p = RPC_NONCE_BYTES, blocks.PAYLOAD_BYTES
        if old.texts:
            lead_first = old.leads[:n]
        elif chunks:  # Enc: the first lead is fresh, the chain closes at r0
            lead_first = self._rng.token(len(self._state.r0))
        else:
            return b"", b"", b""
        assert chunks, "RPC span replacement always produces >= 1 block"
        tail_last = (self._leaves.get(after).leads
                     if after < len(self._leaves) else self._state.r0)
        for k, chunk in enumerate(old.texts):
            self._state.remove_block(old.leads[n * k : n * k + n],
                                     old.payloads[p * k : p * k + p],
                                     len(chunk))
        plain, leads, payloads = self._codec.prepare_span(
            chunks, lead_first, tail_last
        )
        for chunk, lead, payload in zip(chunks, leads, payloads):
            self._state.add_block(lead, payload, len(chunk))
        return plain, b"".join(leads), b"".join(payloads)

    @property
    def version(self) -> int:
        """Monotonic update counter bound into the checksum record."""
        return self._state.version

    def verify(self) -> None:
        """Re-verify the mirror's own wire form end to end.

        Mostly a testing/diagnostic aid: tampering normally surfaces on
        :meth:`load` of the *server's* copy.
        """
        self._codec.load(*self._columns())


_PER_BLOCK: dict[type, type] = {}


def per_block(cls: type[EncryptedDocument]) -> type[EncryptedDocument]:
    """``cls`` with one block per leaf (B = 1): the paper's per-block
    index (SV-C), the reference the fuzz compares the leaves with and
    the structure the index ablations time.  Same wire, same draws."""
    if cls not in _PER_BLOCK:
        _PER_BLOCK[cls] = type(f"PerBlock{cls.__name__}", (cls,),
                               {"_leaf_blocks": 1})
    return _PER_BLOCK[cls]


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
