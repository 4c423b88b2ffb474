"""The extension's one mediator (SIV, Fig. 1 and Fig. 2; SIII).

``GDocsExtension`` is the :class:`repro.net.channel.Mediator` that the
paper's pseudocode sketches.  On an incremental protocol (Google
Documents, the default ``backend``):

* a ``docContents`` full save → encrypt the contents field (by IncE on
  the mirror decrypted at open, when that mirror is trusted);
* a ``delta`` incremental save → translate through ``transform_delta``;
* a bare session-open POST and the document GET → allowed;
* **everything else is dropped** — including every server-side feature
  request (spell check, translate, export, drawing), which is precisely
  how those features "become unavailable" in SVII-A;

and on the return path:

* decrypt document content delivered by opens/fetches (so the oblivious
  client sees plaintext);
* neutralize ``contentFromServer`` / ``contentFromServerHash`` in every
  Ack — the paper found single-user editing works flawlessly with the
  empty string and ``0`` substituted, and multi-user editing degrades
  to conflict complaints (reproduced in the integration tests).

A backend without ``capabilities.incremental_updates`` (Bespin,
Buzzword: every save re-sends the whole document) takes one short
branch each way instead: the backend's ``classify`` says what a request
is, reads and DELETEs pass, every other non-save is dropped (Buzzword's
word count included), and each content chunk ``map_content`` finds — the
whole PUT body for Bespin, each ``<textRun>`` body for Buzzword, whose
XML structure stays visible — is encrypted afresh on the way out and
decrypted on the way back.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.auditchain import AuditEntry
from repro.core.delta import Delta
from repro.core.transform import EncryptionEngine
from repro.encoding.wire import RECORD_CHARS, looks_encrypted, split_header
from repro.errors import (
    CiphertextFormatError,
    DecryptionError,
    DeltaError,
    IntegrityError,
    PasswordError,
    ProtocolError,
)
from repro.extension.countermeasures import Countermeasures
from repro.extension.freshness import FreshnessMonitor, RollbackError
from repro.extension.passwords import PasswordVault
from repro.net.http import HttpRequest, HttpResponse
from repro.net.latency import SimClock
from repro.obs import counter
from repro.services.backend import GDOCS, KIND_OPEN, KIND_OTHER, \
    KIND_READ, KIND_SAVE_FULL, ServiceBackend
from repro.services.catalog import A_AUDIT_LINK, F_AUDIT, F_INDEX, \
    encode_records
from repro.services.gdocs import protocol

__all__ = ["GDocsExtension"]

#: save rewrites served from the idempotency cache — each one is a
#: retry/replay whose re-transformation would have double-advanced the
#: ciphertext mirror
_IDEM_REPLAYS = counter("extension.idem_replays")
#: Acks whose contentFromServerHash disagreed with the mirror (stored
#: ciphertext corrupted in flight or tampered at rest)
_ACK_MISMATCHES = counter("extension.ack_hash_mismatches")
#: merged Acks whose mergePatch was applied to the mirror — the stale
#: client fast-forwarded to the merged document without a resync
_MERGE_FOLLOWS = counter("extension.merge_follows")
#: merged Acks the extension could not follow (stego framing, missing
#: patch, misaligned patch, hash mismatch, undecryptable result) and
#: downgraded to the paper's conflict behaviour
_MERGE_DOWNGRADES = counter("extension.merge_downgrades")
#: full saves answered by splicing the mirror (IncE on the edit only)
_FULL_SPLICED = counter("extension.full_saves_spliced")
#: full saves encrypted afresh (no mirror, or a tainted one)
_FULL_FRESH = counter("extension.full_saves_fresh")

#: rewritten save requests remembered per extension (ring-capped)
IDEM_REWRITE_CACHE_SIZE = 64


class GDocsExtension:
    """Request mediator providing private editing on any service."""

    def __init__(
        self,
        vault: PasswordVault,
        scheme: str = "recb",
        block_chars: int = 8,
        rng=None,
        countermeasures: Countermeasures | None = None,
        clock: SimClock | None = None,
        decrypt_acks: bool = False,
        stego: bool = False,
        freshness: FreshnessMonitor | None = None,
        verify_acks: bool = False,
        indexer=None,
        backend: ServiceBackend = GDOCS,
    ):
        caps = backend.capabilities
        for option, value, flag in (
                ("countermeasures", countermeasures, "incremental_updates"),
                ("decrypt_acks", decrypt_acks, "incremental_updates"),
                ("stego", stego, "incremental_updates"),
                ("freshness", freshness, "incremental_updates"),
                ("indexer", indexer, "catalog_acks")):
            # an option the protocol cannot express raises rather than
            # being silently ignored
            if value not in (None, False) and not getattr(caps, flag):
                raise ValueError(f"{option} needs a service with {flag}; "
                                 f"{backend.name!r} has none")
        self._backend = backend
        #: the save re-sends the whole document: no mirror, no delta,
        #: no Ack to neutralize (Bespin, Buzzword)
        self._whole_file = not caps.incremental_updates
        self._vault = vault
        self._scheme = scheme
        self._block_chars = block_chars
        self._rng = rng
        self._counter = countermeasures or Countermeasures.none()
        self._clock = clock
        #: beyond-the-paper option: decrypt Ack content instead of
        #: blanking it, which repairs conflict resync (ablation in
        #: tests/integration/test_collaboration.py)
        self._decrypt_acks = decrypt_acks
        #: SVI-A extension: disguise ciphertext as pseudo-prose so a
        #: censoring provider cannot recognize (and refuse) it
        self._stego = stego
        #: beyond-the-paper rollback detector: the per-document record
        #: of RPC versions and audit anchors this client has witnessed
        self._freshness = freshness
        #: check every Ack's contentFromServerHash against the mirror's
        #: expected stored bytes, flagging a conflict on divergence so
        #: the client resyncs.  Costs one hash of the mirror wire from
        #: the first leaf the save changed — off by default, enabled by
        #: fault-tolerant sessions (whole-file acks carry no hash)
        self._verify_acks = verify_acks
        #: workspace seam (PR 10): a
        #: repro.extension.catalog.WorkspaceIndexer fed the plaintext of
        #: every save the extension transforms; its encrypted index
        #: delta records ride the rewritten request's ``idx`` field,
        #: and the save opts into the server's hash-chained audit trail
        #: (``aud=1``), whose acknowledged links the freshness monitor
        #: witnesses
        self._indexer = indexer
        self._engines: dict[str, EncryptionEngine] = {}
        #: (doc_id, idempotency key) -> the rewritten request already
        #: produced for that save; a client retry must re-send the SAME
        #: ciphertext, not re-transform (which would double-advance the
        #: mirror)
        self._idem_rewrites: OrderedDict[tuple[str, str], HttpRequest] = \
            OrderedDict()
        self.warnings: list[str] = []

    # -- engine management ----------------------------------------------

    def engine(self, doc_id: str) -> EncryptionEngine:
        """The per-document encryption state (created on first use); a
        whole-file document's chunks all share its key."""
        if doc_id not in self._engines:
            self._engines[doc_id] = EncryptionEngine(
                password=self._vault.get(doc_id),
                scheme=self._scheme,
                block_chars=self._block_chars,
                rng=self._rng,
            )
        return self._engines[doc_id]

    # -- Mediator: outgoing ------------------------------------------------

    def on_request(self, request: HttpRequest) -> HttpRequest | None:
        """Fig. 2: encrypt docContents, transform delta, pass opens and
        fetches, drop the rest — by ``GDocsBackend.classify``'s
        grammar, read off the one parse of the client's body.  A
        whole-file backend takes its own short branch."""
        if self._whole_file:
            return self._rewrite_whole_file(request)
        form = request.form if request.method == "POST" and request.body \
            else {}
        kind = GDOCS.classify_form(request, form)
        if kind == KIND_OTHER:
            return None  # not part of the understood protocol: drop
        if kind in (KIND_OPEN, KIND_READ):
            return request  # no content; a fetch brings ciphertext back
        doc_id = GDOCS.doc_id_of(request)
        idem = form.get(protocol.F_IDEM)
        if idem is not None:
            cached = self._idem_rewrites.get((doc_id, idem))
            if cached is not None:
                # A retry of a save we already transformed: re-send the
                # identical ciphertext.  Re-transforming would advance
                # the mirror a second time for one edit.
                _IDEM_REPLAYS.inc()
                return cached
        if kind == KIND_SAVE_FULL:
            rewritten = self._rewrite_full_save(doc_id, request, form)
        else:
            rewritten = self._rewrite_delta_save(doc_id, request, form)
        if idem is not None:
            self._idem_rewrites[(doc_id, idem)] = rewritten
            while len(self._idem_rewrites) > IDEM_REWRITE_CACHE_SIZE:
                self._idem_rewrites.popitem(last=False)
        return rewritten

    def _rewrite_whole_file(self, request: HttpRequest) -> HttpRequest | None:
        """Encrypt each content chunk of a whole-file save afresh (never
        spliced: docs/security.md), pass reads and DELETEs, drop the
        rest."""
        kind = self._backend.classify(request)
        if kind == KIND_READ or (kind == KIND_SAVE_FULL
                                 and request.method == "DELETE"):
            return request  # a DELETE carries no content to protect
        if kind != KIND_SAVE_FULL:
            return None
        engine = self.engine(self._backend.doc_id_of(request))
        body = self._backend.map_content(request.body, engine.encrypt)
        return request.with_body(body)

    def _rewrite_full_save(
        self, doc_id: str, request: HttpRequest, form: dict[str, str]
    ) -> HttpRequest:
        engine = self.engine(doc_id)
        plaintext = form[protocol.F_DOC_CONTENTS]
        # IncE on the mirror decrypted at open: an unchanged text
        # re-sends its ciphertext byte-identically (the server can
        # dedup it), an edited one re-encrypts only the touched blocks
        ciphertext, delta = engine.save_full(plaintext)
        (_FULL_FRESH if delta is None else _FULL_SPLICED).inc()
        if self._stego:
            from repro.encoding.stego import stego_wrap
            ciphertext = stego_wrap(ciphertext)
        fields = {**form, protocol.F_DOC_CONTENTS: ciphertext}
        if self._indexer is not None:
            if delta is None:
                records = self._indexer.set_text(doc_id, plaintext)
            else:
                # diffed from the index's own shadow: the mirror's delta
                # while the two are in step, and still right after a
                # resync fetch moved the mirror but not the shadow
                records = self._indexer.apply(doc_id, Delta.between(
                    self._indexer.text(doc_id), plaintext))
            self._attach_catalog_fields(fields, records)
        return self._finish_update(request, fields)

    def _rewrite_delta_save(
        self, doc_id: str, request: HttpRequest, form: dict[str, str]
    ) -> HttpRequest:
        engine = self.engine(doc_id)
        delta = Delta.parse(form[protocol.F_DELTA])
        delta = self._counter.shape_delta(delta)
        cdelta = engine.mirror.apply_delta(delta) if engine.mirror else None
        if cdelta is None:
            # No mirror: the session never full-saved through us.
            raise PasswordError(
                f"no ciphertext mirror for {doc_id!r}; cannot transform "
                "delta"
            )
        if self._stego:
            from repro.encoding.stego import stego_rewrite_cdelta
            cdelta = stego_rewrite_cdelta(
                cdelta, engine.mirror._header.wire_length
            )
        fields = {**form, protocol.F_DELTA: cdelta.serialize()}
        if self._indexer is not None:
            self._attach_catalog_fields(
                fields, self._indexer.apply(doc_id, delta))
        return self._finish_update(request, fields)

    def _attach_catalog_fields(self, fields: dict[str, str],
                               records) -> None:
        """Ride the workspace's catalog maintenance on this save: the
        encrypted index delta records and the audit-trail opt-in.  Only
        indexer-equipped sessions ever reach here, so the legacy
        single-document wire stays byte-identical."""
        if records:
            fields[F_INDEX] = encode_records(records)
        fields[F_AUDIT] = "1"

    def _finish_update(
        self, request: HttpRequest, fields: dict[str, str]
    ) -> HttpRequest:
        fields = self._counter.pad_fields(fields)
        delay = self._counter.delay()
        if delay and self._clock is not None:
            self._clock.advance(delay)
        return request.with_form(fields)

    # -- Mediator: incoming -------------------------------------------------

    def on_response(
        self, request: HttpRequest, response: HttpResponse
    ) -> HttpResponse:
        """Decrypt content on the return path; neutralize Ack fields."""
        if not response.ok:
            return response
        doc_id = self._backend.doc_id_of(request)
        if self._whole_file:
            return self._decrypt_whole_file(doc_id, request, response)
        if request.method == "GET":
            return self._decrypt_fetch(doc_id, response)
        try:
            fields = response.form
        except ProtocolError:
            # The body was mangled in flight and no longer parses as a
            # form.  Pass it through untouched: the client's own Ack
            # parse fails next and takes its malformed-ack recovery
            # path, which is the correct owner of that decision.
            return response
        if protocol.A_CONTENT_HASH in fields:
            return self._neutralize_ack(doc_id, response, fields)
        if protocol.F_SID in fields:
            return self._decrypt_open(doc_id, response, fields)
        return response

    def _decrypt_whole_file(
        self, doc_id: str, request: HttpRequest, response: HttpResponse
    ) -> HttpResponse:
        """Decrypt each content chunk a whole-file read returns."""
        if self._backend.classify(request) != KIND_READ:
            return response

        def decrypt(content: str) -> str:
            if not looks_encrypted(content):
                return content  # listings, never-encrypted files
            plain = self._try_decrypt(doc_id, content)
            return content if plain is None else plain

        return response.with_body(
            self._backend.map_content(response.body, decrypt))

    def _decrypt_fetch(
        self, doc_id: str, response: HttpResponse
    ) -> HttpResponse:
        body = self._unwrap_if_stego(response.body)
        if body is not response.body:
            response = response.with_body(body)
        if not looks_encrypted(response.body):
            return response
        plain = self._try_decrypt(doc_id, response.body)
        if plain is None:
            return response  # appears as ciphertext (wrong password)
        return response.with_body(plain)

    def _decrypt_open(
        self, doc_id: str, response: HttpResponse, fields: dict[str, str]
    ) -> HttpResponse:
        content = self._unwrap_if_stego(fields.get(protocol.A_CONTENT, ""))
        fields = {**fields, protocol.A_CONTENT: content}
        if not looks_encrypted(content):
            return response
        plain = self._try_decrypt(doc_id, content)
        if plain is None:
            return response
        return response.with_form({**fields, protocol.A_CONTENT: plain})

    def _neutralize_ack(
        self, doc_id: str, response: HttpResponse, fields: dict[str, str]
    ) -> HttpResponse:
        divergent = self._verify_acks and self._ack_diverges(doc_id, fields)
        if self._freshness is not None and not divergent \
                and fields.get(protocol.A_STATUS) == "ok" \
                and fields.get(protocol.A_CONFLICT) != "1":
            self._witness_ack(doc_id, fields)
        content = self._unwrap_if_stego(fields.get(protocol.A_CONTENT, ""))
        if self._decrypt_acks and looks_encrypted(content):
            plain = self._try_decrypt(doc_id, content)
            if plain is not None:
                return response.with_form({
                    **fields,
                    protocol.A_CONTENT: plain,
                    protocol.A_CONTENT_HASH: protocol.content_hash(plain),
                })
        if fields.get(protocol.A_MERGED) == "1":
            followed = self._follow_merge(doc_id, fields)
            if followed is not None:
                return response.with_form(followed)
        neutral = {
            **fields,
            protocol.A_CONTENT: protocol.NEUTRAL_CONTENT,
            protocol.A_CONTENT_HASH: protocol.NEUTRAL_HASH,
        }
        if fields.get(protocol.A_MERGED) == "1":
            # A merging server rebased our delta past concurrent edits
            # but the patch could not be followed (no mirror, stego
            # framing, misaligned or undecryptable result).  Letting
            # the client continue on a stale mirror would corrupt the
            # stored ciphertext — downgrade to the paper's conflict
            # behaviour (complain + full-save recovery).
            _MERGE_DOWNGRADES.inc()
            self._taint(doc_id)
            neutral[protocol.A_MERGED] = "0"
            neutral[protocol.A_CONFLICT] = "1"
            neutral[protocol.A_MERGE_PATCH] = ""
        if divergent:
            # The server's stored bytes are not what we believe we
            # stored (corrupted in flight, tampered at rest).  Turn the
            # silent divergence into a conflict so the client resyncs.
            self._taint(doc_id)
            neutral[protocol.A_CONFLICT] = "1"
        return response.with_form(neutral)

    def _witness_ack(self, doc_id: str, fields: dict[str, str]) -> None:
        """A clean Ack: the server now holds the mirror's version, and
        its audit link extends the anchor (or, past a revision gap, is
        left to the workspace's chain fetch)."""
        monitor = self._freshness
        version = self._mirror_version(doc_id)
        if version is not None:
            monitor.observe(doc_id, version)
        link, rev = fields.get(A_AUDIT_LINK), fields.get(protocol.A_REV, "")
        if not link or not rev.isdecimal():
            return
        ack = AuditEntry(int(rev), fields.get(protocol.A_CONTENT_HASH, ""),
                         link)
        anchor = monitor.anchor(doc_id)
        if anchor is None:
            monitor.adopt(doc_id, ack)
        elif ack.rev <= anchor.rev + 1:
            monitor.witness(doc_id, [anchor, ack])

    def _follow_merge(
        self, doc_id: str, fields: dict[str, str]
    ) -> dict[str, str] | None:
        """Fast-forward the mirror over a merged Ack's ``mergePatch``.

        The merging server rebased our cdelta past concurrent edits and
        sent back the mirror-image patch — a cdelta from *our* post-save
        wire to the merged wire.  Apply it to the mirror, verify the
        result against the Ack's content hash, and decrypt it so the
        oblivious client resyncs its editor to the merged plaintext: the
        whole merge costs zero extra round-trips and the server still
        only ever sees ciphertext.

        Returns the rewritten Ack fields, or None when following is
        unsafe — stego framing (the patch is in stego-wire coordinates),
        no mirror yet, a patch off the record grid, a hash mismatch
        (our mirror disagrees with what the server stored), or a patched
        wire that fails decryption — and the caller downgrades the Ack
        to the conflict path.
        """
        if self._stego:
            return None
        engine = self._engines.get(doc_id)
        mirror = engine.mirror if engine is not None else None
        if mirror is None:
            return None
        reported = fields.get(protocol.A_CONTENT_HASH, "")
        if not reported or reported == protocol.NEUTRAL_HASH:
            return None
        wire = mirror.wire()
        if mirror.wire_hash() == reported:
            # A replayed/duplicated merge Ack — the patch is already in
            # (patch application is not idempotent, so never re-apply).
            patched = wire
        else:
            patched = self._apply_merge_patch(wire, fields)
            if patched is None:
                return None
            if protocol.content_hash(patched) != reported:
                self.warnings.append(
                    f"{doc_id}: merge patch result disagrees with the "
                    "server's content hash (mirror stale?)"
                )
                return None
        plain = self._try_decrypt(doc_id, patched)
        if plain is None:
            return None
        _MERGE_FOLLOWS.inc()
        return {
            **fields,
            protocol.A_CONTENT: plain,
            protocol.A_CONTENT_HASH: protocol.content_hash(plain),
            protocol.A_MERGE_PATCH: "",
        }

    def _apply_merge_patch(
        self, wire: str, fields: dict[str, str]
    ) -> str | None:
        """Parse, grid-check, and apply the Ack's patch to ``wire``."""
        from repro.services import ot

        patch_text = fields.get(protocol.A_MERGE_PATCH, "")
        if not patch_text:
            return None
        try:
            patch = Delta.parse(patch_text)
        except DeltaError:
            return None
        if self._scheme == "recb":
            # Honest rECB cdeltas only splice whole records, and OT
            # preserves that — a patch off the record grid cannot be a
            # merge of honest cdeltas, so refuse before it touches the
            # mirror (rpc deltas also edit the header's version counter,
            # so their alignment is checked by decryption instead).
            try:
                header, _ = split_header(wire)
            except CiphertextFormatError:
                return None
            if not ot.grid_aligned(patch, header.wire_length,
                                   RECORD_CHARS):
                return None
        try:
            return patch.apply(wire)
        except DeltaError:
            return None

    def _ack_diverges(self, doc_id: str, fields: dict[str, str]) -> bool:
        """Does the Ack's content hash disagree with the mirror?

        Only meaningful when the server reports neither conflict nor
        merge (those already signal divergence) and we hold a mirror to
        compare against.
        """
        if fields.get(protocol.A_CONFLICT) == "1":
            return False
        if fields.get(protocol.A_MERGED) == "1":
            return False
        reported = fields.get(protocol.A_CONTENT_HASH, "")
        if not reported or reported == protocol.NEUTRAL_HASH:
            return False
        engine = self._engines.get(doc_id)
        mirror = engine.mirror if engine is not None else None
        if mirror is None:
            return False
        if self._stego:
            from repro.encoding.stego import stego_wrap
            digest = protocol.content_hash(stego_wrap(mirror.wire()))
        else:
            digest = mirror.wire_hash()
        if digest == reported:
            return False
        _ACK_MISMATCHES.inc()
        self.warnings.append(
            f"{doc_id}: ack content hash diverges from mirror "
            "(stored ciphertext corrupted?)"
        )
        return True

    def _try_decrypt(self, doc_id: str, wire_text: str) -> str | None:
        engine = self.engine(doc_id)
        try:
            plain = engine.decrypt(wire_text)
        except (DecryptionError, IntegrityError, CiphertextFormatError,
                PasswordError) as exc:
            self.warnings.append(f"{doc_id}: {exc}")
            return None
        version = self._mirror_version(doc_id)
        if self._freshness is not None and version is not None:
            try:
                self._freshness.check(doc_id, version)
            except RollbackError as exc:
                self.warnings.append(f"{doc_id}: {exc}")
                engine.taint()
                return None
            self._freshness.observe(doc_id, version)
        return plain

    def _taint(self, doc_id: str) -> None:
        """The server's copy left the mirror's line (Ack divergence, a
        merge we could not follow): the next full save must encrypt
        afresh rather than show which records changed relative to a
        state the server may not hold (docs/security.md)."""
        engine = self._engines.get(doc_id)
        if engine is not None:
            engine.taint()

    def _mirror_version(self, doc_id: str) -> int | None:
        """The mirror's RPC version counter (None for rECB or no
        mirror)."""
        engine = self._engines.get(doc_id)
        return getattr(engine and engine.mirror, "version", None)

    def _unwrap_if_stego(self, content: str) -> str:
        from repro.encoding.stego import looks_stego, stego_unwrap
        if looks_stego(content):
            try:
                return stego_unwrap(content)
            except CiphertextFormatError as exc:
                self.warnings.append(f"stego unwrap failed: {exc}")
        return content
