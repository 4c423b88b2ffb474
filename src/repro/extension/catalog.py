"""The workspace indexer: encrypted search maintained as IncE runs.

The trusted half of the tenant catalog (the untrusted half is
:mod:`repro.services.catalog`).  A :class:`WorkspaceIndexer` owns the
tenant's search key material and keeps, per document, a plaintext
shadow plus a word-count map.  Every time the extension transforms a
save it hands the indexer the same plaintext delta it is about to
encrypt; the indexer touches only the *changed span* (expanded to word
boundaries — the IncE idea applied to indexing), updates its counts,
and emits encrypted index delta records for exactly the words whose
presence flipped:

* token — never leaves the client; the server sees only the trapdoor
  ``HMAC(k_search, word)``;
* posting — the doc id encrypted under a blob key derived from
  ``k_blob`` and the trapdoor, with a *deterministic* nonce
  ``HMAC(k_blob, trapdoor | doc_id)``: the same (word, doc) pair
  always produces the same blob, which is what lets the server dedup
  adds and honour removes over fully opaque bytes.

Determinism is a deliberate trade (and exactly the one the searchable-
encryption literature makes for updatable indexes): the server learns
that two updates touched the same (token, doc) pair, but never which
word or which plaintext.

Layering: this module lives in the trusted layer; it may import the
catalog's wire builders/codec but must never bind the server classes
(``tools/layering_check.py``).
"""

from __future__ import annotations

import hashlib
import hmac
import re
from collections import Counter

from repro.core.delta import Delete, Delta, Insert, Retain
from repro.obs import counter

__all__ = ["WorkspaceIndexer", "extract_words"]

#: index records emitted by workspace indexers (adds + removes)
_RECORDS_EMITTED = counter("extension.index_records")

_WORD_RE = re.compile(r"[a-z0-9]+")
_WORD_CHAR = re.compile(r"[a-zA-Z0-9]")

#: xor keystream block size (one HMAC-SHA256 output per block)
_BLOCK = 32


def extract_words(text: str) -> list[str]:
    """The tokenizer both the indexer and the search oracle use:
    lowercase alphanumeric runs (diacritics and CJK are out of scope
    for the reproduction — the paper's protocol carries ASCII-centric
    wire forms and the index inherits the simplification)."""
    return _WORD_RE.findall(text.lower())


class WorkspaceIndexer:
    """Tenant search keys + per-document word state + record emission."""

    def __init__(self, secret: str):
        raw = secret.encode("utf-8")
        self._k_search = hashlib.sha256(b"workspace-search|" + raw).digest()
        self._k_blob = hashlib.sha256(b"workspace-blob|" + raw).digest()
        self._trapdoors: dict[str, str] = {}
        # blobs are deterministic per (trapdoor, doc) — memoizing them
        # makes re-flipping a word (the typing workload's fragments)
        # cost a dict hit instead of three HMACs
        self._blobs: dict[tuple[str, str], str] = {}
        # decrypting a posting is a pure function of (key, trapdoor,
        # blob), so every blob that authenticated once is remembered
        # with its doc id: a repeated search costs a dict hit per
        # posting instead of two HMACs (docs/security.md, "Search memo")
        self._authenticated: dict[tuple[str, str], str] = {}
        self._texts: dict[str, str] = {}
        self._counts: dict[str, Counter] = {}

    # -- key-derived primitives -----------------------------------------

    def trapdoor(self, word: str) -> str:
        """The opaque search token for ``word`` (cached per word)."""
        word = word.lower()
        cached = self._trapdoors.get(word)
        if cached is None:
            cached = hmac.digest(self._k_search, word.encode("utf-8"),
                                 "sha256").hex()[:32]
            self._trapdoors[word] = cached
        return cached

    def _nonce(self, trapdoor: str, doc_id: str) -> bytes:
        material = f"{trapdoor}|{doc_id}".encode("utf-8")
        return hmac.digest(self._k_blob, material, "sha256")[:8]

    def _keystream(self, trapdoor: str, nonce: bytes, length: int) -> bytes:
        out = bytearray()
        block = 0
        while len(out) < length:
            out.extend(hmac.digest(
                self._k_blob,
                nonce + trapdoor.encode("ascii") + block.to_bytes(4, "big"),
                "sha256",
            ))
            block += 1
        return bytes(out[:length])

    def blob(self, trapdoor: str, doc_id: str) -> str:
        """The (deterministic) encrypted posting for (trapdoor, doc)."""
        cached = self._blobs.get((trapdoor, doc_id))
        if cached is not None:
            return cached
        nonce = self._nonce(trapdoor, doc_id)
        plain = doc_id.encode("utf-8")
        stream = self._keystream(trapdoor, nonce, len(plain))
        ct = bytes(a ^ b for a, b in zip(plain, stream))
        encoded = (nonce + ct).hex()
        self._blobs[(trapdoor, doc_id)] = encoded
        return encoded

    def decrypt_blob(self, trapdoor: str, blob: str) -> str | None:
        """The doc id inside ``blob``, or None when the blob does not
        authenticate (forged or corrupted postings decrypt to ids whose
        recomputed nonce cannot match).

        Remembers each canonically spelled blob that authenticates
        under ``trapdoor``; a blob that fails is never remembered, so
        it is checked (and dropped) again on every search.
        """
        key = (trapdoor, blob)
        doc_id = self._authenticated.get(key)
        if doc_id is not None:
            return doc_id
        try:
            raw = bytes.fromhex(blob)
        except ValueError:
            return None
        if len(raw) <= 8:
            return None
        nonce, ct = raw[:8], raw[8:]
        stream = self._keystream(trapdoor, nonce, len(ct))
        try:
            doc_id = bytes(a ^ b for a, b in zip(ct, stream)).decode("utf-8")
        except UnicodeDecodeError:
            return None
        if self._nonce(trapdoor, doc_id) != nonce:
            return None
        # only the spelling ``blob()`` emits: hex-case or whitespace
        # variants of a genuine posting authenticate too, and must not
        # grow the memo past one entry per genuine posting
        if raw.hex() == blob:
            self._authenticated[key] = doc_id
        return doc_id

    # -- per-document state ---------------------------------------------

    def adopt(self, doc_id: str, text: str) -> None:
        """Take ``text`` as the document's current state *without*
        emitting records (opening a document that is already indexed)."""
        self._texts[doc_id] = text
        self._counts[doc_id] = Counter(extract_words(text))

    def forget(self, doc_id: str) -> None:
        """Drop all local state for ``doc_id`` (document closed)."""
        self._texts.pop(doc_id, None)
        self._counts.pop(doc_id, None)

    def text(self, doc_id: str) -> str:
        """The indexer's plaintext shadow of ``doc_id``."""
        return self._texts.get(doc_id, "")

    def set_text(self, doc_id: str, text: str
                 ) -> list[tuple[str, str, str]]:
        """Full-save path: diff the whole document's word counts."""
        counts = self._counts.setdefault(doc_id, Counter())
        changes = Counter(extract_words(text))
        changes.subtract(counts)
        records = self._emit(doc_id, counts, changes)
        self._texts[doc_id] = text
        return records

    def apply(self, doc_id: str, delta: Delta
              ) -> list[tuple[str, str, str]]:
        """Delta-save path: re-tokenize only the changed spans.

        The caller (the extension's delta-save rewrite) hands over the
        exact plaintext delta it encrypts, so the shadow tracks the
        ciphertext mirror revision for revision.  A coalesced burst may
        touch several distant edit sites; each contiguous changed span
        is diffed independently (one first-to-last span would drag the
        whole retained region between two sites through the tokenizer).
        """
        old = self._texts.get(doc_id, "")
        spans = _changed_spans(delta)
        new = delta.apply(old)
        self._texts[doc_id] = new
        if not spans:
            return []
        # expand every span to word boundaries: the prefix before a
        # span and the suffix beyond it are retained (identical in old
        # and new), so one expansion serves both coordinate systems
        expanded = []
        for start_old, end_old, start_new, end_new in spans:
            while start_old > 0 and _WORD_CHAR.match(old[start_old - 1]):
                start_old -= 1
                start_new -= 1
            while end_old < len(old) and _WORD_CHAR.match(old[end_old]):
                end_old += 1
                end_new += 1
            expanded.append((start_old, end_old, start_new, end_new))
        # expansions can run into each other through a gap that is all
        # word chars; merge overlaps so no word is diffed twice (the
        # retained text between merged spans cancels in the diff)
        merged = [expanded[0]]
        for span in expanded[1:]:
            prev = merged[-1]
            if span[0] <= prev[1]:
                merged[-1] = (prev[0], max(prev[1], span[1]),
                              prev[2], max(prev[3], span[3]))
            else:
                merged.append(span)
        counts = self._counts.setdefault(doc_id, Counter())
        changes: Counter = Counter()
        for start_old, end_old, start_new, end_new in merged:
            changes.update(extract_words(new[start_new:end_new]))
            changes.subtract(extract_words(old[start_old:end_old]))
        return self._emit(doc_id, counts, changes)

    def _emit(self, doc_id: str, counts: Counter, changes: Counter
              ) -> list[tuple[str, str, str]]:
        """Fold ``changes`` into ``counts``; records for 0↔n flips."""
        records: list[tuple[str, str, str]] = []
        for word, change in changes.items():
            if change == 0:
                continue
            before = counts[word]
            after = before + change
            if after > 0:
                counts[word] = after
            else:
                after = 0
                del counts[word]
            if before == 0 and after > 0:
                trap = self.trapdoor(word)
                records.append(("+", trap, self.blob(trap, doc_id)))
            elif before > 0 and after == 0:
                trap = self.trapdoor(word)
                records.append(("-", trap, self.blob(trap, doc_id)))
        _RECORDS_EMITTED.inc(len(records))
        return records


#: retains at most this long do not split a changed span — short hops
#: (fixing a word, a small selection) diff as one region, so the span
#: list stays small on dense local editing
_SPAN_MERGE_GAP = 32


def _changed_spans(delta: Delta
                   ) -> list[tuple[int, int, int, int]]:
    """The contiguous regions ``delta`` touches, in document order,
    as ``(start_old, end_old, start_new, end_new)`` — empty for a pure
    retain.  Retained text inside a span (gaps ≤ :data:`_SPAN_MERGE_GAP`)
    is identical in old and new, so diffing across it is harmless; a
    *long* retain closes the span, which is what keeps a burst spanning
    two distant edit sites from dragging everything between them into
    the tokenizer."""
    spans: list[tuple[int, int, int, int]] = []
    pos_old = pos_new = 0
    cur: list[int] | None = None
    for op in delta.ops:
        if isinstance(op, Retain):
            if cur is not None and op.count > _SPAN_MERGE_GAP:
                spans.append(tuple(cur))
                cur = None
            pos_old += op.count
            pos_new += op.count
        else:
            if cur is None:
                cur = [pos_old, pos_old, pos_new, pos_new]
            if isinstance(op, Insert):
                pos_new += len(op.text)
            else:
                pos_old += op.count
            cur[1], cur[3] = pos_old, pos_new
    if cur is not None:
        spans.append(tuple(cur))
    return spans
