"""Server-side document storage.

The paper's server assumption (SVI-A): "the server stores user-submitted
content literally" — whatever text arrives, that text is stored and
returned.  That is what makes the ciphertext-document trick possible,
and this store behaves exactly that way.

Two deliberately adversarial details are modelled because the paper's
threat analysis depends on them:

* **revision history** — the server keeps prior versions (the paper
  cites Google Docs leaking information about previous versions [1]);
  the honest-but-curious adversary gets to read it.  Retention is
  capped at :attr:`StoredDocument.max_history` revisions; older ones
  are compacted away and ``deltas_since`` reports them unmergeable;
* **quota** — Google enforced a maximum file size of 500 kB, which is
  why ciphertext blow-up matters (SV-C).

Storage is a :class:`~repro.core.leaves.LeafText`, the same stored-wire
type the client's mirror keeps: the text as leaves of at most
``2 * LEAF_CHARS`` characters, each with its end offset and the SHA-1
midstate after it.  An incremental save rewrites only the leaves it
touches, and the Ack's ``contentFromServerHash``
(:meth:`StoredDocument.content_hash`) hashes from the first changed
leaf on, so both cost the edit and the suffix after it, not a join of
the document.  History is one per-revision log: the head plus, per
revision, the forward op and the inverse delta that takes the next
version back to it, kept as wire strings.  A revision costs O(delta)
characters, not a copy of the document, and an old version is rebuilt
only if somebody reads it.  ``content`` joins the leaves — for a
fetch, an echo, a full save or a history read — and remains an exact
plain-string view for every existing caller (including tests and
adversaries that *assign* to it).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.delta import Delta
from repro.core.leaves import LeafText
from repro.errors import (
    DeltaApplicationError,
    ProtocolError,
    QuotaExceededError,
)
from repro.obs import counter, gauge

__all__ = [
    "MAX_DOCUMENT_CHARS",
    "DEFAULT_MAX_HISTORY",
    "RevisionHistory",
    "StoredDocument",
    "DocumentStore",
]

#: Google's 2011 cap: 500 kilobytes of stored document text
MAX_DOCUMENT_CHARS = 500_000

#: revisions retained per document before the oldest are compacted
DEFAULT_MAX_HISTORY = 256

#: characters held by every stored document in the process: each
#: document adds its own length changes, so servers sum
_STORED_BYTES = gauge("services.gdocs.stored_bytes")

#: leaves a store apply rewrote (the store's cost, not the document's);
#: the name predates the leaf table, and perfbench's per-layer list
#: reads it
_LEAVES_WALKED = counter("gdocs.pieces.walked")


class RevisionHistory:
    """Prior document versions, kept as one log read back from the head.

    Behaves like the ``list[str]`` it replaced: indexing (including
    negative indexes and slices), iteration, ``len``, equality against
    plain lists, and ``append`` (adversaries push raw strings) all
    work.  Record ``i`` holds two strings: the forward op that produced
    version ``i + 1`` (the delta's wire text; None for a full save or a
    raw append) and a way back to version ``i``.  The way back is the
    inverse delta's wire text, applied to version ``i + 1`` (the head,
    for the newest record) — or, for a raw append, version ``i``'s text
    itself (``_whole`` says which).  Reading ``history[k]`` starts from the nearest later whole
    text or the head and applies inverses down to ``k``; plain strings
    are not GC-tracked, so a long log adds nothing to collections.
    """

    __slots__ = ("_head", "_ops", "_backs", "_whole")

    def __init__(self, head: LeafText) -> None:
        self._head = head
        self._ops: list[str | None] = []
        self._backs: list[str] = []
        #: per record: is ``_backs[i]`` version i's whole text?
        self._whole: list[bool] = []

    def append(self, text: str) -> None:
        """Push a raw version string (the tampering path)."""
        if text != self._head.join():
            # the newest inverse was taken against the head, and
            # ``text`` now stands between the two
            self._pin_newest()
        self._ops.append(None)
        self._backs.append(text)
        self._whole.append(True)

    def _record(self, op: str | None, inverse: Delta) -> None:
        """Log one commit: ``op`` made the head, ``inverse`` undoes it."""
        self._ops.append(op)
        self._backs.append(inverse.serialize())
        self._whole.append(False)

    def _pin_newest(self) -> None:
        """Turn the newest record into its whole text, because its base,
        the head, is about to change outside a commit."""
        if self._whole and not self._whole[-1]:
            self._backs[-1] = self[-1]
            self._whole[-1] = True

    def _drop_oldest(self, count: int) -> None:
        del self._ops[:count]
        del self._backs[:count]
        del self._whole[:count]

    def _versions(self, lo: int, hi: int) -> list[str]:
        """Versions ``lo .. hi - 1``, oldest first, in one backward walk
        from the nearest whole text at or above ``hi - 1`` (or the head)."""
        if lo >= hi:
            return []
        backs, whole = self._backs, self._whole
        n = len(backs)
        start = hi - 1
        while start < n and not whole[start]:
            start += 1
        text = backs[start] if start < n else self._head.join()
        out = [text] if start < hi else []
        for i in range(start - 1, lo - 1, -1):
            if whole[i]:
                text = backs[i]
            else:
                text = Delta.parse(backs[i]).apply(text)
            if i < hi:
                out.append(text)
        out.reverse()
        return out

    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def __iter__(self) -> Iterator[str]:
        return iter(self._versions(0, len(self._ops)))

    def __getitem__(self, key):
        picks = range(len(self._ops))[key]
        if isinstance(key, slice):
            if not picks:
                return []
            lo = min(picks)
            versions = self._versions(lo, max(picks) + 1)
            return [versions[i - lo] for i in picks]
        return self._versions(picks, picks + 1)[0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RevisionHistory):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RevisionHistory({list(self)!r})"


class StoredDocument:
    """One document as the server sees it (possibly ciphertext)."""

    __slots__ = ("doc_id", "revision", "history", "max_history",
                 "history_floor", "_table")

    def __init__(self, doc_id: str, content: str = "",
                 max_history: int = DEFAULT_MAX_HISTORY):
        self.doc_id = doc_id
        self.revision = 0
        self._table = LeafText(content)
        _STORED_BYTES.add(len(content))
        self.history = RevisionHistory(self._table)
        self.max_history = max_history
        #: oldest revision whose commit record is still retained —
        #: everything below it has been compacted away
        self.history_floor = 0

    def __del__(self) -> None:
        # a collected document (its server is gone) holds no characters
        _STORED_BYTES.add(-self._table.length)

    # -- content views ---------------------------------------------------

    @property
    def content(self) -> str:
        """The current document text, exactly as submitted."""
        return self._table.join()

    @content.setter
    def content(self, text: str) -> None:
        # Direct assignment (active tampering, test fixtures) bypasses
        # commit bookkeeping, same as mutating the old dataclass field.
        self.history._pin_newest()
        _STORED_BYTES.add(len(text) - self._table.length)
        self._table.reset(text)

    @property
    def length(self) -> int:
        """Current document length in characters, without joining."""
        return self._table.length

    def content_hash(self) -> str:
        """``protocol.content_hash(self.content)``, hashed from the first
        leaf changed since the last call, without joining."""
        return self._table.hexdigest()

    @property
    def ops_log(self) -> list[str | None]:
        """Per retained revision, the delta that produced it (None: a
        full save or a raw append); read by the merging server's
        transform path."""
        return self.history._ops

    # -- commits ---------------------------------------------------------

    def _commit(self, new_content: str) -> None:
        """Full replace: the ``docContents`` save path."""
        if len(new_content) > MAX_DOCUMENT_CHARS:
            raise QuotaExceededError(
                f"document {self.doc_id!r} would be {len(new_content)} "
                f"chars; limit is {MAX_DOCUMENT_CHARS}"
            )
        old = self._table.join()
        self.history._record(None, Delta.between(new_content, old))
        _STORED_BYTES.add(len(new_content) - len(old))
        self._table.reset(new_content)
        self.revision += 1
        self._compact()

    def apply_delta(self, delta_text: str) -> None:
        """Incremental save: splice ``delta_text`` into the leaves.

        Rewrites only the leaves the delta touches — the stored text is
        never rebuilt as a string, and the logged inverse is built from
        the deleted spans alone.  Raises
        :class:`~repro.errors.DeltaSyntaxError` /
        :class:`~repro.errors.DeltaApplicationError` for malformed or
        ill-fitting deltas and :class:`QuotaExceededError` (with the
        document and its history left unchanged) when the result would
        exceed quota.
        """
        delta = Delta.parse(delta_text)
        before = self._table.length
        inverse = delta.inverse(self._table.apply_delta(delta))
        _LEAVES_WALKED.inc(self._table.walked)
        if self._table.length > MAX_DOCUMENT_CHARS:
            would_be = self._table.length
            self._table.apply_delta(inverse)
            _LEAVES_WALKED.inc(self._table.walked)
            raise QuotaExceededError(
                f"document {self.doc_id!r} would be {would_be} "
                f"chars; limit is {MAX_DOCUMENT_CHARS}"
            )
        _STORED_BYTES.add(self._table.length - before)
        self.history._record(delta_text, inverse)
        self.revision += 1
        self._compact()

    def _compact(self) -> None:
        if self.max_history is None:
            return
        excess = len(self.history) - self.max_history
        if excess > 0:
            self.history._drop_oldest(excess)
            self.history_floor += excess

    def deltas_since(self, revision: int) -> list[str] | None:
        """Deltas that took ``revision`` to the current revision, or
        None when transforming past them is impossible — a full save or
        a raw append intervened, or ``revision`` predates the history
        floor (its commit records were compacted away)."""
        if revision < self.history_floor:
            return None
        window = self.ops_log[revision - self.history_floor:]
        if any(op is None for op in window):
            return None
        return list(window)


class DocumentStore:
    """All documents held by one server instance."""

    def __init__(self) -> None:
        self._docs: dict[str, StoredDocument] = {}

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def __len__(self) -> int:
        return len(self._docs)

    def create(self, doc_id: str, content: str = "") -> StoredDocument:
        """Create a new (empty by default) document."""
        if doc_id in self._docs:
            raise ProtocolError(f"document {doc_id!r} already exists")
        doc = StoredDocument(doc_id=doc_id, content=content)
        self._docs[doc_id] = doc
        return doc

    def get(self, doc_id: str) -> StoredDocument:
        """Look up a document; ProtocolError when missing."""
        try:
            return self._docs[doc_id]
        except KeyError:
            raise ProtocolError(f"no document {doc_id!r}") from None

    def get_or_create(self, doc_id: str) -> StoredDocument:
        """Look up a document, creating it when missing."""
        if doc_id not in self._docs:
            return self.create(doc_id)
        return self._docs[doc_id]

    def set_content(self, doc_id: str, content: str) -> StoredDocument:
        """Full replace (the ``docContents`` save path)."""
        doc = self.get(doc_id)
        doc._commit(content)
        return doc

    def apply_delta(self, doc_id: str, delta_text: str) -> StoredDocument:
        """Apply a delta to the stored text.

        The server parses the delta purely *structurally* — it never
        interprets the content, so an encrypted cdelta applies exactly
        like a plaintext delta.
        """
        doc = self.get(doc_id)
        try:
            doc.apply_delta(delta_text)
        except DeltaApplicationError as exc:
            raise ProtocolError(f"delta does not fit document: {exc}") from exc
        return doc

    def doc_ids(self) -> list[str]:
        """Sorted ids of every stored document."""
        return sorted(self._docs)
