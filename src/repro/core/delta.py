"""The incremental-update *delta* language (SIV-A).

Google Documents described each incremental save as a *delta*: a
tab-separated sequence of operations over a one-dimensional document
string, interpreted left to right by an imaginary cursor that starts at
position 0:

``=num``
    move the cursor forward ``num`` characters;
``+str``
    insert ``str`` at the cursor and advance past it;
``-num``
    delete ``num`` characters at the cursor.

Examples from the paper: ``=2\\t-5`` turns ``abcdefg`` into ``ab``;
``=2\\t-3\\t+uv\\t=2\\t+w`` turns ``abcdefg`` into ``abuvfgw``.

This module implements the language completely: parsing, serialization,
application, canonicalization (the covert-channel countermeasure of
SVI-B), and the coordinate transforms the encryption layer needs.  The
same :class:`Delta` type carries plaintext deltas and ciphertext deltas
(*cdeltas*) — a cdelta is simply a delta over the wire string.

Serialization detail: inserted text may itself contain tabs or ``%``, so
``+`` payloads are percent-escaped for exactly those two characters.
The real protocol form-encoded the entire delta, which hid this issue;
escaping locally keeps :meth:`Delta.parse` ∘ :meth:`Delta.serialize`
the identity for all text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from repro.errors import DeltaApplicationError, DeltaSyntaxError

__all__ = [
    "Retain", "Insert", "Delete", "DeltaOp", "Delta",
    "SourceInsert", "SourceDelete", "SourceEdit", "common_affixes",
]


@dataclass(frozen=True)
class Retain:
    """``=num``: advance the cursor ``count`` characters."""

    count: int


@dataclass(frozen=True)
class Insert:
    """``+str``: insert ``text`` at the cursor."""

    text: str


@dataclass(frozen=True)
class Delete:
    """``-num``: delete ``count`` characters at the cursor."""

    count: int


DeltaOp = Union[Retain, Insert, Delete]


# -- source-coordinate edit forms (used by the encryption layer) ---------

@dataclass(frozen=True)
class SourceInsert:
    """Insertion anchored at a position of the *original* document."""

    pos: int
    text: str


@dataclass(frozen=True)
class SourceDelete:
    """Deletion of ``[pos, pos+count)`` of the *original* document."""

    pos: int
    count: int


SourceEdit = Union[SourceInsert, SourceDelete]


def _escape(text: str) -> str:
    return text.replace("%", "%25").replace("\t", "%09")


def _unescape(text: str) -> str:
    if "%" not in text:  # the overwhelmingly common case: no escapes
        return text
    # Every "%" starts an escape, so when each one is followed by "09"
    # or "25" the two escapes cannot overlap and replace at C speed;
    # otherwise the loop below finds the first bad one.
    if text.count("%") == text.count("%09") + text.count("%25"):
        return text.replace("%09", "\t").replace("%25", "%")
    out: list[str] = []
    i = 0
    while i < len(text):
        if text[i] == "%":
            code = text[i + 1 : i + 3]
            if code == "09":
                out.append("\t")
            elif code == "25":
                out.append("%")
            else:
                raise DeltaSyntaxError(f"bad escape %{code} in insert payload")
            i += 3
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


class Delta:
    """An immutable sequence of delta operations."""

    __slots__ = ("_ops",)

    def __init__(self, ops: Iterable[DeltaOp] = ()):
        ops = tuple(ops)
        for op in ops:
            if isinstance(op, (Retain, Delete)):
                if op.count <= 0:
                    raise DeltaSyntaxError(
                        f"{type(op).__name__} count must be positive, "
                        f"got {op.count}"
                    )
            elif isinstance(op, Insert):
                if not op.text:
                    raise DeltaSyntaxError("empty insert op")
            else:
                raise DeltaSyntaxError(f"unknown op {op!r}")
        self._ops = ops

    # -- accessors -------------------------------------------------------

    @property
    def ops(self) -> tuple[DeltaOp, ...]:
        return self._ops

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Delta) and self._ops == other._ops

    def __hash__(self) -> int:
        return hash(self._ops)

    def __repr__(self) -> str:
        return f"Delta({self.serialize()!r})"

    def __bool__(self) -> bool:
        """True when the delta contains any operation (even pure retains)."""
        return bool(self._ops)

    @property
    def is_identity(self) -> bool:
        """Does this delta leave every document unchanged?"""
        return all(isinstance(op, Retain) for op in self._ops)

    @property
    def chars_inserted(self) -> int:
        return sum(len(op.text) for op in self._ops if isinstance(op, Insert))

    @property
    def chars_deleted(self) -> int:
        return sum(op.count for op in self._ops if isinstance(op, Delete))

    @property
    def length_change(self) -> int:
        """Net document-length change caused by applying this delta."""
        return self.chars_inserted - self.chars_deleted

    # -- wire form ------------------------------------------------------

    def serialize(self) -> str:
        """Render as the tab-separated wire string."""
        parts: list[str] = []
        for op in self._ops:
            if isinstance(op, Retain):
                parts.append(f"={op.count}")
            elif isinstance(op, Insert):
                parts.append("+" + _escape(op.text))
            else:
                parts.append(f"-{op.count}")
        return "\t".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Delta":
        """Parse a wire delta string."""
        if text == "":
            return cls(())
        ops: list[DeltaOp] = []
        for token in text.split("\t"):
            if not token:
                raise DeltaSyntaxError("empty delta token")
            kind, body = token[0], token[1:]
            if kind == "=":
                ops.append(Retain(_parse_count(body, token)))
            elif kind == "-":
                ops.append(Delete(_parse_count(body, token)))
            elif kind == "+":
                if not body:
                    raise DeltaSyntaxError("empty insert token")
                ops.append(Insert(_unescape(body)))
            else:
                raise DeltaSyntaxError(f"unknown delta op {token!r}")
        return cls(ops)

    # -- semantics --------------------------------------------------------

    def apply(self, document: str) -> str:
        """Apply this delta to ``document`` and return the result.

        The delta is replayed into a fresh string in O(document) time.
        A text kept as leaves (:class:`repro.core.leaves.LeafText`, the
        gdocs store's and the mirror's stored wire) applies a delta in
        place with its own ``apply_delta``, at the cost of the leaves
        the delta touches.
        """
        pieces: list[str] = []
        cursor = 0
        for op in self._ops:
            if isinstance(op, Retain):
                end = cursor + op.count
                if end > len(document):
                    raise DeltaApplicationError(
                        f"retain past end: cursor {cursor} + {op.count} > "
                        f"{len(document)}"
                    )
                pieces.append(document[cursor:end])
                cursor = end
            elif isinstance(op, Insert):
                pieces.append(op.text)
            else:
                end = cursor + op.count
                if end > len(document):
                    raise DeltaApplicationError(
                        f"delete past end: cursor {cursor} + {op.count} > "
                        f"{len(document)}"
                    )
                cursor = end
        pieces.append(document[cursor:])
        return "".join(pieces)

    def canonical(self) -> "Delta":
        """Return the canonical equivalent delta.

        Canonical form merges adjacent same-type operations, orders a
        delete before an insert at the same cursor position, and drops
        trailing retains.  Any two deltas with the same *effect* on every
        document canonicalize identically, which is exactly why SVI-B
        proposes canonicalization as a countermeasure against
        delta-shape covert channels.
        """
        retains: int = 0
        deletes: int = 0
        inserts: list[str] = []
        out: list[DeltaOp] = []

        def flush() -> None:
            nonlocal retains, deletes, inserts
            if retains:
                out.append(Retain(retains))
                retains = 0
            if deletes:
                out.append(Delete(deletes))
                deletes = 0
            if inserts:
                out.append(Insert("".join(inserts)))
                inserts = []

        for op in self._ops:
            if isinstance(op, Retain):
                if deletes or inserts:
                    flush()
                retains += op.count
            elif isinstance(op, Delete):
                # A delete commutes backward past an insert at the same
                # cursor: "+x -n" and "-n +x" both consume the same
                # original characters (the cursor after +x sits at the
                # same original-text position), so accumulating into one
                # delete-then-insert group preserves semantics.
                deletes += op.count
            else:
                inserts.append(op.text)
        if deletes or inserts:  # a trailing pure retain is dropped
            flush()
        return Delta(out)

    # -- coordinate transforms -----------------------------------------

    def source_edits(self) -> list[SourceEdit]:
        """Rewrite the delta as edits anchored in *original* coordinates.

        The cursor semantics are evolving-document positions; the
        encryption layer wants to know which original characters each
        operation touches.  Returns inserts/deletes with positions in
        the pre-delta document, ordered left to right (several inserts
        may share a position; their relative order is preserved).
        """
        edits: list[SourceEdit] = []
        src = 0  # cursor in original coordinates
        for op in self._ops:
            if isinstance(op, Retain):
                src += op.count
            elif isinstance(op, Insert):
                edits.append(SourceInsert(src, op.text))
            else:
                edits.append(SourceDelete(src, op.count))
                src += op.count
        return edits

    def source_span(self) -> tuple[int, int] | None:
        """Smallest ``[lo, hi)`` original-coordinate range containing
        every edit, or ``None`` for an identity delta.

        A pure insert at position p yields ``(p, p)``.
        """
        lo: int | None = None
        hi = 0
        for edit in self.source_edits():
            if lo is None:
                lo = edit.pos
            end = edit.pos + (edit.count if isinstance(edit, SourceDelete) else 0)
            hi = max(hi, end)
        if lo is None:
            return None
        return lo, hi

    # -- construction helpers ----------------------------------------------

    @classmethod
    def insertion(cls, pos: int, text: str) -> "Delta":
        """Delta inserting ``text`` at ``pos``."""
        ops: list[DeltaOp] = []
        if pos:
            ops.append(Retain(pos))
        ops.append(Insert(text))
        return cls(ops)

    @classmethod
    def deletion(cls, pos: int, count: int) -> "Delta":
        """Delta deleting ``count`` characters at ``pos``."""
        ops: list[DeltaOp] = []
        if pos:
            ops.append(Retain(pos))
        ops.append(Delete(count))
        return cls(ops)

    @classmethod
    def replacement(cls, pos: int, count: int, text: str) -> "Delta":
        """Delta replacing ``count`` characters at ``pos`` with ``text``."""
        ops: list[DeltaOp] = []
        if pos:
            ops.append(Retain(pos))
        if count:
            ops.append(Delete(count))
        if text:
            ops.append(Insert(text))
        return cls(ops)

    @classmethod
    def between(cls, old: str, new: str) -> "Delta":
        """The one replacement turning ``old`` into ``new``: the common
        prefix and suffix are retained, the middle is replaced.  Equal
        texts give the empty delta."""
        prefix, suffix = common_affixes(old, new)
        count = len(old) - prefix - suffix
        text = new[prefix:len(new) - suffix]
        if not count and not text:
            return cls(())
        return cls.replacement(prefix, count, text)

    def inverse(self, deleted: Iterable[str]) -> "Delta":
        """The delta that undoes this one: applied to this delta's
        result, it gives back the document this delta was applied to.
        ``deleted`` holds the text each ``Delete`` removed, in order;
        retains stay, inserts become deletes and deletes re-insert."""
        removed = iter(deleted)
        ops: list[DeltaOp] = []
        for op in self._ops:
            if isinstance(op, Retain):
                ops.append(op)
            elif isinstance(op, Insert):
                ops.append(Delete(len(op.text)))
            else:
                ops.append(Insert(next(removed)))
        return Delta(ops)


#: first slice width of the galloping affix search
_GALLOP_START = 64


def _matching_run(same, limit: int) -> int:
    """Length of the longest run ``[0, k)`` with ``same(0, k)``, k <= limit.

    ``same(lo, hi)`` compares one slice of both texts, so every probe
    runs at C speed: slices double in width until one differs, then
    that slice is bisected.  Total work is O(k) characters compared.
    """
    lo, step = 0, _GALLOP_START
    while lo < limit:
        hi = min(limit, lo + step)
        if not same(lo, hi):
            break
        lo, step = hi, step * 2
    else:
        return limit
    # same(0, lo) holds; a mismatch lies in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if same(lo, mid):
            lo = mid
        else:
            hi = mid
    return lo


def common_affixes(old: str, new: str) -> tuple[int, int]:
    """``(prefix, suffix)``: how many leading and trailing characters
    ``old`` and ``new`` share.  The prefix is taken greedily and the
    suffix never overlaps it, so ``prefix + suffix`` is at most the
    shorter length (``"aaa"`` vs ``"aa"`` gives ``(2, 0)``)."""
    limit = min(len(old), len(new))
    prefix = _matching_run(
        lambda lo, hi: old[lo:hi] == new[lo:hi], limit)
    end_old, end_new = len(old), len(new)
    suffix = _matching_run(
        lambda lo, hi: (old[end_old - hi:end_old - lo]
                        == new[end_new - hi:end_new - lo]),
        limit - prefix)
    return prefix, suffix


def _parse_count(body: str, token: str) -> int:
    # isdigit() alone admits Unicode digits (e.g. '²') that int() rejects
    if not (body.isascii() and body.isdigit()):
        raise DeltaSyntaxError(f"bad count in delta op {token!r}")
    value = int(body)
    if value <= 0:
        raise DeltaSyntaxError(f"non-positive count in delta op {token!r}")
    return value
