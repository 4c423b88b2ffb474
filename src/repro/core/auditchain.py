"""Append-only hash-chained audit trail over save acknowledgements.

RPC's checksum binds one revision's ciphertext to itself; nothing in
the single-document stack binds revision *N* to revision *N-1*, which
is exactly the gap a rollback-replaying provider exploits (the paper's
freshness discussion, SVI; see also the incremental-authenticated-
update line of work in PAPERS.md).  This module upgrades integrity
from per-revision to *cross-revision*: every acknowledged save commits

    link_N = H(link_{N-1} | rev_N | ciphertext_hash_N)

so the whole history collapses into one head link.  A client that
remembers ``(rev, link)`` for the last save it witnessed can later
detect

* **rollback** — the stored ciphertext no longer matches the audited
  head hash (or the head revision trails the trusted one);
* **history forks** — a forged chain that is internally consistent but
  disagrees with the trusted link at the remembered revision.

The module is deliberately pure — hashing and list algebra only.  It
must never import ``repro.services``: the *server* half of the audit
trail (where links are minted and served) lives in
``repro.services.catalog``, and a core integrity primitive that knew
about providers would invert the trust boundary.
``tools/layering_check.py`` enforces the direction.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass

__all__ = [
    "GENESIS_LINK",
    "AuditEntry",
    "AuditChain",
    "link_hash",
    "verify_entries",
    "encode_entries",
    "decode_entries",
]

#: the link "before" the first audited save (a fixed, unkeyed anchor:
#: the chain's security comes from the client remembering the head,
#: not from a secret genesis)
GENESIS_LINK = "0" * 64


def link_hash(prev_link: str, rev: int, ciphertext_hash: str) -> str:
    """``H(prev_link | rev | ciphertext_hash)`` — one chain step."""
    payload = f"{prev_link}|{rev}|{ciphertext_hash}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class AuditEntry:
    """One audited save: the revision it produced, the hash of the
    ciphertext the server stored, and the chain link over both."""

    rev: int
    ciphertext_hash: str
    link: str


class AuditChain:
    """The append-only chain, as the minting side maintains it."""

    def __init__(self) -> None:
        self._entries: list[AuditEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[AuditEntry, ...]:
        return tuple(self._entries)

    def since(self, rev: int) -> tuple[AuditEntry, ...]:
        """The entries from revision ``rev`` on (all of them for 0)."""
        return tuple(self._entries[bisect_left(
            self._entries, rev, key=lambda entry: entry.rev):])

    @property
    def head(self) -> AuditEntry | None:
        """The newest entry (None while the chain is empty)."""
        return self._entries[-1] if self._entries else None

    def append(self, rev: int, ciphertext_hash: str) -> AuditEntry:
        """Mint the link for an acknowledged save and append it.

        Revisions must advance strictly — an append that rewinds or
        repeats is a caller bug (replays are the caller's job to
        filter; the chain itself never rewrites).
        """
        head = self.head
        if head is not None and rev <= head.rev:
            raise ValueError(
                f"audit chain is append-only: rev {rev} after {head.rev}"
            )
        prev = head.link if head is not None else GENESIS_LINK
        entry = AuditEntry(rev, ciphertext_hash, link_hash(
            prev, rev, ciphertext_hash))
        self._entries.append(entry)
        return entry


def verify_entries(entries: list[AuditEntry] | tuple[AuditEntry, ...],
                   start: AuditEntry | None = None) -> list[str]:
    """Self-consistency problems in ``entries`` ([] when clean).

    Checks every link recomputes from its predecessor and that
    revisions advance strictly.  The first entry's predecessor is
    ``start`` — a verified entry the chain continues from — or genesis
    when ``start`` is None.  Self-consistency alone does NOT rule out a
    wholesale forgery — an adversary can recompute a perfectly
    consistent chain over rolled-back content — which is why the client
    also compares the chain against its remembered trust anchor
    (:meth:`repro.extension.freshness.FreshnessMonitor.witness`).
    """
    problems: list[str] = []
    prev_link = GENESIS_LINK if start is None else start.link
    prev_rev = -1 if start is None else start.rev
    for i, entry in enumerate(entries):
        if entry.rev <= prev_rev:
            problems.append(
                f"entry {i}: rev {entry.rev} does not advance past "
                f"{prev_rev}")
        want = link_hash(prev_link, entry.rev, entry.ciphertext_hash)
        if entry.link != want:
            problems.append(
                f"entry {i}: link does not recompute from its "
                f"predecessor (rev {entry.rev})")
        prev_link = entry.link
        prev_rev = entry.rev
    return problems


def encode_entries(entries) -> str:
    """Wire form of a chain: ``rev:hash:link`` triples joined by ``;``
    (all three components are decimal/hex — no escaping needed)."""
    return ";".join(
        f"{e.rev}:{e.ciphertext_hash}:{e.link}" for e in entries
    )


def decode_entries(text: str) -> list[AuditEntry]:
    """Parse :func:`encode_entries` output (raises ValueError on a
    malformed triple — a garbled chain is a verification failure, not
    a crash, so callers surface it as an alert)."""
    entries: list[AuditEntry] = []
    if not text:
        return entries
    for part in text.split(";"):
        rev_text, chash, link = part.split(":")
        entries.append(AuditEntry(int(rev_text), chash, link))
    return entries
