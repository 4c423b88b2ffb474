"""The audit-chain core: hash-link algebra, append-only discipline,
self-verification, and the wire codec.

These are the properties the workspace's rollback detection rests on
(docs/security.md).  One deliberate negative result is pinned too: a
wholesale forgery *does* self-verify — which is exactly why the client
keeps a ``(rev, link)`` trust anchor rather than trusting consistency
alone.
"""

from __future__ import annotations

import pytest

from repro.core.auditchain import (
    GENESIS_LINK,
    AuditChain,
    AuditEntry,
    decode_entries,
    encode_entries,
    link_hash,
    verify_entries,
)


def _chain(depth: int) -> AuditChain:
    chain = AuditChain()
    for rev in range(1, depth + 1):
        chain.append(rev, f"hash-{rev}")
    return chain


class TestLinkAlgebra:
    def test_link_hash_is_deterministic_and_position_bound(self):
        a = link_hash(GENESIS_LINK, 1, "abc")
        assert a == link_hash(GENESIS_LINK, 1, "abc")
        assert a != link_hash(GENESIS_LINK, 2, "abc")
        assert a != link_hash(GENESIS_LINK, 1, "abd")
        assert a != link_hash(a, 1, "abc")
        assert len(a) == 64

    def test_appends_chain_from_genesis(self):
        chain = _chain(3)
        entries = chain.entries
        assert entries[0].link == link_hash(GENESIS_LINK, 1, "hash-1")
        assert entries[1].link == link_hash(entries[0].link, 2, "hash-2")
        assert chain.head == entries[-1]
        assert len(chain) == 3

    def test_empty_chain_has_no_head(self):
        chain = AuditChain()
        assert chain.head is None
        assert chain.entries == ()
        assert len(chain) == 0

    def test_since_starts_at_the_named_revision(self):
        chain = AuditChain()
        for rev in (1, 2, 5, 9):
            chain.append(rev, f"hash-{rev}")
        assert [e.rev for e in chain.since(0)] == [1, 2, 5, 9]
        assert [e.rev for e in chain.since(5)] == [5, 9]
        assert [e.rev for e in chain.since(3)] == [5, 9]
        assert chain.since(10) == ()

    def test_append_only_rejects_rewinds_and_repeats(self):
        chain = _chain(2)
        with pytest.raises(ValueError, match="append-only"):
            chain.append(2, "again")
        with pytest.raises(ValueError, match="append-only"):
            chain.append(1, "rewound")
        chain.append(5, "gap is fine")  # revision gaps are legal


class TestVerification:
    def test_honest_chain_verifies_clean(self):
        assert verify_entries(_chain(10).entries) == []
        assert verify_entries([]) == []

    def test_tampered_hash_breaks_its_link(self):
        entries = list(_chain(3).entries)
        victim = entries[1]
        entries[1] = AuditEntry(victim.rev, "tampered", victim.link)
        problems = verify_entries(entries)
        assert any("entry 1" in p for p in problems)

    def test_spliced_link_breaks_the_successor(self):
        """Rewriting a middle link invalidates everything after it —
        the collapse-to-one-head property."""
        entries = list(_chain(3).entries)
        forged = link_hash(GENESIS_LINK, entries[1].rev, "other")
        entries[1] = AuditEntry(entries[1].rev,
                                entries[1].ciphertext_hash, forged)
        problems = verify_entries(entries)
        assert len(problems) >= 2  # entry 1 and entry 2 both fail

    def test_non_advancing_revisions_are_flagged(self):
        entries = [
            AuditEntry(2, "h", link_hash(GENESIS_LINK, 2, "h")),
        ]
        entries.append(AuditEntry(
            2, "i", link_hash(entries[0].link, 2, "i")))
        problems = verify_entries(entries)
        assert any("does not advance" in p for p in problems)

    def test_verifies_onward_from_a_start_entry(self):
        entries = _chain(5).entries
        assert verify_entries(entries[2:], start=entries[1]) == []
        assert verify_entries((), start=entries[1]) == []
        problems = verify_entries(entries[3:], start=entries[1])
        assert problems and "link does not recompute" in problems[0]
        problems = verify_entries(entries[1:], start=entries[1])
        assert any("does not advance" in p for p in problems)

    def test_wholesale_forgery_self_verifies(self):
        """An adversary who recomputes the whole chain over rolled-back
        content produces a *clean* chain — self-consistency cannot see
        it.  Only the trust anchor (tests in test_workspace.py) can."""
        honest = _chain(5)
        forged = AuditChain()
        for rev in range(1, 6):
            forged.append(rev, f"rolled-back-{rev}")
        assert verify_entries(forged.entries) == []
        assert forged.head.link != honest.head.link


class TestCodec:
    def test_round_trip(self):
        entries = _chain(4).entries
        assert tuple(decode_entries(encode_entries(entries))) == entries

    def test_empty(self):
        assert encode_entries(()) == ""
        assert decode_entries("") == []

    def test_malformed_raises_value_error(self):
        with pytest.raises(ValueError):
            decode_entries("not-a-triple")
        with pytest.raises(ValueError):
            decode_entries("x:y:z")  # rev is not an int
