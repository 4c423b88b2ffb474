"""EditCoalescer: a composed burst must equal the journal replayed.

The coalescing layer's correctness obligation is semantic identity —
applying the single composed delta to the burst's base text produces
exactly the text that applying every journaled delta in order would
have produced.  Everything else here (caps, flush reasons, counters,
invalidation) is the bookkeeping that keeps that property observable
and recoverable.
"""

import random

import pytest

from repro.client.coalesce import FLUSH_REASONS, EditCoalescer
from repro.client.editor import EditorBuffer
from repro.core.delta import Delta
from repro.obs import value_of


def _random_edit(rng: random.Random, length: int) -> Delta:
    """One keystroke-level delta valid against a document of ``length``."""
    kind = rng.random()
    pos = rng.randint(0, length)
    if kind < 0.5 or length == 0:
        text = "".join(rng.choice("abcdef 文😀\t%") for _ in
                       range(rng.randint(1, 6)))
        return Delta.insertion(pos, text)
    count = rng.randint(1, max(1, length - pos)) if pos < length else 0
    if count == 0:
        return Delta.insertion(pos, "x")
    if kind < 0.8:
        return Delta.deletion(pos, count)
    return Delta.replacement(pos, count, "yz")


class TestComposition:
    @pytest.mark.parametrize("seed", range(20))
    def test_burst_equals_sequential_replay(self, seed):
        rng = random.Random(seed)
        base = "".join(rng.choice("abcdefgh ") for _ in
                       range(rng.randint(0, 80)))
        journal = EditCoalescer()
        text = base
        for _ in range(rng.randint(1, 30)):
            delta = _random_edit(rng, len(text))
            text = delta.apply(text)
            assert journal.add(delta) is None  # no caps configured
        burst = journal.flush("drain")
        assert burst is not None
        assert burst.apply(base) == text
        # canonical form: no trailing retain, adjacent ops merged
        assert burst == burst.canonical()

    def test_peek_does_not_flush(self):
        journal = EditCoalescer()
        journal.add(Delta.insertion(0, "abc"))
        peeked = journal.peek()
        assert peeked.apply("") == "abc"
        assert journal.pending_ops == 1
        assert journal.flush("drain") == peeked

    def test_empty_flush_returns_none(self):
        journal = EditCoalescer()
        assert journal.flush("drain") is None
        # identity-only bursts (pure retains after cancellation) are
        # also empty: insert then delete the same text
        journal.add(Delta.insertion(0, "abc"))
        journal.add(Delta.deletion(0, 3))
        burst = journal.flush("drain")
        assert burst is None or burst.is_identity


class TestCapsAndOverflow:
    def test_ops_cap_flushes(self):
        journal = EditCoalescer(max_ops=3)
        assert journal.add(Delta.insertion(0, "a")) is None
        assert journal.add(Delta.insertion(1, "b")) is None
        burst = journal.add(Delta.insertion(2, "c"))
        assert burst is not None and burst.apply("") == "abc"
        assert journal.pending_ops == 0  # restarted

    def test_invalidate_overflow_mode(self):
        journal = EditCoalescer(max_ops=2, overflow="invalidate")
        journal.add(Delta.insertion(0, "a"))
        assert journal.valid
        assert journal.add(Delta.insertion(1, "b")) is None
        assert not journal.valid
        # adds are ignored while invalid; flush re-arms
        journal.add(Delta.insertion(0, "zzz"))
        assert journal.flush("drain") is None
        assert journal.valid

    def test_bad_overflow_rejected(self):
        with pytest.raises(ValueError):
            EditCoalescer(overflow="explode")


class TestFlushReasons:
    def test_unknown_reason_rejected(self):
        journal = EditCoalescer()
        journal.add(Delta.insertion(0, "a"))
        with pytest.raises(ValueError):
            journal.flush("panic")

    @pytest.mark.parametrize("reason", FLUSH_REASONS)
    def test_each_reason_counted(self, reason):
        before = value_of(f"client.coalesce.flush.{reason}")
        journal = EditCoalescer()
        journal.add(Delta.insertion(0, "a"))
        journal.flush(reason)
        assert value_of(f"client.coalesce.flush.{reason}") == before + 1

    def test_burst_and_fold_counters(self):
        bursts = value_of("client.coalesce.bursts")
        folded = value_of("client.coalesce.ops_folded")
        journal = EditCoalescer()
        journal.add(Delta.insertion(0, "a"))
        journal.add(Delta.insertion(1, "b"))
        journal.flush("save")
        journal.flush("save")  # empty: not a burst
        assert value_of("client.coalesce.bursts") == bursts + 1
        assert value_of("client.coalesce.ops_folded") == folded + 2

    def test_invalidated_counter(self):
        before = value_of("client.coalesce.invalidated")
        journal = EditCoalescer()
        journal.add(Delta.insertion(0, "a"))
        journal.invalidate()
        journal.invalidate()  # already invalid: counted once
        assert value_of("client.coalesce.invalidated") == before + 1


class TestEditorJournal:
    """EditorBuffer trusts the journal only after verifying it."""

    def test_pending_delta_comes_from_journal(self):
        buf = EditorBuffer("hello world")
        buf.insert(5, ",")
        buf.delete(0, 1)
        buf.insert(0, "H")
        delta = buf.pending_delta()
        assert delta.apply("hello world") == "Hello, world"
        assert buf._journal.valid

    def test_set_text_invalidates_and_diff_recovers(self):
        buf = EditorBuffer("abc")
        buf.insert(3, "d")
        buf.set_text("completely different")
        assert not buf._journal.valid
        delta = buf.pending_delta()
        assert delta.apply("abc") == "completely different"

    def test_corrupt_journal_falls_back_to_diff(self):
        buf = EditorBuffer("abcdef")
        buf.insert(6, "!")
        # sabotage: journal an edit the buffer never saw
        buf._journal.add(Delta.deletion(0, 3))
        delta = buf.pending_delta()
        assert delta.apply("abcdef") == "abcdef!"
        assert not buf._journal.valid

    def test_sync_points_flush_by_reason(self):
        save = value_of("client.coalesce.flush.save")
        conflict = value_of("client.coalesce.flush.conflict")
        buf = EditorBuffer("x")
        buf.insert(1, "y")
        buf.mark_synced()
        assert value_of("client.coalesce.flush.save") == save + 1
        buf.insert(0, "z")
        buf.resync("server says", reason="conflict")
        assert value_of("client.coalesce.flush.conflict") == conflict + 1
        assert not buf.dirty

    def test_long_burst_invalidates_then_diff(self):
        buf = EditorBuffer("")
        for i in range(600):  # past _JOURNAL_MAX_OPS
            buf.insert(i, "a")
        assert not buf._journal.valid
        assert buf.pending_delta().apply("") == "a" * 600
