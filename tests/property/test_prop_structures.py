"""Property tests: both index structures always agree with the oracle.

A stateful rule machine drives IndexedSkipList and IndexedAVL through
arbitrary interleavings of every operation, comparing each result with
the trivially correct ReferenceIndex and re-validating structural
invariants (spans, AVL balance, aggregates) after every step.  The
single-block rules are the shapes of ``splice`` the paper names:
Insert ``splice(r, r, [block])``, Delete ``splice(r, r + 1, [])`` and an
in-place swap ``splice(r, r + 1, [block])``.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.datastructures import IndexedAVL, IndexedSkipList, ReferenceIndex

WIDTHS = st.integers(min_value=1, max_value=8)


class IndexAgreement(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ref = ReferenceIndex()
        self.structs = [
            IndexedSkipList(rng=random.Random(12345)),
            IndexedAVL(),
        ]
        self.counter = 0

    # -- mutations ----------------------------------------------------

    @rule(data=st.data(), width=WIDTHS)
    def insert(self, data, width):
        rank = data.draw(st.integers(0, len(self.ref)), label="rank")
        value = self.counter
        self.counter += 1
        self.ref.splice(rank, rank, [(value, width)])
        for s in self.structs:
            assert s.splice(rank, rank, [(value, width)]) == []

    @rule(data=st.data(), count=st.integers(1, 5), width=WIDTHS)
    def extend(self, data, count, width):
        items = []
        for _ in range(count):
            items.append((self.counter, width))
            self.counter += 1
        self.ref.extend(items)
        for s in self.structs:
            s.extend(items)

    @precondition(lambda self: len(self.ref) > 0)
    @rule(data=st.data())
    def delete(self, data):
        rank = data.draw(st.integers(0, len(self.ref) - 1), label="rank")
        want = self.ref.splice(rank, rank + 1, [])
        for s in self.structs:
            assert s.splice(rank, rank + 1, []) == want

    @precondition(lambda self: len(self.ref) > 0)
    @rule(data=st.data(), width=WIDTHS)
    def replace(self, data, width):
        rank = data.draw(st.integers(0, len(self.ref) - 1), label="rank")
        value = -self.counter
        self.counter += 1
        want = self.ref.splice(rank, rank + 1, [(value, width)])
        for s in self.structs:
            assert s.splice(rank, rank + 1, [(value, width)]) == want

    @rule(data=st.data(), count=st.integers(0, 5), width=WIDTHS)
    def splice(self, data, count, width):
        ra = data.draw(st.integers(0, len(self.ref)), label="ra")
        rb = data.draw(st.integers(ra, len(self.ref)), label="rb")
        items = []
        for _ in range(count):
            items.append((self.counter, width))
            self.counter += 1
        want = self.ref.splice(ra, rb, items)
        for s in self.structs:
            assert s.splice(ra, rb, items) == want

    # -- queries ---------------------------------------------------------

    @rule(data=st.data())
    def get_range(self, data):
        ra = data.draw(st.integers(0, len(self.ref)), label="ra")
        rb = data.draw(st.integers(ra, len(self.ref)), label="rb")
        want = self.ref.get_range(ra, rb)
        for s in self.structs:
            assert list(s.get_range(ra, rb)) == want

    @precondition(lambda self: self.ref.total_chars > 0)
    @rule(data=st.data())
    def find_char(self, data):
        index = data.draw(
            st.integers(0, self.ref.total_chars - 1), label="char"
        )
        want = self.ref.find_char(index)
        for s in self.structs:
            assert s.find_char(index) == want

    @precondition(lambda self: len(self.ref) > 0)
    @rule(data=st.data())
    def get_and_start(self, data):
        rank = data.draw(st.integers(0, len(self.ref) - 1), label="rank")
        for s in self.structs:
            assert s.get(rank) == self.ref.get(rank)
            assert s.char_start(rank) == self.ref.char_start(rank)

    # -- invariants --------------------------------------------------------

    @invariant()
    def sizes_agree(self):
        for s in self.structs:
            assert len(s) == len(self.ref)
            assert s.total_chars == self.ref.total_chars

    @invariant()
    def structures_valid(self):
        for s in self.structs:
            s.checkrep()

    @invariant()
    def full_walk_agrees(self):
        want = list(self.ref.items())
        for s in self.structs:
            assert list(s.items()) == want


TestIndexAgreement = IndexAgreement.TestCase
TestIndexAgreement.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


COUNTS = st.integers(min_value=1, max_value=4)


class CountedIndexAgreement(RuleBasedStateMachine):
    """The same agreement over counted nodes — ``(value, width,
    count)`` items, one node standing for ``count`` ranks, as the
    mirror's leaves are indexed — with splices at node boundaries and
    queries at any rank."""

    def __init__(self):
        super().__init__()
        self.ref = ReferenceIndex()
        self.structs = [
            IndexedSkipList(rng=random.Random(54321)),
            IndexedAVL(),
        ]
        self.counts: list[int] = []  # per node, in order
        self.counter = 0

    def _boundary(self, data, low: int = 0) -> int:
        """A rank that starts a node (or ends the sequence), >= low."""
        starts = [0]
        for count in self.counts:
            starts.append(starts[-1] + count)
        return data.draw(st.sampled_from([r for r in starts if r >= low]))

    def _items(self, data) -> list[tuple[int, int, int]]:
        items = []
        for _ in range(data.draw(st.integers(0, 4), label="items")):
            items.append((self.counter, data.draw(WIDTHS),
                          data.draw(COUNTS)))
            self.counter += 1
        return items

    @rule(data=st.data())
    def splice(self, data):
        ra = self._boundary(data)
        rb = self._boundary(data, ra)
        items = self._items(data)
        want = self.ref.splice(ra, rb, items)
        for s in self.structs:
            assert s.splice(ra, rb, items) == want
        starts, lo = 0, 0
        while starts < ra:
            starts += self.counts[lo]
            lo += 1
        hi = lo
        while starts < rb:
            starts += self.counts[hi]
            hi += 1
        self.counts[lo:hi] = [count for _, _, count in items]

    @rule(data=st.data())
    def extend(self, data):
        items = self._items(data)
        self.ref.extend(items)
        for s in self.structs:
            s.extend(items)
        self.counts += [count for _, _, count in items]

    @precondition(lambda self: len(self.ref) > 0)
    @rule(data=st.data())
    def locate(self, data):
        rank = data.draw(st.integers(0, len(self.ref) - 1), label="rank")
        want = self.ref.locate(rank)
        for s in self.structs:
            assert s.locate(rank) == want
            assert s.get(rank) == self.ref.get(rank)
            assert s.char_start(rank) == self.ref.char_start(rank)

    @precondition(lambda self: self.ref.total_chars > 0)
    @rule(data=st.data())
    def locate_char(self, data):
        index = data.draw(
            st.integers(0, self.ref.total_chars - 1), label="char"
        )
        for s in self.structs:
            assert s.locate_char(index) == self.ref.locate_char(index)
            assert s.find_char(index) == self.ref.find_char(index)

    @rule(data=st.data())
    def get_range(self, data):
        ra = data.draw(st.integers(0, len(self.ref)), label="ra")
        rb = data.draw(st.integers(ra, len(self.ref)), label="rb")
        want = self.ref.get_range(ra, rb)
        for s in self.structs:
            assert list(s.get_range(ra, rb)) == want

    @invariant()
    def agree(self):
        assert len(self.ref) == sum(self.counts)
        want = list(self.ref.items())
        for s in self.structs:
            s.checkrep()
            assert len(s) == len(self.ref)
            assert s.total_chars == self.ref.total_chars
            assert list(s.items()) == want


TestCountedIndexAgreement = CountedIndexAgreement.TestCase
TestCountedIndexAgreement.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
