"""IndexedSkipList unit tests (randomized cross-checks live in
tests/property).

``splice`` is the only single-block write: the paper's Insert is
``splice(r, r, [(v, w)])``, Delete is ``splice(r, r + 1, [])`` and an
in-place swap is ``splice(r, r + 1, [(v, w)])``.
"""

import random

import pytest

from repro.datastructures.indexed_skiplist import IndexedSkipList
from repro.errors import DataStructureError


@pytest.fixture
def sl():
    return IndexedSkipList(rng=random.Random(42))


def fill(sl, widths):
    for i, w in enumerate(widths):
        sl.splice(i, i, [(f"b{i}", w)])


class TestBasics:
    def test_empty(self, sl):
        assert len(sl) == 0
        assert sl.total_chars == 0
        assert list(sl.items()) == []
        sl.checkrep()

    def test_single_insert(self, sl):
        sl.splice(0, 0, [("hello", 5)])
        assert len(sl) == 1
        assert sl.total_chars == 5
        assert sl.get(0) == ("hello", 5)
        sl.checkrep()

    def test_insert_order(self, sl):
        fill(sl, [3, 4, 5])
        assert [v for v in sl.values()] == ["b0", "b1", "b2"]
        assert sl.total_chars == 12

    def test_insert_at_front_and_middle(self, sl):
        fill(sl, [2, 2])
        sl.splice(0, 0, [("front", 1)])
        sl.splice(2, 2, [("mid", 1)])
        assert list(sl.values()) == ["front", "b0", "mid", "b1"]
        sl.checkrep()

    def test_bad_p(self):
        with pytest.raises(DataStructureError):
            IndexedSkipList(p=1.0)

    def test_negative_width_rejected(self, sl):
        with pytest.raises(DataStructureError):
            sl.splice(0, 0, [("x", -1)])


class TestFindChar:
    def test_paper_example(self, sl):
        """Figure 3's document 'abcfghijk' in three blocks."""
        for i, chunk in enumerate(["abc", "fgh", "ijk"]):
            sl.splice(i, i, [(chunk, len(chunk))])
        assert sl.find_char(0) == (0, 0)
        assert sl.find_char(2) == (0, 2)
        assert sl.find_char(3) == (1, 0)
        assert sl.find_char(8) == (2, 2)

    def test_insertion_like_figure_3(self, sl):
        """Insert 'xy' at index 3 of 'abcfghijk' → block split at 3."""
        for i, chunk in enumerate(["abc", "fgh", "ijk"]):
            sl.splice(i, i, [(chunk, len(chunk))])
        rank, offset = sl.find_char(3)
        assert (rank, offset) == (1, 0)
        sl.splice(rank, rank, [("xy", 2)])
        assert "".join(sl.values()) == "abcxyfghijk"
        assert sl.find_char(3) == (1, 0)
        assert sl.find_char(5) == (2, 0)
        sl.checkrep()

    def test_out_of_range(self, sl):
        fill(sl, [3])
        with pytest.raises(IndexError):
            sl.find_char(3)
        with pytest.raises(IndexError):
            sl.find_char(-1)

    def test_empty_list(self, sl):
        with pytest.raises(IndexError):
            sl.find_char(0)


class TestMutations:
    def test_delete_returns_value(self, sl):
        fill(sl, [1, 2, 3])
        assert sl.splice(1, 2, []) == [("b1", 2)]
        assert len(sl) == 2
        assert sl.total_chars == 4
        sl.checkrep()

    def test_delete_all(self, sl):
        fill(sl, [1, 2, 3])
        for _ in range(3):
            sl.splice(0, 1, [])
        assert len(sl) == 0 and sl.total_chars == 0
        sl.checkrep()

    def test_replace_changes_width(self, sl):
        fill(sl, [4, 4, 4])
        assert sl.splice(1, 2, [("new", 7)]) == [("b1", 4)]
        assert sl.get(1) == ("new", 7)
        assert sl.total_chars == 15
        assert sl.find_char(10) == (1, 6)
        sl.checkrep()

    def test_replace_same_width(self, sl):
        fill(sl, [4])
        sl.splice(0, 1, [("swap", 4)])
        assert sl.get(0) == ("swap", 4)
        sl.checkrep()

    def test_char_start(self, sl):
        fill(sl, [3, 1, 4])
        assert [sl.char_start(i) for i in range(4)] == [0, 3, 4, 8]

    def test_rank_bounds(self, sl):
        fill(sl, [1])
        with pytest.raises(IndexError):
            sl.get(1)
        with pytest.raises(IndexError):
            sl.splice(1, 2, [])
        with pytest.raises(IndexError):
            sl.splice(2, 2, [("x", 1)])


class TestScale:
    def test_thousand_blocks_logarithmic_shape(self):
        sl = IndexedSkipList(rng=random.Random(1))
        for i in range(1000):
            sl.splice(i, i, [(i, 1 + (i % 8))])
        sl.checkrep()
        assert len(sl) == 1000
        total = sl.total_chars
        rank, offset = sl.find_char(total - 1)
        assert rank == 999


class TestExtend:
    def test_extend_matches_repeated_insert(self):
        import random as _r
        a = IndexedSkipList(rng=_r.Random(9))
        b = IndexedSkipList(rng=_r.Random(9))
        items = [(f"v{i}", 1 + i % 8) for i in range(200)]
        for i, (v, w) in enumerate(items):
            a.splice(i, i, [(v, w)])
        b.extend(items)
        assert list(a.items()) == list(b.items())
        b.checkrep()

    def test_extend_onto_existing(self):
        import random as _r
        sl = IndexedSkipList(rng=_r.Random(10))
        sl.splice(0, 0, [("pre", 3)])
        sl.extend([("a", 2), ("b", 5)])
        assert list(sl.items()) == [("pre", 3), ("a", 2), ("b", 5)]
        assert sl.total_chars == 10
        sl.checkrep()

    def test_extend_empty(self, sl):
        sl.extend([])
        assert len(sl) == 0
        sl.checkrep()

    def test_extend_then_mutate(self):
        import random as _r
        sl = IndexedSkipList(rng=_r.Random(11))
        sl.extend([(i, 2) for i in range(100)])
        sl.splice(50, 50, [("mid", 1)])
        assert sl.splice(0, 1, []) == [(0, 2)]
        sl.splice(10, 11, [("swap", 7)])
        assert sl.get(10) == ("swap", 7)
        assert sl.get(49) == ("mid", 1)
        sl.checkrep()

    def test_extend_negative_width(self, sl):
        with pytest.raises(DataStructureError):
            sl.extend([("x", -1)])


class TestCountedNodes:
    """Items of ``(value, width, count)``: one node for ``count`` ranks."""

    def test_ranks_count_elements(self, sl):
        sl.extend([("a", 5, 3), ("b", 2, 1), ("c", 4, 2)])
        assert len(sl) == 6 and sl.total_chars == 11
        assert sl.locate(4) == ("c", 4, 7)
        assert sl.locate_char(6) == ("b", 3, 5)
        assert sl.find_char(6) == (3, 1)
        assert sl.get_range(2, 5) == [("a", 5), ("b", 2), ("c", 4)]
        assert sl.splice(3, 4, [("d", 1, 2)]) == [("b", 2)]
        assert list(sl.items()) == [("a", 5), ("d", 1), ("c", 4)]
        sl.checkrep()

    def test_splice_inside_a_node_raises_and_changes_nothing(self, sl):
        sl.extend([("a", 5, 3), ("b", 2, 1)])
        for ra, rb in ((1, 3), (0, 2), (1, 1)):
            with pytest.raises(DataStructureError, match="boundaries"):
                sl.splice(ra, rb, [("x", 1)])
        assert list(sl.items()) == [("a", 5), ("b", 2)] and len(sl) == 4
        sl.checkrep()

    def test_count_below_one_rejected(self, sl):
        with pytest.raises(DataStructureError, match="count"):
            sl.extend([("x", 1, 0)])
