"""IndexedAVL: same behavioural contract as the skip list, plus
balance invariants.

As there, single-block writes are ``splice`` calls: Insert is
``splice(r, r, [(v, w)])``, Delete ``splice(r, r + 1, [])``.
"""

import random

import pytest

from repro.datastructures.indexed_avl import IndexedAVL
from repro.errors import DataStructureError


@pytest.fixture
def tree():
    return IndexedAVL()


def fill(tree, widths):
    for i, w in enumerate(widths):
        tree.splice(i, i, [(f"b{i}", w)])


class TestBasics:
    def test_empty(self, tree):
        assert len(tree) == 0
        assert tree.total_chars == 0
        tree.checkrep()

    def test_insert_and_get(self, tree):
        fill(tree, [3, 4, 5])
        assert tree.get(0) == ("b0", 3)
        assert tree.get(2) == ("b2", 5)
        assert tree.total_chars == 12
        tree.checkrep()

    def test_find_char(self, tree):
        for i, chunk in enumerate(["abc", "fgh", "ijk"]):
            tree.splice(i, i, [(chunk, len(chunk))])
        assert tree.find_char(0) == (0, 0)
        assert tree.find_char(4) == (1, 1)
        assert tree.find_char(8) == (2, 2)
        with pytest.raises(IndexError):
            tree.find_char(9)

    def test_delete(self, tree):
        fill(tree, [1, 2, 3])
        assert tree.splice(1, 2, []) == [("b1", 2)]
        assert list(tree.values()) == ["b0", "b2"]
        tree.checkrep()

    def test_replace_width_propagates(self, tree):
        fill(tree, [4, 4, 4])
        assert tree.splice(0, 1, [("wide", 8)]) == [("b0", 4)]
        assert tree.find_char(8) == (1, 0)
        assert tree.total_chars == 16
        tree.checkrep()

    def test_char_start(self, tree):
        fill(tree, [3, 1, 4])
        assert [tree.char_start(i) for i in range(4)] == [0, 3, 4, 8]

    def test_bounds(self, tree):
        with pytest.raises(IndexError):
            tree.get(0)
        with pytest.raises(IndexError):
            tree.splice(0, 1, [])
        with pytest.raises(DataStructureError):
            tree.splice(0, 0, [("x", -2)])


class TestBalance:
    def test_sequential_inserts_stay_balanced(self, tree):
        for i in range(512):
            tree.splice(i, i, [(i, 1)])
        tree.checkrep()  # raises if any node violates AVL balance
        # height of a balanced tree of 512 nodes is <= 1.44*log2(513)+...
        assert tree._root.height <= 14

    def test_front_inserts_stay_balanced(self, tree):
        for i in range(512):
            tree.splice(0, 0, [(i, 1)])
        tree.checkrep()
        assert tree._root.height <= 14

    def test_random_churn_stays_balanced(self, tree):
        rng = random.Random(3)
        for step in range(2000):
            if len(tree) == 0 or rng.random() < 0.55:
                rank = rng.randint(0, len(tree))
                tree.splice(rank, rank, [(step, rng.randint(1, 8))])
            else:
                rank = rng.randrange(len(tree))
                tree.splice(rank, rank + 1, [])
        tree.checkrep()


class TestExtend:
    def test_extend_empty_tree_is_balanced(self, tree):
        tree.extend([(i, 1 + i % 8) for i in range(1000)])
        tree.checkrep()
        assert len(tree) == 1000
        assert tree._root.height <= 11  # perfectly balanced build

    def test_extend_matches_inserts(self):
        a, b = IndexedAVL(), IndexedAVL()
        items = [(f"v{i}", 1 + i % 5) for i in range(64)]
        for i, (v, w) in enumerate(items):
            a.splice(i, i, [(v, w)])
        b.extend(items)
        assert list(a.items()) == list(b.items())

    def test_extend_onto_existing(self, tree):
        tree.splice(0, 0, [("pre", 1)])
        tree.extend([("a", 2)])
        assert list(tree.items()) == [("pre", 1), ("a", 2)]
        tree.checkrep()

    def test_extend_negative_width(self, tree):
        with pytest.raises(DataStructureError):
            tree.extend([("x", -3)])
