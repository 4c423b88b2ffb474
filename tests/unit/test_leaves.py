"""Mirror leaves: the boundary cases of a splice.

:class:`repro.core.leaves.BlockLeaves` keeps the mirror's blocks in
leaves of B to 2B - 1 blocks under an outer index.  Each case below
drives one leaf boundary — a splice across two leaves, a split past
2B, a merge under B/2, a whole leaf deleted, growth from empty — and
checks the store with ``checkrep`` and against a per-block twin (B = 1,
the paper's index) fed the same operations: every read must agree.
"""

import random

import pytest

from repro.core import Delta, KeyMaterial, per_block
from repro.core.document import LEAF_BLOCKS
from repro.core.leaves import BlockLeaves
from repro.core.scheme import scheme_factory
from repro.crypto.random import DeterministicRandomSource
from repro.datastructures import IndexedAVL, IndexedSkipList, ReferenceIndex
from repro.errors import DataStructureError

#: small leaves, so a few dozen blocks cross every boundary
B = 4

OUTERS = {
    "skiplist": lambda: IndexedSkipList(rng=random.Random(7)),
    "avl": IndexedAVL,
    "reference": ReferenceIndex,
}


def _columns(tag: int, n: int, rpc: bool):
    """``n`` synthetic blocks: texts of 1-3 chars and distinct cipher,
    lead and payload bytes."""
    texts = [chr(97 + (tag + i) % 26) * (1 + (tag + i) % 3) for i in range(n)]
    blocks = b"".join(bytes([tag % 256, i % 256]) * 8 for i in range(n))
    if not rpc:
        return texts, blocks, None, None
    leads = b"".join(bytes([tag % 256, i % 256, 1, 2]) for i in range(n))
    payloads = b"".join(bytes([i % 256, tag % 256]) * 4 for i in range(n))
    return texts, blocks, leads, payloads


class Twin:
    """A store of leaves of B blocks and its per-block twin, written
    alike and compared after every operation."""

    def __init__(self, outer: str, rpc: bool):
        self.rpc = rpc
        self.leaves = BlockLeaves(OUTERS[outer], B)
        self.flat = BlockLeaves(OUTERS[outer], 1)
        self.tag = 0

    def extend(self, n: int) -> None:
        self.tag += 1
        columns = _columns(self.tag, n, self.rpc)
        for store in (self.leaves, self.flat):
            store.extend(*columns)
        self.check()

    def splice(self, ra: int, rb: int, n: int) -> None:
        self.tag += 1
        texts, blocks, leads, payloads = _columns(self.tag, n, self.rpc)
        for store in (self.leaves, self.flat):
            store.splice(ra, rb, list(texts), leads, payloads)
            store.write(ra, blocks)
        self.check()

    def sizes(self) -> list[int]:
        """Blocks per leaf, in order."""
        return [len(leaf) for leaf, _ in self.leaves._outer.items()]

    def check(self) -> None:
        self.leaves.checkrep()
        self.flat.checkrep()
        assert all(len(leaf) == 1 for leaf, _ in self.flat._outer.items())
        assert list(self.leaves.texts()) == list(self.flat.texts())
        assert self.leaves.columns() == self.flat.columns()
        n = len(self.flat)
        assert len(self.leaves) == n
        assert self.leaves.total_chars == self.flat.total_chars
        assert self.leaves.get_range(0, n) == self.flat.get_range(0, n)
        for rank in range(n + 1):
            assert self.leaves.char_start(rank) == self.flat.char_start(rank)
        for index in range(self.flat.total_chars):
            assert self.leaves.find_char(index) == self.flat.find_char(index)
        for ra in range(0, n, 3):
            for rb in (ra, ra + 1, min(n, ra + 2 * B + 1), n):
                assert self.leaves.get_range(ra, rb) == \
                    self.flat.get_range(ra, rb)


@pytest.fixture(params=sorted(OUTERS))
def outer(request):
    return request.param


@pytest.fixture(params=[False, True], ids=["recb", "rpc"])
def twin(request, outer):
    return Twin(outer, request.param)


def test_growing_from_empty_to_one_leaf(twin):
    assert len(twin.leaves) == 0 and twin.sizes() == []
    twin.splice(0, 0, 1)
    assert twin.sizes() == [1]  # a lone leaf may hold fewer than B/2
    for _ in range(2 * B - 2):
        twin.splice(len(twin.flat), len(twin.flat), 1)
    assert twin.sizes() == [2 * B - 1]
    assert twin.flat.get_range(0, 2 * B - 1).texts == \
        twin.leaves.get_range(0, 2 * B - 1).texts


def test_bulk_build_cuts_leaves_of_b_to_2b(twin):
    twin.extend(10 * B + 3)
    assert len(twin.sizes()) == 10
    assert all(B <= size <= 2 * B - 1 for size in twin.sizes())


def test_splice_across_two_leaves(twin):
    twin.extend(3 * B)
    assert twin.sizes() == [B, B, B]
    twin.splice(B - 1, B + 1, 3)  # the last block of leaf 0, first of 1
    assert sum(twin.sizes()) == 3 * B + 1
    assert all(2 * size >= B for size in twin.sizes())


def test_split_past_2b(twin):
    twin.extend(2 * B)
    assert twin.sizes() == [B, B]
    twin.splice(1, 1, B)  # leaf 0 grows to 2B blocks
    assert sum(twin.sizes()) == 3 * B
    assert len(twin.sizes()) == 3
    assert all(size <= 2 * B - 1 for size in twin.sizes())


def test_merge_under_half_b(twin):
    twin.extend(3 * B)
    twin.splice(B, B + B // 2 + 1, 0)  # leaf 1 keeps B/2 - 1 blocks
    assert twin.sizes() == [B + B // 2 - 1, B]  # ... and joins leaf 0
    twin.splice(0, B + B // 2 - 2, 0)  # leaf 0 keeps one block
    assert twin.sizes() == [B + 1]  # ... and joins its right neighbour


def test_deleting_a_whole_leaf(twin):
    twin.extend(3 * B)
    twin.splice(B, 2 * B, 0)
    assert twin.sizes() == [B, B]
    twin.splice(0, 2 * B, 0)
    assert twin.sizes() == [] and len(twin.leaves) == 0
    twin.splice(0, 0, 2)  # and grows back from empty
    assert twin.sizes() == [2]


def test_random_splices_agree_with_the_twin(twin):
    rng = random.Random(11)
    twin.extend(5 * B)
    for _ in range(60):
        n = len(twin.flat)
        ra = rng.randint(0, n)
        rb = rng.randint(ra, min(n, ra + 3 * B))
        twin.splice(ra, rb, rng.choice((0, 1, 2, B, 3 * B)))
    twin.extend(B + 1)  # appending to a non-empty store


def test_checkrep_catches_stale_prefix_sums():
    store = BlockLeaves(IndexedSkipList, B)
    store.extend(*_columns(1, 3 * B, False))
    leaf = next(store._outer.values())
    leaf.texts[0] += "x"
    with pytest.raises(DataStructureError, match="prefix sums"):
        store.checkrep()


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_document_edits_across_leaves_match_the_per_block_twin(scheme):
    """At the document's own B, edits that cross, split, merge and
    delete leaves return the per-block twin's cdeltas byte for byte."""
    keys = KeyMaterial.from_password("leaves", salt=b"leafsalt01")
    text = "lorem ipsum dolor sit amet " * 60  # ~200 blocks
    doc, twin = (
        cls.create(text, key_material=keys, rng=DeterministicRandomSource(4))
        for cls in (scheme_factory(scheme), per_block(scheme_factory(scheme)))
    )
    width = 8 * LEAF_BLOCKS
    edits = [
        Delta.replacement(width - 20, 40, "across a leaf boundary"),
        Delta.insertion(3 * width // 2, "y" * 2 * width),
        Delta.deletion(width // 2, width),
        Delta.deletion(0, width + 100),
        Delta.insertion(0, "regrown " * 10),
    ]
    for delta in edits:
        assert doc.apply_delta(delta).serialize() == \
            twin.apply_delta(delta).serialize()
        doc._leaves.checkrep()
        assert doc.text == twin.text and doc.wire() == twin.wire()
