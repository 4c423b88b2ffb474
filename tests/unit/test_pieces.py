"""Leaf-table store: string equivalence, atomicity, history cap.

The gdocs server stores each document as a
:class:`~repro.core.leaves.LeafText` — the text as a table of bounded
pieces, its leaves, the same stored-wire type the client's mirror keeps
— and applies deltas by rewriting only the leaves they touch.  These tests pin the two load-bearing claims: (1)
the leaf apply path is *observationally identical* to ``Delta.apply``
on a plain string, under arbitrary random edit histories and across
leaf splits and merges, and the deleted spans it returns invert every
edit; (2) the :class:`StoredDocument` history cap compacts old
revisions without perturbing anything a client (or adversary) can
still reach.
"""

import random

import pytest

from repro.core import leaves
from repro.core.delta import Delta
from repro.core.leaves import LeafText
from repro.crypto.random import DeterministicRandomSource
from repro.errors import DeltaApplicationError, QuotaExceededError
from repro.extension.session import PrivateEditingSession
from repro.obs import capture
from repro.services.gdocs.storage import (
    MAX_DOCUMENT_CHARS,
    DocumentStore,
    StoredDocument,
)


def random_delta(rng, length):
    """A small random replacement delta valid for a ``length``-char doc."""
    pos = rng.randrange(length + 1)
    ndel = min(rng.randrange(0, 6), length - pos)
    ins = "".join(rng.choice("xyzw \t%") for _ in range(rng.randrange(0, 6)))
    ops = []
    if pos:
        ops.append(f"={pos}")
    if ndel:
        ops.append(f"-{ndel}")
    if ins:
        ops.append("+" + ins.replace("%", "%25").replace("\t", "%09"))
    return Delta.parse("\t".join(ops))


class TestPieceTableEquivalence:
    """The store's table of pieces is a leaf table; ``leaf_chars``
    shrinks its leaf cap so short texts split into many leaves."""

    # caps of 512 and 4 split the text into a few, dozens or
    # thousands of leaves, which random edits keep splitting and
    # merging
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("size,leaf_chars,rounds", [
        (1_500, 512, 300), (20_000, 4, 120), (20_000, 512, 120),
    ])
    def test_random_histories_match_string_apply(self, seed, size,
                                                 leaf_chars, rounds,
                                                 monkeypatch):
        monkeypatch.setattr(leaves, "LEAF_CHARS", leaf_chars)
        rng = random.Random(seed)
        text = "".join(rng.choice("abcdef \n") for _ in range(size))
        table = LeafText(text)
        for _ in range(rounds):
            delta = random_delta(rng, len(text))
            text = delta.apply(text)
            table.apply_delta(delta)
            assert table.length == len(text)
        assert table.join() == text
        cap = 2 * leaves.LEAF_CHARS
        assert all(0 < len(leaf) <= cap for leaf in table._leaves)
        assert all(len(leaf) >= leaf_chars // 2
                   for leaf in table._leaves[:-1])

    @pytest.mark.parametrize("size", [11, 20_000])
    def test_failed_delta_leaves_table_unchanged(self, size):
        text = "hello world" * (size // 11)
        table = LeafText(text)
        digest = table.hexdigest()
        with pytest.raises(DeltaApplicationError,
                           match=f"delta consumes {len(text) + 94} chars, "
                                 f"text has {len(text)}"):
            table.apply_delta(Delta.parse(f"={len(text) - 5}\t-99"))
        assert table.join() == text
        assert table.length == len(text)
        assert table.hexdigest() == digest

    def test_inverses_rebuild_every_version_across_splits(self,
                                                          monkeypatch):
        monkeypatch.setattr(leaves, "LEAF_CHARS", 2)
        table = LeafText("hello")
        versions, inverses = ["hello"], []
        for i in range(10):
            delta = Delta.parse(f"+{i}")
            inverses.append(delta.inverse(table.apply_delta(delta)))
            versions.append(table.join())
        assert len(table._leaves) > 1
        text = table.join()
        for want, inverse in zip(reversed(versions[:-1]),
                                 reversed(inverses)):
            text = inverse.apply(text)
            assert text == want
        assert text == "hello"

    def test_inverses_on_the_multi_leaf_path(self):
        rng = random.Random(9)
        text = "abcdefgh" * 6000  # 48k chars: several leaves
        table = LeafText(text)
        assert len(table._leaves) > 1
        for _ in range(40):
            delta = random_delta(rng, len(text))
            deleted = table.apply_delta(delta)
            after = delta.apply(text)
            assert delta.inverse(deleted).apply(after) == text
            text = after
        assert table.join() == text


class TestHistoryCap:
    def test_old_revisions_are_compacted(self):
        doc = StoredDocument("d", max_history=5)
        for i in range(12):
            doc.apply_delta(f"+{i}")
        assert doc.revision == 12
        assert len(doc.history) == 5
        assert doc.history_floor == 7

    def test_deltas_since_returns_none_below_the_floor(self):
        doc = StoredDocument("d", max_history=5)
        for i in range(12):
            doc.apply_delta(f"+{i}")
        assert doc.deltas_since(6) is None  # compacted away
        assert doc.deltas_since(doc.history_floor) == \
            ["+7", "+8", "+9", "+10", "+11"]
        assert doc.deltas_since(10) == ["+10", "+11"]
        assert doc.deltas_since(12) == []

    def test_full_save_still_breaks_the_delta_chain(self):
        doc = StoredDocument("d", max_history=100)
        doc.apply_delta("+a")
        doc._commit("fresh")
        doc.apply_delta("+b")
        assert doc.deltas_since(0) is None  # full save in the window
        assert doc.deltas_since(2) == ["+b"]

    def test_history_entries_materialize_like_the_old_strings(self):
        doc = StoredDocument("d")
        doc._commit("v0")
        doc._commit("v1")
        assert doc.history == ["", "v0"]
        assert doc.history[-1] == "v0"
        assert list(doc.history) == ["", "v0"]
        assert doc.content == "v1"


class TestQuotaAtomicity:
    def test_over_quota_delta_rolls_back_completely(self):
        store = DocumentStore()
        store.create("d", "x" * (MAX_DOCUMENT_CHARS - 2))
        store.apply_delta("d", "+ab")  # lands exactly on the limit
        doc = store.get("d")
        with pytest.raises(QuotaExceededError, match="would be 500001"):
            store.apply_delta("d", "+y")
        assert doc.length == MAX_DOCUMENT_CHARS
        assert doc.revision == 1
        assert doc.content.startswith("ab")


class TestStoreCounters:
    def test_verified_delta_save_walks_one_store_leaf(self):
        """``gdocs.pieces.walked`` counts the store's leaves only: the
        mirror applies every cdelta to a ``LeafText`` of its own, and
        that apply must not add to the store's counter."""
        session = PrivateEditingSession("walked", "pw", verify_acks=True,
                                        rng=DeterministicRandomSource(4))
        session.open()
        session.type_text(0, "a short document, one leaf on both sides")
        assert session.save().kind == "full"
        session.type_text(2, "very ")
        with capture() as cap:
            outcome = session.save()
        assert outcome.kind == "delta" and outcome.ok
        assert not outcome.complaints
        stored = session.server.store.get("walked")
        assert len(stored._table._leaves) == 1
        assert cap["gdocs.pieces.walked"] == 1
