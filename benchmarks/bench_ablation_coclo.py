"""Ablation B — incremental encryption vs whole-document re-encryption.

The paper's efficiency claim against CoClo [12]: re-encrypting and
retransmitting the entire document for every update is what incremental
encryption avoids.  A third arm — the naive fixed-alignment block store
of SV-C — re-encrypts every block after the edit point.

Measured per single-character edit at several document sizes:

* CPU time of the update, and
* bytes that must be transmitted to the server (the cdelta size),

for (1) the incremental IndexedSkipList document, (2) the CoClo-style
whole-document document, (3) the naive realigning store.  Expected
shape: incremental stays flat in both metrics while both baselines grow
linearly; the crossover sits at tiny documents (a few blocks), matching
the paper's "vital for efficiently editing medium to large size
documents".
"""

from __future__ import annotations

import random

import pytest

from conftest import register_table
from repro.bench import Sample, render_table
from repro.baselines import CocloDocument, NaiveAlignedDocument
from repro.core import KeyMaterial, create_document
from repro.crypto.random import DeterministicRandomSource
from repro.workloads.documents import document_of_length

SIZES = [100, 1_000, 5_000, 20_000]
EDITS = 12

KEYS = KeyMaterial.from_password("bench", salt=b"benchsaltB")


def _arms(text):
    rng = DeterministicRandomSource(11)
    return {
        "incremental (this paper)": create_document(
            text, key_material=KEYS, scheme="recb", block_chars=8, rng=rng
        ),
        "CoClo (re-encrypt all)": CocloDocument(
            text, key_material=KEYS, block_chars=8, rng=rng
        ),
        "naive realign": NaiveAlignedDocument(
            text, key_material=KEYS, block_chars=8, rng=rng
        ),
    }


def _edit_cost(doc, n, seed):
    """Mean (seconds, cdelta chars) over random 1-char inserts."""
    rng = random.Random(seed)
    laps = Sample()
    total_bytes = 0
    for _ in range(EDITS):
        pos = rng.randint(0, doc.char_length)
        with laps.lap():
            cdelta = doc.insert(pos, "x")
        total_bytes += len(cdelta.serialize())
    return laps.mean, total_bytes / EDITS


@pytest.fixture(scope="module")
def ablation():
    results = {}
    for n in SIZES:
        text = document_of_length(n, seed=n)
        for name, doc in _arms(text).items():
            results[(name, n)] = _edit_cost(doc, n, seed=n)
    rows = []
    for name in ("incremental (this paper)", "CoClo (re-encrypt all)",
                 "naive realign"):
        rows.append(
            [name]
            + [f"{results[(name, n)][0] * 1e3:.2f} ms" for n in SIZES]
        )
        rows.append(
            ["  ... bytes sent"]
            + [f"{results[(name, n)][1]:.0f}" for n in SIZES]
        )
    register_table("ablation_coclo", render_table(
        ["arm"] + [f"n={n}" for n in SIZES],
        rows,
        title="Ablation B - cost of one 1-char edit: incremental vs "
              "whole-document baselines (b=8, rECB)",
    ))
    return results


class TestAblationCoclo:
    @pytest.mark.parametrize("arm", ["incremental (this paper)",
                                     "CoClo (re-encrypt all)"])
    def test_edit_cost(self, benchmark, ablation, arm):
        text = document_of_length(5_000, seed=1)
        doc = _arms(text)[arm]
        positions = iter(range(10 ** 9))

        def one_edit():
            doc.insert(next(positions) % doc.char_length, "x")

        benchmark(one_edit)

    def test_shape_incremental_flat(self, ablation):
        small = ablation[("incremental (this paper)", 100)]
        large = ablation[("incremental (this paper)", 20_000)]
        assert large[1] < small[1] * 4          # bytes ~flat
        assert large[0] < max(small[0] * 20, 0.005)  # time stays tiny

    def test_shape_coclo_grows_linearly(self, ablation):
        small = ablation[("CoClo (re-encrypt all)", 100)]
        large = ablation[("CoClo (re-encrypt all)", 20_000)]
        assert large[1] > small[1] * 50   # bytes grow with the document

    def test_shape_incremental_wins_at_scale(self, ablation):
        """Who wins, by roughly what factor: at 20k chars the paper's
        approach must beat CoClo by well over an order of magnitude in
        transmitted bytes."""
        incremental = ablation[("incremental (this paper)", 20_000)]
        coclo = ablation[("CoClo (re-encrypt all)", 20_000)]
        naive = ablation[("naive realign", 20_000)]
        assert coclo[1] / incremental[1] > 20
        assert coclo[0] > incremental[0]
        # naive realign averages half-document re-encryption
        assert naive[0] > incremental[0]

    def test_shape_crossover_is_small(self, ablation):
        """At 100 chars the arms are within one small factor — the
        incremental machinery only pays off beyond toy documents."""
        incremental = ablation[("incremental (this paper)", 100)]
        coclo = ablation[("CoClo (re-encrypt all)", 100)]
        assert coclo[1] < incremental[1] * 30
