"""Ablation D — design-parameter sensitivity.

Two knobs DESIGN.md calls out but the paper fixes silently:

* the SkipList pole-growth probability **p** (Pugh's parameter; the
  paper inherits 0.5).  Sweeping p shows the flat optimum around
  0.25-0.5 — the structure is robust to it, justifying not exposing it;
* the **index structure** end-to-end: the same editing session on
  EncryptedDocument backed by the IndexedSkipList vs. the IndexedAVL.
  Both are within noise of each other — the index is not the
  bottleneck once AES and wire encoding are in the loop, confirming
  the paper's "any balanced structure would do" remark.
"""

from __future__ import annotations

import random

import pytest

from conftest import register_table
from repro.bench import REPS, Sample, render_table
from repro.core import KeyMaterial, create_document
from repro.crypto.random import DeterministicRandomSource
from repro.datastructures import IndexedAVL, IndexedSkipList
from repro.workloads.documents import document_of_length
from repro.workloads.edits import edit_stream

KEYS = KeyMaterial.from_password("bench", salt=b"benchsaltD")
DOC_CHARS = 10_000
EDITS = 40

P_VALUES = [0.125, 0.25, 0.5, 0.75]


def _skiplist_ops_per_second(p: float) -> float:
    structure = IndexedSkipList(p=p, rng=random.Random(1))
    structure.extend((i, 1 + i % 8) for i in range(20_000))
    rng = random.Random(2)
    per_lap = 4_000 // REPS
    laps = Sample()
    for rep in range(REPS):
        with laps.lap():
            for step in range(rep * per_lap, (rep + 1) * per_lap):
                roll = rng.random()
                if roll < 0.5:
                    structure.find_char(
                        rng.randrange(structure.total_chars))
                elif roll < 0.75:
                    rank = rng.randint(0, len(structure))
                    structure.splice(rank, rank,
                                     [(step, rng.randint(1, 8))])
                else:
                    rank = rng.randrange(len(structure))
                    structure.splice(rank, rank + 1, [])
    return per_lap / laps.median


def _session_seconds(index_factory) -> float:
    text = document_of_length(DOC_CHARS, seed=1)
    doc = create_document(text, key_material=KEYS, scheme="recb",
                          block_chars=8, rng=DeterministicRandomSource(3),
                          index_factory=index_factory)
    rng = random.Random(4)
    laps = Sample()
    for delta in edit_stream(text, "inserts & deletes", rng, EDITS):
        with laps.lap():
            doc.apply_delta(delta)
    return sum(laps.values)


@pytest.fixture(scope="module")
def ablation():
    p_rates = {p: _skiplist_ops_per_second(p) for p in P_VALUES}
    p_rows = [
        [f"p={p}", f"{rate / 1000:.0f}k ops/s"]
        for p, rate in p_rates.items()
    ]
    structures = {
        "IndexedSkipList": lambda: IndexedSkipList(rng=random.Random(7)),
        "IndexedAVL": IndexedAVL,
    }
    session_times = {
        name: _session_seconds(factory)
        for name, factory in structures.items()
    }
    end_rows = [
        [name, f"{seconds * 1000:.0f} ms / {EDITS} edits"]
        for name, seconds in session_times.items()
    ]
    register_table("ablation_params", render_table(
        ["knob", "result"],
        p_rows + end_rows,
        title="Ablation D - SkipList p sweep (20k blocks, mixed ops) and "
              "end-to-end index choice (10k-char doc)",
    ))
    return {"sessions": session_times, "p_rates": p_rates}


class TestAblationParams:
    def test_skiplist_mixed_ops(self, benchmark, ablation):
        structure = IndexedSkipList(rng=random.Random(9))
        structure.extend((i, 4) for i in range(20_000))
        rng = random.Random(10)
        benchmark(
            lambda: structure.find_char(rng.randrange(structure.total_chars))
        )

    def test_p_is_a_flat_knob(self, ablation):
        """Within 3x across an 6x p range: not worth exposing."""
        rates = ablation["p_rates"]
        assert max(rates.values()) < 3 * min(rates.values())

    def test_index_choice_immaterial_end_to_end(self, ablation):
        sessions = ablation["sessions"]
        ratio = max(sessions.values()) / min(sessions.values())
        assert ratio < 2.5  # well within noise of each other
