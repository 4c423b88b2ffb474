"""Ablation A — the block-index data structure.

SV-C argues no classical structure gives both constant-time updates and
indexing, introduces the IndexedSkipList, and notes the same indexing
idea applies to balanced trees.  This ablation compares, at several
document scales:

* IndexedSkipList (the paper's structure),
* IndexedAVL (the balanced-tree variant the paper sketches),
* ReferenceIndex (a plain list: O(1)-amortized memory moves but O(n)
  scans — the "just use an array" strawman).

These are the per-block structures: one node per block, the paper's
SV-C index.  The encrypted document runs them at B = 1 only
(``repro.core.document.per_block``); by default it indexes leaves of
``LEAF_BLOCKS`` = 32 blocks, one node each (``repro.core.leaves``).

Measured: mixed find-by-char / insert / delete / width-update
per-operation cost, the median of ``REPS`` laps.  Every write is a
``splice`` — the index's only write, and the one the encrypted document
runs: insert ``splice(r, r, [block])``, delete ``splice(r, r + 1, [])``,
update ``splice(r, r + 1, [block])``.  Expected shape: the log-time
structures stay flat as n grows 100x while the list's per-op cost grows
roughly linearly.
"""

from __future__ import annotations

import random

import pytest

from conftest import register_table
from repro.bench import REPS, Sample, render_table
from repro.datastructures import IndexedAVL, IndexedSkipList, ReferenceIndex

SIZES = [1_000, 10_000, 100_000]
OPS = 2_000

STRUCTURES = {
    "IndexedSkipList": lambda: IndexedSkipList(rng=random.Random(1)),
    "IndexedAVL": IndexedAVL,
    "ReferenceIndex (list)": ReferenceIndex,
}


def _populate(structure, n):
    structure.extend((i, 1 + i % 8) for i in range(n))


def _mixed_ops(structure, count, seed):
    """Seconds per op: ``count`` mixed ops timed in ``REPS`` equal laps,
    the median lap over its ops."""
    rng = random.Random(seed)
    per_lap = count // REPS
    laps = Sample()
    for rep in range(REPS):
        with laps.lap():
            for step in range(rep * per_lap, (rep + 1) * per_lap):
                roll = rng.random()
                if roll < 0.4:
                    structure.find_char(
                        rng.randrange(structure.total_chars))
                elif roll < 0.6:
                    rank = rng.randint(0, len(structure))
                    structure.splice(rank, rank,
                                     [(step, rng.randint(1, 8))])
                elif roll < 0.8 and len(structure) > 1:
                    rank = rng.randrange(len(structure))
                    structure.splice(rank, rank + 1, [])
                else:
                    rank = rng.randrange(len(structure))
                    structure.splice(rank, rank + 1,
                                     [(step, rng.randint(1, 8))])
    return laps.median / per_lap


@pytest.fixture(scope="module")
def ablation():
    results: dict[tuple[str, int], float] = {}
    for name, factory in STRUCTURES.items():
        for n in SIZES:
            ops = OPS if name != "ReferenceIndex (list)" or n <= 10_000 else 300
            structure = factory()
            _populate(structure, n)
            results[(name, n)] = _mixed_ops(structure, ops, seed=n)
    rows = [
        [name] + [f"{results[(name, n)] * 1e6:.1f} us" for n in SIZES]
        for name in STRUCTURES
    ]
    register_table("ablation_structures", render_table(
        ["structure"] + [f"n={n}" for n in SIZES],
        rows,
        title="Ablation A - per-operation cost of the block index "
              "(mixed find/insert/delete/update)",
    ))
    return results


class TestAblationStructures:
    @pytest.mark.parametrize("name", list(STRUCTURES))
    def test_mixed_ops(self, benchmark, ablation, name):
        structure = STRUCTURES[name]()
        _populate(structure, 10_000)
        rng = random.Random(7)

        def one_op():
            structure.find_char(rng.randrange(structure.total_chars))

        benchmark(one_op)

    def test_shape_log_structures_scale(self, ablation):
        """100x more blocks must NOT cost ~100x more per op for the
        log-time structures (allow 6x for cache effects)..."""
        for name in ("IndexedSkipList", "IndexedAVL"):
            assert ablation[(name, 100_000)] < ablation[(name, 1_000)] * 6

    def test_shape_list_degrades(self, ablation):
        """...while the flat list visibly degrades with n."""
        list_name = "ReferenceIndex (list)"
        assert (
            ablation[(list_name, 100_000)]
            > ablation[(list_name, 1_000)] * 10
        )

    def test_shape_crossover(self, ablation):
        """At 100k blocks (a ~full-size document at b=1) the log
        structures beat the list outright."""
        for name in ("IndexedSkipList", "IndexedAVL"):
            assert (
                ablation[(name, 100_000)]
                < ablation[("ReferenceIndex (list)", 100_000)]
            )
