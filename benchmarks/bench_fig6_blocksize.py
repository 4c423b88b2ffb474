"""Fig. 6 — impact of block size on multi-character incremental
encryption (rECB, 10000-character documents).

Paper setup (SVII-D): the micro-benchmark of SVII-B with the original
document length fixed at 10000 characters, sweeping the block-capacity
parameter b = 1..8.  Two panels:

  (a) encrypting whole documents — per-char cost falls as b grows
      (fewer AES blocks per character);
  (b) incremental updates — the SkipIndexList bookkeeping overhead is
      visible at b=1 but "well compensated by setting the block size to
      7 or above".

Shape to reproduce: both curves decrease with b; the b=8 point costs a
fraction of the b=1 point.
"""

from __future__ import annotations

import pytest

from conftest import register_table
from repro.bench import Sample, ms_per_char, render_table
from repro.core import KeyMaterial, create_document
from repro.crypto.random import DeterministicRandomSource
from repro.workloads.diff import simple_delta
from repro.workloads.documents import document_of_length, micro_pairs

DOC_CHARS = 10_000
BLOCK_SIZES = list(range(1, 9))
TRIALS = 6

KEYS = KeyMaterial.from_password("bench", salt=b"benchsalt6")


def _rng():
    return DeterministicRandomSource(6)


@pytest.fixture(scope="module")
def sweep():
    whole: dict[int, Sample] = {}
    incremental: dict[int, Sample] = {}
    for b in BLOCK_SIZES:
        whole[b] = Sample()
        incremental[b] = Sample()
        for trial in range(TRIALS):
            text = document_of_length(DOC_CHARS, seed=trial)
            laps = Sample()
            with laps.lap():
                create_document(text, key_material=KEYS, scheme="recb",
                                block_chars=b, rng=_rng())
            whole[b].add(ms_per_char(laps.values[-1], DOC_CHARS))

            [pair] = list(micro_pairs(1, seed=100 + trial, related=True,
                                      min_chars=DOC_CHARS,
                                      max_chars=DOC_CHARS))
            doc2 = create_document(pair.before, key_material=KEYS,
                                   scheme="recb", block_chars=b,
                                   rng=_rng())
            delta = simple_delta(pair.before, pair.after)
            delta_chars = max(1, delta.chars_inserted + delta.chars_deleted)
            with laps.lap():
                doc2.apply_delta(delta)
            incremental[b].add(ms_per_char(laps.values[-1], delta_chars))

    rows = [
        [str(b),
         f"{whole[b].mean:.5f}", f"{whole[b].dev:.5f}",
         f"{incremental[b].mean:.5f}", f"{incremental[b].dev:.5f}"]
        for b in BLOCK_SIZES
    ]
    register_table("fig6_blocksize", render_table(
        ["block size",
         "(a) whole-doc ms/char", "dev",
         "(b) incremental ms/char", "dev"],
        rows,
        title=f"Fig. 6 - impact of block size "
              f"(rECB, {DOC_CHARS}-char documents, {TRIALS} trials)",
    ))
    return whole, incremental


class TestFig6:
    @pytest.mark.parametrize("b", [1, 4, 8])
    def test_whole_document_encryption(self, benchmark, sweep, b):
        text = document_of_length(DOC_CHARS, seed=0)
        benchmark(
            lambda: create_document(text, key_material=KEYS, scheme="recb",
                                    block_chars=b, rng=_rng())
        )

    @pytest.mark.parametrize("b", [1, 8])
    def test_incremental_update(self, benchmark, sweep, b):
        text = document_of_length(DOC_CHARS, seed=0)
        doc = create_document(text, key_material=KEYS, scheme="recb",
                              block_chars=b, rng=_rng())
        positions = iter(range(10 ** 9))

        def one_edit():
            doc.insert(next(positions) % DOC_CHARS, "x")

        benchmark(one_edit)

    def test_shape_whole_doc_cost_decreases(self, sweep):
        whole, _ = sweep
        assert whole[8].mean < whole[4].mean < whole[1].mean
        assert whole[8].mean < whole[1].mean / 2

    def test_shape_incremental_cost_decreases(self, sweep):
        _, incremental = sweep
        assert incremental[8].mean < incremental[1].mean
