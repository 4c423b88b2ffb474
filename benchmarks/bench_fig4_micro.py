"""Fig. 4 — micro-benchmark of cryptographic operations (RPC mode).

Paper setup (SVII-B): test cases are pairs (D, D') of random documents
with lengths uniform in [100, 10000]; for each pair a delta is derived
that transforms D into D'.  Measured: time to encrypt D, time to
transform the delta (incremental encryption), time to decrypt D' — all
normalized per character, plus the resulting plaintext throughput.

Paper numbers (Firefox 3 JS AES on a 2008 Core 2 Duo):
    encryption .091 ms/char, decryption .085 ms/char,
    incremental .110 ms/char; throughput 9.1-11.8 kB/s.
Our absolute numbers differ (CPython + NumPy-batched AES); the paper's
*shape* — all three within a small factor of each other, incremental
slightly above plain encryption per delta-char — is what to compare.
"""

from __future__ import annotations

import pytest

from conftest import register_table
from repro.bench import Sample, metrics_cell, ms_per_char, render_table
from repro.core import KeyMaterial, create_document, load_document
from repro.crypto.random import DeterministicRandomSource
from repro.obs import capture
from repro.workloads.diff import simple_delta
from repro.workloads.documents import micro_pairs

#: the paper ran 1000 tests; a smaller deterministic sample keeps the
#: whole bench suite fast while the per-char averages stabilize well
PAIR_COUNT = 25

KEYS = KeyMaterial.from_password("bench", salt=b"benchsalt1")


def _rng():
    return DeterministicRandomSource(4)


#: counters reported in the table's operation-count column
TRACKED = ("crypto.aes.calls", "index.node_visits", "index.splices",
           "index.range_visits")


def _run_micro(scheme: str = "rpc") -> tuple[dict[str, Sample],
                                             dict[str, dict[str, float]]]:
    # table row order; each pair runs them as encrypt, transform, decrypt
    results = {label: Sample() for label in ("encryption (D)",
                                             "decryption (D')",
                                             "incremental encryption")}
    ops = {label: dict.fromkeys(TRACKED, 0.0) for label in results}
    for pair in micro_pairs(PAIR_COUNT, seed=44):
        delta = simple_delta(pair.before, pair.after)
        delta_chars = max(1, delta.chars_inserted + delta.chars_deleted)

        laps = Sample()
        with capture() as enc_ops, laps.lap():
            doc = create_document(pair.before, key_material=KEYS,
                                  scheme=scheme, rng=_rng())
        with capture() as inc_ops, laps.lap():
            doc.apply_delta(delta)
        wire = doc.wire()
        with capture() as dec_ops, laps.lap():
            reloaded = load_document(wire, key_material=KEYS)
        assert reloaded.text == pair.after

        for label, lap, chars, cap in zip(
                ("encryption (D)", "incremental encryption",
                 "decryption (D')"),
                laps.values,
                (len(pair.before), delta_chars, max(1, len(pair.after))),
                (enc_ops, inc_ops, dec_ops)):
            results[label].add(ms_per_char(lap, chars))
            for name in TRACKED:
                ops[label][name] += cap[name]
    return results, ops


@pytest.fixture(scope="module")
def micro_results():
    results, ops = _run_micro()
    recb, _ = _run_micro(scheme="recb")
    throughput = 1.0 / results["encryption (D)"].mean  # chars/ms ~ kB/s
    rows = [
        [name, f"{sample.mean:.5f} ms", f"dev {sample.dev:.5f}",
         f"{recb[name].mean:.5f} ms", metrics_cell(ops[name])]
        for name, sample in results.items()
    ]
    rows.append(["throughput", f"{throughput:.1f} kB/s plaintext", "",
                 f"{1.0 / recb['encryption (D)'].mean:.1f} kB/s", ""])
    register_table("fig4_micro", render_table(
        ["operation", "RPC avg (per char)", "", "rECB avg",
         "ops (RPC total)"],
        rows,
        title=f"Fig. 4 - micro-benchmark, RPC mode "
              f"(averages from {PAIR_COUNT} tests; rECB shown for the "
              f"paper's 'slightly better' comparison)",
    ))
    return results


class TestFig4:
    def test_encrypt_whole_document(self, benchmark, micro_results):
        [pair] = list(micro_pairs(1, seed=7, min_chars=5000, max_chars=5000))
        benchmark(
            lambda: create_document(pair.before, key_material=KEYS,
                                    scheme="rpc", rng=_rng())
        )

    def test_decrypt_whole_document(self, benchmark, micro_results):
        [pair] = list(micro_pairs(1, seed=8, min_chars=5000, max_chars=5000))
        wire = create_document(pair.before, key_material=KEYS, scheme="rpc",
                               rng=_rng()).wire()
        benchmark(lambda: load_document(wire, key_material=KEYS))

    def test_incremental_encryption(self, benchmark, micro_results):
        [pair] = list(micro_pairs(1, seed=9, min_chars=5000, max_chars=5000,
                                  related=True))
        delta = simple_delta(pair.before, pair.after)

        def transform():
            doc = create_document(pair.before, key_material=KEYS,
                                  scheme="rpc", rng=_rng())
            doc.apply_delta(delta)

        benchmark(transform)

    def test_shape_recb_no_slower_than_rpc(self, micro_results):
        """SVII-B: "the performance of confidentiality-only mode is
        slightly better than RPC" — allow generous noise headroom."""
        recb, _ = _run_micro(scheme="recb")
        assert (recb["encryption (D)"].mean
                <= micro_results["encryption (D)"].mean * 1.5)

    def test_shape_incremental_close_to_encryption(self, micro_results):
        """The paper's qualitative claim: per processed character, the
        incremental path costs the same order as plain encryption."""
        enc = micro_results["encryption (D)"].mean
        inc = micro_results["incremental encryption"].mean
        assert inc < enc * 20
        assert enc < inc * 20
