"""Encrypted search & audit trail — the workspace's scaling bill.

Three costs decide whether the multi-document workspace (PR 10) stays
interactive, and this benchmark measures all three:

* **query latency vs corpus size** — a trapdoor lookup against the
  catalog plus client-side posting decryption, over corpora of 1k /
  10k / 100k documents.  The posting map is keyed by trapdoor, so
  latency must stay flat-ish (sub-linear) as the corpus grows; the
  script fails loudly if 100x more documents cost anywhere near 100x
  per query.  The indexer remembers every posting that authenticated
  once, so ``query_usec`` (one indexer, the same queries each lap)
  times a *repeated* search: after the first lap every posting is a
  memo hit.  ``query_cold_usec`` gives each lap a fresh indexer, so
  every lap decrypts every posting — a first search.
* **index maintenance folded into editing** — the workspace indexer
  rides every IncE pass (word-boundary re-tokenization of the changed
  span only).  The ``burst_overhead`` section replays the
  ``client_burst`` workload from ``bench_edit_throughput`` with and
  without the indexer attached; the overhead must stay ≤ 15%.
* **audit verification vs history depth** — re-verifying a
  hash-chained audit trail is one SHA-256 per link, linear in history
  depth; the curve documents the constant.

Every cell runs ``REPS`` times and records its median with the
quartiles (``repro.bench.timing``).  Run as a script
(``make bench-search``) it writes the ``BENCH_search.json`` sidecar at
the repo root, keeping the first run of its schema as ``baseline``
(same convention as every other sidecar; ``tools/bench_trend.py``
aggregates them all).
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

from repro.bench import REPS, Sample, write_sidecar
from repro.client.coalesce import EditCoalescer
from repro.core import KeyMaterial, create_document
from repro.core.auditchain import AuditChain, verify_entries
from repro.crypto.random import DeterministicRandomSource
from repro.datastructures import IndexedSkipList
from repro.extension.catalog import WorkspaceIndexer
from repro.services.catalog import CatalogStore
from repro.services.gdocs.protocol import content_hash
from repro.workloads.edits import keystroke_deltas
from repro.workloads.text import make_text

SCHEMA = "repro.bench.search/v2"
SIDECAR = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_search.json"

KEYS = KeyMaterial.from_password("bench", salt=b"benchsalt1")

#: corpus sizes (documents) for the query-latency curve
CORPUS_SIZES = [1_000, 10_000, 100_000]
#: audit chain depths (links) for the verify curve
CHAIN_DEPTHS = [100, 1_000, 10_000]
#: queries per timed lap of a latency cell
QUERIES = 300
#: the acceptance bound: indexing folded into the burst edit path may
#: cost at most this fraction of the plain client_burst keystroke rate
MAX_OVERHEAD = 0.15
#: keystrokes per script-mode ``burst_overhead`` pair: 64 lockstep
#: bursts a side, so one slow burst cannot carry a quartile to the
#: gate, as one 256-keystroke lap a side could
BURST_KEYSTROKES = 2_048
#: sub-linearity gate: 100x more documents must cost less than this
#: factor per query (a linear scan would blow straight through it)
MAX_QUERY_GROWTH = 10.0

#: the shared vocabulary documents draw from (plus one unique word per
#: document, which is what the latency queries look up — a bounded
#: result set isolates corpus-size cost from result-size cost)
_VOCAB = [f"word{i}" for i in range(50)]


def _build_corpus(n_docs: int) -> tuple[WorkspaceIndexer, CatalogStore]:
    """An indexed corpus of ``n_docs`` documents, each holding a few
    vocabulary words plus one unique word ``uniq<i>``."""
    rng = random.Random(n_docs)
    indexer = WorkspaceIndexer("bench-tenant")
    store = CatalogStore()
    for i in range(n_docs):
        words = rng.sample(_VOCAB, 4)
        text = " ".join(words) + f" uniq{i}"
        store.apply_records(indexer.set_text(f"doc-{i}", text))
    return indexer, store


def _query_usec(n_docs: int) -> tuple[dict, dict]:
    """Microseconds per search (lookup + posting decryption), as the
    warm and the cold cell over one corpus.

    Warm laps share the corpus's indexer, so laps 2..n find every
    posting in its memo of authenticated blobs.  Cold laps each get a
    fresh indexer of the same tenant, built outside the lap, so each
    lap decrypts every posting it finds.
    """
    indexer, store = _build_corpus(n_docs)
    rng = random.Random(n_docs * 7)
    targets = [rng.randrange(n_docs) for _ in range(QUERIES)]

    def cell(fresh: bool) -> dict[str, float]:
        laps = Sample()
        searcher = indexer
        for _ in range(REPS):
            if fresh:
                searcher = WorkspaceIndexer("bench-tenant")
            trapdoors = [searcher.trapdoor(f"uniq{i}") for i in targets]
            hits = 0
            with laps.lap():
                for i, trapdoor in zip(targets, trapdoors):
                    for blob in store.lookup(trapdoor):
                        if searcher.decrypt_blob(trapdoor,
                                                 blob) == f"doc-{i}":
                            hits += 1
            assert hits == QUERIES, f"search broken: {hits}/{QUERIES} hits"
        return laps.map(lambda seconds: seconds * 1e6 / QUERIES).cell(2)

    return cell(False), cell(True)


def _index_update_eps(size: int = 20_000,
                      edits: int = 400) -> dict[str, float]:
    """Indexer-only maintenance rate: word-boundary re-tokenization of
    keystroke-sized changed spans, in edits/sec."""
    rng = random.Random(size)
    text = make_text(size, rng)
    deltas = keystroke_deltas(rng, len(text), edits)
    laps = Sample()
    for _ in range(REPS):
        indexer = WorkspaceIndexer("bench-tenant")
        indexer.adopt("doc", text)
        with laps.lap():
            for delta in deltas:
                indexer.apply("doc", delta)
    return laps.map(lambda seconds: edits / seconds).cell(1)


def _audit_verify_ms(depth: int) -> dict[str, float]:
    """Milliseconds to fully re-verify a ``depth``-link audit chain."""
    chain = AuditChain()
    for rev in range(1, depth + 1):
        chain.append(rev, content_hash(f"content at rev {rev}"))
    entries = chain.entries
    laps = Sample()
    for _ in range(REPS):
        with laps.lap():
            problems = verify_entries(entries)
        assert not problems, problems
    return laps.map(lambda seconds: seconds * 1e3).cell(3)


def _burst_pair(scheme: str, size: int, keystrokes: int, burst: int,
                indexer: WorkspaceIndexer) -> float:
    """One pair of the ``burst_overhead`` cell: the same keystrokes
    through a plain and an indexed copy of the coalesced IncE path.

    The two copies run in lockstep, one burst's keystrokes at a time,
    each side timed in turn, so a change of host speed during the pair
    lands on both halves instead of on one lap.  Returns the
    keystroke-rate cost of the indexer, 1 - indexed rate / plain rate.
    """
    rng = random.Random(size * 13 + keystrokes + burst)
    text = make_text(size, rng)
    deltas = keystroke_deltas(rng, len(text), keystrokes)
    indexer.adopt("doc", text)
    sides = []
    for side_indexer in (None, indexer):
        doc = create_document(text, key_material=KEYS, scheme=scheme,
                              rng=DeterministicRandomSource(9),
                              index_factory=lambda: IndexedSkipList(
                                  rng=random.Random(5)))
        sides.append((doc, EditCoalescer(max_ops=burst), side_indexer,
                      Sample()))

    def flush(doc, side_indexer, ready) -> None:
        if ready is None:
            return
        if side_indexer is not None:
            side_indexer.apply("doc", ready)
        doc.apply_delta(ready)

    for at in range(0, len(deltas) + burst, burst):
        for doc, journal, side_indexer, laps in sides:
            with laps.lap():
                for delta in deltas[at:at + burst]:
                    flush(doc, side_indexer, journal.add(delta))
                if at >= len(deltas):
                    flush(doc, side_indexer, journal.flush("drain"))
    plain, indexed = (sum(side[3].values) for side in sides)
    return 1.0 - plain / indexed


def _burst_overhead(scheme: str, size: int, keystrokes: int,
                    burst: int) -> dict[str, float]:
    """The ``burst_overhead`` cell: fractional keystroke-rate cost of
    attaching the indexer to the ``client_burst`` workload, one
    lockstep pair per rep (``_burst_pair``): scheduler drift between
    two independent loops would otherwise masquerade as indexing cost.
    One tenant indexer serves every pair (``adopt`` resets the
    document shadow; the trapdoor/blob caches persist), so the cell
    measures an editing session's steady state rather than
    first-keystroke cache warming.
    """
    indexer = WorkspaceIndexer("bench-tenant")
    return Sample([_burst_pair(scheme, size, keystrokes, burst, indexer)
                   for _ in range(REPS)]).cell(4)


def run_suite(corpus_sizes=None, chain_depths=None,
              burst_keystrokes: int = BURST_KEYSTROKES) -> dict:
    """Measure every section; keys are flat human-readable labels."""
    corpus_sizes = corpus_sizes or CORPUS_SIZES
    chain_depths = chain_depths or CHAIN_DEPTHS
    results: dict[str, dict[str, dict]] = {
        "query_usec": {}, "query_cold_usec": {}, "index_update": {},
        "audit_verify_ms": {}, "burst_overhead": {},
    }
    for n_docs in corpus_sizes:
        label = f"docs={n_docs}"
        results["query_usec"][label], results["query_cold_usec"][label] = \
            _query_usec(n_docs)
    results["index_update"]["keystroke_spans_eps"] = _index_update_eps()
    for depth in chain_depths:
        results["audit_verify_ms"][f"depth={depth}"] = \
            _audit_verify_ms(depth)
    for scheme in ("recb", "rpc"):
        results["burst_overhead"][f"{scheme}/burst=32/n=20000"] = \
            _burst_overhead(scheme, 20_000, burst_keystrokes, 32)
    return results


def violations(results: dict) -> list[str]:
    """The acceptance gates: query sub-linearity and bounded overhead."""
    found = []
    cells = results["query_usec"]
    labels = sorted(cells, key=lambda s: int(s.split("=")[1]))
    smallest = cells[labels[0]]["median"]
    largest = cells[labels[-1]]["median"]
    if largest >= MAX_QUERY_GROWTH * smallest:
        found.append(
            f"query latency super-linear: {labels[-1]} at {largest}us "
            f"vs {labels[0]} at {smallest}us "
            f"(>= {MAX_QUERY_GROWTH}x growth)")
    for label, cell in results["burst_overhead"].items():
        overhead = cell["median"]
        if overhead > MAX_OVERHEAD:
            found.append(
                f"index maintenance overhead {overhead:.1%} on {label} "
                f"exceeds the {MAX_OVERHEAD:.0%} budget")
    return found


# -- pytest mode (collected with the other bench_* figures) --------------

def _register(results: dict) -> None:
    from conftest import register_table
    from repro.bench import render_table

    rows = []
    for section in ("query_usec", "query_cold_usec", "index_update",
                    "audit_verify_ms", "burst_overhead"):
        for label in sorted(results.get(section, {})):
            rows.append([f"{section}/{label}",
                         str(results[section][label]["median"])])
    register_table("search", render_table(
        ["cell", "value"], rows,
        title="Encrypted search - query latency vs corpus, index "
              "maintenance, audit verify vs depth",
    ))


import pytest  # noqa: E402


@pytest.fixture(scope="module")
def search_suite():
    results = run_suite(corpus_sizes=[500, 2_000, 8_000],
                        chain_depths=[50, 500],
                        burst_keystrokes=128)
    _register(results)
    return results


class TestSearchBench:
    def test_query_latency_sublinear(self, search_suite):
        """16x more documents must not cost anywhere near 16x per
        query — the posting map is keyed by trapdoor."""
        cells = search_suite["query_usec"]
        assert (cells["docs=8000"]["median"]
                < 10 * cells["docs=500"]["median"]), cells

    def test_cold_query_decrypts(self, search_suite):
        """A first search decrypts its postings; a repeated one finds
        them in the indexer's memo, so it must cost less."""
        for label, cold in search_suite["query_cold_usec"].items():
            warm = search_suite["query_usec"][label]
            assert cold["median"] > warm["median"], (label, cold, warm)

    def test_index_overhead_bounded(self, search_suite):
        """The sidecar's longer runs enforce the real 15% budget; here
        a noise-tolerant 30% guards the shape in the shared suite."""
        for label, cell in search_suite["burst_overhead"].items():
            assert cell["median"] <= 0.30, (label, cell)

    def test_audit_verify_positive_and_finite(self, search_suite):
        for label, cell in search_suite["audit_verify_ms"].items():
            assert 0 < cell["median"] < 10_000, (label, cell)


def _warmup() -> None:
    """Stabilize frequency scaling before the first measured cell."""
    _build_corpus(500)
    _burst_pair("recb", 5_000, 64, 32, WorkspaceIndexer("warmup"))


if __name__ == "__main__":
    _warmup()
    suite = run_suite()
    payload = write_sidecar(SIDECAR, SCHEMA, {
        "unit": "usec/query, edits/sec, ms/verify, overhead fraction "
                "(median [q1, q3] of n runs)",
        "current": suite,
    })
    json.dump(payload, sys.stdout, indent=2)
    print()
    failed = violations(suite)
    if failed:
        print("bench-search: FAILED acceptance gates:", file=sys.stderr)
        for line in failed:
            print(f"  {line}", file=sys.stderr)
        raise SystemExit(1)
