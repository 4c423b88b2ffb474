"""The sidecar-writing bench scripts, run end to end at their pytest
sizes: every timing cell they measure is one ``Sample`` summary."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.bench import REPS
from repro.bench.timing import CELL_KEYS

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_script_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cells(tree):
    """Every timing cell (a mapping with a median) in a result tree."""
    if isinstance(tree, dict):
        if "median" in tree:
            yield tree
        else:
            for value in tree.values():
                yield from _cells(value)


def _edit_throughput():
    return _script("bench_edit_throughput").run_suite(
        client_edits=60, server_edits=150, burst_keystrokes=128)


def _search():
    return _script("bench_search").run_suite(
        corpus_sizes=[500, 2_000, 8_000], chain_depths=[50, 500],
        burst_keystrokes=128)


def _faults():
    script = _script("bench_faults")
    return {"current": script.run_suite(edits=30),
            "services": script.run_service_suite(edits=10)}


@pytest.mark.parametrize("run, cells", [
    # 2 schemes x 2 indexes x (3 sizes + 3 bursts x 3 sizes), 3 server
    (_edit_throughput, 2 * 2 * (3 + 3 * 3) + 3),
    # 3 corpora warm and cold, 1 index rate, 2 chain depths, 2 schemes
    (_search, 2 * 3 + 1 + 2 + 2),
    # 4 gdocs rates, then 4 backends x 3 rates
    (_faults, 4 + 4 * 3),
], ids=["edit_throughput", "search", "faults"])
def test_every_timing_cell_is_a_sample_summary(run, cells):
    found = list(_cells(run()))
    assert len(found) == cells
    for cell in found:
        assert tuple(cell) == CELL_KEYS, cell
        assert cell["q1"] <= cell["median"] <= cell["q3"], cell
        assert cell["n"] == REPS, cell
