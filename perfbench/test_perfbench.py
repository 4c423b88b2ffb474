"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that the output checks fire on a corrupted server view, that
a failed check exits non-zero without printing numbers, that the result
line keeps its format, and that span self times are computed as
documented.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracing import op_traces  # noqa: E402
from workloads import SoloLarge  # noqa: E402


def config():
    return run.load_config()


def solo(seed: int = 3) -> SoloLarge:
    _, spec = config()
    workload = SoloLarge(seed, spec["workloads"]["solo-large"])
    workload.generate()
    workload.setup()
    return workload


def corrupt(workload: SoloLarge) -> None:
    """Flip one ciphertext character in the stored document."""
    view = workload._view()
    pos = len(view) // 2
    flipped = "A" if view[pos] != "A" else "B"
    workload.server.store.set_content(
        workload.doc_id, view[:pos] + flipped + view[pos + 1:])


def test_checks_pass_then_fire_on_a_corrupted_server_view():
    workload = solo()
    workload.run(0.3, ())
    assert workload.check() == []
    corrupt(workload)
    problems = workload.check()
    assert problems and "server view" in problems[0]


def test_failed_check_exits_nonzero_and_prints_no_numbers(monkeypatch,
                                                          capsys):
    monkeypatch.setattr(SoloLarge, "settle", corrupt)
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "solo-large", "--seed", "3",
                  "--seconds", "0.3", "--trace", "0"])
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "check failed" in captured.err


def test_result_line_carries_every_end_to_end_metric(capsys):
    bench, _ = config()
    assert run.main(["--workload", "solo-large", "--seed", "4",
                     "--seconds", "0.5", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_and_benchmark_agree():
    bench, spec = config()
    gated_workloads = [w["name"] for w in bench["workloads"]]
    assert sorted(gated_workloads + list(spec["workloads_not_gated"])) == \
        sorted(spec["workloads"])
    assert [m["name"] for m in bench["per_layer"]] == list(spec["per_layer"])
    for params in spec["workloads"].values():
        assert params["threads"] <= 2 and params["connections"] <= 2
    gated = {m["name"] for m in bench["end_to_end"]}
    for name, entry in spec["per_layer"].items():
        for metric, workload in entry["targets"]:
            assert metric in gated or metric in spec["reported_not_gated"], \
                name
            assert workload in spec["workloads"], name


def test_self_time_subtracts_children_including_server_side_spans():
    # rid, sid, parent, name, t0, t1: a save whose pool request waited
    # 1..9 while the server (another thread) applied it over 2..5
    spans = [
        (1, 10, None, "op.save", 0.0, 10.0),
        (1, 11, 10, "net.pool.request", 1.0, 9.0),
        (1, 12, 11, "services.backend.apply", 2.0, 5.0),
    ]
    (op,) = op_traces(spans)
    assert op.kind == "save" and op.duration == 10.0
    assert op.root_self == pytest.approx(2.0)
    assert op.self_s["net.pool.request"] == pytest.approx(5.0)
    assert op.total_s["net.pool.request"] == pytest.approx(8.0)
    assert op.layer_self("services") == pytest.approx(3.0)
