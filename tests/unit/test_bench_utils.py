"""Benchmark harness helpers."""

import json
import pathlib
import time

from repro.bench import Sample, Stopwatch, ms_per_char, pct, render_table
from repro.bench import collab
from repro.bench.collab import run_collab
from repro.bench.load import run_load
from repro.services import registry

REPO = pathlib.Path(__file__).resolve().parents[2]


class TestStopwatch:
    def test_accumulates(self):
        watch = Stopwatch()
        with watch.measure():
            time.sleep(0.01)
        with watch.measure():
            time.sleep(0.01)
        assert watch.elapsed >= 0.02
        assert len(watch.laps) == 2


class TestSample:
    def test_stats(self):
        sample = Sample()
        for v in (1.0, 2.0, 3.0):
            sample.add(v)
        assert sample.mean == 2.0
        assert 0.9 < sample.dev < 1.1
        assert len(sample) == 3

    def test_empty_and_single(self):
        assert Sample().mean == 0.0
        single = Sample([5.0])
        assert single.mean == 5.0 and single.dev == 0.0


class TestFormatting:
    def test_ms_per_char(self):
        assert ms_per_char(1.0, 1000) == 1.0
        assert ms_per_char(1.0, 0) == 0.0

    def test_pct(self):
        assert pct(0.25) == "25%"
        assert pct(0.088) == "8.8%"

    def test_render_table_alignment(self):
        table = render_table(
            ["workload", "mean", "dev"],
            [["inserts only", "6.2%", ".049"], ["deletes", "3.1%", ".012"]],
            title="Fig. 5",
        )
        lines = table.splitlines()
        assert "Fig. 5" in table
        assert "inserts only" in table
        header_idx = next(
            i for i, line in enumerate(lines) if "workload" in line
        )
        assert set(lines[header_idx + 1]) == {"-"}


class TestRenderTableErrors:
    def test_ragged_row_raises_with_position(self):
        import pytest

        with pytest.raises(ValueError, match="row 1 has 2 cells, expected 3"):
            render_table(["a", "b", "c"],
                         [["1", "2", "3"], ["1", "2"]])


class TestMetricTracking:
    def test_lap_metrics_record_counter_deltas(self):
        from repro.bench import metrics_cell
        from repro.obs import counter

        probe = counter("test_bench.probe")
        watch = Stopwatch(track=("test_bench.probe",))
        with watch.measure():
            probe.inc(5)
        with watch.measure():
            probe.inc(2)
        assert [lap["test_bench.probe"] for lap in watch.lap_metrics] == [5, 2]
        assert watch.metric_total("test_bench.probe") == 7
        assert metrics_cell(watch.lap_metrics[0]) == "probe=5"


class TestCellRows:
    """A cell's sidecar row is its dataclass fields, in order: the keys
    of every row already committed to the BENCH sidecars."""

    @staticmethod
    def _committed(name: str, *path: str) -> dict:
        row = json.loads((REPO / name).read_text())
        for key in path:
            row = row[key]
        return row

    def test_load_row_matches_the_committed_sidecar(self):
        cell = run_load(sessions=2, rounds=1, transport="inprocess",
                        fault_rate=0.0)
        committed = self._committed("BENCH_load.json", "current", "gdocs",
                                    "inprocess=100")
        assert list(cell.row()) == list(committed)

    def test_collab_row_matches_the_committed_sidecar(self):
        cell = run_collab(writers=2, rounds=1)
        committed = self._committed("BENCH_collab.json", "current",
                                    "gdocs_merge", "writers=2/inprocess")
        assert list(cell.row()) == list(committed)


class TestCollabLeakVerdict:
    """``leak_clean`` judges every exchange of every writer, although
    each writer's channel log keeps only the newest 16."""

    @staticmethod
    def _writer_with_echo(echo: bool):
        writer = collab._Writer(0, "gdocs", "recb", 0.0, collab.SEED,
                                server=registry.make_server("gdocs"))
        word = collab.SENTINEL.split()[0]
        echoes = [word] if echo else []

        def echo_once(response):
            # a provider that echoes the sentinel in its first answer
            if echoes:
                return response.with_body(
                    response.body + "&echo=" + echoes.pop())
            return response

        writer.session.channel.set_tamperers(on_response=echo_once)
        writer.session.open()
        for i in range(20):
            writer.session.type_text(0, f"edit{i} ")
            assert writer.save().ok
        log = writer.session.channel.exchange_log
        assert len(log) == log.maxlen == 16
        assert not any(word in e.response.body for e in log)
        return writer

    def test_sentinel_in_the_first_exchange_is_caught_after_the_ring_wraps(
            self):
        writer = self._writer_with_echo(True)
        assert collab._finish([writer], True) == (True, False)

    def test_clean_writer_stays_clean(self):
        writer = self._writer_with_echo(False)
        assert collab._finish([writer], True) == (True, True)
