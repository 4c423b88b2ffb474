"""Benchmark harness helpers."""

import json
import pathlib
import subprocess
import time

from repro.bench import (
    REPS,
    Sample,
    ms_per_char,
    pct,
    percentile,
    render_table,
    write_sidecar,
)
from repro.bench import collab
from repro.bench.collab import run_collab
from repro.bench.load import run_load
from repro.services import registry

REPO = pathlib.Path(__file__).resolve().parents[2]


class TestSample:
    def test_lap_times_the_block(self):
        sample = Sample()
        with sample.lap():
            time.sleep(0.01)
        with sample.lap():
            time.sleep(0.01)
        assert len(sample) == 2
        assert all(lap >= 0.01 for lap in sample.values)

    def test_stats(self):
        sample = Sample()
        for v in (1.0, 2.0, 3.0):
            sample.add(v)
        assert sample.mean == 2.0
        assert 0.9 < sample.dev < 1.1
        assert len(sample) == 3

    def test_quartiles_are_nearest_rank_inner_laps_at_reps(self):
        assert REPS >= 5
        sample = Sample([50.0, 10.0, 40.0, 20.0, 30.0])
        assert (sample.q1, sample.median, sample.q3) == (20.0, 30.0, 40.0)
        assert sample.cell(1) == {"median": 30.0, "q1": 20.0,
                                  "q3": 40.0, "n": 5}
        assert list(sample.cell(1)) == ["median", "q1", "q3", "n"]

    def test_map_reorders_a_decreasing_transform(self):
        rates = Sample([1.0, 2.0, 4.0, 5.0, 10.0]).map(lambda s: 10 / s)
        assert rates.cell(1) == {"median": 2.5, "q1": 2.0, "q3": 5.0,
                                 "n": 5}

    def test_percentile_keeps_the_load_definition(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 51.0   # rank round(49.5) = 50
        assert percentile(values, 0.99) == 99.0
        assert percentile([], 0.5) == 0.0

    def test_empty_and_single(self):
        assert Sample().mean == 0.0
        single = Sample([5.0])
        assert single.mean == 5.0 and single.dev == 0.0
        assert single.cell(2) == {"median": 5.0, "q1": 5.0, "q3": 5.0,
                                  "n": 1}


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
    def test_capture_records_each_laps_counter_deltas(self):
        from repro.bench import metrics_cell
        from repro.obs import capture, counter

        probe = counter("test_bench.probe")
        laps, deltas = Sample(), []
        for amount in (5, 2):
            with capture() as cap, laps.lap():
                probe.inc(amount)
            deltas.append({"test_bench.probe": cap["test_bench.probe"]})
        assert len(laps) == 2
        assert [d["test_bench.probe"] for d in deltas] == [5, 2]
        assert metrics_cell(deltas[0]) == "probe=5"


class TestWriteSidecar:
    """One writer for every BENCH sidecar: the first run seeds the
    baseline, later runs keep it, merged blocks update the previous
    run's, and ``commit`` names the checkout."""

    def test_first_run_seeds_and_later_runs_keep_the_baseline(
            self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        first = write_sidecar(path, "x/v2", {"current": {"a": 1}})
        assert first["baseline"] == {"a": 1}
        second = write_sidecar(path, "x/v2", {"current": {"a": 2}})
        assert second["baseline"] == {"a": 1}
        assert second["current"] == {"a": 2}
        assert json.loads(path.read_text()) == second

    def test_a_new_section_seeds_its_own_baseline(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_sidecar(path, "x/v2", {"current": {"a": 1}})
        payload = write_sidecar(path, "x/v2",
                                {"current": {"a": 2, "b": 3}})
        assert payload["baseline"] == {"a": 1, "b": 3}
        later = write_sidecar(path, "x/v2", {"current": {"a": 4, "b": 5}})
        assert later["baseline"] == {"a": 1, "b": 3}

    def test_new_schema_reseeds_the_baseline(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_sidecar(path, "x/v1", {"current": {"a": 1}})
        payload = write_sidecar(path, "x/v2", {"current": {"a": 9}})
        assert payload["baseline"] == {"a": 9}

    def test_merged_blocks_keep_unmeasured_services(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_sidecar(path, "x/v2", {"current": {"gdocs": 1, "bespin": 2},
                                     "services": {"s": 1}},
                      merge=("current", "services"))
        payload = write_sidecar(path, "x/v2", {"current": {"bespin": 3},
                                               "services": {}},
                                merge=("current", "services"))
        assert payload["current"] == {"gdocs": 1, "bespin": 3}
        assert payload["services"] == {"s": 1}
        assert payload["baseline"] == {"gdocs": 1, "bespin": 2}

    def test_commit_outside_a_checkout_is_none(self, tmp_path):
        payload = write_sidecar(tmp_path / "BENCH_x.json", "x/v2",
                                {"current": {}})
        assert payload["commit"] is None

    def test_commit_is_the_checkout_head(self, tmp_path):
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=bench", "-c",
                 "user.email=bench@example.invalid", *args],
                cwd=tmp_path, capture_output=True, text=True,
                check=True).stdout.strip()

        git("init", "-q")
        git("commit", "-q", "--allow-empty", "-m", "seed")
        payload = write_sidecar(tmp_path / "BENCH_x.json", "x/v2",
                                {"current": {}})
        assert payload["commit"] == git("rev-parse", "HEAD")


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
        writer = collab._Writer(0, 0.0, collab.SEED, service="gdocs",
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
        assert writer.session.stored_text() == writer.session.text
        assert collab._leak_clean([writer]) is False

    def test_clean_writer_stays_clean(self):
        writer = self._writer_with_echo(False)
        assert writer.session.stored_text() == writer.session.text
        assert collab._leak_clean([writer]) is True


class TestFleetCells:
    """The fleet harness reproduces the cells of the two drivers it
    replaced, field for field: every value below was read from the
    in-process cells before ``repro.bench.fleet`` existed, so a
    reordered RNG draw, seed or fault plan changes one of them."""

    def test_load_cell(self):
        row = run_load(sessions=12, rounds=3, service="gdocs",
                       transport="inprocess", fault_rate=0.05).row()
        assert row.pop("elapsed_s") >= 0 and row.pop("open_s") >= 0
        assert row == {
            "service": "gdocs", "transport": "inprocess", "sessions": 12,
            "rounds": 3, "fault_rate": 0.05, "edits_per_sec": 1.4,
            "save_p50_ms": 213.81, "save_p99_ms": 5197.92,
            "latency_source": "simulated", "saves": 36,
            "save_failures": 1, "converged_sample": True, "counters": {},
        }

    def test_collab_cell(self):
        row = run_collab(writers=6, rounds=3, service="gdocs", merge=True,
                         transport="inprocess", fault_rate=0.05).row()
        assert row == {
            "service": "gdocs", "transport": "inprocess", "merge": True,
            "writers": 6, "rounds": 3, "fault_rate": 0.05, "saves": 25,
            "conflicts": 6, "merges": 13, "save_failures": 0,
            "conflict_rate": 0.24, "drain_rounds": 2, "converged": True,
            "convergence_s": 1.235, "latency_source": "simulated",
            "leak_clean": True,
            "counters": {
                "services.ot.transforms": 122, "services.ot.composes": 61,
                "services.ot.merges": 13, "services.ot.rejects": 0,
                "extension.merge_follows": 6,
                "extension.merge_downgrades": 6, "client.resyncs": 6,
                "client.retries.attempts": 8,
            },
        }
