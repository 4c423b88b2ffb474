"""repro.obs: instruments, registry, capture, and the sidecar schema."""

import json

import pytest

from repro import obs
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    capture,
)
from repro.obs.export import (
    SCHEMA_ID,
    load_sidecar,
    render_json_text,
    render_text,
    to_json,
    validate_metrics,
    write_sidecar,
)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = Registry("t")
        a = reg.counter("x.calls")
        b = reg.counter("x.calls")
        assert a is b
        a.inc(3)
        assert b.value == 3

    def test_kind_conflict_raises(self):
        reg = Registry("t")
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_names_sorted_and_get(self):
        reg = Registry("t")
        reg.gauge("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]
        assert isinstance(reg.get("a"), Counter)
        assert reg.get("missing") is None

    def test_snapshot_and_reset(self):
        reg = Registry("t")
        reg.counter("c").inc(5)
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(1.0)
        assert reg.snapshot() == {"c": 5, "g": 2.5, "h": 1}
        reg.reset()
        assert reg.snapshot() == {"c": 0, "g": 0.0, "h": 0}
        assert reg.names() == ["c", "g", "h"]  # names survive reset


class TestHistogram:
    def test_percentiles_on_known_dataset(self):
        hist = Histogram("h")
        for v in range(1, 101):  # 1..100
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.min == 1.0
        assert hist.max == 100.0
        assert hist.mean == pytest.approx(50.5)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(50) == 51.0  # nearest rank over 0..99
        assert hist.percentile(100) == 100.0
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_ring_bounds_retained_samples(self):
        hist = Histogram("h", max_samples=4)
        for v in [1.0, 2.0, 3.0, 4.0, 100.0]:
            hist.observe(v)
        # exact aggregates see everything...
        assert hist.count == 5
        assert hist.max == 100.0
        # ...while percentiles come from the 4 most recent samples
        assert hist.percentile(0) == 2.0

    def test_empty_summary_is_zeroed(self):
        assert Histogram("h").summary() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
            "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }


class TestCapture:
    def test_capture_diffs_only_the_block(self):
        reg = Registry("t")
        reg.counter("c").inc(100)  # pre-existing load must not leak in
        with capture(reg) as cap:
            reg.counter("c").inc(7)
            reg.histogram("h").observe(1.0)
        assert cap["c"] == 7
        assert cap["h"] == 1  # histogram deltas are observation counts
        assert cap["never-touched"] == 0
        assert cap.nonzero() == {"c": 7, "h": 1}

    def test_capture_on_default_registry(self):
        name = "test_obs.capture_probe"
        with capture() as cap:
            obs.counter(name).inc(2)
        assert cap[name] == 2


class TestExport:
    def _loaded_registry(self):
        reg = Registry("t")
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(2.0)
        return reg

    def test_round_trip_validates_and_renders(self):
        reg = self._loaded_registry()
        obj = to_json(reg)
        validate_metrics(obj)  # no raise
        # survives a real JSON encode/decode
        validate_metrics(json.loads(json.dumps(obj)))
        text = render_json_text(obj, title="t")
        assert "c" in text and "count=1" in text
        assert render_text(reg) == render_json_text(to_json(reg))

    def test_sidecar_write_load(self, tmp_path):
        reg = self._loaded_registry()
        path = tmp_path / "metrics.json"
        written = write_sidecar(str(path), reg)
        loaded = load_sidecar(str(path))
        assert loaded == written
        assert loaded["schema"] == SCHEMA_ID
        assert loaded["counters"] == {"c": 3}
        assert loaded["histograms"]["h"]["count"] == 1

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda o: o.update(schema="bogus/v9"), "unknown schema"),
        (lambda o: o.pop("counters"), "'counters' must be an object"),
        (lambda o: o["counters"].update(c=-1), "non-negative"),
        (lambda o: o["counters"].update(c=True), "non-negative"),
        (lambda o: o["gauges"].update(g="high"), "must be a number"),
        (lambda o: o["histograms"]["h"].pop("p99"), "p99 must be a number"),
    ])
    def test_validate_rejects_malformed(self, mutate, fragment):
        obj = to_json(self._loaded_registry())
        mutate(obj)
        with pytest.raises(ValueError, match=fragment):
            validate_metrics(obj)

    def test_empty_registry_renders_placeholder(self):
        assert render_text(Registry("empty")) == "(no metrics recorded)"
