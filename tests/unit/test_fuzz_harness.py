"""The fuzzer fuzzes deterministically — and its machinery is itself
under test: generation, the oracle, the runner, and the shrinker.

The load-bearing property is exact replayability (identical seed ⇒
byte-identical trace ⇒ identical run digest); everything else — shrink
convergence, failure-identity preservation, counter accounting — keeps
the harness trustworthy enough that a red fuzz run always means a real
bug and a green one always means the same ground was covered.
"""

from __future__ import annotations

import json

import pytest

from repro.fuzz.generators import (
    MODES,
    POS_SCALE,
    PROFILES,
    Trace,
    corpus_strings,
    generate_trace,
)
from repro.fuzz.model import (
    InvariantViolation,
    Violation,
    apply_op,
    op_delta,
    resolve_pos,
)
from repro.fuzz.runner import FuzzRunner, execute_trace, run_trace
from repro.fuzz import runner as runner_mod
from repro.fuzz.shrink import shrink_trace
from repro.obs import default_registry


class TestGenerators:
    def test_same_seed_same_trace_bytes(self):
        for profile in PROFILES:
            for seed in (0, 1, 99, 2**31):
                a = generate_trace(seed, profile)
                b = generate_trace(seed, profile)
                assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        traces = {generate_trace(seed, "ci").to_json()
                  for seed in range(30)}
        assert len(traces) > 25, "seeds barely vary the trace"

    def test_json_round_trip_is_identity(self):
        for seed in range(20):
            trace = generate_trace(seed, "deep")
            again = Trace.from_json(trace.to_json())
            assert again == trace
            assert again.to_json() == trace.to_json()

    def test_trace_validates_enums(self):
        with pytest.raises(ValueError):
            Trace(seed=1, mode="telepathy")
        with pytest.raises(ValueError):
            Trace(seed=1, scheme="rot13")
        with pytest.raises(ValueError):
            Trace(seed=1, index="btree")

    def test_engine_profile_stays_networkless(self):
        for seed in range(25):
            trace = generate_trace(seed, "engine")
            assert trace.mode == "engine"
            assert trace.faults is None

    def test_corpus_strings_deterministic_and_degenerate(self):
        a = corpus_strings(7, 30)
        assert a == corpus_strings(7, 30)
        assert "" in a                      # empty
        assert any(len(s) == 1 for s in a)  # single char
        assert any(len(s.encode()) > len(s) for s in a)  # multibyte
        assert all("\x00" not in s for s in a)

    def test_modes_all_reachable(self):
        # ci deliberately never draws workspace mode — its 3-tuple
        # weights predate the fourth mode and must keep their rng
        # stream (and recorded digests) byte-identical
        seen = {generate_trace(seed, "ci").mode for seed in range(120)}
        assert seen == set(MODES) - {"workspace"}
        assert all(generate_trace(seed, "workspace").mode == "workspace"
                   for seed in range(10))

    def test_collab_profile_draws_many_clients(self):
        counts = {generate_trace(seed, "collab").clients
                  for seed in range(60)}
        assert counts <= set(range(2, 17))
        assert len(counts) > 4, "the 2-16 writer draw barely varies"
        assert all(generate_trace(seed, "collab").mode == "concurrent"
                   for seed in range(20))

    def test_default_profiles_stay_two_client(self):
        """Profiles without a widened max_clients never draw from the
        rng for the client count — pre-collab traces (and digests)
        must stay byte-identical."""
        for profile in ("ci", "quick", "deep", "burst"):
            for seed in range(40):
                trace = generate_trace(seed, profile)
                assert trace.clients == (
                    2 if trace.mode == "concurrent" else 1)


class TestOracle:
    def test_resolve_pos_bounds(self):
        for length in (0, 1, 7, 100):
            assert resolve_pos(0, length) == 0
            assert resolve_pos(POS_SCALE, length) == length
            for q in (1, 4999, 9999):
                assert 0 <= resolve_pos(q, length) <= length

    def test_apply_op_matches_delta_semantics(self):
        """The string oracle and the Delta an op denotes must agree —
        otherwise the fuzzer tests the wrong specification."""
        text = "hello cruel world"
        cases = [
            ("i", 0, "HI ", 0),
            ("i", POS_SCALE, "!", 0),
            ("d", 3000, 4, 0),
            ("r", 5000, 3, "XYZ", 0),
            ("r", 0, 0, "", 0),       # resolves to a no-op
            ("d", POS_SCALE, 5, 0),   # delete past end clamps to no-op
        ]
        for op in cases:
            delta = op_delta(op, len(text))
            via_oracle = apply_op(text, op)
            if delta is None:
                assert via_oracle == text or op[0] == "d"
            else:
                assert delta.apply(text) == via_oracle

    def test_violation_serializes(self):
        v = Violation(kind="oracle-divergence", step=3, detail="boom")
        assert json.loads(json.dumps(v.to_dict()))["kind"] == \
            "oracle-divergence"


class TestRunner:
    def test_identical_seed_identical_digest(self):
        a = FuzzRunner(seed=5, iters=30, profile="ci").run()
        b = FuzzRunner(seed=5, iters=30, profile="ci").run()
        assert a.digest == b.digest
        assert a.ok and b.ok

    def test_different_seed_different_digest(self):
        a = FuzzRunner(seed=5, iters=10, profile="quick").run()
        b = FuzzRunner(seed=6, iters=10, profile="quick").run()
        assert a.digest != b.digest

    def test_every_mode_executes_clean(self):
        for mode in MODES:
            trace = generate_trace(17, "ci", mode=mode)
            assert run_trace(trace) is None, mode

    def test_cases_counter_accounts_every_trace(self):
        before = default_registry().snapshot().get("fuzz.cases", 0)
        FuzzRunner(seed=1, iters=12, profile="quick").run()
        after = default_registry().snapshot()["fuzz.cases"]
        assert after - before == 12

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            FuzzRunner(profile="warp-speed")

    def test_corpus_written_on_failure(self, tmp_path, monkeypatch):
        """A violation must leave a replay file that parses back into
        the failing trace."""
        real = runner_mod.execute_trace

        def sabotaged(trace):
            raise InvariantViolation(
                Violation("oracle-divergence", 0, "planted"))

        monkeypatch.setattr(runner_mod, "execute_trace", sabotaged)
        report = FuzzRunner(seed=2, iters=3, profile="quick",
                            corpus_dir=tmp_path, shrink=False,
                            max_failures=1).run()
        monkeypatch.setattr(runner_mod, "execute_trace", real)
        assert not report.ok
        assert len(report.corpus_files) == 1
        data = json.loads((tmp_path / report.corpus_files[0].split("/")[-1])
                          .read_text())
        assert data["violation"]["kind"] == "oracle-divergence"
        assert Trace.from_dict(data["trace"]).seed == 2

    def test_crash_wrapped_as_violation(self, monkeypatch):
        def exploding(trace):
            raise ZeroDivisionError("kaboom")

        monkeypatch.setattr(runner_mod, "_MODES",
                            {"engine": exploding})
        violation = run_trace(generate_trace(3, "engine"))
        assert violation is not None
        assert violation.kind == "crash-ZeroDivisionError"

    def test_full_log_ring_stops_the_workspace_leak_sweep(self,
                                                          monkeypatch):
        """A document session's log ring that filled up may have
        dropped exchanges: the sweep is a harness error, never a pass
        (and never a finding about the system under test)."""
        from repro.client import workspace as workspace_mod

        monkeypatch.setattr(workspace_mod, "CATALOG_LOG_ENTRIES", 2)
        with pytest.raises(RuntimeError, match="ring .* is full"):
            run_trace(generate_trace(0, "workspace"))


class TestShrink:
    def _planted(self, needle: str):
        """An execute_trace stand-in failing iff ``needle`` is inserted."""
        def fake(trace):
            for op in trace.ops:
                if op[0] == "i" and needle in op[2]:
                    raise InvariantViolation(
                        Violation("oracle-divergence", 0, "planted"))
            return "fp"
        return fake

    def test_shrinks_to_the_culprit_op(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "execute_trace",
                            self._planted("BUG"))
        base = generate_trace(9, "ci", mode="engine")
        ops = base.ops + (("i", 0, "xxBUGxx", 0),)
        shrunk = shrink_trace(
            base.replaced(ops=ops),
            Violation("oracle-divergence", 0, "planted"))
        # everything irrelevant is gone: one op, minimal text, no init
        assert len(shrunk.ops) == 1
        assert shrunk.ops[0][0] == "i" and "BUG" in shrunk.ops[0][2]
        assert shrunk.init == ""

    def test_preserves_failure_identity(self, monkeypatch):
        """A shrink candidate failing with a *different* kind must be
        rejected — the minimizer may not wander between bugs."""
        def two_bugs(trace):
            if any(op[0] == "d" for op in trace.ops):
                raise InvariantViolation(Violation("length-mismatch", 0, ""))
            if any(op[0] == "i" for op in trace.ops):
                raise InvariantViolation(Violation("roundtrip", 0, ""))
            return "fp"

        monkeypatch.setattr(runner_mod, "execute_trace", two_bugs)
        trace = Trace(seed=1, mode="engine", ops=(
            ("d", 0, 1, 0), ("i", 0, "x", 0)))
        shrunk = shrink_trace(trace, Violation("roundtrip", 0, ""))
        # the 'd' op (which trips the OTHER bug) must have been removed
        assert all(op[0] != "d" for op in shrunk.ops)
        assert any(op[0] == "i" for op in shrunk.ops)

    def test_returns_original_when_nothing_smaller_fails(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "execute_trace",
                            lambda trace: "fp")
        trace = generate_trace(4, "ci", mode="engine")
        assert shrink_trace(trace, Violation("roundtrip", 0, "")) == trace

    def test_shrink_steps_counter_moves(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "execute_trace",
                            self._planted("Z9Z"))
        before = default_registry().snapshot().get("fuzz.shrink_steps", 0)
        base = generate_trace(21, "ci", mode="engine")
        shrink_trace(base.replaced(ops=base.ops + (("i", 0, "Z9Z", 0),)),
                     Violation("oracle-divergence", 0, ""))
        after = default_registry().snapshot()["fuzz.shrink_steps"]
        assert after > before


@pytest.mark.slow
class TestFullBudget:
    """The budgets `make fuzz-long` pays for; excluded from `make test`."""

    def test_five_thousand_mixed_iterations_clean(self):
        report = FuzzRunner(seed=424242, iters=5000, profile="ci").run()
        assert report.ok, report.failures

    def test_deep_profile_clean(self):
        report = FuzzRunner(seed=515151, iters=1500,
                            profile="deep").run()
        assert report.ok, report.failures
