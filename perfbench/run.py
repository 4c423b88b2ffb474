"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload solo-large --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json:
set-up is repeated (each workload's ``setup_repeats`` in spec.json) and
reported as the median, then the closed loop runs for ``--seconds``.
``--trace 1``
reports the per-layer metrics instead, from one set-up and one loop in
which every other operation records spans at every layer's entry
points; the untraced operations give the operation counters and the
baseline for the tracing overhead.  End-to-end numbers never come from a
traced run.  The spans are written to ``perfbench/out/``.

Outputs are checked before anything is printed; a failed check exits 1
with the problems on stderr and no numbers.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import threading
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0..1) of ``values``; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@contextmanager
def cpu_rotation(period: float = 0.05):
    """Move the calling thread to the next allowed CPU every ``period``
    seconds while the block runs.

    The CPUs of a shared host are not equally fast (whatever else runs
    beside them), and a single-threaded run stays on whichever CPU it
    started on, so its speed depended on that draw.  Rotating makes every
    single-threaded run sample every CPU alike.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        yield
        return
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate() -> None:
        for cpu in itertools.cycle(cpus):
            os.sched_setaffinity(tid, {cpu})
            if stop.wait(period):
                return

    mover = threading.Thread(target=rotate, name="perfbench-cpu-rotation")
    mover.start()
    try:
        yield
    finally:
        stop.set()
        mover.join()
        os.sched_setaffinity(tid, set(cpus))


def load_config() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(HERE / "spec.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return bench, spec


def attributed_counters(spec: dict) -> list[str]:
    """Counters read around every operation of single-threaded loops."""
    names = {"net.wire_bytes"}
    for entry in spec["per_layer"].values():
        if entry.get("scope") not in (None, "all"):
            names.add(entry["counter"])
    return sorted(names)


def run_loop(workload, seconds: float, counter_names, tracer=None):
    """Run, settle and check one closed loop; returns (log, capture) or
    raises SystemExit(1) after reporting failed checks."""
    from repro.obs import capture

    with capture() as cap:
        log = workload.run(seconds, counter_names, tracer)
    workload.settle()
    problems = workload.check()
    if problems:
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        raise SystemExit(1)
    return log, cap


def counter_rate(log, cap, name: str, scope: str, per: str) -> float:
    """A counter's delta per operation of kind ``per`` (or per run).

    ``scope`` "all" takes the delta over the whole loop and divides by
    every ``per`` operation; any other scope takes the delta attributed
    to untraced operations of that kind, when the log attributed them.
    """
    if scope == "all" or not log.attributed:
        total, ops = cap[name], log.count(per)
    else:
        total, ops = log.counts[scope][name], len(log.latencies[per])
    if per == "run":
        return total
    return total / ops if ops else 0.0


def end_to_end(workload, log, cap, setup_times: list[float]) -> dict:
    """Every end-to-end metric: name -> (value, unit, samples)."""
    saves = log.latencies["save"]
    opens = workload.open_samples(log)
    searches = log.latencies["search"]
    stored, plain = workload.stored_and_plain()
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": (log.ops / log.elapsed, "1/s", log.ops),
        "save_mean_ms": (statistics.fmean(saves) * 1e3 if saves else 0.0,
                         "ms", len(saves)),
        "save_p50_ms": (percentile(saves, 0.50) * 1e3, "ms", len(saves)),
        "save_p90_ms": (percentile(saves, 0.90) * 1e3, "ms", len(saves)),
        "save_p99_ms": (percentile(saves, 0.99) * 1e3, "ms", len(saves)),
        "open_p50_ms": (percentile(opens, 0.50) * 1e3, "ms", len(opens)),
        "open_p99_ms": (percentile(opens, 0.99) * 1e3, "ms", len(opens)),
        "search_p50_ms": (percentile(searches, 0.50) * 1e3, "ms",
                          len(searches)),
        "search_p99_ms": (percentile(searches, 0.99) * 1e3, "ms",
                          len(searches)),
        "failed_frac": (log.failed / max(1, log.ops), "frac", log.ops),
        "wire_bytes_per_save": (
            counter_rate(log, cap, "net.wire_bytes", "save", "save"), "B",
            len(saves)),
        "stored_bytes_per_char": (stored / max(1, plain), "B/char", 1),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1),
    }


def span_time(op, span: str, mode: str) -> float:
    if mode == "self":
        return op.self_s.get(span, 0.0)
    if mode == "total":
        return op.total_s.get(span, 0.0)
    # deliver: the channel's send minus the mediator hooks inside it
    return (op.total_s.get(span, 0.0)
            - op.total_s.get("extension.on_request", 0.0)
            - op.total_s.get("extension.on_response", 0.0))


def per_layer(spec: dict, log, cap, traces) -> dict:
    """Every per-layer metric: name -> value.  Span times come from the
    traced operations, counters from the loop (see :func:`counter_rate`),
    and the overhead compares traced with untraced saves of one loop."""
    by_kind: dict[str, list] = {}
    for op in traces:
        by_kind.setdefault(op.kind, []).append(op)
    saves = by_kind.get("save", [])
    untraced_p50 = percentile(log.latencies["save"], 0.5)
    traced_p50 = percentile(log.traced["save"], 0.5)
    out = {}
    for name, entry in spec["per_layer"].items():
        source = entry.get("source")
        if "span" in entry:
            ops = by_kind.get(entry["per"], [])
            value = (statistics.fmean(
                span_time(op, entry["span"], entry["time"]) for op in ops)
                * 1e3 if ops else 0.0)
        elif "counter" in entry:
            value = counter_rate(log, cap, entry["counter"], entry["scope"],
                                 entry["per"])
        elif source == "edit":
            edits = sum(log.latencies["edit"])
            value = edits / log.keystrokes * 1e6 if log.keystrokes else 0.0
        elif source == "layer":
            layer = name.split(".")[1]
            value = (statistics.median(op.layer_self(layer) for op in saves)
                     * 1e3 if saves else 0.0)
        elif source == "share":
            layer = name.split(".")[1]
            whole = sum(op.duration for op in saves)
            value = (sum(op.layer_self(layer) for op in saves) / whole
                     if whole else 0.0)
        elif source == "unattributed":
            whole = sum(op.duration for op in traces)
            value = (sum(op.root_self for op in traces) / whole
                     if whole else 0.0)
        elif source == "overhead":
            value = traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0
        else:
            raise ValueError(f"per-layer metric {name!r} has no source")
        out[name] = value
    return out


def measure(args, bench, spec, workload_cls, params):
    """The untraced run: end-to-end metrics."""
    workload = workload_cls(args.seed, params)
    workload.generate()
    setup_times = []
    for repeat in range(params["setup_repeats"]):
        if repeat:
            workload.close()
        t0 = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - t0)
    try:
        counters = attributed_counters(spec) if params["threads"] == 1 else ()
        log, cap = run_loop(workload, args.seconds, counters)
        metrics = end_to_end(workload, log, cap, setup_times)
    finally:
        workload.close()
    gated = {m["name"] for m in bench["end_to_end"]}
    for name, (value, unit, n) in metrics.items():
        note = "" if name in gated else "  (reported, not gated)"
        print(f"{name:24s} {value:14.4f} {unit:7s} n={n}{note}")
    return log, {
        m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
        for m in bench["end_to_end"]
    }


def traced(args, bench, spec, workload_cls, params):
    """The traced run: per-layer metrics.  Every other operation of one
    loop is traced; the untraced half gives the counters and the
    baseline for the tracing overhead."""
    from tracing import Tracer, op_traces

    counters = attributed_counters(spec) if params["threads"] == 1 else ()
    tracer = Tracer()
    tracer.install()
    try:
        workload = workload_cls(args.seed, params)
        workload.generate()
        workload.setup()
        try:
            log, cap = run_loop(workload, args.seconds, counters, tracer)
        finally:
            workload.close()
    finally:
        tracer.uninstall()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{args.workload}-seed{args.seed}.spans.json")

    values = per_layer(spec, log, cap, op_traces(tracer.spans))
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, value in values.items():
        print(f"{name:44s} {value:14.4f} {units[name]}")
    return log, {name: {"value": values[name], "unit": units[name]}
                 for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench, spec = load_config()
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(spec['workloads'])}")
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"error: no program sources under {source}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    params = spec["workloads"][args.workload]
    run = traced if args.trace else measure
    rotation = cpu_rotation() if params["threads"] == 1 else nullcontext()
    with rotation:
        log, metrics = run(args, bench, spec, WORKLOADS[args.workload],
                           params)
    print(json.dumps({"correct": True, "attempted": log.ops,
                      "failed": log.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
