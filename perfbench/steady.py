"""Steadiness check: run workloads repeatedly and print each metric's
median and quartiles against its bound.

    python3 perfbench/steady.py                      # 10 seeds, every workload
    python3 perfbench/steady.py --seeds 5 --workloads fleet-socket
    python3 perfbench/steady.py --seeds 1 --trace 1  # per-layer + split check

Each run is ``run.py`` in a fresh process with its own seed.  The spread
of a metric is the distance between its first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of its median; a
metric is steady when the spread stays under a third of its bound.  The
bounds in BENCHMARK.json are set from this report.  With ``--trace 1``
the per-layer medians are printed instead, together with the predicted
layer splits across workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py process; returns its result object."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else 0.0


def report(workload: str, results: list[dict], bounds: dict,
           verbose: bool = False) -> bool:
    """Print one workload's table; True when every bounded metric is
    steady (spread under a third of its bound; setup_s is exempt)."""
    steady = True
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"\n== {workload}: {len(results)} runs, "
          f"{failed}/{attempted} operations failed")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median, q1, q3, share = spread(values)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            ok = share < bound / 3 or name == "setup_s"
            steady &= ok
            verdict = (f"bound {bound:.2f}  "
                       f"{'steady' if share < bound / 3 else 'TOO WIDE'}")
        print(f"  {name:42s} {median:12.4f} {unit:7s} "
              f"q1 {q1:12.4f} q3 {q3:12.4f} spread {share:7.4f}  {verdict}")
        if verbose:
            print("      runs: " + " ".join(f"{v:.4g}" for v in values))
    return steady


def report_splits(by_workload: dict[str, list[dict]]) -> None:
    """The predicted splits, reported whichever way they come out."""
    def share(workload: str, *layers: str) -> float | None:
        results = by_workload.get(workload)
        if not results:
            return None
        return statistics.median(
            sum(r["metrics"][f"layer.{layer}.save_share"]["value"]
                for layer in layers)
            for r in results)

    trusted = share("solo-large", "extension", "core")
    if trusted is not None:
        verdict = "holds" if trusted > 0.5 else "does NOT hold"
        print(f"\nprediction: extension+core hold most of solo-large save "
              f"time ({trusted:.3f}) -- {verdict}")
    solo = share("solo-large", "net", "services")
    fleet = share("fleet-socket", "net", "services")
    if solo is not None and fleet is not None:
        verdict = "holds" if fleet > solo else "does NOT hold"
        print(f"prediction: net+services share of save time is larger on "
              f"fleet-socket ({fleet:.3f}) than on solo-large ({solo:.3f})"
              f" -- {verdict}")


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    by_workload: dict[str, list[dict]] = {}
    steady = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in range(args.first_seed,
                                     args.first_seed + args.seeds)]
        by_workload[workload] = results
        steady &= report(workload, results, bounds, args.verbose)
    if args.trace:
        report_splits(by_workload)
        return 0
    print("\nall bounded metrics steady" if steady
          else "\nsome metrics spread wider than a third of their bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
