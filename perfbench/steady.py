"""Steadiness check: run each workload repeatedly on the same code.

    python3 perfbench/steady.py [--workloads a,b] [--traced]

Each workload runs RUNS times on seeds 1..RUNS for `run_seconds` from
BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median next to the metric's bound, and the spread of the
same metric unscaled (measured CPU time before the machine-speed probe's
scaling, from the line before the result), then one run on
FRESH_SEED, a seed not used while the workloads were sized.  With `--traced` it also makes two traced runs on
seed 1 and reports whether every count repeats exactly, and the tracing
overhead.  Runs are sequential, one process at a time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
SEEDS = range(1, RUNS + 1)
FRESH_SEED = 1000003


def run(workload, seed, trace=0):
    """The result object, and the unscaled values (None when traced)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    unscaled = json.loads(lines[-2].split(" ", 1)[1]) if lines[-2].startswith("unscaled ") else None
    return json.loads(lines[-1]), unscaled


def steadiness(workload):
    results, unscaled = zip(*(run(workload, seed) for seed in SEEDS))
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{workload}: {len(results)} runs, seeds {SEEDS[0]}..{SEEDS[-1]}, "
          f"{SPEC['run_seconds']} s each; failed/attempted {sorted(shares)}; "
          f"attempted {min(r['attempted'] for r in results)}..{max(r['attempted'] for r in results)}")
    print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  "
          f"{'verdict':<12} {'unscaled':>8}")
    medians = {}
    for spec in SPEC["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        medians[name] = med
        verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "NOT STEADY")
        print(f"  {name:<14} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {bound:>6}  "
              f"{verdict:<12} {spread_of([u[name] for u in unscaled]):>8.3f}")
    fresh, _ = run(workload, FRESH_SEED)
    print(f"  fresh seed {FRESH_SEED}: failed {fresh['failed']}/{fresh['attempted']}; " + ", ".join(
        f"{name} {fresh['metrics'][name]['value'] / medians[name]:.3f}x median"
        for name in medians))


def spread_of(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def traced_repeat(workload, seed):
    first, second = (run(workload, seed, trace=1)[0] for _ in range(2))
    counts = [n for n in first["metrics"] if not n.endswith(("self_ms", "overhead_ratio"))]
    differ = [n for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
    overhead = [r["metrics"]["trace.overhead_ratio"]["value"] for r in (first, second)]
    print(f"  traced twice on seed {seed}: {len(counts) - len(differ)}/{len(counts)} counts repeat exactly"
          + (f"; differ: {differ}" if differ else "")
          + f"; overhead {overhead[0]:.3f}x, {overhead[1]:.3f}x")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    for workload in args.workloads.split(","):
        steadiness(workload)
        if args.traced:
            traced_repeat(workload, SEEDS[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
