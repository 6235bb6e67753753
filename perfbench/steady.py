#!/usr/bin/env python3
"""Steadiness check for the pipeline benchmark.

Runs two sets of runs per workload exactly as BENCHMARK.json describes
them (its command and run_seconds), each run with its own seed: set 1
takes seeds 1..N, set 2 seeds N+1..2N. It prints per set each end-to-end
metric's median, first and third quartile and spread (q3 - q1) / median,
then the drift of the second set's median against the first in the
metric's "worse" direction, next to the metric's bound, and checks that
the share of failed operations is the same in every run.

Then it repeats seed 1: one more untraced run, whose makespan, c1_edges
and c2_delay must equal set 1's seed-1 run, and two traced runs, whose
per-layer counts (unit count or units) must be equal, apart from the
pool's steal and park counts, which depend on thread timing.

    python3 perfbench/steady.py                 # 2 sets x 10 runs, every workload
    python3 perfbench/steady.py --runs 5 --workloads serve-mixed

Run it from the repository root. It exits with code 1 when a spread (other
than setup_s) is not below its bound, a drift exceeds its bound, the
failed shares differ, or a same-seed repeat differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SETS = 2
EXACT = ["makespan", "c1_edges", "c2_delay"]
TIMING_COUNTS = {"pool.steals", "pool.steal_failures", "pool.parked"}


def run_once(spec, workload, seed, trace):
    args = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def same_seed(spec, workload, first):
    """Repeats seed 1; returns the names of the figures that differ."""
    again = run_once(spec, workload, 1, 0)["metrics"]
    differ = [n for n in EXACT if again[n]["value"] != first["metrics"][n]["value"]]
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] in ("count", "units") and m["name"] not in TIMING_COUNTS]
    traced = [run_once(spec, workload, 1, 1)["metrics"] for _ in range(2)]
    differ += [n for n in counts if traced[0][n]["value"] != traced[1][n]["value"]]
    print(f"  seed 1 repeated: {', '.join(EXACT)} and {len(counts)} per-layer counts "
          + ("identical" if not differ else f"DIFFER: {differ}"))
    return differ


def main():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    opts = ap.parse_args()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in opts.workloads:
        sets = []
        for k in range(SETS):
            results = []
            for s in range(1 + k * opts.runs, 1 + (k + 1) * opts.runs):
                results.append(run_once(spec, workload, s, 0))
                m = results[-1]["metrics"]
                print(f"  {workload} set {k + 1} seed {s}: " + ", ".join(
                    f"{n} {m[n]['value']:.6g}" for n in bounds), file=sys.stderr, flush=True)
            sets.append(results)
        shares = {r["failed"] / r["attempted"] for rs in sets for r in rs}
        print(f"\n{workload}: {SETS} sets x {opts.runs} runs, "
              f"{spec['run_seconds']} s each, failed share {sorted(shares)}")
        if len(shares) != 1 or not all(r["correct"] for rs in sets for r in rs):
            ok = False
            print("  FAIL: failed shares differ or a run was not correct")
        print(f"  {'metric':<12} " + "  ".join(
            f"{'set ' + str(k + 1) + ' median [q1, q3] spread':<44}" for k in range(SETS))
            + f"  {'drift':>7}  {'bound':>6}")
        for name, meta in bounds.items():
            cols = []
            medians = []
            for rs in sets:
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in rs])
                medians.append(med)
                cols.append(f"{med:<12.6g} [{q1:.6g}, {q3:.6g}] {100 * spread:5.2f}%")
                if name != "setup_s" and spread >= meta["bound"]:
                    ok = False
                    cols[-1] += " !"
            sign = 1 if meta["better"] == "lower" else -1
            drift = sign * (medians[1] - medians[0]) / medians[0]
            flag = " !" if drift > meta["bound"] else ""
            ok = ok and not flag
            print(f"  {name:<12} " + "  ".join(f"{c:<44}" for c in cols)
                  + f"  {100 * drift:6.2f}%  {100 * meta['bound']:5.1f}%{flag}")
        ok = not same_seed(spec, workload, sets[0][0]) and ok
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
