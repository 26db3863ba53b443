#!/usr/bin/env python3
"""Run every workload over several seeds and summarise each end-to-end metric.

    python3 bench/sets.py [--runs 10] [--sets 2] [--first-seed 1] [--workloads a,b]

Runs `bench/run.py` once per seed, workload and set, one run at a time, with
the command and run length from BENCHMARK.json.  Set s uses the seeds
first-seed + s*runs onwards.  For each set, workload and metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles over the median, next to the metric's bound.
With two or more sets it also prints how far each set's median lies from the
first set's.  The raw results go to bench/out/sets.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict[str, dict[str, list]] = {}
    for s in range(args.sets):
        for workload in workloads:
            runs = []
            first = args.first_seed + s * args.runs
            for seed in range(first, first + args.runs):
                began = time.monotonic()
                proc = subprocess.run(
                    spec["command"] + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                    check=True,
                )
                result = json.loads(proc.stdout.splitlines()[-1])
                result["seed"] = seed
                result["run_s"] = time.monotonic() - began
                runs.append(result)
                print(f"set {s + 1} {workload} seed {seed}: {result['run_s']:.1f} s, "
                      f"correct {result['correct']}", file=sys.stderr, flush=True)
            raw.setdefault(workload, {})[f"set{s + 1}"] = runs
            report(s + 1, workload, runs, bounds, raw[workload].get("set1"))
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "sets.json").write_text(json.dumps(raw, indent=1) + "\n")
    return 0


def report(set_no, workload, runs, bounds, first_set) -> None:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"\nset {set_no}, {workload}: {len(runs)} runs, {sum(r['run_s'] for r in runs):.0f} s "
          f"in all, failed {failed}/{attempted}, all correct: {all(r['correct'] for r in runs)}")
    for name, bound in bounds.items():
        q1, q2, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
        line = (f"  {name:13s} median {q2:.6g}  quartiles {q1:.6g} .. {q3:.6g}  "
                f"spread {spread:.3f} (bound {bound})")
        if set_no > 1:
            base = statistics.median(r["metrics"][name]["value"] for r in first_set)
            line += f"  vs set 1: {q2 / base - 1:+.3f}"
        print(line, flush=True)


if __name__ == "__main__":
    sys.exit(main())
