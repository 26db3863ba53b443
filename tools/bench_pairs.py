#!/usr/bin/env python3
"""Benchmark a change against a parent commit in alternating pairs of runs,
and write the figures to BENCH_<label>.json at the repository root.

    python3 tools/bench_pairs.py --parent REF --label NAME [--workloads a,b] [--seeds 1-10]

The parent ref is exported with `git archive` into a temporary directory
(committed files only, as a fresh checkout would have them); the change is
the working tree.  For each workload and seed, one pair runs `bench/run.py`
once on each side, one run at a time; the side that goes first alternates
from pair to pair, so a drift in the host's speed does not favour either
side.  The command, the run length and the end-to-end metrics with their
direction come from BENCHMARK.json, and so do the workloads by default.

The file records every run's metrics and, per workload and metric, each
side's median and quartiles, the median of the per-pair ratios
change/parent, the number of pairs in which the change was better, and
whether the medians differ by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def export(ref: str, into: Path) -> None:
    """The committed files of ref, unpacked into the directory `into`."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def parse_seeds(text: str) -> list[int]:
    """"1-10" or "1,4,7" (or a mix) as a list of seeds."""
    seeds = []
    for token in text.split(","):
        low, _, high = token.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def one_run(command, root: Path, workload: str, seed: int, seconds: float) -> dict:
    began = time.monotonic()
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "run_s": round(time.monotonic() - began, 3),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarise(pairs, metrics) -> dict:
    out = {}
    for name, better in metrics.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        pq1, pmed, pq3 = statistics.quantiles(parent, n=4)
        cq1, cmed, cq3 = statistics.quantiles(change, n=4)
        out[name] = {
            "better": better,
            "parent_median": pmed,
            "parent_quartiles": [pq1, pq3],
            "change_median": cmed,
            "change_quartiles": [cq1, cq3],
            "median_pair_ratio": statistics.median(c / p for p, c in zip(parent, change)),
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "median_gap_exceeds_parent_iqr": abs(cmed - pmed) > pq3 - pq1,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--workloads", default=None, help="comma list; default: BENCHMARK.json's")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]
    ]
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    command = spec["command"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        roots = {"parent": Path(scratch) / "parent", "change": ROOT}
        roots["parent"].mkdir()
        export(args.parent, roots["parent"])
        record = {
            "label": args.label,
            "parent": git("rev-parse", args.parent),
            "change": "working tree",
            "host": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "cpus": len(os.sched_getaffinity(0)),
            },
            "command": command,
            "seconds": seconds,
            "seeds": seeds,
            "workloads": {},
        }
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = one_run(command, roots[side], workload, seed, seconds)
                pairs.append(pair)
                log(f"{workload} seed {seed}: "
                    + ", ".join(f"{side} {pair[side]['metrics']['wall_s']:.4g} s"
                                for side in ("parent", "change")))
            record["workloads"][workload] = {
                "pairs": pairs,
                "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
                "metrics": summarise(pairs, metrics),
            }
            for name, m in record["workloads"][workload]["metrics"].items():
                log(f"  {name}: {m['parent_median']:.4g} -> {m['change_median']:.4g}, "
                    f"better in {m['change_better_pairs']}/{m['pairs']} pairs, "
                    f"median ratio {m['median_pair_ratio']:.3f}")
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    log(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
