#!/usr/bin/env python3
"""Benchmark of lapshift: four workloads through its public functions and CLI;
BENCHMARK.json lists verify-suite and tree-polys.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from src/.  Workloads
(see README.md):

    verify-suite   `lapshift verify` on a small configuration, as its own process
    tree-polys     all-basis polynomials of sparse bipartite graphs, both routes
    dense-polys    s and p polynomials of dense graphs
    shift-posets   shift posets of tree and unicyclic families, with invariants

With --trace 0 the run sets up fresh interpreters several times (set-up
time), then runs passes of the workload, each in a fresh interpreter, until the
passes have taken --seconds of timed work (at least MIN_PASSES passes), and
reports the mean pass time, the median set-up time and the median peak
memory.  With --trace 1 it runs one pass with spans around the calls into
each lapshift module (for verify-suite: every check alone, one process each)
and reports the per-layer metrics.  Outputs are checked after each pass is
timed.  Processes run one after another,
never side by side.  The last stdout line is one JSON object; progress goes
to stderr, and the samples behind each metric to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("verify-suite", "tree-polys", "dense-polys", "shift-posets")
SETUP_SAMPLES = 3
MIN_PASSES = 4

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402  (needs the path above; imports no lapshift)

LAYER_TIMES = (
    "symfunc.tables",
    "orientations.census",
    "orientations.transform",
    "orientations.transport",
    "immanants.poly",
    "families.generate",
    "canon.forms",
    "shifts.enumerate",
    "posets.build",
    "graphs.bipartite",
    "graphs.invariants",
)
LAYER_COUNTS = ("orientations.count", "posets.covers")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # a fixed hash seed keeps set iteration order, and with it the work, the same
    env["PYTHONHASHSEED"] = "0"
    # numpy's BLAS would otherwise start a thread per core
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_worker(mode: str, workload: str, seed: int, *cli_args: str) -> dict:
    """Run one worker process to its end and return its JSON result."""
    spawned = repr(time.monotonic())
    args = [sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed), spawned]
    proc = subprocess.run(args + list(cli_args), stdout=subprocess.PIPE, cwd=ROOT,
                          env=child_env(), text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def host_ref_ms() -> float:
    """A fixed pure-Python loop; it shows when the host itself runs slow."""
    samples = []
    for _ in range(5):
        began = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        samples.append(time.perf_counter() - began)
    if acc != 796_956:
        raise RuntimeError("host reference loop computed a wrong value")
    return statistics.median(samples) * 1000


class Run:
    """What one invocation measured: operations, correctness and samples."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {
            "wall_s": [], "setup_s": [], "rss_mib": [], "graph_s": [], "host_ref_ms": []
        }

    def add(self, label: str, out: dict, timed: bool = True) -> None:
        """Count a worker's operations and errors; keep its samples if timed."""
        self.attempted += out["attempted"]
        self.errors += [f"{label}: {e}" for e in out["errors"]]
        self.samples["setup_s"].append(out["setup_s"])
        if timed:
            self.samples["wall_s"].append(out["wall_s"])
            self.samples["rss_mib"].append(out["rss_mib"])
            self.samples["graph_s"] += out["graph_s"]

    def host_ref(self) -> None:
        self.samples["host_ref_ms"].append(host_ref_ms())


def measure(workload: str, seed: int, seconds: float) -> tuple[Run, dict]:
    run = Run()
    run.host_ref()
    for _ in range(SETUP_SAMPLES):
        run.samples["setup_s"].append(run_worker("setup", workload, seed)["setup_s"])
    if workload == "verify-suite":
        fault = run_worker("pass", workload, seed, *checks.FAULT_ARGS)
        run.add("fault run", fault, timed=False)
    while len(run.samples["wall_s"]) < MIN_PASSES or sum(run.samples["wall_s"]) < seconds:
        out = run_worker("pass", workload, seed)
        run.add(workload, out)
        log(f"  pass: {out['wall_s']:.3f} s, {out['rss_mib']:.1f} MiB")
        run.host_ref()
    sample = run.samples
    # the mean pass, not the median: the host's speed drifts over minutes,
    # and the mean averages more of that drift into each run (README.md)
    metrics = {
        "wall_s": (statistics.mean(sample["wall_s"]), "s"),
        "setup_s": (statistics.median(sample["setup_s"]), "s"),
        "peak_rss_mib": (statistics.median(sample["rss_mib"]), "MiB"),
    }
    if sample["graph_s"]:
        # per-graph medians exist on three workloads only, so they stay out
        # of BENCHMARK.json, whose metrics every workload reports; see README.md
        log(f"  graph_p50_ms = {statistics.median(sample['graph_s']) * 1000:.6g} ms"
            f" over {len(sample['graph_s'])} graphs")
    return run, metrics


def trace(workload: str, seed: int) -> tuple[Run, dict]:
    """The traced run: one pass with spans on; for verify-suite every check
    alone, each in its own traced process."""
    run = Run()
    run.host_ref()
    layers: dict[str, float] = {}
    metrics = {}
    if workload == "verify-suite":
        outs = []
        for check_id in checks.VERIFY_CHECK_IDS:
            out = run_worker("trace", workload, seed, *checks.VERIFY_ARGS, "--only", check_id)
            run.add(check_id, out)
            metrics[f"verify.{check_id}_s"] = (out["wall_s"], "s")
            log(f"  verify --only {check_id}: {out['wall_s']:.3f} s")
            outs.append(out)
    else:
        outs = [run_worker("trace", workload, seed)]
        run.add(workload, outs[0])
        for check_id in checks.VERIFY_CHECK_IDS:
            metrics[f"verify.{check_id}_s"] = (0.0, "s")
    for out in outs:
        for name, value in out["layers"].items():
            layers[name] = layers.get(name, 0.0) + value
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = (layers.get(f"{name}_s", 0.0), "s")
    for name in LAYER_COUNTS:
        metrics[name] = (layers.get(name, 0), "count")
    census_s = metrics["orientations.census_s"][0]
    walked = metrics["orientations.count"][0]
    metrics["orientations.census_rate"] = (walked / census_s if census_s else 0.0, "1/s")
    run.host_ref()
    metrics["bench.host_ref_ms"] = (statistics.median(run.samples["host_ref_ms"]), "ms")
    metrics["bench.traced_wall_s"] = (sum(run.samples["wall_s"]), "s")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lapshift" / "cli.py").is_file():
        log(f"error: no lapshift sources under {SRC}; run from a full checkout")
        return 2
    log(f"{args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        run, metrics = trace(args.workload, args.seed)
    else:
        run, metrics = measure(args.workload, args.seed, args.seconds)
    for error in run.errors:
        log(f"  CHECK FAILED: {error}")
    for name, (value, unit) in metrics.items():
        log(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  samples=run.samples, errors=run.errors)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
