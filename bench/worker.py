"""One workload process in a fresh interpreter; run.py starts it.

    PYTHONPATH=src python3 bench/worker.py MODE WORKLOAD SEED SPAWNED [CLI ARGS...]

MODE is `setup` (set up and stop), `pass` (one timed pass) or `trace` (one
pass with spans on).  SPAWNED is the parent's time.monotonic() just before
it started this process, so set-up time covers interpreter start, the
lapshift import and input generation.  CLI ARGS replace `verify` as the
command line of a verify-suite pass.  The pass is timed first; its peak
resident memory is read next, and its outputs are checked last.  The last
stdout line is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> int:
    mode, workload, seed, spawned = argv[0], argv[1], int(argv[2]), float(argv[3])
    import workloads
    from spans import Tracer

    make_inputs, run_pass = workloads.WORKLOADS[workload]
    inputs = make_inputs(seed)
    if argv[4:]:
        inputs["args"] = tuple(argv[4:])
    setup_s = time.monotonic() - spawned
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = Tracer(mode == "trace")
    result = run_pass(inputs, tracer)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = workloads.check(workload, inputs, result)
    layers = {f"{name}_s": seconds for name, seconds in tracer.self_s.items()}
    layers.update(result["counts"])
    layers.update(tracer.counts)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall_s": result["wall_s"],
                "graph_s": result["graph_s"],
                "attempted": result["attempted"],
                "errors": errors,
                "rss_mib": rss_mib,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
