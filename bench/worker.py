"""One measured pass (or one set-up) of a workload, in a fresh process.

Usage: python3 bench/worker.py --workload W --seed S --mode pass|setup
           --spawned-at T [--trace 0|1] [--spans PATH]

T is time.monotonic() in the parent just before it started this process,
so setup_s covers interpreter start, imports and input generation. The last
line of standard output is a JSON object with this pass's measurements.
congruon is imported from the checkout's src/, never from site-packages.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
# The modules the ops call; they import the rest of the package.
MODULES = ("modsym", "hecke_io", "pipeline", "cli")


class Congruon:
    """The package's modules, looked up at call time so traced wrappers
    installed on them are seen."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"congruon.{name}"))
        origin = Path(sys.modules["congruon"].__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"congruon imported from {origin}, not from {SRC}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    cg = Congruon()
    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install("congruon", workloads.TRACED)
    outputs, op_s, errors = [], [], []
    start = time.perf_counter()
    for i, inp in enumerate(inputs):
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            outputs.append(workloads.run_op(cg, args.workload, inp, tracer))
        except Exception:  # a failed op is counted, and the pass goes on
            outputs.append(None)
            errors.append(traceback.format_exc(limit=3))
        op_s.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()

    failures = list(errors)
    failed = len(errors)
    for inp, out in zip(inputs, outputs):
        if out is not None:
            found = workloads.check_op(args.workload, inp, out)
            failures.extend(found)
            failed += bool(found)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": op_s,
        "attempted": len(inputs),
        "failed": failed,
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs": [inp["level"] for inp in inputs if "level" in inp],
    }
    if tracer:
        result["layers"] = tracer.summary()
        result["absent"] = tracer.absent
        if args.spans:
            tracer.write_jsonl(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
