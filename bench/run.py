"""congruon benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload all
    python3 bench/run.py --workload levels-prime --seed 1 --seconds 44 --trace 0

Each pass runs the workload's whole op set in a fresh process, so the
package's caches start cold as in a tabulation script; passes repeat until
--seconds is spent. Each op's time is its median over the passes, and
set-up and memory are medians too. Set-up is also measured in extra
processes that only start, import and generate inputs, two before each
pass. Every op's output is checked against an oracle that does not use
congruon. The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
Spans (traced runs) and full results are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

# Set-up-only processes started before each pass, so set-up is sampled
# across the whole run rather than at its start.
SETUPS_PER_PASS = 2
# A run must exit within 180 s; no child may outlive this.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p95_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "modsym.ModSymSpace.hecke_matrix.s": "s",
    "modsym.ModSymSpace.hecke_matrix.calls": "count",
    "modsym.ModSymSpace.hecke_matrix.distinct_ratio": "ratio",
    "modsym.decompose_into_classes.s": "s",
    "modsym.decompose_into_classes.self_s": "s",
    "modsym.build_space.s": "s",
    "modsym.cuspidal_new_subspace.s": "s",
    "modsym.NewformClass.class_charpoly.s": "s",
    "modsym.NewformClass.class_charpoly.calls": "count",
    "linalg.apply_poly.s": "s",
    "linalg.apply_poly.calls": "count",
    "linalg.nullspace.s": "s",
    "linalg.rref.s": "s",
    "linalg.rref.calls": "count",
    "linalg.restrict_operator.s": "s",
    "linalg.restrict_operator.calls": "count",
    "linalg.charpoly.s": "s",
    "linalg.charpoly.calls": "count",
    "linalg.charpoly.dim_sum": "count",
    "intpoly.factor_over_z.s": "s",
    "intpoly.factor_over_z.calls": "count",
    "intpoly.factor_over_z.deg_sum": "count",
    "intpoly.resultant.s": "s",
    "intpoly.resultant.calls": "count",
    "intpoly.resultant.distinct_ratio": "ratio",
    "intpoly.hnf_with_transform.s": "s",
    "intpoly.hnf_with_transform.calls": "count",
    "intpoly.hnf_with_transform.distinct_ratio": "ratio",
    "intpoly.gcd_over_q.calls": "count",
    "congruence.congruence_number.s": "s",
    "congruence.congruence_number.calls": "count",
    "congruence.bounds_via_congruence_number.s": "s",
    "congruence.bounds_via_congruence_number.calls": "count",
    "congruence.solve_problem_2_4.cn_ratio": "ratio",
    "congruence.exact_exponent_newton.s": "s",
    "congruence.exact_exponent_newton.calls": "count",
    "congruence.difference_root_poly.s": "s",
    "padic.newton_polygon.s": "s",
    "padic.newton_polygon.calls": "count",
    "pipeline.compare_newforms.s": "s",
    "pipeline.compare_newforms.self_s": "s",
    "pipeline.compare_newforms.calls": "count",
    "pipeline.eisenstein_scan.s": "s",
    "pipeline.eisenstein_scan.calls": "count",
    "hecke_io.export_class.self_s": "s",
    "hecke_io.parse_dataset.s": "s",
    "cli.main.self_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.absent_functions": "count",
}


def layer_value(name, layers, absent):
    """One per-layer metric from a traced pass's span summary."""
    if name == "bench.absent_functions":
        return len(absent)
    function, stat = name.rsplit(".", 1)
    row = layers.get(function)
    if row is None:
        return 0
    if stat in ("s", "self_s", "calls"):
        return row[stat]
    if stat in ("dim_sum", "deg_sum"):
        return row["work"]
    if stat == "distinct_ratio":
        return row["distinct"] / row["calls"]
    if stat == "cn_ratio":
        return row["outcomes"] / row["calls"]
    raise KeyError(f"no rule for per-layer metric {name!r}")


class Runner:
    """Spawns worker processes for one workload and seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.setups = []

    def spawn(self, mode, trace=0, spans=None):
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise TimeoutError("run deadline reached")
        cmd = [
            sys.executable,
            str(BENCH_DIR / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--trace", str(trace),
        ]
        if spans:
            cmd += ["--spans", str(spans)]
        env = dict(os.environ, PYTHONHASHSEED="0")
        spawned_at = time.monotonic()
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["process_s"] = time.monotonic() - spawned_at
        return result

    def passes(self, seconds, trace):
        """Passes until --seconds is spent, each started only if the median
        pass still fits. A traced run alternates untraced and traced passes
        (at least one of each), so the overhead is measured alongside."""
        flags = (0, 1) if trace else (0,)
        done = []
        while True:
            flag = flags[len(done) % len(flags)]
            for _ in range(SETUPS_PER_PASS):
                self.setups.append(self.spawn("setup")["setup_s"])
            spans = None
            if flag:
                spans = OUT_DIR / f"spans-{self.workload}-seed{self.seed}-pass{len(done)}.jsonl"
            done.append(self.spawn("pass", flag, spans))
            elapsed = time.monotonic() - self.started
            typical = statistics.median(r["process_s"] for r in done)
            if len(done) >= len(flags) and elapsed + typical > seconds:
                return done


def end_to_end(passes, setups):
    """Every pass runs the same ops in the same order; each op's time is its
    median over the passes, so a spell in which the host runs slowly spoils
    only the samples of the ops it overlaps."""
    op_s = [statistics.median(times) for times in zip(*(r["op_s"] for r in passes))]
    return {
        "wall_s": sum(op_s),
        "op_p50_s": statistics.median(op_s),
        "op_p95_s": statistics.quantiles(op_s, n=100, method="inclusive")[94],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }


def per_layer(passes):
    traced = [r for r in passes if "layers" in r]
    untraced = [r for r in passes if "layers" not in r]
    values = {}
    for name in PER_LAYER:
        if name == "bench.trace_overhead":
            values[name] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
                r["wall_s"] for r in untraced
            )
        else:
            values[name] = statistics.median(
                layer_value(name, r["layers"], r["absent"]) for r in traced
            )
    return values


def metadata(seed):
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_loc = sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
        "src_loc": src_loc,
    }


def run_workload(workload, seed, seconds, trace):
    runner = Runner(workload, seed)
    passes = runner.passes(seconds, trace)
    if trace:
        metrics, units = per_layer(passes), PER_LAYER
    else:
        metrics = end_to_end(passes, runner.setups + [r["setup_s"] for r in passes])
        units = END_TO_END
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    report = {
        "workload": workload,
        "trace": trace,
        "meta": metadata(seed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in passes for f in r["failures"]][:20],
        "setups": runner.setups,
        "passes": [{k: v for k, v in r.items() if k != "layers"} for r in passes],
        "layers": [r["layers"] for r in passes if "layers" in r],
        "absent": passes[-1].get("absent", []),
    }
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    return report


def print_report(report):
    levels = report["passes"][0]["inputs"]
    print(
        f"workload {report['workload']}: {len(report['passes'])} passes"
        + (f", levels {levels}" if levels else "")
    )
    for name, m in report["metrics"].items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(
        f"  {'fail_ratio':<48} {report['failed'] / report['attempted']:.6g} "
        f"failed/attempted ({report['failed']}/{report['attempted']})"
    )
    for failure in report["failures"]:
        print(f"  FAILED: {failure.strip()}")
    if report["absent"]:
        print(f"  absent: {', '.join(report['absent'])}")
    print("meta " + json.dumps(report["meta"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=44)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "congruon" / "__init__.py").is_file():
        print(f"error: no congruon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{k}": v for r in reports for k, v in r["metrics"].items()
        }
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
