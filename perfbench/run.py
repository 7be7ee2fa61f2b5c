"""The imputebench benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`).
Each protocol call runs in a fresh interpreter (worker.py) with BLAS
limited to one thread. With --trace 0 the run times
max(1, round(S / NOMINAL_CALL_S)) untraced calls, with SETUP_ONLY_RUNS
set-up-only interpreters split before and after them, and prints the
end-to-end metrics (medians; setup_s over every interpreter started).
With --trace 1 it makes one untraced and one traced call of the same
seed, checks that their output digests match, and prints the per-layer
metrics. The last line of standard output is the result JSON; the line
before it holds the environment, the output digest and the quality
means. The exit code is 0 only when every output check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import NOMINAL_CALL_S, WORKLOADS

SETUP_ONLY_RUNS = 2  # one before the calls and one after; set-up is ~1.3 s
CALL_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))


class WorkerError(RuntimeError):
    """A worker process failed before reporting."""


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _spawn(root, workload, seed, out, trace=False, setup_only=False) -> dict:
    """Run worker.py once; returns its report plus `setup_s` timed from launch."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--out", out,
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.communicate(timeout=max(1.0, CALL_TIMEOUT_S - setup_s))[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{workload} call exceeded {CALL_TIMEOUT_S} s") from None
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerError(f"worker exited with code {proc.returncode}")
    if setup_only:
        return {"setup_s": setup_s}
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no report")
    report = json.loads(lines[-1])
    report["setup_s"] = setup_s
    return report


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "imputebench", "__init__.py")):
        print("perfbench: no src/imputebench in the current directory", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = os.path.join(root, OUT_DIR, f"{workload.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out, ignore_errors=True)

    try:
        if args.trace:
            plain = _spawn(root, workload.name, args.seed, os.path.join(out, "plain"))
            traced = _spawn(root, workload.name, args.seed, os.path.join(out, "traced"), trace=True)
            calls = [plain, traced]
        else:
            def setup_only():
                return _spawn(root, workload.name, args.seed, out, setup_only=True)["setup_s"]

            setups = [setup_only() for _ in range(SETUP_ONLY_RUNS // 2)]
            n_calls = max(1, round(args.seconds / NOMINAL_CALL_S))
            calls = [
                _spawn(root, workload.name, args.seed, os.path.join(out, f"call{i}"))
                for i in range(n_calls)
            ]
            setups += [setup_only() for _ in range(SETUP_ONLY_RUNS - SETUP_ONLY_RUNS // 2)]
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    digests = [c["digest"] for c in calls]
    problems = [p for c in calls for p in c["problems"]]
    if len(set(digests)) != 1:
        problems.append("output digests differ between calls of the same seed")
    attempted = sum(c["cells"] + c.get("probe_cells", 0) for c in calls)
    failed = sum(c["cells_failed"] for c in calls)
    first = calls[0]

    if args.trace:
        metrics = dict(traced["layers"])
        metrics["bench.trace_overhead_s"] = _metric(traced["wall_s"] - plain["wall_s"], "s")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups + [c["setup_s"] for c in calls]), "s"),
            "wall_s": _metric(statistics.median(c["wall_s"] for c in calls), "s"),
            "peak_rss_mb": _metric(statistics.median(c["peak_rss_mb"] for c in calls), "MiB"),
            "nrmse_mean": _metric(first["nrmse_mean"], "1"),
            "auroc_mean": _metric(first["auroc_mean"], "1"),
        }
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "calls": len(calls),
        "cells_per_call": workload.cells,
        "digest": first["digest"],
        "quality": {k: first[k] for k in ("nrmse_mean", "auroc_mean", "f1_mean") if k in first},
        "samples": {k: [c[k] for c in calls] for k in ("setup_s", "wall_s", "peak_rss_mb")},
        "problems": problems,
        "env": {
            **first["env"],
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
            "git_sha": _git_sha(root),
        },
    }
    if not args.trace:
        details["samples"]["setup_only_s"] = setups
    correct = not problems and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
