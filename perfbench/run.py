"""curvlab benchmark: runs curvlab's commands as closed-loop workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a curvlab source tree.  Each workload runs in a fresh
worker process (one client, one operation at a time, BLAS capped at one
thread).  Set-up and round times are rescaled to a reference host speed by
a calibration kernel timed in the same process (hostspeed.py).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  The lines before it give
each operation and the per-command figures.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_KERNEL_S
from worker import COMMAND_UNITS, LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
BUDGET_S = 170.0  # a run must end within 180 s
THREAD_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_CAP)
    return env


def call_worker(args: list, deadline: float) -> dict:
    """Run worker.py to completion and return its last-line JSON."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    setup = []
    if not trace:
        setup = [call_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES)]
    res = call_worker(common + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline)

    ops = res["ops"]
    failed = [op for op in ops if op["fails"]]
    for op in ops:
        status = "ok" if not op["fails"] else ("FAILED (known fault)" if op["known_fault"] else "FAILED")
        tag = " traced" if op["traced"] else ""
        print(f"{name}: {op['label']:<36} {op['seconds']:8.3f} s{tag}  {status}")
        for why in op["fails"]:
            print(f"{name}:     {why}")
        if op["fails"] and op["known_fault"]:
            print(f"{name}:     fault: {op['known_fault']}")
    for key, val in res["commands"].items():
        if val:
            print(f"{name}: {key} = {val:.6g} {COMMAND_UNITS[key]}")
    if setup:
        raw = statistics.median(s["setup_s"] for s in setup)
        print(f"{name}: setup wall time = {raw:.6g} s (not rescaled to the reference host speed)")
    print(f"{name}: wall_s = {res['wall_s']:.6g} s (not rescaled to the reference host speed)")
    print(f"{name}: kernel_s = {res['kernel_s']:.6g} s (host-speed kernel, weighted by operation time)")

    if trace:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                s["setup_s"] * REFERENCE_KERNEL_S / s["kernel_s"] for s in setup), "unit": "s"},
            "norm_wall_s": {"value": res["norm_wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": all(op["known_fault"] for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def main() -> int:
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced sizes, for the self-check only")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "curvlab" / "__init__.py").is_file():
        print(f"error: no curvlab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.quick)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for key, m in result["metrics"].items():
            print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
