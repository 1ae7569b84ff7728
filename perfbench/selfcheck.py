"""Quick self-check of the benchmark at reduced sizes.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced with --quick (smaller
grids, fewer points and triples) and confirms that the last output line is
the result object: exactly the keys correct, attempted and failed and
metrics, whole-number counts, and every metric BENCHMARK.json names (end-to-end
untraced, per-layer traced) with its declared unit and a finite value.
Exits 0 when every run passes.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def check_run(workload: str, trace: int, spec: dict) -> list:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return [f"last line is not JSON: {lines[-1][:200]}"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(res)}")
        return problems
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        problems.append(f"attempted {res['attempted']!r}")
    if not (isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]):
        problems.append(f"failed {res['failed']!r}")
    if res["correct"] is not True:
        problems.append(f"correct {res['correct']!r}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if set(got) != set(want):
        problems.append(f"metrics missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {unit!r}")
        v = m.get("value")
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            problems.append(f"{name}: value {v!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(wl, trace, spec)
            print(f"{wl} --trace {trace}: {'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"    {p}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
