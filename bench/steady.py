"""Steadiness check: run each workload repeatedly and summarise every metric.

    python3 bench/steady.py --runs 10 --first-seed 1
    python3 bench/steady.py --workload sss-deep --runs 5

Runs ``bench/run.py`` once per seed for ``run_seconds`` of ``BENCHMARK.json``,
one process at a time, and prints for each end-to-end metric the median, the
quartiles (``statistics.quantiles``, n=4) and the spread (q3 - q1) / median
next to the metric's bound. A spread is marked WIDE when it is not below a
third of the bound. The raw results go to ``bench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(workload: str, results: list[dict], spec: dict, trace: int) -> bool:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = list(results[0]["metrics"])
    steady = True
    shares = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    print(f"{workload}: {len(results)} runs, correct={correct}, failed shares={sorted(shares)}")
    print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if not trace and bound is not None:
            ok = spread < bound / 3
            steady &= ok
            flag = "ok" if ok else "WIDE"
        shown = f"{bound:6.2f}" if bound is not None and not trace else " " * 6
        print(f"  {name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {shown} {flag}")
    return steady and correct and len(shares) == 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    all_steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(workload, s, spec["run_seconds"], args.trace) for s in seeds]
        out = HERE / "out" / f"steady-{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"seeds": list(seeds), "trace": args.trace, "results": results}, indent=1))
        all_steady &= summarise(workload, results, spec, args.trace)
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
