"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--first-seed 0] [--write perfbench/baseline.json]

For every workload it makes RUNS untraced runs with seeds first-seed,
first-seed+1, ... and prints, per end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median next
to the metric's bound from BENCHMARK.json. TRACED traced runs on the first
seeds give the tracing overhead. --write stores all of it as a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
TRACED = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return result["metrics"]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = {"run_seconds": seconds, "cpus": os.cpu_count(), "machine": platform.processor()
           or platform.machine(), "python": platform.python_version(), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        seeds = range(args.first_seed, args.first_seed + RUNS)
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        report = {}
        for metric, bound in bounds.items():
            report[metric] = summarize([r[metric]["value"] for r in runs])
            s = report[metric]
            flag = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"{workload:<14} {metric:<15} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}  bound {bound}  {flag}  "
                  f"[{' '.join(f'{v:.4g}' for v in s['values'])}]", flush=True)
        traced = [run_once(workload, s, seconds, 1) for s in seeds[:TRACED]]
        overhead = [r["trace.overhead"]["value"] for r in traced]
        report["trace.overhead"] = {"median": statistics.median(overhead), "values": overhead}
        print(f"{workload:<14} trace.overhead  median {statistics.median(overhead):.4f} "
              f"(traced call time / untraced, {len(overhead)} runs)", flush=True)
        out["workloads"][workload] = report
    if args.write:
        args.write.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
