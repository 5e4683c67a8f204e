#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs the benchmark once per seed and prints, for every metric, the
median, the quartiles and the interquartile range as a share of the
median (Python's ``statistics.quantiles(values, n=4)``), next to the
metric's bound in BENCHMARK.json. A benchmark is steady when every
spread stays below a third of its bound.

    python3 e2e_bench/spread.py --workload sessions --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", "e2e_bench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--seconds", type=int)
    a = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = a.seconds or spec["run_seconds"]
    lo, hi = (int(x) for x in a.seeds.split("-"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in range(lo, hi + 1):
        runs.append(run_once(a.workload, seed, seconds, a.trace))
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()),
              flush=True)
    print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  WIDE"
        print(f"{name:<32} {med:>12.4g} {q1:>12.4g} {q3:>12.4g} {share:>8.3f} "
              f"{bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
