#!/usr/bin/env python3
"""Smoke test of the benchmark: a seconds-long run of every workload.

For each workload of BENCHMARK.json, untraced and traced, it checks that
the result line names exactly the declared metrics with their declared
units, that no job failed (the failed share is 0), that the run stamp
is complete, and that the traced run leaves at most 5% of its timed
wall outside every layer span.

    python3 e2e_bench/selftest.py [--seconds 2]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP_KEYS = {"workload", "seed", "held_out_seed", "nproc", "rustc", "commit", "setup_repeats"}


def check(workload, trace, seconds, spec):
    out = subprocess.run(
        ["bash", "e2e_bench/run.sh", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        return [f"exit {out.returncode}: {out.stderr.strip()[-400:]}"]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    stamp = json.loads(lines[-2])["run_stamp"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        errors.append(f"correct={result['correct']} attempted={result['attempted']}")
    if result["failed"] != 0:
        errors.append(f"failed share {result['failed']}/{result['attempted']} is not 0")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        missing = set(declared) - set(printed)
        extra = set(printed) - set(declared)
        units = {k for k in set(printed) & set(declared) if printed[k] != declared[k]}
        errors.append(f"metrics differ: missing {missing}, undeclared {extra}, units {units}")
    missing_stamp = STAMP_KEYS - set(stamp)
    if workload == "serve" and "daemon_summary" not in stamp:
        missing_stamp.add("daemon_summary")
    if missing_stamp:
        errors.append(f"run stamp lacks {missing_stamp}")
    # On serve every fresh spec must miss the result cache and every
    # repeat must hit it, and the daemon's queue wait and solve time must
    # fit inside each job's client latency.
    serve_zero = ["fresh_cache_hits", "repeat_cache_misses"] + (["service_overruns"] if trace else [])
    for key in serve_zero if workload == "serve" else []:
        if stamp.get(key) != 0:
            errors.append(f"run stamp {key} = {stamp.get(key)}, expected 0")
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        share = m["bench.unattributed_ms"] / m["bench.timed_wall_ms"]
        if share > 0.05:
            errors.append(f"unattributed {share:.1%} of the timed wall")
    return errors


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=int, default=2)
    a = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check(w["name"], trace, a.seconds, spec)
            print(f"{w['name']:<10} trace {trace}: {'ok' if not errors else '; '.join(errors)}",
                  flush=True)
            failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
