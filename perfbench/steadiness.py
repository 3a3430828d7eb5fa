#!/usr/bin/env python3
"""Run the benchmark once per seed on each workload, with BENCHMARK.json's
command and run length, and report per end-to-end metric the spread (third
minus first quartile, over the median) next to the metric's bound.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10
    python3 perfbench/steadiness.py --seeds 5 --workloads replay-fcfs

Each run is a fresh process with seeds 1..N. A spread at or above a third of
its bound is marked WIDE. Exits non-zero if any run reports incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: every workload)")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in bench["workloads"]
    ]
    ok = True
    for workload in workloads:
        results = []
        for seed in range(1, args.seeds + 1):
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            digest = next((l for l in lines if l.startswith("digest:")), "digest: -")
            results.append(result)
            values = " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            )
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']} {values} {digest}", flush=True)
            ok &= result["correct"]
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            print(f"SPREAD {workload} {metric['name']}: median={median:.6g} "
                  f"spread={spread:.4f} bound={metric['bound']} "
                  f"({'ok' if spread < metric['bound'] / 3 else 'WIDE'})", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
