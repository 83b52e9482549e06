#!/usr/bin/env python3
"""Is the benchmark steady enough for its own bounds?

    steady.py

Runs BENCHMARK.json's command the way the driver does — from the root of the
checkout, `--workload <w> --seed <n> --seconds <run_seconds> --trace 0` — on
every workload with seeds 1 to 10, and prints for every end-to-end metric the
median and the spread of its ten values: the distance between the first and
third quartile (`statistics.quantiles(values, n=4)`) as a share of the median.
A spread above a third of the metric's bound is flagged; the exit code is 1 if
any is (the set-up time is reported but, as in the driver, not held to the
rule).
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEEDS = range(1, 11)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    unsteady = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in SEEDS:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            started = time.time()
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if done.returncode != 0:
                sys.exit(f"steady.py: {' '.join(cmd)} exited {done.returncode}")
            line = done.stdout.strip().splitlines()[-1]
            result = json.loads(line)
            if not result["correct"] or result["failed"]:
                sys.exit(f"steady.py: {workload} seed {seed}: {line}")
            results.append(result)
            print(f"  {workload} seed {seed}: {time.time() - started:.1f} s", file=sys.stderr)
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':<22} {'median':>14} {'spread':>8} {'bound/3':>8}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            over = spread > m["bound"] / 3 and m["name"] != "setup_s"
            unsteady += over
            print(f"  {m['name']:<22} {med:>14.4f} {spread:>8.4f} {m['bound'] / 3:>8.4f}{'  UNSTEADY' if over else ''}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
