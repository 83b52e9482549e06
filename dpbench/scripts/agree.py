#!/usr/bin/env python3
"""Do two sets of dpbench runs of the same code agree?

    agree.py <runA.json>... -- <runB.json>...

Each file is a report written by `dpbench --out` (one workload, or the
combined file of an all-workloads run). For every workload the two sets
share, the script

  * compares the sets' medians of every end-to-end metric against the bound
    fixed in BENCHMARK.json: neither set may be worse than the other by more
    than the bound;
  * requires the count metrics to be bit-equal between runs of equal seed
    (the paper's costs, the failed count, and the wire and connection counts
    of the traced pass), and the per-op file-call counts of the traced pass,
    which carry a checkpoint's share that depends on how many ops fitted in
    the run, to be equal within 2 % (bytes written per op are left out: one
    checkpoint more or less in a two-second window moves them by 4 %);
  * requires kvs_local and kvs_durable to report identical paper costs;
  * prints each metric's spread (interquartile range over median) so the
    bounds can be revisited with data.

Exits 1 on any disagreement, 2 on unusable input.
"""

import json
import statistics
import sys
from pathlib import Path

EXACT = {
    "cells_per_op",
    "bytes_per_op",
    "round_trips_per_op",
    "core.storage_calls_per_op",
    "net.round_trips_per_op",
    "net.wire_bytes_up_per_op",
    "net.wire_bytes_down_per_op",
    "daemon.connections",
}
NEAR = {
    "vfs.fsyncs_per_op",
    "vfs.writes_per_op",
    "vfs.reads_per_op",
    "vfs.read_bytes_per_op",
}
NEAR_TOLERANCE = 0.02
PAPER_COSTS = ["cells_per_op", "bytes_per_op", "round_trips_per_op"]


def load(path):
    """Yields (workload, seed, traced, result) for every result in a report;
    the result is None where the workload's process printed none."""
    doc = json.loads(Path(path).read_text())
    seed, traced = doc["header"]["seed"], doc["trace"]
    if "results" in doc:
        for workload, result in doc["results"].items():
            yield workload, seed, traced, result
    else:
        yield doc["workload"], seed, traced, doc["result"]


def values(runs, metric):
    return [r["metrics"][metric]["value"] for _, r in runs if metric in r["metrics"]]


def spread(vals):
    """Interquartile range as a share of the median; None below 2 values."""
    if len(vals) < 2 or statistics.median(vals) == 0:
        return None
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(statistics.median(vals))


def fmt_spread(s):
    return "-" if s is None else f"{s:9.4f}"


def worse_by(base, other, better):
    """How much worse `other` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if other == base else float("inf")
    delta = (other - base) / abs(base)
    return delta if better == "lower" else -delta


def main(argv):
    args = list(argv)
    bench_path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    if "--" not in args:
        print(__doc__, file=sys.stderr)
        return 2
    cut = args.index("--")
    sets = []
    problems = []
    for files in (args[:cut], args[cut + 1 :]):
        if not files:
            print("agree.py: each side of -- needs at least one run", file=sys.stderr)
            return 2
        runs = {}  # (workload, traced) -> [(seed, result)]
        for f in files:
            for workload, seed, traced, result in load(f):
                if result is None:
                    problems.append(f"{workload}: {f}: seed {seed}: the run printed no result")
                else:
                    runs.setdefault((workload, traced), []).append((seed, result))
        sets.append(runs)
    bench = json.loads(bench_path.read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    shared = sorted(set(sets[0]) & set(sets[1]))
    if not shared:
        problems.append("the two sets share no workload and pass")
    for key in shared:
        workload, traced = key
        a, b = sets[0][key], sets[1][key]
        print(f"\n{workload} ({'traced' if traced else 'end to end'}): {len(a)} vs {len(b)} runs")
        print(f"  {'metric':<30} {'median A':>14} {'median B':>14} {'worse by':>9} {'bound':>6} {'spread A':>9} {'spread B':>9}")
        for side, runs in (("A", a), ("B", b)):
            for seed, result in runs:
                if result["failed"] or not result["correct"]:
                    problems.append(f"{workload}: set {side} seed {seed}: failed={result['failed']} correct={result['correct']}")
        names = list(a[0][1]["metrics"])
        for name in names:
            va, vb = values(a, name), values(b, name)
            ma, mb = statistics.median(va), statistics.median(vb)
            better = directions.get(name, "lower")
            gap = max(worse_by(ma, mb, better), worse_by(mb, ma, better))
            bound = bounds.get(name)
            print(f"  {name:<30} {ma:>14.4f} {mb:>14.4f} {gap:>9.4f} {('-' if bound is None else bound):>6} {fmt_spread(spread(va)):>9} {fmt_spread(spread(vb)):>9}")
            if bound is not None and gap > bound:
                problems.append(f"{workload}: {name}: medians {ma:.6g} and {mb:.6g} differ by {gap:.3f}, bound {bound}")
            if name in EXACT or name in NEAR:
                by_seed = {}
                for seed, result in a + b:
                    by_seed.setdefault(seed, []).append(result["metrics"][name]["value"])
                for seed, vals in by_seed.items():
                    lo, hi = min(vals), max(vals)
                    slack = NEAR_TOLERANCE * abs(lo) if name in NEAR else 0.0
                    if hi - lo > slack:
                        problems.append(f"{workload}: {name}: seed {seed} gave {lo} and {hi}")
    for runs in sets:
        local, durable = runs.get(("kvs_local", False)), runs.get(("kvs_durable", False))
        if local and durable:
            for name in PAPER_COSTS:
                costs = set(values(local, name)) | set(values(durable, name))
                if len(costs) != 1:
                    problems.append(f"kvs_local and kvs_durable disagree on {name}: {sorted(costs)}")

    print()
    for p in problems:
        print(f"DISAGREE: {p}")
    print("agree" if not problems else f"{len(problems)} disagreement(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
