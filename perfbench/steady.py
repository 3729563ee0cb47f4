#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same build.

Runs the command in BENCHMARK.json once per (set, workload, seed) and, for
every end-to-end metric, reports the spread of each set's runs (the
distance between the first and third quartile over the median) and how
far the second set's median moved from the first's. It fails when a
spread other than `setup_s`'s exceeds the metric's bound, when the second
median is worse than the first by more than the bound, or when a run's
metric names differ from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py                      # 2 sets x 10 seeds
    python3 perfbench/steady.py --sets 1 --workloads slo-diurnal --seeds 1,2,3,4,5

The default seeds end with 9001, which no size in the benchmark was
tuned on.
"""

import argparse
import json
import statistics
import subprocess
import sys

DEFAULT_SEEDS = "11,12,13,14,15,16,17,18,19,9001"


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["attempted"] < 1:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seeds", default=DEFAULT_SEEDS)
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    catalogue = bench["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"] for m in catalogue}
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                r = run_once(command, workload, seed, seconds, args.trace)
                names = set(r["metrics"])
                if names != expected:
                    print(f"{workload} seed {seed}: metric names differ from BENCHMARK.json: "
                          f"missing {sorted(expected - names)}, extra {sorted(names - expected)}")
                    ok = False
                runs.append(r)
                print(f"  set {s + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(r["metrics"].items())
                                 if k in metrics), flush=True)
            sets.append(runs)
        if args.trace:
            continue
        for name, m in metrics.items():
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            spreads = [spread(v) for v in values]
            medians = [statistics.median(v) for v in values]
            line = (f"{workload:16} {name:17} bound {m['bound']:.3f}  spreads "
                    + " ".join(f"{x:.4f}" for x in spreads)
                    + "  medians " + " ".join(f"{x:.6g}" for x in medians))
            bad = []
            if name != "setup_s" and any(x > m["bound"] for x in spreads):
                bad.append("spread over bound")
            if len(medians) > 1:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
                line += f"  second set {change:+.4f}"
                if worse > m["bound"]:
                    bad.append("second median worse than bound")
            if name != "setup_s" and any(x > m["bound"] / 3 for x in spreads):
                line += "  (spread over a third of the bound)"
            if bad:
                ok = False
                line += "  FAIL: " + ", ".join(bad)
            print(line, flush=True)
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
