#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and run-to-run spread, normalised and raw.

The spread is the distance between the first and third quartile of the
per-run values (statistics.quantiles, n=4) as a share of their median,
the measure the benchmark's bounds in BENCHMARK.json are set against.
The raw column applies the same statistic to the raw wall-clock values
each run prints on its `raw_wall` line, showing what calibration buys.

    python3 perfbench/spread.py --workload go-d1000 --seeds 1-10

Run from the repository root. Each run is the command in BENCHMARK.json
with its run_seconds and --trace 0.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
        result = json.loads(lines[-1])
        raw = next((json.loads(l)["raw_wall"] for l in lines if l.startswith('{"raw_wall"')), {})
        runs.append((seed, result, raw))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    names = list(runs[0][1]["metrics"])
    print(f"{args.workload}: {len(runs)} runs, seeds {args.seeds}, {seconds} s each")
    print(f"{'metric':<34}{'median':>14}{'spread':>9}{'raw spread':>12}{'bound/3':>9}")
    for name in names:
        vals = [r[1]["metrics"][name]["value"] for r in runs]
        raws = [r[2][name] for r in runs if name in r[2]]
        bound = bounds.get(name)
        raw_s = f"{spread(raws):.4f}" if len(raws) == len(runs) else "-"
        third = f"{bound / 3:.4f}" if bound else "-"
        print(f"{name:<34}{statistics.median(vals):>14.5g}{spread(vals):>9.4f}{raw_s:>12}{third:>9}")


if __name__ == "__main__":
    main()
