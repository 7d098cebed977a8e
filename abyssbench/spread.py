#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 abyssbench/spread.py --workload serve-ycsb --seeds 1-10 [--seconds 10] [--trace 0]

Run from the repository root. For every metric it prints the median and
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
        res = json.loads(last)
        brief = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} {brief}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        line = f"{name:40s} median={med:<14.6g}"
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            line += f" spread={(q3 - q1) / abs(med):.3f}"
        if bounds.get(name) is not None:
            line += f" bound={bounds[name]}"
        print(line)


if __name__ == "__main__":
    main()
