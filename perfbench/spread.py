#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end
metric's median and spread (interquartile range as a share of the
median, by statistics.quantiles(values, n=4)) against its bound. Exits
non-zero if a run is not correct or any spread exceeds its bound.

    python3 perfbench/spread.py --workload serve --runs 10 [--first-seed 100]

Run from the repository root. The benchmark command and the bounds are
read from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workload:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: NOT CORRECT {out.stderr.strip()}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = "ok" if spread <= bounds[name] / 3 else "WIDE"
            if spread > bounds[name]:
                ok = False
                mark = "OVER BOUND"
            print(f"  {workload:9s} {name:14s} median={med:.5g} spread={spread:.4f} "
                  f"bound={bounds[name]} {mark}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
