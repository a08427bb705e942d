#!/usr/bin/env python3
"""Paired A/B comparison of the benchmark between a parent revision and
the working tree.

    python3 scripts/ab_pairs.py --parent <rev|dir> [--workload W]... \\
        [--pairs 10] [--first-seed 1]

Run from the repository root. A parent revision is checked out with
`git worktree add --detach` into a temporary directory, which is removed
afterwards. A parent that names a directory is taken as an unpacked
parent tree (e.g. from `git archive <rev> | tar -x -C <dir>`) and used
as it is, for hosts where worktrees cannot be made. Each tree builds
and runs the exact benchmark command from BENCHMARK.json with its own
CARGO_TARGET_DIR, at `run_seconds`. Pair i
runs both trees on seed first-seed + i; odd pairs run the parent first,
even pairs the child, so a drift in host speed hits both sides alike.
Workloads default to every workload in BENCHMARK.json.

For every end-to-end metric it prints the parent and child medians, the
per-pair child/parent ratios, the win/loss count and the parent's spread
(interquartile range over the median, by
statistics.quantiles(values, n=4)) against the metric's bound, with a
verdict:

    unresolved  the parent's spread exceeds the bound: the runs are too
                noisy to tell
    worse       the child's median is worse than the parent's by more
                than the bound
    better      the child wins at least 9 in 10 pairs, and its median
                beats the parent's by more than the distance between the
                parent's quartiles
    no worse    anything else

Exits non-zero if any run is not correct, fails ops, or any metric is
worse.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def run_bench(tree, target, cmd, workload, seed, seconds):
    """One benchmark run in `tree`; returns its result object."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=tree, env=env, capture_output=True,
                         text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{tree} {workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["stderr"] = out.stderr.strip()
    return result


def verdict(parent, child, better, bound):
    """Compares one metric's runs; returns (verdict, wins, losses, spread)."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, child))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, child))
    q1, med, q3 = statistics.quantiles(parent, n=4)
    spread = (q3 - q1) / med
    gain = sign * (statistics.median(child) - statistics.median(parent))
    if spread > bound:
        return "unresolved", wins, losses, spread
    if gain < -bound * abs(statistics.median(parent)):
        return "worse", wins, losses, spread
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "better", wins, losses, spread
    return "no worse", wins, losses, spread


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    # `cargo run <opts> -- ...` becomes `cargo build <opts>` for the
    # up-front builds, so no timed run waits on the compiler.
    build = ["cargo", "build"] + cmd[2:cmd.index("--")]

    scratch = tempfile.mkdtemp(prefix="ab_pairs.")
    worktree = not os.path.isdir(args.parent)
    if worktree:
        parent_tree = os.path.join(scratch, "parent")
        subprocess.run(["git", "worktree", "add", "--detach", parent_tree, args.parent],
                       check=True, capture_output=True)
    else:
        parent_tree = os.path.abspath(args.parent)
    ok = True
    try:
        sides = {
            "parent": (parent_tree, os.path.join(scratch, "target-parent")),
            "child": (os.getcwd(), os.path.join(scratch, "target-child")),
        }
        for tree, target in sides.values():
            subprocess.run(build, cwd=tree, check=True,
                           env=dict(os.environ, CARGO_TARGET_DIR=target))
        for workload in workloads:
            runs = {"parent": [], "child": []}
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ["parent", "child"] if i % 2 == 0 else ["child", "parent"]
                for side in order:
                    tree, target = sides[side]
                    result = run_bench(tree, target, cmd, workload, seed, seconds)
                    if not result["correct"] or result["failed"]:
                        ok = False
                        print(f"{workload} seed {seed} {side}: NOT CORRECT "
                              f"(failed {result['failed']}) {result['stderr']}")
                    runs[side].append(result["metrics"])
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + " ".join(
                    f"{m['name']}={runs['child'][-1][m['name']]['value'] / runs['parent'][-1][m['name']]['value']:.3f}"
                    for m in metrics), flush=True)
            for m in metrics:
                name = m["name"]
                parent = [r[name]["value"] for r in runs["parent"]]
                child = [r[name]["value"] for r in runs["child"]]
                ratios = [c / p for p, c in zip(parent, child)]
                v, wins, losses, spread = verdict(parent, child, m["better"], m["bound"])
                if v == "worse":
                    ok = False
                same = " identical per seed" if parent == child else ""
                print(f"  {workload:9s} {name:14s} parent={statistics.median(parent):.5g} "
                      f"child={statistics.median(child):.5g} "
                      f"ratios=[{' '.join(f'{r:.3f}' for r in ratios)}] "
                      f"wins={wins} losses={losses} spread={spread:.4f} "
                      f"bound={m['bound']} -> {v}{same}", flush=True)
    finally:
        if worktree:
            subprocess.run(["git", "worktree", "remove", "--force", parent_tree],
                           capture_output=True)
            subprocess.run(["git", "worktree", "prune"], capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
