#!/usr/bin/env bash
# Regenerates every table/figure of the paper plus the ablations. Each
# binary's stdout lands in results_<name>.txt at the repository root;
# the binaries that keep a perf record also rewrite their BENCH_*.json.
# Pass FULL=1 for the paper-scale configurations (hours).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p dta-bench

# run NAME [ARGS...]: runs exp_NAME, capturing its stdout in results_NAME.txt.
run() {
  local name=$1
  shift
  cargo run --release -q -p dta-bench --bin "exp_$name" -- "$@" > "results_$name.txt"
}

run fig2
if [[ "${FULL:-0}" == "1" ]]; then
  run fig5 --trials 1000
  run table2 --tasks breast,glass,ionosphere,iris,optdigits,robot,sonar,spam,vehicle,wine --full true
  run fig10 --tasks all --reps 100 --folds 10 --epochs 0 --counts 0,3,6,9,12,15,18,21,24,27 --checkpoint fig10.ckpt
  run fig11 --tasks iris,ionosphere,wine,robot --reps 100 --epochs 0
  run transient --tasks iris,wine --reps 10 --folds 3 --epochs 30 --checkpoint transient.ckpt
else
  run fig5 --trials 200
  run table2
  run fig10 --tasks all --reps 3 --epochs 30
  run fig11
  run transient --tasks iris,wine --reps 3 --folds 3 --epochs 30
fi
run table3
run table4
run recovery
run memfault
run systolic
run mission
run scaling
run visibility
run fault_classes
run multiplexed
run deep
run ablation_spatial
run ablation_sigmoid
run ablation_fixed
run ablation_hidden
run ablation_operators
