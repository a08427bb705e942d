//! Simulation-speed shootout for the faulty-multiplier workload: the
//! same stream of multiplications under permanent defects, evaluated by
//! every scalar engine, slowest to fastest.
//!
//! * `switch` — the uncached switch-level cells on the reference
//!   `Simulator` (every faulty gate re-solved through its transistor
//!   network per settle);
//! * `sweep` — the reference `Simulator` with memoized truth tables
//!   (`DefectPlan::apply`), one full sweep over every gate per call;
//! * `stream` — the production engine, `HwMultiplier::mul`: the plan
//!   lowered into the circuit's LUT stream (patched truth words plus
//!   step instructions for stateful cells), optimized, mapped onto
//!   4-input LUTs and swept one lane at a time.
//!
//! For the same plans on all three operators (multiplier, adder,
//! sigmoid unit) it also reports how many instructions one call sweeps,
//! after optimization and after mapping.
//!
//! Every strategy must produce bit-identical products; the binary
//! asserts this before reporting throughput. The stimulus mimics the
//! training inner loop: a fixed weight operand and a varying data
//! operand.
//!
//! A second, network-level shootout runs the **whole faulty forward
//! pass** of an MLP under the two network engines: `scalar` (the
//! per-sample operator calls, `Mlp::forward_faulty`) and
//! `fused` (`dta_ann::FusedForward` — the entire pass compiled into one
//! optimized LUT instruction stream, reached through
//! `Mlp::forward_faulty_batch`). Both must agree bit-for-bit. The
//! fault-free native pass (`Mlp::forward_fixed`) on the same rows is the
//! yardstick: `min_speedup_fused_vs_native` (CI floor) divides the fused
//! engine by an engine no faulty-operator change moves, where
//! `min_speedup_fused_vs_scalar` rises and falls with the scalar path.
//!
//! A strategy that *refuses* a configuration (fused on a plan that does
//! not lower to truth-word patches) is reported as `null` in the JSON
//! record and `-` in the table — never as a measured `0.0`.
//!
//! ```sh
//! cargo run --release -p dta-bench --bin exp_simspeed
//! cargo run --release -p dta-bench --bin exp_simspeed -- --rows 8192 --defects 1,2,4,8
//! cargo run --release -p dta-bench --bin exp_simspeed -- --smoke true
//! cargo run --release -p dta-bench --bin exp_simspeed -- --breakdown true
//! ```
//!
//! A machine-readable record goes to `BENCH_simspeed.json`
//! (`--bench-out` overrides), including `min_speedup_fused_vs_native`
//! (CI floor, see `.github/workflows`) and the host's core count and
//! git revision. `--breakdown true` adds compile-vs-execute timing and
//! memoization hit rates for the program and fused compilations.

use std::sync::Arc;
use std::time::Instant;

use dta_ann::{FaultPlan, FusedForward, Mlp, Topology};
use dta_bench::{rule, Args, JsonMap};
use dta_circuits::{
    DefectPlan, FaultModel, FxMulCircuit, HwMultiplier, SatAdderCircuit, SigmoidUnitCircuit,
};
use dta_fixed::{Fx, SigmoidLut};
use dta_logic::{LutProgram, Netlist, NodeId, OpProgram};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// CI floor on `min_speedup_fused_vs_native` (see `.github/workflows`).
const NATIVE_FLOOR: f64 = 0.35;

/// Passes over the rows per timing of the native network forward.
const NATIVE_PASSES: usize = 8;

/// The operator-level strategies, slowest to fastest.
const STRATEGIES: [&str; 3] = ["switch", "sweep", "stream"];

/// One measured strategy: name, throughput, and the products it
/// computed (for the cross-strategy identity check).
struct Measurement {
    name: &'static str,
    evals_per_s: f64,
    out: Vec<Fx>,
}

fn time_run(rows: usize, f: impl FnOnce() -> Vec<Fx>) -> (f64, Vec<Fx>) {
    let started = Instant::now();
    let out = f();
    let t = started.elapsed().as_secs_f64();
    (rows as f64 / t, out)
}

/// The injection RNG of the `n`-defect plan.
fn plan_rng(n: usize, seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ (n as u64) << 24)
}

/// Builds the permanent defect plan with `n` defects on a circuit.
fn build_plan(net: &Netlist, cells: &[Vec<NodeId>], n: usize, seed: u64) -> DefectPlan {
    let mut rng = plan_rng(n, seed);
    let mut plan = DefectPlan::new(FaultModel::TransistorLevel);
    for _ in 0..n {
        plan.add_random(net, cells, &mut rng);
    }
    plan
}

/// Instructions one call of the operator sweeps under a plan: the
/// optimized stream, then the stream mapped onto 4-input LUTs.
fn stream_sizes(
    net: &Arc<Netlist>,
    plan: &DefectPlan,
    inputs: &[&[NodeId]],
    output: &[NodeId],
) -> (usize, usize) {
    let prog = LutProgram::cached(net);
    let (instrs, steps) = plan.lower(&prog);
    let at: Vec<usize> = steps.iter().map(|&(at, _)| at).collect();
    let optimized = OpProgram::optimize(&prog, &instrs, &at, inputs, output);
    (optimized.program().len(), optimized.map().program().len())
}

fn main() {
    let args = Args::parse();
    let smoke = args.get_bool("smoke", false);
    let rows = args.get("rows", if smoke { 256 } else { 4096usize });
    let default_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 4, 8] };
    let defect_counts = args.get_usize_list("defects", default_counts);
    let seed = args.get("seed", 0x51E5Du64);
    let measure_switch = args.get_bool("switch", !smoke);
    let breakdown = args.get_bool("breakdown", false);

    let mul = Arc::new(FxMulCircuit::new());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weight = Fx::from_f64(0.37);
    // Two stimulus classes against the same fixed weight operand:
    // `dense` is the training inner loop (a fresh data operand every
    // row, most of the circuit toggles), `sparse` flips one data bit
    // per row (diagnosis probes, quiescent sensors).
    let dense: Vec<Fx> = (0..rows)
        .map(|_| Fx::from_raw(rng.random::<i16>()))
        .collect();
    let mut walker = Fx::from_f64(0.5).to_bits();
    let sparse: Vec<Fx> = (0..rows)
        .map(|i| {
            walker ^= 1 << (i % 16);
            Fx::from_bits(walker)
        })
        .collect();
    let b = vec![weight; rows];

    println!("Simulation speed — faulty 16-bit multiplier, {rows} rows, permanent defects");
    println!("(evals/s; every strategy is bit-identical to the switch-level path)\n");

    let measure = |stim: &str, a: &[Fx]| -> Vec<Vec<Measurement>> {
        print!("{:<18}", format!("{stim}/defects"));
        for name in STRATEGIES {
            print!("{name:>12}");
        }
        println!();
        rule(18 + 12 * STRATEGIES.len());

        let mut per_count: Vec<Vec<Measurement>> = Vec::new();
        for &n in &defect_counts {
            let mut ms: Vec<Measurement> = Vec::new();

            if measure_switch {
                let mut sim = mul.simulator();
                build_plan(mul.netlist(), mul.cells(), n, seed).apply_switch_level(&mut sim);
                let (evals_per_s, out) = time_run(rows, || {
                    a.iter()
                        .zip(&b)
                        .map(|(&x, &w)| mul.compute(&mut sim, x, w))
                        .collect()
                });
                ms.push(Measurement {
                    name: "switch",
                    evals_per_s,
                    out,
                });
            }

            {
                // Memoized truth tables, one full reference sweep per row.
                let mut sim = mul.simulator();
                build_plan(mul.netlist(), mul.cells(), n, seed).apply(&mut sim);
                let (evals_per_s, out) = time_run(rows, || {
                    a.iter()
                        .zip(&b)
                        .map(|(&x, &w)| mul.compute(&mut sim, x, w))
                        .collect()
                });
                ms.push(Measurement {
                    name: "sweep",
                    evals_per_s,
                    out,
                });
            }

            {
                // The production operator: same plan, same RNG draws.
                let mut hw = HwMultiplier::with_circuit(Arc::clone(&mul));
                let mut rng = plan_rng(n, seed);
                hw.inject_random(FaultModel::TransistorLevel, n, &mut rng);
                let (evals_per_s, out) = time_run(rows, || {
                    a.iter().zip(&b).map(|(&x, &w)| hw.mul(x, w)).collect()
                });
                ms.push(Measurement {
                    name: "stream",
                    evals_per_s,
                    out,
                });
            }

            let reference = &ms[0];
            for m in &ms[1..] {
                assert_eq!(
                    m.out, reference.out,
                    "{} diverged from {} at {n} defects ({stim})",
                    m.name, reference.name
                );
            }

            let rate = |name: &str| ms.iter().find(|m| m.name == name).map(|m| m.evals_per_s);
            print!("{n:<18}");
            for name in STRATEGIES {
                match rate(name) {
                    Some(r) => print!("{r:>12.0}"),
                    None => print!("{:>12}", "-"),
                }
            }
            println!();
            per_count.push(ms);
        }
        println!();
        per_count
    };

    let dense_counts = measure("dense", &dense);
    let sparse_counts = measure("sparse", &sparse);

    // Stream sizes of all three operators under the same plans.
    let add = SatAdderCircuit::new();
    let sig = SigmoidUnitCircuit::new();
    let sizes = |net: &Arc<Netlist>, cells: &[Vec<NodeId>], ins: &[&[NodeId]], out: &[NodeId]| {
        defect_counts
            .iter()
            .map(|&n| stream_sizes(net, &build_plan(net, cells, n, seed), ins, out))
            .collect::<Vec<_>>()
    };
    let operators = [
        (
            "mul",
            sizes(
                mul.netlist(),
                mul.cells(),
                &[mul.a_bus(), mul.b_bus()],
                mul.out_bus(),
            ),
        ),
        (
            "add",
            sizes(
                add.netlist(),
                add.cells(),
                &[add.a_bus(), add.b_bus()],
                add.out_bus(),
            ),
        ),
        (
            "sig",
            sizes(sig.netlist(), sig.cells(), &[sig.x_bus()], sig.out_bus()),
        ),
    ];
    println!("Instructions per call — optimized stream -> mapped onto 4-input LUTs\n");
    print!("{:<18}", "defects");
    for (name, _) in &operators {
        print!("{name:>16}");
    }
    println!();
    rule(18 + 16 * operators.len());
    for (k, &n) in defect_counts.iter().enumerate() {
        print!("{n:<18}");
        for (_, op) in &operators {
            print!("{:>16}", format!("{} -> {}", op[k].0, op[k].1));
        }
        println!();
    }
    println!();

    // ------------------------------------------------------------------
    // Network-level: the whole faulty forward pass under both engines.
    // ------------------------------------------------------------------
    // The network section stays at full row count even under --smoke:
    // it finishes in under a second, and the fused-vs-scalar floor is
    // only meaningful once per-batch setup costs are amortized.
    let net_rows = args.get("net-rows", 2048usize);
    // Throughput is best-of-N so a descheduled timeslice can't turn
    // into a phantom slowdown on loaded machines.
    let net_reps = args.get("reps", 3usize);
    // Defect counts for a whole network are an order of magnitude above
    // the single-operator grid: defect-loaded networks are the paper's
    // regime of interest, and the scalar engine's cost grows with every
    // gate-level operator it must settle per row.
    let net_default: &[usize] = if smoke { &[8] } else { &[8, 16, 32] };
    let net_counts = args.get_usize_list("net-defects", net_default);
    let topo = Topology::new(8, 8, 4);
    let mlp = Mlp::new(topo, seed ^ 0xA5);
    let siglut = SigmoidLut::new();
    let xs: Vec<Vec<f64>> = (0..net_rows)
        .map(|r| {
            (0..topo.inputs)
                .map(|i| ((r * 7 + i * 3) % 23) as f64 / 11.5 - 1.0)
                .collect()
        })
        .collect();

    // Rebuild the plan per strategy from the same injection-seed list
    // so each run starts from fresh fault state.
    let build_net_plan = |seeds: &[u64]| -> FaultPlan {
        let mut plan = FaultPlan::new(topo.inputs + 2);
        for &s in seeds {
            let mut rng = ChaCha8Rng::seed_from_u64(s);
            plan.inject_random_hidden(topo.hidden, FaultModel::TransistorLevel, &mut rng);
        }
        plan
    };
    // Transistor-level injections are not always patchable, and a
    // whole-plan rebuild is only batchable when *every* injection is —
    // rejection-sample injection by injection so dense plans stay
    // measurable.
    let vectorizable_seeds = |n: usize| -> Option<Vec<u64>> {
        let mut accepted: Vec<u64> = Vec::new();
        let mut cand = seed ^ ((n as u64) << 32);
        for _ in 0..64 * n {
            if accepted.len() == n {
                break;
            }
            accepted.push(cand);
            if !build_net_plan(&accepted).vectorizable() {
                accepted.pop();
            }
            cand = cand.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        (accepted.len() == n).then_some(accepted)
    };

    println!(
        "\nNetwork forward pass — {}x{}x{} MLP, {net_rows} rows, permanent defects",
        topo.inputs, topo.hidden, topo.outputs
    );
    println!("(network evals/s; `-` = strategy refuses this configuration)\n");
    print!("{:<18}", "defects");
    for name in ["native", "scalar", "fused"] {
        print!("{name:>12}");
    }
    println!("{:>12}{:>12}", "fused/nat", "fused/scal");
    rule(18 + 12 * 5);

    let mut net_native: Vec<f64> = Vec::new();
    let mut net_native_speedup: Vec<f64> = Vec::new();
    let mut net_scalar: Vec<f64> = Vec::new();
    let mut net_fused: Vec<f64> = Vec::new();
    let mut net_speedup: Vec<f64> = Vec::new();
    let mut fused_breakdown: Vec<(usize, f64, f64, f64)> = Vec::new();
    for &n in &net_counts {
        let seeds = vectorizable_seeds(n);
        let fallback: Vec<u64> = (0..n as u64)
            .map(|i| seed ^ ((n as u64) << 32) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let seeds_or = seeds.as_deref().unwrap_or(&fallback);
        let fusable =
            seeds.is_some() && FusedForward::compile(&mlp, &build_net_plan(seeds_or)).is_some();

        // The fault-free native pass on the same rows: the yardstick no
        // faulty-operator engine moves. One pass takes about a
        // millisecond, so each timing spans several.
        let mut r_native = f64::NAN;
        for _ in 0..net_reps {
            let started = Instant::now();
            for x in xs.iter().cycle().take(NATIVE_PASSES * net_rows) {
                std::hint::black_box(mlp.forward_fixed(x, &siglut));
            }
            let rate = (NATIVE_PASSES * net_rows) as f64 / started.elapsed().as_secs_f64();
            r_native = r_native.max(rate);
        }
        net_native.push(r_native);

        // Per-sample operator calls — always measurable.
        let mut r_scalar = f64::NAN;
        let mut scalar_out = Vec::new();
        for _ in 0..net_reps {
            let mut plan = build_net_plan(seeds_or);
            let started = Instant::now();
            scalar_out = xs
                .iter()
                .map(|x| mlp.forward_faulty(x, &siglut, &mut plan))
                .collect();
            r_scalar = r_scalar.max(net_rows as f64 / started.elapsed().as_secs_f64());
        }
        net_scalar.push(r_scalar);

        // Fused network engine. Warm the memo first so the timed run
        // measures the amortized path; compilation is reported
        // separately under --breakdown.
        let r_fused = match fusable {
            true => {
                let mut plan = build_net_plan(seeds_or);
                let ff = FusedForward::cached(&mlp, &plan).expect("scanned plan must fuse");
                let mut r = f64::NAN;
                for _ in 0..net_reps {
                    let started = Instant::now();
                    let out = mlp.forward_faulty_batch(&xs, &siglut, &mut plan);
                    r = r.max(net_rows as f64 / started.elapsed().as_secs_f64());
                    assert_eq!(out, scalar_out, "fused stream diverged at {n} defects");
                }
                if breakdown {
                    dta_ann::clear_fused_cache();
                    let t = Instant::now();
                    let cold = FusedForward::cached(&mlp, &plan).expect("recompile");
                    let compile_ms = t.elapsed().as_secs_f64() * 1e3;
                    let t = Instant::now();
                    let _warm = FusedForward::cached(&mlp, &plan).expect("memo hit");
                    let hit_ms = t.elapsed().as_secs_f64() * 1e3;
                    let t = Instant::now();
                    let out2 = cold.forward(&mlp, &xs, &siglut, &mut plan);
                    let exec_ms = t.elapsed().as_secs_f64() * 1e3;
                    assert_eq!(out2, scalar_out, "breakdown run diverged at {n} defects");
                    fused_breakdown.push((n, compile_ms, hit_ms, exec_ms));
                }
                drop(ff);
                r
            }
            false => f64::NAN,
        };
        net_fused.push(r_fused);

        // NaN propagates refusals.
        let (vs_native, speedup) = (r_fused / r_native, r_fused / r_scalar);
        net_native_speedup.push(vs_native);
        net_speedup.push(speedup);
        print!("{n:<18}");
        for r in [r_native, r_scalar, r_fused] {
            if r.is_finite() {
                print!("{r:>12.0}");
            } else {
                print!("{:>12}", "-");
            }
        }
        for x in [vs_native, speedup] {
            if x.is_finite() {
                print!("{:>12}", format!("{x:.2}x"));
            } else {
                print!("{:>12}", "-");
            }
        }
        println!();
    }
    println!();

    // The smallest measured ratio; NaN when every count refused.
    let min_measured = |xs: &[f64]| {
        let m = xs
            .iter()
            .copied()
            .filter(|s| s.is_finite())
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            f64::NAN
        }
    };
    let min_speedup_native = min_measured(&net_native_speedup);
    let min_speedup_fused = min_measured(&net_speedup);
    if min_speedup_native.is_finite() {
        println!(
            "fused network stream vs fault-free native forward: >= {min_speedup_native:.2}x \
             at every measured defect count (CI floor: {NATIVE_FLOOR}x)"
        );
        println!(
            "fused network stream vs scalar forward: >= {min_speedup_fused:.1}x \
             at every measured defect count"
        );
    } else {
        println!("fused network stream: no measurable configuration (all refused)");
    }

    if breakdown {
        let (ph, pm) = dta_logic::program_cache_stats();
        let (fh, fm) = dta_ann::fused_cache_stats();
        let t = Instant::now();
        let _ = dta_logic::LutProgram::compile(Arc::clone(mul.netlist()));
        let lut_compile_ms = t.elapsed().as_secs_f64() * 1e3;
        println!("compilation amortization (--breakdown):");
        println!(
            "  per-op program: one compile {lut_compile_ms:.2} ms; \
             memo {ph} hits / {pm} misses ({})",
            dta_bench::pct(ph as f64 / (ph + pm).max(1) as f64)
        );
        for &(n, c, h, e) in &fused_breakdown {
            println!(
                "  fused n={n:<3}: compile {c:.2} ms, memo hit {h:.3} ms, execute {e:.2} ms \
                 ({:.1} us/row over {net_rows} rows)",
                e * 1e3 / net_rows as f64
            );
        }
        println!(
            "  fused memo : {fh} hits / {fm} misses ({})\n",
            dta_bench::pct(fh as f64 / (fh + fm).max(1) as f64)
        );
    }

    // A strategy that refused a configuration has no measurement; NaN
    // renders as JSON `null`, so a dead strategy can never be confused
    // with a measured zero.
    let rates = |per_count: &[Vec<Measurement>], name: &str| -> Vec<f64> {
        per_count
            .iter()
            .map(|ms| {
                ms.iter()
                    .find(|m| m.name == name)
                    .map_or(f64::NAN, |m| m.evals_per_s)
            })
            .collect()
    };
    let mut record = JsonMap::new()
        .str("bin", "exp_simspeed")
        .int("rows", rows as u64)
        .int_list("defect_counts", &defect_counts);
    for (name, op) in &operators {
        let optimized: Vec<usize> = op.iter().map(|&(o, _)| o).collect();
        let mapped: Vec<usize> = op.iter().map(|&(_, m)| m).collect();
        record = record
            .int_list(&format!("instrs_optimized_{name}"), &optimized)
            .int_list(&format!("instrs_mapped_{name}"), &mapped);
    }
    for (suffix, per_count) in [("", &dense_counts), ("_sparse", &sparse_counts)] {
        for name in STRATEGIES {
            let rs = rates(per_count, name);
            if rs.iter().any(|r| r.is_finite()) {
                record = record.num_list(&format!("evals_per_s_{name}{suffix}"), &rs);
            }
        }
    }
    // Network-level engines. Refused configurations are `null`, never
    // 0.0 (see EXPERIMENTS.md for the refusal rule).
    record = record
        .str(
            "net_topology",
            &format!("{}x{}x{}", topo.inputs, topo.hidden, topo.outputs),
        )
        .int("net_rows", net_rows as u64)
        .num_list("evals_per_s_native_net", &net_native)
        .num_list("evals_per_s_scalar_net", &net_scalar)
        .num_list("evals_per_s_fused_net", &net_fused)
        .num_list("speedup_fused_vs_native", &net_native_speedup)
        .num("min_speedup_fused_vs_native", min_speedup_native)
        .num_list("speedup_fused_vs_scalar", &net_speedup)
        .num("min_speedup_fused_vs_scalar", min_speedup_fused);
    if breakdown {
        let (ph, pm) = dta_logic::program_cache_stats();
        let (fh, fm) = dta_ann::fused_cache_stats();
        record = record
            .num_list(
                "fused_compile_ms",
                &fused_breakdown
                    .iter()
                    .map(|&(_, c, _, _)| c)
                    .collect::<Vec<_>>(),
            )
            .num_list(
                "fused_memo_hit_ms",
                &fused_breakdown
                    .iter()
                    .map(|&(_, _, h, _)| h)
                    .collect::<Vec<_>>(),
            )
            .num_list(
                "fused_exec_ms",
                &fused_breakdown
                    .iter()
                    .map(|&(_, _, _, e)| e)
                    .collect::<Vec<_>>(),
            )
            .num(
                "program_cache_hit_rate",
                ph as f64 / (ph + pm).max(1) as f64,
            )
            .num("fused_cache_hit_rate", fh as f64 / (fh + fm).max(1) as f64);
    }
    args.write_record("BENCH_simspeed.json", record);
}
