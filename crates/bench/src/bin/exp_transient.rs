//! Figure-10-style comparison of fault *lifetimes*: the same defect
//! sites injected as permanent, transient, or intermittent faults, with
//! retraining, so the accuracy cost of each activation class can be
//! compared directly.
//!
//! * `permanent` — the paper's Figure 10 regime: a defect is present in
//!   every evaluation.
//! * `transient` — each defect is active in any given evaluation with
//!   probability `--p` (soft-error-like upsets; default 0.05).
//! * `intermittent` — each defect is active for `--duty` out of every
//!   `--period` evaluations (marginal devices that come and go with
//!   operating conditions; defaults 5/50).
//!
//! ```sh
//! cargo run --release -p dta-bench --bin exp_transient
//! cargo run --release -p dta-bench --bin exp_transient -- --p 0.2 --period 20 --duty 10
//! cargo run --release -p dta-bench --bin exp_transient -- --checkpoint transient.ckpt
//! ```
//!
//! `--checkpoint BASE` journals finished grid cells to one file per
//! class (`BASE.permanent`, `BASE.transient`, `BASE.intermittent` —
//! the classes have different configuration fingerprints); a killed
//! run restarted with the same flags skips journaled cells and
//! reproduces the uninterrupted output byte-for-byte. `--chaos
//! defects:rep:attempts[,..]` injects engine panics into the named
//! grid cells (isolation/retry demo — a cell panicking twice is
//! reported in the `failed` column instead of killing the run).
//!
//! Machine-readable lines for scripts/CI start with `data `:
//! `data <task> <class> <defects> <mean> <min> <max> <failed> <retried>`.
//! A perf record goes to `BENCH_transient.json` (`--bench-out`
//! overrides).

use std::time::Instant;

use dta_bench::{open_checkpoint, rule, Args, JsonMap, FAULT_MODELS};
use dta_circuits::Activation;
use dta_core::campaign::{defect_tolerance_curve_resumable, CampaignConfig, ChaosCell, CurvePoint};
use dta_core::parallel::effective_threads;

const BIN: &str = "exp_transient";

/// Parses `--chaos defects:rep:attempts[,..]`.
fn parse_chaos(spec: &str) -> Vec<ChaosCell> {
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|triple| {
            let parts: Vec<usize> = triple
                .trim()
                .split(':')
                .map(|f| {
                    f.parse().unwrap_or_else(|e| {
                        eprintln!("--chaos `{triple}`: {e} (expected defects:rep:attempts)");
                        std::process::exit(2);
                    })
                })
                .collect();
            if parts.len() != 3 {
                eprintln!("--chaos `{triple}`: expected defects:rep:attempts");
                std::process::exit(2);
            }
            ChaosCell {
                defects: parts[0],
                rep: parts[1],
                attempts: parts[2],
            }
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let specs = args.tasks(&["iris"]);
    let epochs = args.get("epochs", 20usize);
    let p = args.get("p", 0.05f64);
    let period = args.get("period", 50u32);
    let duty = args.get("duty", 5u32);
    let chaos = args
        .get_opt_str("chaos")
        .map(parse_chaos)
        .unwrap_or_default();

    let classes = args.choices(
        "classes",
        &["permanent", "transient", "intermittent"],
        &[
            ("permanent", Activation::Permanent),
            (
                "transient",
                Activation::Transient {
                    per_eval_probability: p,
                },
            ),
            ("intermittent", Activation::Intermittent { period, duty }),
        ],
    );

    let base_cfg = CampaignConfig {
        defect_counts: args.get_usize_list("counts", &[0, 4, 8, 12, 18]),
        repetitions: args.get("reps", 3usize),
        folds: args.get("folds", 2usize),
        epochs: if epochs == 0 { None } else { Some(epochs) },
        model: args.choice("model", "transistor", FAULT_MODELS).1,
        activation: Activation::Permanent,
        seed: args.get("seed", 0x7A41u64),
        threads: args.get("threads", 1usize),
        chaos,
    };

    println!("Fault-lifetime comparison — accuracy vs. #defects after retraining");
    println!(
        "(transient p={p}, intermittent {duty}/{period} evals, {} reps, {} folds, epochs {:?})",
        base_cfg.repetitions, base_cfg.folds, base_cfg.epochs
    );

    let started = Instant::now();
    let mut failed_cells = 0usize;
    let mut retried_cells = 0usize;
    let mut curves: Vec<(String, String, Vec<CurvePoint>)> = Vec::new();

    for spec in &specs {
        println!("\ntask `{}`:", spec.name);
        print!("{:<14}", "class");
        for &d in &base_cfg.defect_counts {
            print!("{d:>8}");
        }
        println!("{:>8}{:>8}", "failed", "retried");
        rule(14 + 8 * (base_cfg.defect_counts.len() + 2));

        for (class_name, activation) in &classes {
            let cfg = CampaignConfig {
                activation: *activation,
                ..base_cfg.clone()
            };
            // One journal per class: the activation is part of the
            // fingerprint, so the classes cannot share a file.
            let checkpoint = args.get_opt_str("checkpoint").map(|base| {
                open_checkpoint(BIN, &format!("{base}.{class_name}"), &cfg.fingerprint())
            });
            let curve = defect_tolerance_curve_resumable(spec, &cfg, checkpoint.as_ref())
                .unwrap_or_else(|e| {
                    eprintln!("{BIN}: campaign failed: {e}");
                    std::process::exit(1);
                });

            print!("{class_name:<14}");
            let (mut failed, mut retried) = (0, 0);
            for point in &curve {
                print!("{:>7.1}%", point.mean_accuracy * 100.0);
                failed += point.failed;
                retried += point.retried;
            }
            println!("{failed:>8}{retried:>8}");
            failed_cells += failed;
            retried_cells += retried;
            curves.push((spec.name.to_string(), class_name.to_string(), curve));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    // Stable machine-readable lines (floats in shortest round-trip
    // form, so a resumed run diffs clean against an uninterrupted one).
    println!();
    for (task, class, curve) in &curves {
        for point in curve {
            println!(
                "data {task} {class} {} {:?} {:?} {:?} {} {}",
                point.defects,
                point.mean_accuracy,
                point.min_accuracy,
                point.max_accuracy,
                point.failed,
                point.retried
            );
        }
    }

    let threads_used = effective_threads(base_cfg.threads);
    let cells =
        (specs.len() * classes.len() * base_cfg.defect_counts.len() * base_cfg.repetitions) as u64;
    eprintln!(
        "\n{cells} cells in {wall_s:.2} s on {threads_used} thread(s), \
         {failed_cells} failed, {retried_cells} retried"
    );

    let record = JsonMap::new()
        .str("bin", BIN)
        .str_list(
            "tasks",
            &specs.iter().map(|s| s.name.to_string()).collect::<Vec<_>>(),
        )
        .str_list(
            "classes",
            &classes
                .iter()
                .map(|(name, _)| name.to_string())
                .collect::<Vec<_>>(),
        )
        .int_list("defect_counts", &base_cfg.defect_counts)
        .int("repetitions", base_cfg.repetitions as u64)
        .num("transient_p", p)
        .int("intermittent_period", u64::from(period))
        .int("intermittent_duty", u64::from(duty))
        .int("threads", threads_used as u64)
        .int("cells", cells)
        .int("failed_cells", failed_cells as u64)
        .int("retried_cells", retried_cells as u64)
        .num("wall_s", wall_s)
        .num("cells_per_s", cells as f64 / wall_s);
    args.write_record("BENCH_transient.json", record);
}
