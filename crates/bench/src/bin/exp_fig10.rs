//! Figure 10: accuracy vs. number of defects in the input and hidden
//! layers, after retraining.
//!
//! Defaults are scaled down to finish in minutes; the paper's full
//! setting is `--tasks all --reps 100 --folds 10 --epochs 0 --counts
//! 0,3,6,9,12,15,18,21,24,27` (where `--epochs 0` means "use each
//! task's Table II epochs").
//!
//! ```sh
//! cargo run --release -p dta-bench --bin exp_fig10
//! cargo run --release -p dta-bench --bin exp_fig10 -- --tasks iris,wine --reps 5
//! cargo run --release -p dta-bench --bin exp_fig10 -- --threads 0 --serial true
//! ```
//!
//! Every run times the campaign and writes a machine-readable perf
//! record to `BENCH_campaign.json` (`--bench-out` overrides the path).
//! `--threads N` fans the (defect-count × repetition) grid over N
//! workers (0 = all cores) with bit-identical results; `--serial true`
//! adds a one-thread reference run, so the JSON records an honest
//! parallel speedup, alongside the host's core count and git revision.
//! `--checkpoint FILE` journals each finished grid cell: a killed run
//! restarted with the same flags skips the journaled cells and
//! reproduces the uninterrupted curve byte-for-byte.

use std::time::Instant;

use dta_bench::{open_checkpoint, rule, Args, JsonMap, FAULT_MODELS};
use dta_circuits::Activation;
use dta_core::campaign::{defect_tolerance_curve_resumable, CampaignConfig, CurvePoint};
use dta_core::checkpoint::Checkpoint;
use dta_core::parallel::effective_threads;
use dta_datasets::TaskSpec;

const BIN: &str = "exp_fig10";

/// Runs the full campaign (every task) once and returns the per-task
/// curves plus the wall time. Campaign errors (bad configuration, bad
/// journal) abort the binary with a message.
fn run_campaign(
    specs: &[TaskSpec],
    cfg: &CampaignConfig,
    checkpoint: Option<&Checkpoint>,
) -> (Vec<Vec<CurvePoint>>, f64) {
    let started = Instant::now();
    let curves = specs
        .iter()
        .map(|spec| {
            defect_tolerance_curve_resumable(spec, cfg, checkpoint).unwrap_or_else(|e| {
                eprintln!("{BIN}: campaign failed: {e}");
                std::process::exit(1);
            })
        })
        .collect();
    (curves, started.elapsed().as_secs_f64())
}

fn main() {
    let args = Args::parse();
    let specs = args.tasks(&["iris", "wine", "glass"]);
    let epochs = args.get("epochs", 30usize);
    let cfg = CampaignConfig {
        defect_counts: args.get_usize_list("counts", &[0, 3, 6, 9, 12, 18, 24, 27]),
        repetitions: args.get("reps", 3usize),
        folds: args.get("folds", 3usize),
        epochs: if epochs == 0 { None } else { Some(epochs) },
        model: args.choice("model", "transistor", FAULT_MODELS).1,
        activation: Activation::Permanent,
        seed: args.get("seed", 0xF1610u64),
        threads: args.get("threads", 1usize),
        chaos: Vec::new(),
    };
    // Read before the campaign runs, so a bad value is refused at once
    // even when one thread makes the reference run moot.
    let serial = args.get_bool("serial", false);
    // `--checkpoint FILE` journals finished grid cells so a killed run
    // resumes where it left off (and reproduces the same curve).
    let checkpoint = args
        .get_opt_str("checkpoint")
        .map(|path| open_checkpoint(BIN, path, &cfg.fingerprint()));

    println!("Figure 10 — accuracy vs. #defects in input+hidden layers, after retraining");
    println!(
        "({} reps, {} folds, epochs {:?}, {:?} faults)\n",
        cfg.repetitions, cfg.folds, cfg.epochs, cfg.model
    );
    print!("{:<12}", "task");
    for &d in &cfg.defect_counts {
        print!("{d:>8}");
    }
    println!();
    rule(12 + 8 * cfg.defect_counts.len());

    let (curves, wall_s) = run_campaign(&specs, &cfg, checkpoint.as_ref());

    let mut clean_acc = Vec::new();
    let mut at_12 = Vec::new();
    for (spec, curve) in specs.iter().zip(&curves) {
        print!("{:<12}", spec.name);
        for p in curve {
            print!("{:>7.1}%", p.mean_accuracy * 100.0);
        }
        println!();
        if let Some(p0) = curve.first() {
            clean_acc.push(p0.mean_accuracy);
        }
        if let Some(p12) = curve.iter().find(|p| p.defects >= 12) {
            at_12.push(p12.mean_accuracy);
        }
    }

    if !clean_acc.is_empty() && !at_12.is_empty() {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let drop = mean(&clean_acc) - mean(&at_12);
        println!(
            "\nmean accuracy drop from 0 to ~12 defects: {:.1} points",
            drop * 100.0
        );
        println!(
            "paper claim: 'the accelerator can tolerate up to 12 defects' — \
             degradation should stay small here, then steepen toward 27."
        );
    }

    // --- Perf record -----------------------------------------------------
    // One grid cell = train + cross-validate one (defect count, rep) pair
    // for one task. `--serial true` re-runs on one thread to quantify the
    // parallel speedup; the re-run reproduces the measured curves
    // bit-for-bit, only the wall time moves.
    let cells = (specs.len() * cfg.defect_counts.len() * cfg.repetitions) as u64;
    let threads_used = effective_threads(cfg.threads);
    eprintln!(
        "\ncampaign: {cells} cells in {wall_s:.2} s on {threads_used} thread(s) \
         ({:.2} cells/s)",
        cells as f64 / wall_s
    );

    // On one thread the measured run *is* the serial reference — record
    // it as such instead of leaving the fields null.
    let serial_wall_s = if threads_used == 1 {
        Some(wall_s)
    } else {
        serial.then(|| {
            let serial_cfg = CampaignConfig {
                threads: 1,
                ..cfg.clone()
            };
            // Reference runs recompute from scratch — no checkpoint — so
            // the timing is honest.
            let (serial_curves, t) = run_campaign(&specs, &serial_cfg, None);
            assert_eq!(serial_curves, curves, "serial run must be bit-identical");
            eprintln!("serial reference: {t:.2} s ({:.2}x speedup)", t / wall_s);
            t
        })
    };

    let record = JsonMap::new()
        .str("bin", BIN)
        .str_list(
            "tasks",
            &specs.iter().map(|s| s.name.to_string()).collect::<Vec<_>>(),
        )
        .int_list("defect_counts", &cfg.defect_counts)
        .int("repetitions", cfg.repetitions as u64)
        .int("folds", cfg.folds as u64)
        .int("threads", threads_used as u64)
        .int("cells", cells)
        .num("wall_s", wall_s)
        .num("cells_per_s", cells as f64 / wall_s)
        .opt_num("serial_wall_s", serial_wall_s)
        .opt_num("speedup_vs_serial", serial_wall_s.map(|t| t / wall_s));
    args.write_record("BENCH_campaign.json", record);
}
