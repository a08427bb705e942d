//! Experiment: the online defect detect → diagnose → recover pipeline.
//!
//! For each defect count, a commissioned accelerator (clean-trained on
//! the task) is damaged with random transistor-level defects, then:
//!
//! 1. the signature BIST of `dta-core::selftest` localizes the damage
//!    (detection rate and localization precision are scored against the
//!    injected ground truth);
//! 2. the recovery ladder of `dta-core::recover` runs twice on twin
//!    copies of the damaged array — once *blind* (retrain only, the
//!    paper's Figure 10 mechanism) and once with the full pipeline
//!    (retrain, then diagnosis-guided remap/mask onto spare lanes, then
//!    graceful degradation).
//!
//! Both arms share seeds and budgets, so the pipeline arm can never end
//! below the blind arm — the table quantifies how much the diagnosis
//! buys on top of blind retraining. The twin-arm protocol itself lives
//! in [`dta_bench::twin`], shared with `exp_memfault` and
//! `exp_systolic`.
//!
//! ```sh
//! cargo run --release -p dta-bench --bin exp_recovery
//! cargo run --release -p dta-bench --bin exp_recovery -- --counts 0,2,6 --reps 1
//! ```

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_bench::twin::{self, TwinSweep};
use dta_bench::{pct, rule, Args, JsonMap};
use dta_circuits::FaultModel;
use dta_core::{detection_rate, localization_precision, Accelerator, RecoveryRung};

const BIN: &str = "exp_recovery";

/// One (defect count × repetition) cell of the sweep: the shared twin
/// accuracies plus the diagnosis scores this campaign adds on top.
struct CellResult {
    twin: twin::TwinCell,
    detection: Option<f64>,
    precision: Option<f64>,
    final_rung: RecoveryRung,
}

fn run_cell(sweep: &TwinSweep, defects: usize, rep: usize) -> CellResult {
    let label = format!("defects={defects} rep={rep}");
    let race = sweep.race(
        &label,
        defects,
        rep,
        Accelerator::new,
        |accel, cell_seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(cell_seed ^ 0xFA11);
            accel
                .inject_defects(defects, FaultModel::TransistorLevel, &mut rng)
                .unwrap_or_else(|e| twin::die(BIN, &label, "injection", &e));
        },
    );

    // Score the diagnosis against the injected ground truth (the truth
    // list is injection-order and immutable under recovery).
    let truth = race.full_accel.faults().sites().to_vec();
    CellResult {
        twin: race.cell,
        detection: detection_rate(&truth, &race.diagnosis.flagged),
        precision: localization_precision(&truth, &race.diagnosis.flagged),
        final_rung: race
            .full_report
            .final_rung()
            .unwrap_or(RecoveryRung::Retrain),
    }
}

fn main() {
    let args = Args::parse();
    let spec = args.task("iris");
    let task = spec.name;
    let counts = args.get_usize_list("counts", &[0, 1, 3, 6, 9, 12, 15, 18, 21, 24, 27]);
    let reps = args.get("reps", 2usize);
    let epochs = args.get("epochs", 30usize);
    let recovery_epochs = args.get("recovery-epochs", 24usize);
    let budget_ms = args.get("budget-ms", 60_000u64);
    let target_drop = args.get("target-drop", 0.02f64);
    let seed = args.get("seed", 0x6EC0u64);

    let ds = spec.dataset();
    let sweep = TwinSweep {
        bin: BIN,
        spec: &spec,
        ds: &ds,
        epochs,
        policy_base: twin::base_policy(&spec, recovery_epochs, budget_ms),
        target_drop,
        seed,
    };

    println!(
        "Online recovery pipeline on {task}: {reps} rep(s) per defect count, \
         {recovery_epochs} epochs / {budget_ms} ms per rung, target drop {target_drop}\n"
    );
    println!(
        "{:<8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>10}{:>8}{:>22}",
        "defects",
        "detect",
        "precis",
        "clean",
        "faulty",
        "blind",
        "recovered",
        "gain",
        "final rungs (R/M/D)"
    );
    rule(88);

    let start = Instant::now();
    let mut agg_detection = Vec::new();
    let mut agg_precision = Vec::new();
    let mut means = Vec::new();
    for &defects in &counts {
        let cells: Vec<CellResult> = (0..reps)
            .map(|rep| run_cell(&sweep, defects, rep))
            .collect();
        let twins: Vec<twin::TwinCell> = cells.iter().map(|c| c.twin).collect();
        twin::assert_twin_floor(&twins, &format!("defects={defects}"));
        let detections: Vec<f64> = cells.iter().filter_map(|c| c.detection).collect();
        let precisions: Vec<f64> = cells.iter().filter_map(|c| c.precision).collect();
        let m = twin::TwinCell::mean(&twins);
        let detection = twin::mean(&detections);
        let precision = twin::mean(&precisions);
        let rungs: Vec<usize> = [
            RecoveryRung::Retrain,
            RecoveryRung::Remap,
            RecoveryRung::Degrade,
        ]
        .iter()
        .map(|&r| cells.iter().filter(|c| c.final_rung == r).count())
        .collect();

        let fmt_opt = |v: f64| {
            if v.is_nan() {
                "-".to_string()
            } else {
                pct(v)
            }
        };
        println!(
            "{:<8}{:>8}{:>8}{}{:>22}",
            defects,
            fmt_opt(detection),
            fmt_opt(precision),
            m.columns(),
            format!("{}/{}/{}", rungs[0], rungs[1], rungs[2]),
        );
        println!(
            "data {task} {defects} {detection:?} {precision:?} {:?} {:?} {:?} {:?}",
            m.clean, m.faulty, m.blind, m.recovered
        );
        agg_detection.push(detection);
        agg_precision.push(precision);
        means.push(m);
    }
    let wall_s = start.elapsed().as_secs_f64();
    rule(88);
    println!(
        "\nrecovered >= blind at every defect count (shared rung-1 trajectory); the gain \
         column is what diagnosis-guided remapping adds on top of blind retraining."
    );

    let record = JsonMap::new()
        .str("bin", BIN)
        .str("task", task)
        .int_list("counts", &counts)
        .int("reps", reps as u64)
        .int("epochs", epochs as u64)
        .int("recovery_epochs", recovery_epochs as u64)
        .int("budget_ms", budget_ms)
        .num("target_drop", target_drop)
        .int("seed", seed)
        .num_list("detection", &agg_detection)
        .num_list("precision", &agg_precision)
        .twin_curves("", &means)
        .num("wall_s", wall_s);
    args.write_record("BENCH_recovery.json", record);
}
