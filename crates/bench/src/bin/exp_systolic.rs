//! Experiment: **spatial vs. systolic** — the defect-count recovery
//! sweep run on both accelerator topologies.
//!
//! For each defect count, twin copies of a commissioned accelerator are
//! damaged identically and raced through the recovery ladder (blind
//! retraining vs. the full diagnosis-guided pipeline — the shared
//! protocol of [`dta_bench::twin`]), once per topology:
//!
//! * **spatial** — the paper's spatially expanded array
//!   (`dta-core::Accelerator`), damaged with transistor-level operator
//!   defects, repaired by spare-lane remap/masking;
//! * **systolic** — the weight-stationary MAC grid
//!   (`dta-systolic::SystolicAccelerator`), damaged with per-PE defects
//!   (stuck multiplier/adder/accumulator bits, dead PEs), repaired by
//!   PE bypass and fault-aware row remap onto spare PE rows.
//!
//! Both topologies run the *same* campaign code — commissioning,
//! BIST-driven diagnosis and the recovery ladder all go through the
//! `Accel` trait — so the table is a like-for-like comparison of how
//! each fault surface degrades and how much topology-native repair
//! recovers. The pipeline arm can never end below the blind arm; the
//! binary asserts this floor at every cell. With `--checkpoint`, each
//! finished cell lands in a fingerprint-guarded journal as one line
//! (keyed `task@topology`) and a killed sweep resumes byte-identical.
//!
//! ```sh
//! cargo run --release -p dta-bench --bin exp_systolic
//! cargo run --release -p dta-bench --bin exp_systolic -- \
//!     --counts 0,4,8 --reps 1 --checkpoint systolic.jsonl
//! ```

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_bench::twin::{self, TwinCell, TwinSweep};
use dta_bench::{open_checkpoint, pct, resume, rule, Args, JsonMap};
use dta_circuits::{Activation, FaultModel};
use dta_core::Accelerator;
use dta_systolic::SystolicAccelerator;

const BIN: &str = "exp_systolic";

/// The two topologies of the comparison, in run order.
const TOPOS: [&str; 2] = ["spatial", "systolic"];

/// Races one cell on topology `topo`, damaged with `defects` defects.
fn run_cell(sweep: &TwinSweep, topo: &str, defects: usize, rep: usize) -> TwinCell {
    let label = format!("{topo} defects={defects} rep={rep}");
    let die = |e: &dyn std::fmt::Display| -> ! { twin::die(BIN, &label, "defect injection", e) };
    let rng = |cell_seed: u64| ChaCha8Rng::seed_from_u64(cell_seed ^ 0xFA11);
    if topo == "spatial" {
        let damage = |accel: &mut Accelerator, cell_seed| {
            accel
                .inject_defects(defects, FaultModel::TransistorLevel, &mut rng(cell_seed))
                .unwrap_or_else(|e| die(&e));
        };
        sweep
            .race(&label, defects, rep, Accelerator::new, damage)
            .cell
    } else {
        let damage = |accel: &mut SystolicAccelerator, cell_seed| {
            accel
                .inject_defects(defects, Activation::Permanent, &mut rng(cell_seed))
                .unwrap_or_else(|e| die(&e));
        };
        sweep
            .race(&label, defects, rep, SystolicAccelerator::new, damage)
            .cell
    }
}

fn main() {
    let args = Args::parse();
    let spec = args.task("iris");
    let task = spec.name;
    let counts = args.get_usize_list("counts", &[0, 4, 8, 16, 24, 32, 48]);
    let reps = args.get("reps", 2usize);
    let epochs = args.get("epochs", 30usize);
    // Deliberately tighter than exp_recovery's 24: with a generous
    // retrain budget, blind retraining heals iris at every count and
    // the structural rungs never differentiate. A 4-epoch budget is the
    // regime the repair rungs are for.
    let recovery_epochs = args.get("recovery-epochs", 4usize);
    let budget_ms = args.get("budget-ms", 60_000u64);
    let target_drop = args.get("target-drop", 0.02f64);
    let seed = args.get("seed", 0x5A57u64);

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

    // Everything that determines cell results goes into the journal
    // fingerprint — a resumed run with a different grid geometry (or
    // sweep shape) must refuse the journal, not silently mix curves.
    let geom = SystolicAccelerator::new().grid().geometry();
    let fingerprint = format!(
        "exp_systolic v1 task={task} counts={counts:?} reps={reps} epochs={epochs} \
         recovery_epochs={recovery_epochs} budget_ms={budget_ms} target_drop={target_drop:?} \
         seed={seed:#x} grid=rows:{},cols:{},spares:{}",
        geom.rows, geom.cols, geom.spare_rows
    );
    let checkpoint = args
        .get_opt_str("checkpoint")
        .map(|p| open_checkpoint(BIN, p, &fingerprint));

    println!(
        "Spatial vs. systolic recovery sweep on {task}: {reps} rep(s) per defect count per \
         topology (grid {}x{}+{} spare rows), {recovery_epochs} epochs / {budget_ms} ms per \
         rung, target drop {target_drop}\n",
        geom.rows, geom.cols, geom.spare_rows
    );
    println!(
        "{:<10}{:<8}{:>8}{:>8}{:>8}{:>10}{:>8}",
        "topology", "defects", "clean", "faulty", "blind", "recovered", "gain"
    );
    rule(60);

    let start = Instant::now();
    let mut json = JsonMap::new()
        .str("bin", BIN)
        .str("task", task)
        .int_list("counts", &counts)
        .int("reps", reps as u64)
        .int("epochs", epochs as u64)
        .int("recovery_epochs", recovery_epochs as u64)
        .int("budget_ms", budget_ms)
        .num("target_drop", target_drop)
        .int("seed", seed)
        .int("grid_rows", geom.rows as u64)
        .int("grid_cols", geom.cols as u64)
        .int("grid_spare_rows", geom.spare_rows as u64);
    let mut gain_means = Vec::new();
    for topo in TOPOS {
        let mut means = Vec::new();
        for &defects in &counts {
            let key = format!("{task}@{topo}");
            let cells: Vec<TwinCell> = (0..reps)
                .map(|rep| {
                    resume(BIN, checkpoint.as_ref(), &key, defects, rep, || {
                        run_cell(&sweep, topo, defects, rep)
                    })
                })
                .collect();
            twin::assert_twin_floor(&cells, &format!("{topo} defects={defects}"));
            let m = TwinCell::mean(&cells);
            println!("{topo:<10}{defects:<8}{}", m.columns());
            println!(
                "data {task} {topo} {defects} {:?} {:?} {:?} {:?}",
                m.clean, m.faulty, m.blind, m.recovered
            );
            means.push(m);
        }
        let gains: Vec<f64> = means.iter().map(|m| m.recovered - m.blind).collect();
        gain_means.push(twin::mean(&gains));
        json = json.twin_curves(&format!("{topo}_"), &means);
        rule(60);
    }
    let wall_s = start.elapsed().as_secs_f64();
    println!(
        "\nrecovered >= blind at every cell of both topologies (shared rung-1 trajectory, \
         asserted in-binary). Mean repair gain over blind retraining: spatial {} \
         (remap/mask onto spare lanes), systolic {} (PE bypass + row remap onto spare \
         PE rows).",
        pct(gain_means[0]),
        pct(gain_means[1]),
    );

    json = json
        .num("spatial_gain_mean", gain_means[0])
        .num("systolic_gain_mean", gain_means[1])
        .num("wall_s", wall_s);
    args.write_record("BENCH_systolic.json", json);
}
