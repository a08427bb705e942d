//! Experiment: accuracy vs. **weight-memory defect density** — the
//! Figure-10 sweep re-run against the bit-cell array fault surface of
//! `dta-mem` instead of transistor-level operator defects.
//!
//! For each density, a commissioned accelerator (clean-trained on the
//! task) gets a SEC-DED-protected weight store attached and seeded with
//! `round(density × data_cells)` array defects (stuck cells, row and
//! column failures, sense-amp/write-driver faults, bitline bridges).
//! Twin copies then race through the recovery ladder:
//!
//! * **blind** — retraining only, no diagnosis, no memory repair (the
//!   paper's Figure 10 mechanism applied to a faulty weight store);
//! * **recovered** — the full pipeline: March C- BIST localizes the
//!   damage, then ECC scrub, spare row/column steering,
//!   sensitivity-aware placement, remap and graceful degradation fall
//!   through in order.
//!
//! Both arms share seeds and budgets, so the pipeline arm can never end
//! below the blind arm; the binary asserts this floor at every cell.
//! With `--checkpoint`, each finished cell lands in a fingerprint-guarded
//! journal as one line and a killed sweep resumes byte-identical. The
//! twin-arm protocol lives in [`dta_bench::twin`], shared with
//! `exp_recovery` and `exp_systolic`.
//!
//! ```sh
//! cargo run --release -p dta-bench --bin exp_memfault
//! cargo run --release -p dta-bench --bin exp_memfault -- \
//!     --densities 0,0.001,0.01 --reps 1 --checkpoint memfault.jsonl
//! ```

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_ann::Topology;
use dta_bench::twin::{self, TwinCell, TwinSweep};
use dta_bench::{open_checkpoint, resume, rule, Args, JsonMap};
use dta_core::{Accelerator, MemActivation, MemGeometry, WeightMemory};

const BIN: &str = "exp_memfault";

/// Races one cell: `idx` is the density's position in the sweep (the
/// journal key), `n_defects` the realized defect count.
fn run_cell(
    sweep: &TwinSweep,
    geom: MemGeometry,
    idx: usize,
    n_defects: usize,
    rep: usize,
) -> TwinCell {
    let label = format!("density idx={idx} rep={rep}");
    let die = |what: &str, e: &dyn std::fmt::Display| -> ! { twin::die(BIN, &label, what, e) };
    // The damaged arms put the task's weights behind an identically
    // broken weight store. The store spans the full physical array so a
    // remapped lane always has a backing row.
    let damage = |accel: &mut Accelerator, cell_seed: u64| {
        accel
            .attach_weight_memory_with(WeightMemory::new(geom))
            .unwrap_or_else(|e| die("memory attach", &e));
        let mut rng = ChaCha8Rng::seed_from_u64(cell_seed ^ 0x3E3);
        accel
            .inject_memory_defects(n_defects, MemActivation::Permanent, &mut rng)
            .unwrap_or_else(|e| die("defect injection", &e));
    };
    sweep.race(&label, idx, rep, Accelerator::new, damage).cell
}

fn main() {
    let args = Args::parse();
    let spec = args.task("iris");
    let task = spec.name;
    let densities = args.get_f64_list("densities", &[0.0, 5e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2]);
    let reps = args.get("reps", 2usize);
    let epochs = args.get("epochs", 30usize);
    let recovery_epochs = args.get("recovery-epochs", 24usize);
    let budget_ms = args.get("budget-ms", 60_000u64);
    let target_drop = args.get("target-drop", 0.02f64);
    let seed = args.get("seed", 0x3E30u64);
    let ecc = args.get_bool("ecc", true);
    let spare_rows = args.get("spare-rows", 2usize);
    let spare_cols = args.get("spare-cols", 8usize);

    let ds = spec.dataset();
    let phys = Topology::accelerator();
    let mut geom = MemGeometry::for_network(phys.inputs, phys.hidden, phys.outputs, ecc);
    geom.spare_rows = spare_rows;
    geom.spare_cols = spare_cols;
    let data_cells = geom.data_cells();
    let counts: Vec<usize> = densities
        .iter()
        .map(|d| (d * data_cells as f64).round() as usize)
        .collect();

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
    // fingerprint — a resumed run with a different memory profile (or
    // grid) must refuse the journal, not silently mix curves.
    let fingerprint = format!(
        "exp_memfault v1 task={task} densities={densities:?} reps={reps} epochs={epochs} \
         recovery_epochs={recovery_epochs} budget_ms={budget_ms} target_drop={target_drop:?} \
         seed={seed:#x} mem=rows:{spare_rows},cols:{spare_cols},ecc:{ecc}"
    );
    let checkpoint = args
        .get_opt_str("checkpoint")
        .map(|p| open_checkpoint(BIN, p, &fingerprint));

    println!(
        "Weight-memory defect sweep on {task}: {reps} rep(s) per density over {data_cells} \
         bit cells (ecc={ecc}, spares {spare_rows}r/{spare_cols}c), {recovery_epochs} epochs \
         / {budget_ms} ms per rung, target drop {target_drop}\n"
    );
    println!(
        "{:<10}{:>8}{:>8}{:>8}{:>8}{:>10}{:>8}",
        "density", "defects", "clean", "faulty", "blind", "recovered", "gain"
    );
    rule(60);

    let start = Instant::now();
    let mut means = Vec::new();
    for (idx, (&density, &n_defects)) in densities.iter().zip(&counts).enumerate() {
        let cells: Vec<TwinCell> = (0..reps)
            .map(|rep| {
                resume(BIN, checkpoint.as_ref(), task, idx, rep, || {
                    run_cell(&sweep, geom, idx, n_defects, rep)
                })
            })
            .collect();
        twin::assert_twin_floor(&cells, &format!("density={density}"));
        let m = TwinCell::mean(&cells);
        println!(
            "{:<10}{:>8}{}",
            format!("{density}"),
            n_defects,
            m.columns()
        );
        println!(
            "data {task} {idx} {density:?} {n_defects} {:?} {:?} {:?} {:?}",
            m.clean, m.faulty, m.blind, m.recovered
        );
        means.push(m);
    }
    let wall_s = start.elapsed().as_secs_f64();
    rule(60);
    println!(
        "\nrecovered >= blind at every density (shared rung-1 trajectory, asserted \
         in-binary); the gain column is what the memory-repair rungs — ECC scrub, \
         spare steering, placement — plus remap add on top of blind retraining."
    );

    let record = JsonMap::new()
        .str("bin", BIN)
        .str("task", task)
        .num_list("densities", &densities)
        .int_list("counts", &counts)
        .int("data_cells", data_cells as u64)
        .int("reps", reps as u64)
        .int("epochs", epochs as u64)
        .int("recovery_epochs", recovery_epochs as u64)
        .int("budget_ms", budget_ms)
        .num("target_drop", target_drop)
        .int("seed", seed)
        .int("ecc", ecc as u64)
        .int("spare_rows", spare_rows as u64)
        .int("spare_cols", spare_cols as u64)
        .twin_curves("", &means)
        .num("wall_s", wall_s);
    args.write_record("BENCH_memfault.json", record);
}
