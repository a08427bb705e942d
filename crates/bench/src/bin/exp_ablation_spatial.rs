//! Ablation: spatially expanded vs. time-multiplexed organization under
//! random defects (the design choice at the heart of §II).
//!
//! For each defect count we measure, over several repetitions:
//! * the spatial design's accuracy after retraining (defects land in
//!   distributed per-synapse operators);
//! * the time-multiplexed design's accuracy (defects land in control
//!   logic / SRAM / shared neurons proportionally to transistor counts;
//!   control hits are catastrophic, shared-neuron defects are seen by
//!   every mapped logical neuron).
//!
//! ```sh
//! cargo run --release -p dta-bench --bin exp_ablation_spatial -- --reps 5
//! ```

use dta_ann::{Mlp, Topology};
use dta_bench::{rule, Args};
use dta_circuits::FaultModel;
use dta_core::campaign::{defect_tolerance_curve, CampaignConfig};
use dta_core::TimeMultiplexedAccelerator;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let args = Args::parse();
    let spec = args.task("wine");
    let task = spec.name;
    let reps = args.get("reps", 3usize);
    let epochs = args.get("epochs", 30usize);
    let counts = args.get_usize_list("counts", &[0, 2, 4, 8, 12, 20]);
    let seed = args.get("seed", 0x5BA71Au64);
    let phys = args.get("phys-neurons", 2usize);

    let ds = spec.dataset();
    let idx: Vec<usize> = (0..ds.len()).collect();

    // Spatial design: the Figure 10 machinery.
    let cfg = CampaignConfig {
        defect_counts: counts.clone(),
        repetitions: reps,
        folds: 3,
        epochs: Some(epochs),
        model: FaultModel::TransistorLevel,
        seed,
        threads: args.get("threads", 1usize),
        ..CampaignConfig::default()
    };
    let spatial = defect_tolerance_curve(&spec, &cfg).unwrap_or_else(|e| {
        eprintln!("campaign failed: {e}");
        std::process::exit(1);
    });

    // Time-multiplexed design: train a clean network once, then inject
    // defects into the shared hardware and measure (no retraining can
    // fix a wrecked control path; per the paper the design is simply
    // more fragile).
    let trainer =
        dta_ann::Trainer::new(spec.learning_rate, 0.1, epochs, dta_ann::ForwardMode::Fixed);
    let topo = Topology::new(ds.n_features(), spec.hidden, ds.n_classes());
    let mut tm_rows = Vec::new();
    for &n in &counts {
        let mut accs = Vec::new();
        let mut broken = 0;
        for rep in 0..reps {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (n as u64) << 20 ^ rep as u64);
            let mut mlp = Mlp::new(topo, seed ^ rep as u64);
            trainer.train(&mut mlp, &ds, &idx, None, &mut rng);
            let mut tm = TimeMultiplexedAccelerator::new(phys);
            for _ in 0..n {
                tm.inject_random_defect(&mut rng);
            }
            if tm.is_broken() {
                broken += 1;
            }
            accs.push(tm.accuracy(&mlp, &ds, &idx));
        }
        tm_rows.push((n, accs.iter().sum::<f64>() / accs.len() as f64, broken));
    }

    println!(
        "Spatial vs. time-multiplexed ({phys} shared neurons) under defects — task `{task}`\n"
    );
    println!(
        "{:<10}{:>16}{:>16}{:>14}",
        "#defects", "spatial (acc)", "time-mux (acc)", "wrecked runs"
    );
    rule(56);
    for (sp, (n, tm_acc, broken)) in spatial.iter().zip(&tm_rows) {
        println!(
            "{:<10}{:>15.1}%{:>15.1}%{:>11}/{}",
            n,
            sp.mean_accuracy * 100.0,
            tm_acc * 100.0,
            broken,
            reps
        );
    }
    let tm = TimeMultiplexedAccelerator::new(phys);
    let (d, s, c) = tm.transistor_budget();
    let total = (d + s + c) as f64;
    println!(
        "\nTM vulnerable area: control {:.0}% + SRAM {:.0}% of transistors; \
         one control hit wrecks it.",
        c as f64 / total * 100.0,
        s as f64 / total * 100.0
    );
    println!(
        "Defect multiplication: one shared-neuron defect is seen by \
         ceil(({}+{})/{}) = {} logical neurons.",
        topo.hidden,
        topo.outputs,
        phys,
        tm.multiplexing_factor(topo)
    );
}
