//! Pinned outputs of the scalar faulty forward path.
//!
//! Other tests compare a run with itself, or the batch engines with the
//! scalar path; a change to the scalar walk moves both sides at once.
//! This test pins what `Mlp::forward_faulty` and a short
//! `Trainer::train` through it produce on a fixed grid of fault plans,
//! as FNV-1a digests of the result bits. The digests were recorded with
//! the hash-map fault layout the sorted synapse lists replaced, so any
//! synapse the walk skips or reorders shows up here. A second test pins
//! the weights `RegressionTrainer::train` produces with and without a
//! fault plan.

use dta_ann::{
    FaultPlan, FaultSite, ForwardMode, Layer, Mlp, RegressionSet, RegressionTrainer, Topology,
    Trainer, UnitKind,
};
use dta_circuits::{Activation, FaultModel};
use dta_datasets::GaussianMixture;
use dta_fixed::SigmoidLut;
use dta_mem::{MemGeometry, WeightMemory};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const INPUTS: usize = 4;
const HIDDEN: usize = 3;
const OUTPUTS: usize = 3;
/// Physical synapses per hidden lane: wider than the task, so defects
/// land beyond the logical width.
const HW_INPUTS: usize = 12;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64s<'a>(&mut self, xs: impl IntoIterator<Item = &'a f64>) {
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

fn hidden_defects(plan: &mut FaultPlan, n: usize, n_hidden: usize, seed: u64, how: Activation) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..n {
        plan.inject_random_hidden_with(n_hidden, FaultModel::TransistorLevel, how, &mut rng);
    }
}

/// The plan grid: every unit kind and activation class, sites beyond
/// the logical width, output-layer sites, a remapped and a masked lane,
/// and a plan with a defective SEC-DED weight store attached.
fn plan(case: &str) -> FaultPlan {
    let mut plan = FaultPlan::new(HW_INPUTS);
    match case {
        "permanent" => hidden_defects(&mut plan, 14, HIDDEN, 1, Activation::Permanent),
        "gate-level" => {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            for _ in 0..14 {
                plan.inject_random_hidden(HIDDEN, FaultModel::GateLevel, &mut rng);
            }
        }
        "transient" => hidden_defects(
            &mut plan,
            14,
            HIDDEN,
            3,
            Activation::Transient {
                per_eval_probability: 0.4,
            },
        ),
        "intermittent" => hidden_defects(
            &mut plan,
            14,
            HIDDEN,
            4,
            Activation::Intermittent { period: 3, duty: 1 },
        ),
        "output" => {
            hidden_defects(&mut plan, 4, HIDDEN, 5, Activation::Permanent);
            let mut rng = ChaCha8Rng::seed_from_u64(6);
            plan.inject_output_adder(0, HIDDEN - 1, &mut rng);
            plan.inject_output_adder(1, HIDDEN + 4, &mut rng);
            plan.inject_output_activation(2, &mut rng);
        }
        "remap-mask" => {
            // Lane 3 is a spare beyond the logical hidden width.
            hidden_defects(&mut plan, 16, HIDDEN + 1, 7, Activation::Permanent);
            plan.remap_hidden(0, HIDDEN);
            plan.mask(Layer::Hidden, 1);
            plan.mask(Layer::Output, 1);
        }
        "secded-store" => {
            hidden_defects(&mut plan, 10, HIDDEN, 8, Activation::Permanent);
            let mut mem = WeightMemory::new(MemGeometry {
                hidden_rows: HIDDEN,
                output_rows: OUTPUTS,
                hidden_synapses: HW_INPUTS,
                output_synapses: HIDDEN,
                spare_rows: 2,
                spare_cols: 8,
                ecc: true,
            });
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            mem.inject_many(6, Activation::Permanent, &mut rng);
            mem.inject_many(
                6,
                Activation::Transient {
                    per_eval_probability: 0.5,
                },
                &mut rng,
            );
            plan.attach_memory(mem);
        }
        _ => unreachable!("unknown case {case}"),
    }
    plan
}

/// `(case, forward digest, trained-weights digest)` recorded with the
/// hash-map fault layout.
const PINNED: [(&str, u64, u64); 7] = [
    ("permanent", 0xd2552e31f923e46f, 0xb545fc228756b44d),
    ("gate-level", 0xe6810e6506645d88, 0x1620d0ffa3d621ab),
    ("transient", 0xc87b7f85a9412354, 0x1b6cafc65544784d),
    ("intermittent", 0xa7c9836ef62fa45d, 0x2e4b5d8fdbb4c961),
    ("output", 0x9d22c5de69758678, 0x84946705b7e9e46a),
    ("remap-mask", 0x368f45d7413a95cc, 0x4a00de7c41040b60),
    ("secded-store", 0xb282656af90fcd3f, 0xf64e1b891480775b),
];

/// Store counters after the forward pass and after training:
/// `(accesses, corrected, uncorrectable)` each.
const PINNED_STORE: [(u64, u64, u64); 2] = [(752, 152, 187), (2256, 401, 559)];

fn rows() -> Vec<Vec<f64>> {
    (0..16)
        .map(|r| {
            (0..INPUTS)
                .map(|i| ((r * 7 + i * 5) % 13) as f64 / 6.5 - 0.6)
                .collect()
        })
        .collect()
}

fn weights_digest(mlp: &Mlp) -> u64 {
    let mut wts = Digest::new();
    for j in 0..HIDDEN {
        for i in 0..=INPUTS {
            wts.word(mlp.w_hidden(j, i).to_bits());
        }
    }
    for k in 0..OUTPUTS {
        for j in 0..=HIDDEN {
            wts.word(mlp.w_output(k, j).to_bits());
        }
    }
    wts.0
}

fn store_counters(plan: &FaultPlan) -> (u64, u64, u64) {
    let mem = plan.memory().expect("store attached");
    let ecc = mem.ecc_counters();
    (mem.accesses(), ecc.corrected, ecc.uncorrectable)
}

#[test]
fn scalar_faulty_path_reproduces_pinned_digests() {
    let topo = Topology::new(INPUTS, HIDDEN, OUTPUTS);
    let lut = SigmoidLut::new();
    let ds = GaussianMixture::new(INPUTS, OUTPUTS)
        .samples(24)
        .generate("pinned", 5);
    let idx: Vec<usize> = (0..ds.len()).collect();
    let trainer = Trainer::new(0.3, 0.5, 2, ForwardMode::Fixed);

    let mut sites: Vec<FaultSite> = Vec::new();
    let mut got = Vec::new();
    let mut store = Vec::new();
    for (case, _, _) in PINNED {
        let mut plan = plan(case);
        sites.extend_from_slice(plan.sites());
        plan.reset_state();
        let mut mlp = Mlp::new(topo, 7);

        let mut fwd = Digest::new();
        for x in rows() {
            let t = mlp.forward_faulty(&x, &lut, &mut plan);
            fwd.f64s(t.hidden.iter().chain(&t.output_pre).chain(&t.output));
        }
        if plan.memory().is_some() {
            store.push(store_counters(&plan));
        }

        plan.reset_state();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        trainer.train(&mut mlp, &ds, &idx, Some(&mut plan), &mut rng);
        if plan.memory().is_some() {
            store.push(store_counters(&plan));
        }
        got.push((case, fwd.0, weights_digest(&mlp)));
    }

    // The grid must reach what it claims to cover.
    for unit in [
        UnitKind::Multiplier,
        UnitKind::Adder,
        UnitKind::Latch,
        UnitKind::Activation,
    ] {
        assert!(sites.iter().any(|s| s.unit == unit), "no {unit} site");
    }
    for unit in [UnitKind::Multiplier, UnitKind::Adder, UnitKind::Latch] {
        assert!(
            sites
                .iter()
                .any(|s| s.unit == unit && s.synapse.is_some_and(|i| i >= INPUTS)),
            "no {unit} site beyond the logical width"
        );
    }
    assert!(sites.iter().any(|s| s.layer == Layer::Output));

    assert_eq!(got, PINNED.to_vec(), "forward/weight digests moved");
    assert_eq!(store, PINNED_STORE.to_vec(), "store counters moved");
}

/// `(case, trained-weights digest)` of regression training; `"none"`
/// trains on the fault-free fixed-point path.
const PINNED_REGRESSION: [(&str, u64); 3] = [
    ("none", 0xfef181d8cfdcecf4),
    ("permanent", 0x7e3cd7c862c9bfd7),
    ("transient", 0x27705c8c7dc80b02),
];

#[test]
fn regression_training_reproduces_pinned_digests() {
    let set = RegressionSet::from_function("pinned", INPUTS, OUTPUTS, 32, 13, |x| {
        vec![
            0.5 + 0.4 * (x[0] - x[1]),
            x[2] * x[3],
            0.2 + 0.6 * x[0] * x[3],
        ]
    });
    let idx: Vec<usize> = (0..set.len()).collect();
    let trainer = RegressionTrainer::new(0.4, 0.5, 3);
    let got: Vec<(&str, u64)> = PINNED_REGRESSION
        .iter()
        .map(|&(case, _)| {
            let mut faults = (case != "none").then(|| plan(case));
            let mut mlp = Mlp::new(Topology::new(INPUTS, HIDDEN, OUTPUTS), 17);
            let mut rng = ChaCha8Rng::seed_from_u64(19);
            trainer.train(&mut mlp, &set, &idx, faults.as_mut(), &mut rng);
            (case, weights_digest(&mlp))
        })
        .collect();
    assert_eq!(
        got,
        PINNED_REGRESSION.to_vec(),
        "regression weight digests moved"
    );
}
