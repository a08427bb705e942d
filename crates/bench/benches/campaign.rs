//! Microbenchmark: the defect-campaign hot path at two granularities.
//!
//! *Cell level* — one faulty-gate evaluation through the switch-level
//! CMOS evaluator vs. the reconstructed truth-table cache. This is the
//! per-gate cost `FaultyCell` used to pay on every evaluation and is
//! where the cache's order-of-magnitude win lives.
//!
//! *Campaign-cell level* — one grid cell of `defect_tolerance_curve`
//! (draw a defect set, retrain, cross-validate) on the cached engine.
//! The wall-clock of the whole sweep is dominated by the settle loop
//! and, across cells, by the `--threads` fan-out.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dta_ann::{cross_validate, FaultPlan, ForwardMode, Trainer};
use dta_circuits::FaultModel;
use dta_datasets::suite;
use dta_transistor::{CachedCell, CmosCell, Defect, FaultyCell};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_logic::GateKind;

const DEFECTS: usize = 4;
const HIDDEN: usize = 8;
const FOLDS: usize = 2;
const EPOCHS: usize = 6;
const SEED: u64 = 0xD7A;

fn faulty_oai22() -> CmosCell {
    let mut cell = CmosCell::for_gate(GateKind::Oai22);
    cell.inject(Defect::Open {
        stage: 0,
        transistor: 2,
    })
    .unwrap();
    cell
}

fn bench_cell_eval(c: &mut Criterion) {
    let cell = faulty_oai22();
    let mut switch = FaultyCell::new(cell.clone());
    let mut cached = CachedCell::new(&cell);

    c.bench_function("faulty_oai22_switch_level_eval", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(7);
            switch.eval_cell(&[i & 1 != 0, i & 2 != 0, i & 4 != 0, i & 8 != 0])
        })
    });
    c.bench_function("faulty_oai22_cached_eval", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(7);
            cached.eval_cell(&[i & 1 != 0, i & 2 != 0, i & 4 != 0, i & 8 != 0])
        })
    });
}

/// One campaign cell: draw a defect set, retrain through the faulty
/// forward path, cross-validate. Mirrors `campaign_cell` in
/// `dta-core::campaign` (same RNG derivation for defect count 4, rep 0).
fn campaign_cell(ds: &dta_datasets::Dataset, trainer: &Trainer) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ (DEFECTS as u64) << 24);
    let mut plan = FaultPlan::new(90);
    for _ in 0..DEFECTS {
        plan.inject_random_hidden(HIDDEN, FaultModel::TransistorLevel, &mut rng);
    }
    cross_validate(trainer, ds, HIDDEN, FOLDS, SEED, Some(&mut plan)).mean()
}

fn bench_campaign_cell(c: &mut Criterion) {
    let ds = suite::load("iris").unwrap();
    let trainer = Trainer::new(0.2, 0.1, EPOCHS, ForwardMode::Fixed);

    // Warm the process-wide truth-table cache outside the timed region,
    // the same way a long campaign amortises construction across cells.
    black_box(campaign_cell(&ds, &trainer));
    c.bench_function("campaign_cell_cached", |b| {
        b.iter(|| campaign_cell(&ds, &trainer))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cell_eval, bench_campaign_cell
}
criterion_main!(benches);
