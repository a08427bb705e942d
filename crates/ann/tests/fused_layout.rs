//! Differential test of the batched faulty forward against the per-row
//! scalar path on the 90-input array: `Mlp::forward_faulty_batch` must
//! equal row-by-row `Mlp::forward_faulty`, trace for trace and bit for
//! bit, over random logical widths, fault models, remaps, masks, an
//! attached SEC-DED weight store and batch sizes around the 64-lane
//! chunk edge.
//!
//! Vectorizable plans run the fused stream on samples-contiguous chunks;
//! the others fall back to per-row order. The sweep counts both and
//! requires the fused side to dominate, so the comparison is not
//! vacuous.

use dta_ann::{FaultPlan, ForwardTrace, Layer, Mlp, Topology};
use dta_circuits::FaultModel;
use dta_fixed::SigmoidLut;
use dta_mem::{Activation, MemGeometry, WeightMemory};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Physical hidden and output lanes of the array.
const LANES: usize = 10;

/// A random permanent plan on the 90-input array: hidden-layer defects
/// anywhere in the 90 physical synapses (most beyond narrow logical
/// widths), one output adder (its step may pass the hidden width) and
/// one output activation, and sometimes a spare-lane remap, masked
/// lanes and a SEC-DED store with permanently failed cells.
fn random_plan(topo: Topology, model: FaultModel, rng: &mut ChaCha8Rng) -> FaultPlan {
    let mut plan = FaultPlan::new(90);
    for _ in 0..rng.random_range(1..10) {
        plan.inject_random_hidden(topo.hidden, model, rng);
    }
    plan.inject_output_adder(
        rng.random_range(0..topo.outputs),
        rng.random_range(0..LANES),
        rng,
    );
    plan.inject_output_activation(rng.random_range(0..topo.outputs), rng);
    if topo.hidden < LANES && rng.random_bool(0.5) {
        let logical = rng.random_range(0..topo.hidden);
        plan.remap_hidden(logical, rng.random_range(topo.hidden..LANES));
    }
    if rng.random_bool(0.3) {
        plan.mask(Layer::Hidden, rng.random_range(0..LANES));
    }
    if rng.random_bool(0.3) {
        plan.mask(Layer::Output, rng.random_range(0..topo.outputs));
    }
    if rng.random_bool(0.5) {
        let mut mem = WeightMemory::new(MemGeometry::accelerator());
        mem.inject_many(rng.random_range(1..8), Activation::Permanent, rng);
        plan.attach_memory(mem);
    }
    plan
}

#[test]
fn batched_forward_matches_per_row_scalar_on_the_array() {
    let lut = SigmoidLut::new();
    let (mut fused, mut fallback) = (0, 0);
    for case in 0..160u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let topo = Topology::new(
            rng.random_range(1..=90),
            rng.random_range(1..=LANES),
            rng.random_range(1..=LANES),
        );
        let mlp = Mlp::new(topo, case);
        let mut plan = match case % 3 {
            0 => FaultPlan::new(90),
            // Output-layer units take transistor-level defects, some of
            // them stateful: redraw so these cases all run fused.
            1 => (0..64)
                .map(|_| random_plan(topo, FaultModel::GateLevel, &mut rng))
                .find(FaultPlan::vectorizable)
                .expect("a fusable plan in 64 draws"),
            _ => random_plan(topo, FaultModel::TransistorLevel, &mut rng),
        };
        let n_rows = [0, 1, 63, 64, 65, rng.random_range(1..=200)][(case / 3) as usize % 6];
        let xs: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| {
                (0..topo.inputs)
                    .map(|_| rng.random_range(-2.5..2.5))
                    .collect()
            })
            .collect();

        if plan.vectorizable() {
            fused += 1;
        } else {
            fallback += 1;
        }
        let batch = mlp.forward_faulty_batch(&xs, &lut, &mut plan);
        plan.reset_state();
        let scalar: Vec<ForwardTrace> = xs
            .iter()
            .map(|x| mlp.forward_faulty(x, &lut, &mut plan))
            .collect();
        assert_eq!(batch.len(), n_rows, "case {case}: one trace per row");
        for (r, (got, want)) in batch.iter().zip(&scalar).enumerate() {
            assert_eq!(got, want, "case {case} ({topo}, {n_rows} rows): row {r}");
        }
        if plan.is_empty() {
            for (x, got) in xs.iter().zip(&batch) {
                assert_eq!(*got, mlp.forward_fixed(x, &lut), "case {case}: empty plan");
            }
        }
    }
    assert!(fused >= 2 * fallback, "{fused} fused, {fallback} per-row");
}
