//! Differential test of the compiled-mask kernel against the per-defect
//! PE walk: every forward (per row and batched) and the BIST diagnosis
//! on random faulty grids must match an oracle that walks each PE's
//! defect list in stage order on every MAC, exactly as the grid's
//! fault model defines it, and takes none of the grid's compiled masks.
//!
//! The oracle reads a twin `PeGrid` that receives the same injections,
//! bypasses and remaps as the accelerator's grid. The twin supplies the
//! routing and, by drawing a pass mask for every forward pass, the same
//! activation streams.

use std::collections::BTreeSet;

use dta_ann::{FaultSite, ForwardTrace, Layer, Mlp, Topology, UnitKind};
use dta_circuits::Activation;
use dta_core::accel::Accel;
use dta_core::selftest::{bist_vectors, BistConfig};
use dta_fixed::{Fx, SigmoidLut};
use dta_systolic::grid::PassMask;
use dta_systolic::{GridGeometry, PeFaultKind, PeGrid, SystolicAccelerator};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Forces one bit of a Q6.10 word.
fn force_bit(v: Fx, bit: u32, stuck_one: bool) -> Fx {
    Fx::from_bits((v.to_bits() & !(1u16 << bit)) | (u16::from(stuck_one) << bit))
}

/// The kinds of the defects on PE `(row, col)` active in `pass`, in
/// injection order.
fn active_kinds(grid: &PeGrid, row: usize, col: usize, pass: &PassMask) -> Vec<PeFaultKind> {
    grid.defects()
        .iter()
        .enumerate()
        .filter(|&(d, def)| def.row == row && def.col == col && pass.is_active(d))
        .map(|(_, def)| def.kind)
        .collect()
}

/// One MAC of the raw PE (bypass ignored): product bits, sum bits, the
/// dead-PE drop, then the result-register bits.
fn pe_step_raw(
    grid: &PeGrid,
    row: usize,
    col: usize,
    acc: Fx,
    w: Fx,
    x: Fx,
    pass: &PassMask,
) -> Fx {
    let kinds = active_kinds(grid, row, col, pass);
    let mut product = w * x;
    let mut dead = false;
    for &kind in &kinds {
        match kind {
            PeFaultKind::StuckMulBit { bit, stuck_one } => {
                product = force_bit(product, bit, stuck_one)
            }
            PeFaultKind::DeadPe => dead = true,
            _ => {}
        }
    }
    let mut out = acc + product;
    for &kind in &kinds {
        if let PeFaultKind::StuckAddBit { bit, stuck_one } = kind {
            out = force_bit(out, bit, stuck_one);
        }
    }
    if dead {
        out = acc;
    }
    pe_idle_raw(grid, row, col, out, pass)
}

/// An idle step of the raw PE: only its result-register bits apply.
fn pe_idle_raw(grid: &PeGrid, row: usize, col: usize, acc: Fx, pass: &PassMask) -> Fx {
    let mut out = acc;
    for kind in active_kinds(grid, row, col, pass) {
        if let PeFaultKind::StuckAccBit { bit, stuck_one } = kind {
            out = force_bit(out, bit, stuck_one);
        }
    }
    out
}

/// One layer's tile walk: per neuron, synapses in ascending order from
/// the bias, then the idle slots of the last row tile; a bypassed PE
/// forwards the partial sum untouched.
fn oracle_layer(
    grid: &PeGrid,
    n_in: usize,
    n_out: usize,
    w: impl Fn(usize, usize) -> f64,
    xq: &[Fx],
    pass: &PassMask,
) -> Vec<Fx> {
    let geom = grid.geometry();
    let slots = n_in.div_ceil(geom.rows) * geom.rows;
    (0..n_out)
        .map(|j| {
            let col = j % geom.cols;
            let mut acc = Fx::from_f64(w(j, n_in));
            for i in 0..slots {
                let row = grid.row_map()[i % geom.rows];
                if grid.is_bypassed(row, col) {
                    continue;
                }
                acc = match xq.get(i) {
                    Some(&x) => pe_step_raw(grid, row, col, acc, Fx::from_f64(w(j, i)), x, pass),
                    None => pe_idle_raw(grid, row, col, acc, pass),
                };
            }
            acc
        })
        .collect()
}

/// One forward pass of the oracle; draws the twin's pass mask.
fn oracle_forward(twin: &mut PeGrid, mlp: &Mlp, x: &[f64], lut: &SigmoidLut) -> ForwardTrace {
    let pass = twin.pass_mask();
    let topo = mlp.topology();
    let xq: Vec<Fx> = x.iter().map(|&v| Fx::from_f64(v)).collect();
    let acc1 = oracle_layer(
        twin,
        topo.inputs,
        topo.hidden,
        |j, i| mlp.w_hidden(j, i),
        &xq,
        &pass,
    );
    let hidden: Vec<Fx> = acc1.iter().map(|&a| lut.eval(a)).collect();
    let acc2 = oracle_layer(
        twin,
        topo.hidden,
        topo.outputs,
        |k, j| mlp.w_output(k, j),
        &hidden,
        &pass,
    );
    ForwardTrace {
        hidden: hidden.iter().map(|h| h.to_f64()).collect(),
        output_pre: acc2.iter().map(|a| a.to_f64()).collect(),
        output: acc2.iter().map(|&a| lut.eval(a).to_f64()).collect(),
    }
}

/// The per-PE BIST on the oracle: every physical PE in row-major
/// order, each vector drawing one pass, bypasses ignored, fault state
/// reset before and after.
fn oracle_flagged(twin: &mut PeGrid, cfg: &BistConfig) -> Vec<FaultSite> {
    let vectors = bist_vectors(cfg.vectors_per_operator, cfg.seed ^ 0x0B15);
    let geom = twin.geometry();
    twin.reset_state();
    let mut flagged = BTreeSet::new();
    for row in 0..geom.phys_rows() {
        for col in 0..geom.cols {
            let mut bad = false;
            for (vi, &(a, b)) in vectors.iter().enumerate() {
                let acc = vectors[(vi + 1) % vectors.len()].1;
                let pass = twin.pass_mask();
                bad |= pe_step_raw(twin, row, col, acc, a, b, &pass) != acc + a * b;
                bad |= pe_idle_raw(twin, row, col, acc, &pass) != acc;
            }
            if bad {
                flagged.insert(FaultSite {
                    layer: Layer::Hidden,
                    neuron: col,
                    unit: UnitKind::Pe,
                    synapse: Some(row),
                });
            }
        }
    }
    twin.reset_state();
    flagged.into_iter().collect()
}

fn random_kind(rng: &mut ChaCha8Rng) -> PeFaultKind {
    let bit = rng.random_range(0..16u32);
    let stuck_one = rng.random::<bool>();
    match rng.random_range(0..4u32) {
        0 => PeFaultKind::StuckMulBit { bit, stuck_one },
        1 => PeFaultKind::StuckAddBit { bit, stuck_one },
        2 => PeFaultKind::StuckAccBit { bit, stuck_one },
        _ => PeFaultKind::DeadPe,
    }
}

fn random_activation(rng: &mut ChaCha8Rng) -> Activation {
    match rng.random_range(0..3u32) {
        0 => Activation::Permanent,
        1 => Activation::Transient {
            per_eval_probability: rng.random_range(0.0..1.0),
        },
        _ => {
            let period = rng.random_range(1..6u32);
            Activation::Intermittent {
                period,
                duty: rng.random_range(0..=period),
            }
        }
    }
}

fn random_rows(rng: &mut ChaCha8Rng, n: usize, width: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..width).map(|_| rng.random_range(-4.0..4.0)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kernel_matches_the_per_defect_walk(
        (rows, cols, spare_rows) in (1usize..9, 1usize..7, 0usize..4),
        (inputs, hidden, outputs) in (1usize..25, 1usize..11, 1usize..11),
        defects in 0usize..41,
        dynamic in any::<bool>(),
        (batch_a, batch_b) in (1usize..151, 1usize..151),
        seed in any::<u64>(),
    ) {
        let geom = GridGeometry { rows, cols, spare_rows };
        let topo = Topology::new(inputs, hidden, outputs);
        let mlp = Mlp::new(topo, seed);
        let lut = SigmoidLut::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut accel = SystolicAccelerator::with_geometry(geom);
        accel.map_network(mlp.clone()).unwrap();
        let mut twin = PeGrid::new(geom);
        for _ in 0..defects {
            let (row, col) = (rng.random_range(0..geom.phys_rows()), rng.random_range(0..cols));
            let kind = random_kind(&mut rng);
            // Half the cases stay all-permanent so the 64-lane blocks
            // run with defects; the rest mix all three lifetimes.
            let activation = if dynamic { random_activation(&mut rng) } else { Activation::Permanent };
            let stream = rng.random::<u64>();
            accel.grid_mut().inject(row, col, kind, activation, stream);
            twin.inject(row, col, kind, activation, stream);
        }
        for _ in 0..rng.random_range(0..6usize) {
            let (row, col) = (rng.random_range(0..geom.phys_rows()), rng.random_range(0..cols));
            accel.grid_mut().bypass_pe(row, col);
            twin.bypass_pe(row, col);
        }
        for _ in 0..rng.random_range(0..4usize) {
            let (sched, phys) = (rng.random_range(0..rows), rng.random_range(0..geom.phys_rows()));
            accel.grid_mut().remap_row(sched, phys);
            twin.remap_row(sched, phys);
        }

        // Two consecutive batches with a power-on reset between them.
        for (k, n) in [batch_a, batch_b].into_iter().enumerate() {
            if k > 0 {
                accel.grid_mut().reset_state();
                twin.reset_state();
            }
            let batch = random_rows(&mut rng, n, inputs);
            let refs: Vec<&[f64]> = batch.iter().map(Vec::as_slice).collect();
            let want: Vec<ForwardTrace> =
                batch.iter().map(|r| oracle_forward(&mut twin, &mlp, r, &lut)).collect();
            prop_assert_eq!(accel.forward_batch(&refs).unwrap(), want, "batch {}", k);
        }
        for row in random_rows(&mut rng, 3, inputs) {
            let want = oracle_forward(&mut twin, &mlp, &row, &lut);
            prop_assert_eq!(accel.forward(&row).unwrap(), want);
        }

        let cfg = BistConfig { seed, ..BistConfig::default() };
        let diagnosis = accel.self_test(&cfg).unwrap();
        prop_assert_eq!(&diagnosis.flagged, &oracle_flagged(&mut twin, &cfg));
        prop_assert_eq!(diagnosis.operators_probed, geom.pes());
        // The BIST leaves the streams at power-on on both sides.
        let row = random_rows(&mut rng, 1, inputs).remove(0);
        let want = oracle_forward(&mut twin, &mlp, &row, &lut);
        prop_assert_eq!(accel.forward(&row).unwrap(), want);
    }
}
