//! The systolic accelerator: an MLP mapped onto the weight-stationary
//! PE grid tile by tile, behind the same [`Accel`] surface the spatial
//! array implements — campaigns, self-test and the recovery ladder run
//! on it unchanged.
//!
//! Both layers of the network run on the *same* physical grid (the
//! array is time-shared between layers, as a real systolic accelerator
//! would be), so one defective PE can corrupt hidden *and* output
//! accumulations. The activation unit stays host-side: pre-activation
//! sums leave the array and pass through the shared Q6.10 sigmoid LUT,
//! exactly as in the reference `Mlp::forward_fixed` — which the
//! defect-free grid is bit-identical to by construction (the kernel
//! accumulates synapses in ascending index order with the same
//! saturating arithmetic).
//!
//! Every forward — single rows, batches and the retraining forward —
//! runs one kernel: per neuron and synapse it looks up the compiled
//! `PeMask` of the PE hosting the synapse and applies it to every
//! sample lane, with activations held transposed (samples contiguous).
//! A healthy grid is the all-pass table, so there is no separate
//! fault-free path.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use dta_ann::{FaultSite, ForwardTrace, Mlp, Topology, Trainer, UnitKind};
use dta_circuits::Activation;
use dta_core::accel::{Accel, StructuralOutcome};
use dta_core::recover::{DegradationEstimate, RecoveryError, RecoveryPolicy, RecoveryRung};
use dta_core::selftest::{bist_vectors, BistConfig, Diagnosis};
use dta_core::{check_hyperparameters, AccelError};
use dta_datasets::Dataset;
use dta_fixed::{Fx, SigmoidLut};

use crate::grid::{GridGeometry, PeGrid};

/// Samples per batch block: one stationary weight fetch and one mask
/// lookup serve up to this many MAC lanes.
pub const BATCH_LANES: usize = 64;

/// The weight-stationary systolic MAC-array accelerator.
#[derive(Debug)]
pub struct SystolicAccelerator {
    grid: PeGrid,
    network: Option<Mlp>,
    lut: SigmoidLut,
    /// Largest network the array is commissioned for (matches the
    /// spatial array's physical geometry so both topologies accept the
    /// same workloads).
    envelope: Topology,
    passes: u64,
    in_flight: bool,
}

impl Default for SystolicAccelerator {
    fn default() -> SystolicAccelerator {
        SystolicAccelerator::new()
    }
}

impl SystolicAccelerator {
    /// An all-healthy grid of the default geometry (16×10 + 2 spare
    /// rows), sized for the same 90-10-10 envelope as the spatial
    /// array.
    pub fn new() -> SystolicAccelerator {
        SystolicAccelerator::with_geometry(GridGeometry::default())
    }

    /// An all-healthy grid of a custom geometry.
    pub fn with_geometry(geom: GridGeometry) -> SystolicAccelerator {
        SystolicAccelerator {
            grid: PeGrid::new(geom),
            network: None,
            lut: SigmoidLut::new(),
            envelope: Topology::accelerator(),
            passes: 0,
            in_flight: false,
        }
    }

    /// The PE grid (defect truth, repair state).
    pub fn grid(&self) -> &PeGrid {
        &self.grid
    }

    /// Mutable access to the PE grid.
    pub fn grid_mut(&mut self) -> &mut PeGrid {
        &mut self.grid
    }

    /// Forward passes executed (scalar or per batch lane).
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Injects `n` random PE defects under the shared activation
    /// taxonomy; returns one record string per defect.
    ///
    /// # Errors
    ///
    /// [`AccelError::NotQuiescent`] while a traffic batch is in flight
    /// (see [`Accel::begin_batch`]): mid-stream fault arrival is legal
    /// only on batch boundaries.
    pub fn inject_defects<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Result<Vec<String>, AccelError> {
        if self.in_flight {
            return Err(AccelError::NotQuiescent {
                op: "inject_defects",
            });
        }
        Ok(self.grid.inject_random(n, activation, rng))
    }

    fn require_network(&self) -> Result<&Mlp, AccelError> {
        self.network.as_ref().ok_or(AccelError::NoNetwork)
    }

    /// One forward pass through the grid.
    ///
    /// # Errors
    ///
    /// [`AccelError::NoNetwork`] / [`AccelError::WrongRowWidth`].
    pub fn forward(&mut self, x: &[f64]) -> Result<ForwardTrace, AccelError> {
        let mut traces = self.forward_batch(&[x])?;
        Ok(traces.pop().expect("one trace per row"))
    }

    /// Batched forward over many rows, bit-identical to calling
    /// [`SystolicAccelerator::forward`] row by row. On a grid whose
    /// defects are all permanent, samples run in blocks of
    /// [`BATCH_LANES`]; a dynamic defect makes every row its own pass,
    /// its activation streams advancing in sample order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SystolicAccelerator::forward`].
    pub fn forward_batch(&mut self, rows: &[&[f64]]) -> Result<Vec<ForwardTrace>, AccelError> {
        let net = self.require_network()?;
        let expected = net.topology().inputs;
        for row in rows {
            if row.len() != expected {
                return Err(AccelError::WrongRowWidth {
                    got: row.len(),
                    expected,
                });
            }
        }
        let weights = QuantizedNet::new(net);
        self.passes += rows.len() as u64;
        Ok(forward_rows(&mut self.grid, &weights, &self.lut, rows))
    }

    /// Bypasses every PE the diagnosis flags (Zhang-style fail-silent
    /// repair). Returns how many PEs were newly bypassed.
    fn install_bypasses(&mut self, diagnosis: &Diagnosis) -> usize {
        let mut fresh = 0usize;
        for site in flagged_pes(diagnosis) {
            if self.grid.bypass_pe(site.1, site.0) {
                fresh += 1;
            }
        }
        fresh
    }

    /// Re-points schedule rows that route through flagged PEs at
    /// healthy spare physical rows; rows left over when spares run out
    /// keep their bypasses. Returns `(remapped_rows, bypassed_left)`.
    fn install_row_remaps(&mut self, diagnosis: &Diagnosis) -> (usize, usize) {
        use std::collections::BTreeSet;
        let geom = self.grid.geometry();
        let flagged: Vec<(usize, usize)> = flagged_pes(diagnosis);
        let bad_rows: BTreeSet<usize> = flagged.iter().map(|&(_, p)| p).collect();
        let need: Vec<usize> = (0..geom.rows)
            .filter(|&r| bad_rows.contains(&self.grid.row_map()[r]))
            .collect();
        let in_use: BTreeSet<usize> = self.grid.row_map().iter().copied().collect();
        let spares: Vec<usize> = (0..geom.phys_rows())
            .filter(|p| !in_use.contains(p))
            .filter(|p| !bad_rows.contains(p))
            .collect();
        let mut remapped = 0usize;
        let mut left = 0usize;
        for (i, &r) in need.iter().enumerate() {
            if let Some(&spare) = spares.get(i) {
                self.grid.remap_row(r, spare);
                remapped += 1;
            } else {
                // No spare: make sure the flagged PEs of this row stay
                // fail-silent (the bypass rung normally did this
                // already; count only fresh bypasses).
                let p = self.grid.row_map()[r];
                let cols: Vec<usize> = flagged
                    .iter()
                    .filter(|&&(_, fp)| fp == p)
                    .map(|&(c, _)| c)
                    .collect();
                for c in cols {
                    if self.grid.bypass_pe(p, c) {
                        left += 1;
                    }
                }
            }
        }
        (remapped, left)
    }

    /// Per-PE BIST: every physical PE is driven with the shared Q6.10
    /// corner/random vector pairs, in MAC and idle modes, and compared
    /// against the native `acc + w·x` arithmetic the healthy grid is
    /// bit-exact with — so a flagged PE is necessarily defective (no
    /// false positives by construction). Fault state is reset to
    /// power-on before and after, and probes ignore installed bypasses
    /// (the BIST measures the silicon, not the repair routing).
    fn pe_selftest(&mut self, cfg: &BistConfig) -> Diagnosis {
        let geom = self.grid.geometry();
        let targets: Vec<(usize, usize)> = (0..geom.phys_rows())
            .flat_map(|p| (0..geom.cols).map(move |c| (p, c)))
            .collect();
        let clear = std::sync::atomic::AtomicBool::new(false);
        self.probe_pes(cfg, &targets, &clear)
            .expect("probe cannot abort with an untripped flag")
    }

    /// Drives the listed `(phys_row, col)` PEs with the shared vector
    /// set, checking `abort` (and honoring the grid's chaos stall)
    /// before each PE so a watchdog can stop a stalling probe. Returns
    /// `None` when aborted; fault state is reset to power-on either
    /// way.
    fn probe_pes(
        &mut self,
        cfg: &BistConfig,
        targets: &[(usize, usize)],
        abort: &std::sync::atomic::AtomicBool,
    ) -> Option<Diagnosis> {
        use std::collections::BTreeSet;
        use std::sync::atomic::Ordering;
        let vectors = bist_vectors(cfg.vectors_per_operator, cfg.seed ^ 0x0B15);
        self.grid.reset_state();
        let mut flagged: BTreeSet<FaultSite> = BTreeSet::new();
        let mut probed = 0usize;
        for &(p, c) in targets {
            if let Some(ms) = self.grid.chaos_stall() {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            if abort.load(Ordering::Acquire) {
                self.grid.reset_state();
                return None;
            }
            probed += 1;
            let mut bad = false;
            for (vi, &(a, b)) in vectors.iter().enumerate() {
                // A third operand for the incoming partial sum,
                // drawn from the same deterministic vector set.
                let acc = vectors[(vi + 1) % vectors.len()].1;
                let pass = self.grid.pass_mask();
                let pe = self.grid.raw_mask(p, c, &pass);
                if pe.mac(acc, a, b) != acc + a * b || pe.idle(acc) != acc {
                    bad = true;
                }
            }
            if bad {
                flagged.insert(FaultSite {
                    layer: dta_ann::Layer::Hidden,
                    neuron: c,
                    unit: UnitKind::Pe,
                    synapse: Some(p),
                });
            }
        }
        self.grid.reset_state();
        Some(Diagnosis {
            flagged: flagged.into_iter().collect(),
            screened_lanes: Vec::new(),
            operators_probed: probed,
            memory: None,
        })
    }
}

/// The PEs named by a diagnosis, as `(col, phys_row)` pairs.
fn flagged_pes(diagnosis: &Diagnosis) -> Vec<(usize, usize)> {
    diagnosis
        .flagged
        .iter()
        .filter(|s| s.unit == UnitKind::Pe)
        .filter_map(|s| s.synapse.map(|p| (s.neuron, p)))
        .collect()
}

/// A network's Q6.10 weights, quantized once per forward call. Row
/// `j` of a layer holds neuron `j`'s synapses and then its bias, the
/// layout `Mlp` stores.
struct QuantizedNet {
    topo: Topology,
    hidden: Vec<Fx>,
    output: Vec<Fx>,
}

impl QuantizedNet {
    fn new(net: &Mlp) -> QuantizedNet {
        let topo = net.topology();
        QuantizedNet {
            topo,
            hidden: quantize(topo.hidden, topo.inputs, |j, i| net.w_hidden(j, i)),
            output: quantize(topo.outputs, topo.hidden, |k, j| net.w_output(k, j)),
        }
    }
}

/// Quantizes an `n_out × (n_in + 1)` weight matrix row by row.
fn quantize(n_out: usize, n_in: usize, w: impl Fn(usize, usize) -> f64) -> Vec<Fx> {
    let mut q = Vec::with_capacity(n_out * (n_in + 1));
    for j in 0..n_out {
        for i in 0..=n_in {
            q.push(Fx::from_f64(w(j, i)));
        }
    }
    q
}

/// Runs `rows` through the grid: blocks of [`BATCH_LANES`] lanes when
/// every defect is permanent, else one pass (and one lane) per row.
fn forward_rows(
    grid: &mut PeGrid,
    net: &QuantizedNet,
    lut: &SigmoidLut,
    rows: &[&[f64]],
) -> Vec<ForwardTrace> {
    let block = if grid.has_dynamic_defects() {
        1
    } else {
        BATCH_LANES
    };
    let mut traces = Vec::with_capacity(rows.len());
    for lanes in rows.chunks(block) {
        grid.advance_pass();
        forward_lanes(grid, net, lut, lanes, &mut traces);
    }
    traces
}

/// One two-layer forward of up to [`BATCH_LANES`] samples under the
/// grid's current masks, appending one trace per sample.
fn forward_lanes(
    grid: &PeGrid,
    net: &QuantizedNet,
    lut: &SigmoidLut,
    rows: &[&[f64]],
    traces: &mut Vec<ForwardTrace>,
) {
    let topo = net.topo;
    let lanes = rows.len();
    let mut x = vec![Fx::ZERO; topo.inputs * lanes];
    for (s, row) in rows.iter().enumerate() {
        for (i, &v) in row.iter().enumerate() {
            x[i * lanes + s] = Fx::from_f64(v);
        }
    }
    // A literal lane count lets the compiler drop the lane loop from
    // one-lane (per-row) calls.
    let run = |w: &[Fx], n_in: usize, x: &[Fx], acc: &mut [Fx]| match lanes {
        1 => layer(grid, w, n_in, 1, x, acc),
        _ => layer(grid, w, n_in, lanes, x, acc),
    };
    let mut acc1 = vec![Fx::ZERO; topo.hidden * lanes];
    run(&net.hidden, topo.inputs, &x, &mut acc1);
    // Hidden activations become the second layer's streaming lanes.
    let hidden: Vec<Fx> = acc1.iter().map(|&a| lut.eval(a)).collect();
    let mut acc2 = vec![Fx::ZERO; topo.outputs * lanes];
    run(&net.output, topo.hidden, &hidden, &mut acc2);
    let output: Vec<Fx> = acc2.iter().map(|&a| lut.eval(a)).collect();
    ForwardTrace::extend_from_columns(traces, lanes, lanes, &hidden, &acc2, &output);
}

/// One layer's weight-stationary walk. `x` holds the `n_in` inputs
/// transposed (`x[i * lanes + s]`); `acc` receives the pre-activation
/// sums the same way.
/// Neuron `j`'s synapse `i` runs on the PE in column `j % cols` of the
/// physical row schedule row `i % rows` maps to; synapses accumulate in
/// ascending order from the bias, and the idle slots of the last row
/// tile pass each sum through their PEs' result registers.
#[inline(always)]
fn layer(grid: &PeGrid, weights: &[Fx], n_in: usize, lanes: usize, x: &[Fx], acc: &mut [Fx]) {
    let geom = grid.geometry();
    let masks = grid.masks();
    let row_map = grid.row_map();
    // Schedule rows the last row tile leaves without a synapse.
    let idle_rows = match n_in % geom.rows {
        0 => &[][..],
        used => &row_map[used..],
    };
    for (j, (acc, w)) in acc
        .chunks_exact_mut(lanes)
        .zip(weights.chunks_exact(n_in + 1))
        .enumerate()
    {
        let pe = |p: usize| masks[p * geom.cols + j % geom.cols];
        acc.fill(w[n_in]);
        let tiles = w[..n_in].chunks(geom.rows).zip(x.chunks(geom.rows * lanes));
        for (tile_w, tile_x) in tiles {
            for ((&w, xs), &p) in tile_w.iter().zip(tile_x.chunks_exact(lanes)).zip(row_map) {
                let m = pe(p);
                for (a, &x) in acc.iter_mut().zip(xs) {
                    *a = m.mac(*a, w, x);
                }
            }
        }
        for &p in idle_rows {
            let m = pe(p);
            for a in acc.iter_mut() {
                *a = m.idle(*a);
            }
        }
    }
}

impl Accel for SystolicAccelerator {
    fn geometry(&self) -> Topology {
        self.envelope
    }

    fn network(&self) -> Option<&Mlp> {
        self.network.as_ref()
    }

    fn map_network(&mut self, mlp: Mlp) -> Result<(), AccelError> {
        let logical = mlp.topology();
        if logical.inputs > self.envelope.inputs
            || logical.hidden > self.envelope.hidden
            || logical.outputs > self.envelope.outputs
        {
            return Err(AccelError::DoesNotFit {
                logical,
                physical: self.envelope,
            });
        }
        self.network = Some(mlp);
        Ok(())
    }

    fn unmap_network(&mut self) -> Option<Mlp> {
        self.network.take()
    }

    fn evaluate(&mut self, ds: &Dataset, idx: &[usize]) -> Result<f64, AccelError> {
        let net = self.require_network()?;
        if idx.is_empty() {
            return Err(AccelError::EmptySelection);
        }
        if net.topology().outputs == 0 {
            return Err(AccelError::NoOutputs);
        }
        let rows: Vec<&[f64]> = idx
            .iter()
            .map(|&s| ds.samples()[s].features.as_slice())
            .collect();
        let traces = self.forward_batch(&rows)?;
        let correct = idx
            .iter()
            .zip(&traces)
            .filter(|&(&s, t)| t.predicted() == ds.samples()[s].label)
            .count();
        Ok(correct as f64 / idx.len() as f64)
    }

    fn retrain(
        &mut self,
        ds: &Dataset,
        idx: &[usize],
        learning_rate: f64,
        momentum: f64,
        epochs: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<(), AccelError> {
        check_hyperparameters(learning_rate, momentum, epochs)?;
        let mut mlp = self.network.take().ok_or(AccelError::NoNetwork)?;
        let trainer = Trainer::new(learning_rate, momentum, epochs, dta_ann::ForwardMode::Fixed);
        self.grid.reset_state();
        let lut = &self.lut;
        let grid = &mut self.grid;
        let mut passes = 0u64;
        trainer.train_with(&mut mlp, ds, idx, rng, |m, x| {
            passes += 1;
            // The weights change every step, so quantize per step.
            let weights = QuantizedNet::new(m);
            forward_rows(grid, &weights, lut, &[x])
                .pop()
                .expect("one trace per row")
        });
        self.passes += passes;
        self.network = Some(mlp);
        Ok(())
    }

    fn self_test(&mut self, cfg: &BistConfig) -> Result<Diagnosis, AccelError> {
        Ok(self.pe_selftest(cfg))
    }

    fn structural_rungs(&self, _policy: &RecoveryPolicy) -> Vec<RecoveryRung> {
        vec![RecoveryRung::PeBypass, RecoveryRung::GridRemap]
    }

    fn apply_structural_rung(
        &mut self,
        rung: RecoveryRung,
        diagnosis: &Diagnosis,
        _policy: &RecoveryPolicy,
    ) -> Result<StructuralOutcome, RecoveryError> {
        match rung {
            RecoveryRung::PeBypass => {
                let masked = self.install_bypasses(diagnosis);
                Ok(StructuralOutcome {
                    masked,
                    retrain_after: true,
                    ..StructuralOutcome::default()
                })
            }
            RecoveryRung::GridRemap => {
                let (remapped, masked) = self.install_row_remaps(diagnosis);
                Ok(StructuralOutcome {
                    remapped,
                    masked,
                    retrain_after: true,
                    ..StructuralOutcome::default()
                })
            }
            _ => Err(RecoveryError::UnsupportedRung { rung }),
        }
    }

    fn degradation(&mut self, diagnosis: &Diagnosis, baseline: f64) -> DegradationEstimate {
        use std::collections::BTreeSet;
        let geom = self.grid.geometry();
        let in_use: BTreeSet<usize> = self.grid.row_map().iter().copied().collect();
        let outputs = self
            .network
            .as_ref()
            .map_or(self.envelope.outputs, |m| m.topology().outputs);
        let chance = 1.0 / outputs.max(1) as f64;
        // A PE serves ~1/rows of each mapped neuron's accumulation.
        let sensitivity = 0.25 / (geom.rows as f64).sqrt();
        let samples = 256;

        let mut active_sites = 0usize;
        let mut visible_sites = 0usize;
        let mut vf_sum = 0.0f64;
        let mut loss = 0.0f64;
        for (i, site) in flagged_pes(diagnosis).iter().enumerate() {
            let (c, p) = *site;
            // Bypassed or steered-away PEs are no longer in the data
            // path; their damage cannot reach an output.
            if !in_use.contains(&p) || self.grid.is_bypassed(p, c) {
                continue;
            }
            active_sites += 1;
            // Match every defect on this PE and take the worst case.
            let mut vf = 0.0f64;
            for (di, d) in self.grid.defects().iter().enumerate() {
                if d.row == p && d.col == c {
                    vf = vf.max(
                        self.grid
                            .defect_visibility(di, samples, 0xD156_0000 ^ i as u64),
                    );
                }
            }
            if vf > 0.0 {
                visible_sites += 1;
            }
            vf_sum += vf;
            loss += vf * sensitivity;
        }
        let expected = (baseline - loss).clamp(chance, baseline.max(chance));
        DegradationEstimate {
            expected_accuracy: expected,
            active_sites,
            visible_sites,
            mean_visible_fraction: if active_sites > 0 {
                vf_sum / active_sites as f64
            } else {
                0.0
            },
        }
    }

    fn begin_batch(&mut self) -> Result<(), AccelError> {
        if self.in_flight {
            return Err(AccelError::NotQuiescent { op: "begin_batch" });
        }
        self.in_flight = true;
        Ok(())
    }

    fn end_batch(&mut self) {
        self.in_flight = false;
    }

    fn probe_touched(
        &mut self,
        cfg: &BistConfig,
        abort: &std::sync::atomic::AtomicBool,
    ) -> Result<Option<Diagnosis>, AccelError> {
        // Only the PEs traffic actually routes through: the physical
        // rows the schedule's row map points at, minus installed
        // bypasses (a bypassed PE is already fail-silent).
        let geom = self.grid.geometry();
        let mut targets: Vec<(usize, usize)> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..geom.rows {
            let p = self.grid.row_map()[r];
            if !seen.insert(p) {
                continue;
            }
            for c in 0..geom.cols {
                if !self.grid.is_bypassed(p, c) {
                    targets.push((p, c));
                }
            }
        }
        Ok(self.probe_pes(cfg, &targets, abort))
    }

    fn quarantine(&mut self, diagnosis: &Diagnosis) -> Result<usize, AccelError> {
        Ok(self.install_bypasses(diagnosis))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::PeFaultKind;
    use dta_core::recover::recover;
    use dta_core::selftest::run_selftest;
    use dta_datasets::suite;
    use rand::SeedableRng;

    fn iris_split() -> (Dataset, Vec<usize>, Vec<usize>) {
        let ds = suite::load("iris").unwrap();
        let train: Vec<usize> = (0..ds.len()).filter(|i| i % 3 != 0).collect();
        let test: Vec<usize> = (0..ds.len()).step_by(3).collect();
        (ds, train, test)
    }

    fn commissioned(seed: u64) -> (SystolicAccelerator, Dataset, Vec<usize>, Vec<usize>) {
        let (ds, train, test) = iris_split();
        let mut accel = SystolicAccelerator::new();
        accel
            .map_network(Mlp::new(Topology::new(4, 6, 3), seed))
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        accel.retrain(&ds, &train, 0.2, 0.1, 30, &mut rng).unwrap();
        (accel, ds, train, test)
    }

    #[test]
    fn defect_free_forward_is_bit_identical_to_reference() {
        let mlp = Mlp::new(Topology::new(7, 9, 4), 21);
        let lut = SigmoidLut::new();
        let mut accel = SystolicAccelerator::new();
        accel.map_network(mlp.clone()).unwrap();
        let x: Vec<f64> = (0..7).map(|i| (i as f64) * 0.37 - 1.2).collect();
        let want = mlp.forward_fixed(&x, &lut);
        assert_eq!(accel.forward(&x).unwrap(), want, "single row");
        let rows: Vec<&[f64]> = vec![&x; 70];
        for t in accel.forward_batch(&rows).unwrap() {
            assert_eq!(t, want, "batch lane");
        }
    }

    #[test]
    fn commissioning_matches_the_spatial_array_bit_for_bit() {
        // Clean training runs the all-pass grid, bit-identical to
        // forward_fixed, which is exactly what the spatial array trains
        // through — so both topologies commission to identical weights
        // and accuracy.
        let (mut sys, ds, train, test) = commissioned(11);
        let mut spatial = dta_core::Accelerator::new();
        spatial
            .map_network(Mlp::new(Topology::new(4, 6, 3), 11))
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        spatial
            .retrain(&ds, &train, 0.2, 0.1, 30, &mut rng)
            .unwrap();
        assert_eq!(Accel::network(&sys), spatial.network());
        assert_eq!(
            Accel::evaluate(&mut sys, &ds, &test).unwrap(),
            spatial.evaluate(&ds, &test).unwrap()
        );
    }

    #[test]
    fn selftest_localizes_planted_pe_defects_exactly() {
        let mut accel = SystolicAccelerator::new();
        accel
            .grid_mut()
            .inject(3, 5, PeFaultKind::DeadPe, Activation::Permanent, 1);
        accel.grid_mut().inject(
            12,
            0,
            PeFaultKind::StuckAccBit {
                bit: 9,
                stuck_one: true,
            },
            Activation::Permanent,
            2,
        );
        let diag = run_selftest(&mut accel, &BistConfig::default()).unwrap();
        assert_eq!(diag.flagged, accel.fault_sites_sorted());
        assert_eq!(diag.operators_probed, accel.grid().geometry().pes());
        assert!(diag.memory.is_none());
    }

    impl SystolicAccelerator {
        fn fault_sites_sorted(&self) -> Vec<FaultSite> {
            let mut v = self.grid.sites();
            v.sort();
            v
        }
    }

    #[test]
    fn clean_grid_passes_selftest() {
        let mut accel = SystolicAccelerator::new();
        let diag = run_selftest(&mut accel, &BistConfig::default()).unwrap();
        assert!(!diag.detected());
    }

    #[test]
    fn recovery_ladder_runs_native_rungs_and_beats_blind() {
        for seed in [3u64, 19] {
            let build = || {
                let (mut accel, ds, train, test) = commissioned(seed);
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA11);
                accel
                    .inject_defects(10, Activation::Permanent, &mut rng)
                    .unwrap();
                (accel, ds, train, test)
            };
            let base = RecoveryPolicy {
                retrain: dta_core::RungBudget {
                    max_epochs: 6,
                    wall_clock_ms: 60_000,
                },
                remap: dta_core::RungBudget {
                    max_epochs: 6,
                    wall_clock_ms: 60_000,
                },
                target_accuracy: 0.97,
                seed,
                ..RecoveryPolicy::default()
            };
            let blind_policy = RecoveryPolicy {
                structural: false,
                ..base.clone()
            };
            let (mut blind_accel, ds, train, test) = build();
            let blind = recover(
                &mut blind_accel,
                &ds,
                &train,
                &test,
                &Diagnosis::default(),
                &blind_policy,
            )
            .unwrap();
            let (mut full_accel, _, _, _) = build();
            let diagnosis = run_selftest(&mut full_accel, &BistConfig::default()).unwrap();
            assert!(diagnosis.detected(), "seed {seed}: BIST missed everything");
            let full = recover(&mut full_accel, &ds, &train, &test, &diagnosis, &base).unwrap();
            assert_eq!(
                blind.pre_recovery_accuracy, full.pre_recovery_accuracy,
                "seed {seed}: twins diverged before recovery"
            );
            assert!(
                full.accuracy >= blind.accuracy,
                "seed {seed}: recovered {} < blind {}",
                full.accuracy,
                blind.accuracy
            );
            // Unless rung 1 already hit the target, the grid-native
            // rungs must have run.
            if full.rungs[0].error.is_some() {
                let kinds: Vec<RecoveryRung> = full.rungs.iter().map(|r| r.rung).collect();
                assert!(kinds.contains(&RecoveryRung::PeBypass), "{kinds:?}");
                assert!(kinds.contains(&RecoveryRung::GridRemap), "{kinds:?}");
            }
        }
    }

    #[test]
    fn grid_remap_restores_contributions_a_bypass_loses() {
        // Kill a whole schedule row's PE in one column, bypass it, then
        // remap: the remapped grid must evaluate exactly like a healthy
        // grid (the spare row is defect-free).
        let (mut accel, ds, _train, test) = commissioned(5);
        accel
            .grid_mut()
            .inject(2, 4, PeFaultKind::DeadPe, Activation::Permanent, 77);
        let healthy = {
            let (mut h, _, _, _) = commissioned(5);
            Accel::evaluate(&mut h, &ds, &test).unwrap()
        };
        let diagnosis = run_selftest(&mut accel, &BistConfig::default()).unwrap();
        let policy = RecoveryPolicy::default();
        accel
            .apply_structural_rung(RecoveryRung::GridRemap, &diagnosis, &policy)
            .unwrap();
        assert_eq!(accel.grid().row_map()[2], 16, "row 2 steered to spare");
        assert_eq!(Accel::evaluate(&mut accel, &ds, &test).unwrap(), healthy);
    }

    #[test]
    fn rows_left_without_a_spare_stay_bypassed() {
        let mut accel = SystolicAccelerator::new();
        accel
            .map_network(Mlp::new(Topology::new(4, 6, 3), 9))
            .unwrap();
        // Flag PEs on three distinct schedule rows — one more than the
        // two spare rows can absorb.
        let mut diag = Diagnosis::default();
        for p in [0usize, 5, 9] {
            diag.flagged.push(FaultSite {
                layer: dta_ann::Layer::Hidden,
                neuron: 0,
                unit: UnitKind::Pe,
                synapse: Some(p),
            });
        }
        let out = accel
            .apply_structural_rung(RecoveryRung::GridRemap, &diag, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!((out.remapped, out.masked), (2, 1));
        assert!(accel.grid().is_bypassed(9, 0));
    }

    #[test]
    fn incremental_probe_covers_active_rows_and_quarantine_silences() {
        use std::sync::atomic::AtomicBool;
        let clear = AtomicBool::new(false);
        let cfg = BistConfig::default();
        let mut accel = SystolicAccelerator::new();
        let geom = accel.grid().geometry();
        // Plant one defect on an active row and one on a spare row:
        // the incremental probe must flag the first and skip the second
        // (traffic never routes through a spare).
        accel
            .grid_mut()
            .inject(3, 5, PeFaultKind::DeadPe, Activation::Permanent, 1);
        accel.grid_mut().inject(
            geom.phys_rows() - 1,
            0,
            PeFaultKind::DeadPe,
            Activation::Permanent,
            2,
        );
        let diag = accel.probe_touched(&cfg, &clear).unwrap().unwrap();
        assert_eq!(diag.operators_probed, geom.rows * geom.cols);
        assert_eq!(diag.flagged.len(), 1);
        assert_eq!(diag.flagged[0].synapse, Some(3));
        // Quarantine bypasses the flagged PE; the next probe skips it
        // and comes back clean.
        assert_eq!(accel.quarantine(&diag).unwrap(), 1);
        assert!(accel.grid().is_bypassed(3, 5));
        let after = accel.probe_touched(&cfg, &clear).unwrap().unwrap();
        assert!(!after.detected());
        assert_eq!(after.operators_probed, geom.rows * geom.cols - 1);
        // A tripped abort flag stops the probe with None.
        let tripped = AtomicBool::new(true);
        assert_eq!(accel.probe_touched(&cfg, &tripped).unwrap(), None);
    }

    #[test]
    fn systolic_rungs_time_out_typed_and_fall_through() {
        // Chaos-hook parity on the grid's ladder: stall each
        // grid-native rung past its deadline and check the typed
        // Timeout falls through to graceful degradation.
        for stalled in [RecoveryRung::PeBypass, RecoveryRung::GridRemap] {
            let (mut accel, ds, train, test) = commissioned(3);
            let mut rng = ChaCha8Rng::seed_from_u64(0xFA11);
            accel
                .inject_defects(6, Activation::Permanent, &mut rng)
                .unwrap();
            let diagnosis = run_selftest(&mut accel, &BistConfig::default()).unwrap();
            let tight = dta_core::RungBudget {
                max_epochs: 3,
                wall_clock_ms: 30,
            };
            let policy = RecoveryPolicy {
                retrain: tight,
                remap: tight,
                target_accuracy: 2.0,
                chaos_stall: Some((stalled, 80)),
                ..RecoveryPolicy::default()
            };
            let report = recover(&mut accel, &ds, &train, &test, &diagnosis, &policy).unwrap();
            let pos = report
                .rungs
                .iter()
                .position(|r| r.rung == stalled)
                .unwrap_or_else(|| panic!("{stalled} never ran"));
            assert!(
                matches!(
                    report.rungs[pos].error,
                    Some(dta_core::RecoveryError::Timeout { .. })
                ),
                "{stalled}: {:?}",
                report.rungs[pos].error
            );
            assert!(report.rungs.len() > pos + 1, "{stalled}: ladder stopped");
            assert_eq!(report.final_rung(), Some(RecoveryRung::Degrade));
        }
    }

    #[test]
    fn stalling_pe_probe_falls_through_instead_of_hanging() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cfg = BistConfig::default();
        let mut accel = SystolicAccelerator::new();
        accel.grid_mut().set_chaos_stall(Some(20));
        let abort = AtomicBool::new(false);
        // A watchdog-shaped supervisor: trip the flag mid-walk. The
        // stalling probe must come back `None` instead of walking all
        // 160 PEs at 20 ms each.
        let out = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(60));
                abort.store(true, Ordering::Release);
            });
            accel.probe_touched(&cfg, &abort).unwrap()
        });
        assert_eq!(out, None, "stalled probe aborted, not completed");
    }

    #[test]
    fn mid_batch_injection_is_a_typed_error() {
        let mut accel = SystolicAccelerator::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        Accel::begin_batch(&mut accel).unwrap();
        assert_eq!(
            Accel::begin_batch(&mut accel),
            Err(AccelError::NotQuiescent { op: "begin_batch" })
        );
        assert_eq!(
            accel.inject_defects(1, Activation::Permanent, &mut rng),
            Err(AccelError::NotQuiescent {
                op: "inject_defects"
            })
        );
        assert!(!accel.grid().has_defects());
        Accel::end_batch(&mut accel);
        accel
            .inject_defects(1, Activation::Permanent, &mut rng)
            .unwrap();
        assert!(accel.grid().has_defects());
    }

    #[test]
    fn envelope_rejects_oversized_networks() {
        let mut accel = SystolicAccelerator::new();
        let err = accel
            .map_network(Mlp::new(Topology::new(91, 10, 10), 1))
            .unwrap_err();
        assert!(matches!(err, AccelError::DoesNotFit { .. }));
    }

    #[test]
    fn healthy_tile_walk_matches_direct_accumulation() {
        let geom = GridGeometry::default();
        let grid = PeGrid::new(geom);
        let (n_in, n_out, lanes) = (23, 13, 3); // partial tiles on both axes
        let w = |j: usize, i: usize| Fx::from_f64((j as f64 - i as f64) * 0.07);
        let bias = |j: usize| Fx::from_f64(j as f64 * 0.01);
        let weights: Vec<Fx> = (0..n_out)
            .flat_map(|j| (0..n_in).map(move |i| w(j, i)).chain([bias(j)]))
            .collect();
        let xq = |i: usize, s: usize| Fx::from_f64(i as f64 * 0.11 - 1.0 + s as f64 * 0.3);
        let x: Vec<Fx> = (0..n_in)
            .flat_map(|i| (0..lanes).map(move |s| xq(i, s)))
            .collect();
        let want: Vec<Fx> = (0..n_out)
            .flat_map(|j| {
                (0..lanes).map(move |s| {
                    let mut acc = bias(j);
                    for i in 0..n_in {
                        acc += w(j, i) * xq(i, s);
                    }
                    acc
                })
            })
            .collect();
        let mut acc = vec![Fx::ZERO; n_out * lanes];
        layer(&grid, &weights, n_in, lanes, &x, &mut acc);
        assert_eq!(acc, want);
    }
}
