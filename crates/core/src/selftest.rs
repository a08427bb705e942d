//! Signature-based built-in self-test (BIST) for the spatially
//! expanded accelerator: detect that the silicon is defective, and
//! localize the damage to operator/neuron granularity so the recovery
//! ladder ([`crate::recover`]) can act on it.
//!
//! The self-test has two levels, mirroring how a real array BIST is
//! staged:
//!
//! 1. **Array-level screen** — the user's network is unmapped, a
//!    diagnostic network spanning the *full physical geometry* is
//!    mapped in its place, and seeded stimulus rows are pushed through
//!    the (possibly faulty) datapath. Per hidden lane, the scanned-out
//!    activation is compared against the native Q6.10 reference: lane
//!    `j`'s activation depends only on lane `j`'s operators, so a
//!    mismatch localizes to that lane with no false accusations. The
//!    output stage is checked against a native recomputation from the
//!    *observed* hidden values, so an upstream defect cannot falsely
//!    implicate an output lane.
//! 2. **Operator-level diagnosis** — each operator instance of every
//!    suspect neuron is driven with deterministic test vectors (Q6.10
//!    corner words plus seeded randoms) and its responses compared
//!    against the native arithmetic the healthy silicon is bit-exact
//!    with. A mismatching multiplier/adder/latch/activation unit is
//!    flagged as a [`FaultSite`].
//! 3. **Memory march** — when a [`dta_mem::WeightMemory`] backs the
//!    weight latches, a March C- pass walks every word of the store in
//!    both address orders under complementary backgrounds and folds the
//!    raw failure bitmap into bad rows, bad columns, and residual bad
//!    cells — the row/column granularity the ECC-scrub and spare-steer
//!    rungs of the recovery ladder act on.
//!
//! Because every healthy operator is bit-exact with the native
//! datapath (a crate-level invariant tested in `dta-circuits`), a
//! flagged site is necessarily defective: localization has no false
//! positives by construction, and [`localization_precision`] measures
//! exactly that. Detection is bounded away from 1.0 by *invisible*
//! defects — the paper's Figure 5 shows a large fraction of injected
//! transistor defects never corrupt any output word, and those are
//! legitimately undetectable (and harmless).
//!
//! The self-test runs on the power-on fault state and resets it
//! afterwards, so a subsequent evaluation sees the same activation
//! streams whether or not a BIST ran first.

use std::collections::BTreeSet;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dta_ann::{FaultSite, Layer, Mlp, UnitKind};
use dta_fixed::{Fx, SigmoidLut};
use dta_mem::{march_cminus, MarchReport};

use crate::accelerator::{AccelError, Accelerator};

/// Tuning knobs for one self-test run. The defaults detect the large
/// majority of visible single defects in well under a millisecond of
/// simulated array time.
#[derive(Clone, Copy, Debug)]
pub struct BistConfig {
    /// Stimulus rows pushed through the array for the lane-level screen.
    pub screen_rows: usize,
    /// Test vectors applied per operator instance in the diagnosis
    /// stage (corner words first, seeded randoms for the remainder).
    pub vectors_per_operator: usize,
    /// Seed for the stimulus and vector generators (and the diagnostic
    /// network's weights).
    pub seed: u64,
}

impl Default for BistConfig {
    fn default() -> BistConfig {
        BistConfig {
            screen_rows: 16,
            vectors_per_operator: 24,
            seed: 0xB157,
        }
    }
}

/// The outcome of one self-test: which lanes failed the array-level
/// screen, and which operator instances failed the vector-level
/// diagnosis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Diagnosis {
    /// Operator instances whose vector responses diverged from the
    /// native arithmetic, sorted.
    pub flagged: Vec<FaultSite>,
    /// Lanes whose scanned-out signature diverged from the reference
    /// during the array screen, sorted.
    pub screened_lanes: Vec<(Layer, usize)>,
    /// Operator probes executed by the diagnosis stage.
    pub operators_probed: usize,
    /// March C- report for the attached weight store (`None` when no
    /// store is attached): bad rows, bad columns, and residual bad
    /// cells, localized to row/column granularity for the memory rungs
    /// of the recovery ladder.
    pub memory: Option<MarchReport>,
}

impl Diagnosis {
    /// True if anything at all was flagged.
    pub fn detected(&self) -> bool {
        !self.flagged.is_empty()
            || !self.screened_lanes.is_empty()
            || self.memory.as_ref().is_some_and(|m| !m.clean())
    }

    /// The physical hidden lanes implicated by either stage, sorted and
    /// deduplicated — the unit the remap/mask rung of the recovery
    /// ladder operates on.
    pub fn faulty_hidden_lanes(&self) -> Vec<usize> {
        let mut lanes: BTreeSet<usize> = self
            .flagged
            .iter()
            .filter(|s| s.layer == Layer::Hidden)
            .map(|s| s.neuron)
            .collect();
        lanes.extend(
            self.screened_lanes
                .iter()
                .filter(|(l, _)| *l == Layer::Hidden)
                .map(|(_, n)| *n),
        );
        lanes.into_iter().collect()
    }
}

/// Deterministic operator test vectors: Q6.10 corner words (zero, ±LSB,
/// ±1.0, the extremes, alternating bit patterns) crossed pairwise,
/// padded with seeded random words up to `n` pairs. Shared by the
/// spatial operator probes and the systolic per-PE MAC probes.
pub fn bist_vectors(n: usize, seed: u64) -> Vec<(Fx, Fx)> {
    const CORNERS: [u16; 9] = [
        0x0000, 0x0001, 0xFFFF, 0x7FFF, 0x8000, 0x5555, 0xAAAA, 0x0400, 0xFC00,
    ];
    let mut v: Vec<(Fx, Fx)> = Vec::with_capacity(n.max(CORNERS.len()));
    for (i, &a) in CORNERS.iter().enumerate() {
        let b = CORNERS[(i + 3) % CORNERS.len()];
        v.push((Fx::from_bits(a), Fx::from_bits(b)));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    while v.len() < n {
        v.push((
            Fx::from_raw(rng.random::<i16>()),
            Fx::from_raw(rng.random::<i16>()),
        ));
    }
    v.truncate(n.max(CORNERS.len()));
    v
}

/// Runs the topology's built-in self-test.
///
/// Dispatches to the topology's own BIST via [`crate::accel::Accel`]:
/// the spatial array runs the two-stage screen/probe described in the
/// module docs (plus the memory march when a weight store is attached);
/// the systolic grid runs per-PE MAC vector probes. Either way the
/// fault state is reset to power-on afterwards and any mapped user
/// network is preserved, so the test is invisible to subsequent
/// evaluations. Run it *before* installing recovery remaps, masks or
/// bypasses — the screens exercise the identity mapping.
///
/// # Errors
///
/// Propagates [`AccelError`] from the diagnostic datapath (cannot
/// occur for a well-formed accelerator).
pub fn run_selftest<A: crate::accel::Accel>(
    accel: &mut A,
    cfg: &BistConfig,
) -> Result<Diagnosis, AccelError> {
    accel.self_test(cfg)
}

/// The spatial array's two-stage self-test: array-level lane screen,
/// operator-level vector diagnosis, memory march.
pub(crate) fn spatial_selftest(
    accel: &mut Accelerator,
    cfg: &BistConfig,
) -> Result<Diagnosis, AccelError> {
    let saved = accel.unmap_network();
    let screen = screen_lanes(accel, cfg);
    // Restore the user's network before the `?` so an error cannot
    // leave the accelerator holding the diagnostic network.
    accel.unmap_network();
    if let Some(mlp) = saved {
        accel
            .map_network(mlp)
            .expect("previously mapped network still fits");
    }
    let screened = screen?;

    let flagged = probe_operators(accel, cfg);
    // Memory BIST stage: march the attached weight store (if any) and
    // localize failures to row/column granularity. `march_cminus` ends
    // by rewinding the store's activation streams, so the stage is as
    // invisible to later evaluations as the operator probes are.
    let memory = accel.memory_mut().map(march_cminus);
    accel.faults_mut().reset_state();
    Ok(Diagnosis {
        flagged: flagged.0,
        screened_lanes: screened,
        operators_probed: flagged.1,
        memory,
    })
}

/// The spatial array's mission-mode incremental probe
/// ([`crate::accel::Accel::probe_touched`]): screens only the units the
/// serving stream exercises, under an abort flag.
///
/// Instead of unmapping the user's network for a full-geometry
/// diagnostic screen, the probe pushes seeded stimulus rows through the
/// *mapped* network's own routing and compares each routed lane against
/// the native Q6.10 reference — masked (quarantined) lanes are skipped,
/// remapped lanes are judged on their spare silicon, and flagged units
/// are reported as *physical* lanes so quarantine can act on them.
/// Operator probes then cover the neurons carrying fault state, and a
/// guarded March C- walks the attached weight store (if any). Returns
/// `None` as soon as `abort` trips; the fault state is reset to
/// power-on either way, so the probe is invisible to later batches.
pub(crate) fn spatial_probe_touched(
    accel: &mut Accelerator,
    cfg: &BistConfig,
    abort: &std::sync::atomic::AtomicBool,
) -> Result<Option<Diagnosis>, AccelError> {
    use std::sync::atomic::Ordering;
    accel.faults_mut().reset_state();
    let lut = SigmoidLut::new();
    let mut screened: BTreeSet<(Layer, usize)> = BTreeSet::new();
    if accel.network().is_some() {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x7060);
        let inputs = accel.network().expect("checked").topology().inputs;
        for _ in 0..cfg.screen_rows {
            if abort.load(Ordering::Acquire) {
                accel.faults_mut().reset_state();
                return Ok(None);
            }
            let row: Vec<f64> = (0..inputs).map(|_| rng.random_range(-4.0..4.0)).collect();
            let observed = accel.diagnose_row(&row)?;
            let net = accel.network().expect("checked");
            let topo = net.topology();
            let reference = net.forward_fixed(&row, &lut);
            for j in 0..topo.hidden {
                let lane = accel.faults().hidden_lane(j);
                if accel.faults().is_masked(Layer::Hidden, lane) {
                    continue;
                }
                if observed.hidden[j] != reference.hidden[j] {
                    screened.insert((Layer::Hidden, lane));
                }
            }
            // Output lanes against a native recomputation from the
            // observed hidden words (masked hidden zeros included), so
            // upstream damage cannot falsely implicate an output lane.
            let hq: Vec<Fx> = observed.hidden.iter().map(|&h| Fx::from_f64(h)).collect();
            for k in 0..topo.outputs {
                if accel.faults().is_masked(Layer::Output, k) {
                    continue;
                }
                let mut acc = Fx::from_f64(net.w_output(k, topo.hidden));
                for (j, &hj) in hq.iter().enumerate() {
                    acc += Fx::from_f64(net.w_output(k, j)) * hj;
                }
                if observed.output[k] != lut.eval(acc).to_f64() {
                    screened.insert((Layer::Output, k));
                }
            }
        }
    }
    if abort.load(Ordering::Acquire) {
        accel.faults_mut().reset_state();
        return Ok(None);
    }
    let (mut flagged, operators_probed) = probe_operators(accel, cfg);
    // A quarantined unit is fail-silent: its masked lane no longer
    // reaches the outputs, so the probe must not keep raising alarms
    // for it (the full commissioning BIST still reports everything).
    flagged.retain(|site| !accel.faults().is_masked(site.layer, site.neuron));
    let memory = match accel.memory_mut() {
        Some(mem) => match dta_mem::march_cminus_guarded(mem, abort) {
            Some(report) => Some(report),
            None => {
                accel.faults_mut().reset_state();
                return Ok(None);
            }
        },
        None => None,
    };
    accel.faults_mut().reset_state();
    Ok(Some(Diagnosis {
        flagged,
        screened_lanes: screened.into_iter().collect(),
        operators_probed,
        memory,
    }))
}

/// Array-level screen: full-geometry diagnostic network, seeded
/// stimulus rows, per-lane comparison against the native reference.
fn screen_lanes(
    accel: &mut Accelerator,
    cfg: &BistConfig,
) -> Result<Vec<(Layer, usize)>, AccelError> {
    let phys = accel.geometry();
    let mut diag = Mlp::new(phys, cfg.seed);
    // Xavier weights under-excite the high Q6.10 bits on a 90-input
    // array; rescale to ±2 so stuck bits anywhere in the word matter.
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x5EED);
    for j in 0..phys.hidden {
        for i in 0..=phys.inputs {
            *diag.w_hidden_mut(j, i) = rng.random_range(-2.0..2.0);
        }
    }
    for k in 0..phys.outputs {
        for j in 0..=phys.hidden {
            *diag.w_output_mut(k, j) = rng.random_range(-2.0..2.0);
        }
    }
    accel
        .map_network(diag)
        .expect("diagnostic network spans exactly the physical geometry");
    accel.faults_mut().reset_state();

    let lut = SigmoidLut::new();
    let mut screened: BTreeSet<(Layer, usize)> = BTreeSet::new();
    for _ in 0..cfg.screen_rows {
        let row: Vec<f64> = (0..phys.inputs)
            .map(|_| rng.random_range(-4.0..4.0))
            .collect();
        let observed = accel.diagnose_row(&row)?;
        let net = accel.network().expect("diagnostic network is mapped");
        let reference = net.forward_fixed(&row, &lut);
        for j in 0..phys.hidden {
            if observed.hidden[j] != reference.hidden[j] {
                screened.insert((Layer::Hidden, j));
            }
        }
        // Output lanes are judged against a native recomputation from
        // the *observed* hidden words, so hidden-stage damage cannot
        // cascade into false output-lane accusations.
        let hq: Vec<Fx> = observed.hidden.iter().map(|&h| Fx::from_f64(h)).collect();
        for k in 0..phys.outputs {
            let mut acc = Fx::from_f64(net.w_output(k, phys.hidden));
            for (j, &hj) in hq.iter().enumerate() {
                acc += Fx::from_f64(net.w_output(k, j)) * hj;
            }
            if observed.output[k] != lut.eval(acc).to_f64() {
                screened.insert((Layer::Output, k));
            }
        }
    }
    Ok(screened.into_iter().collect())
}

/// Operator-level diagnosis: drive each operator instance of every
/// neuron carrying fault state with the vector set and flag behavioral
/// divergence from the native arithmetic. Healthy operators are
/// native-by-construction, so only instances present in the plan need
/// probing.
fn probe_operators(accel: &mut Accelerator, cfg: &BistConfig) -> (Vec<FaultSite>, usize) {
    let phys = accel.geometry();
    let vectors = bist_vectors(cfg.vectors_per_operator, cfg.seed ^ 0x0B15);
    let lut = SigmoidLut::new();
    let plan = accel.faults_mut();
    plan.reset_state();
    let hw_inputs = plan.hw_inputs();

    let mut flagged: BTreeSet<FaultSite> = BTreeSet::new();
    let mut probed = 0usize;
    let lanes: Vec<(Layer, usize)> = plan
        .faulty_neurons(Layer::Hidden)
        .into_iter()
        .map(|n| (Layer::Hidden, n))
        .chain(
            plan.faulty_neurons(Layer::Output)
                .into_iter()
                .map(|n| (Layer::Output, n)),
        )
        .collect();
    for (layer, neuron) in lanes {
        let span = match layer {
            Layer::Hidden => hw_inputs,
            Layer::Output => phys.hidden,
        };
        let nf = plan
            .neuron_mut(layer, neuron)
            .expect("faulty_neurons listed it");
        let span = span.max(nf.max_synapse_excl());
        for s in 0..span {
            probed += 1;
            if vectors.iter().any(|&(w, _)| nf.latch_filter(s, w) != w) {
                flagged.insert(FaultSite {
                    layer,
                    neuron,
                    unit: UnitKind::Latch,
                    synapse: Some(s),
                });
            }
            // Every vector is applied even after a mismatch, so stateful
            // faults advance through the whole probe sequence.
            if let Some(hw) = nf.multiplier_mut(s) {
                probed += 1;
                let got: Vec<Fx> = vectors.iter().map(|&(a, b)| hw.mul(a, b)).collect();
                if got.iter().zip(&vectors).any(|(&p, &(a, b))| p != a * b) {
                    flagged.insert(FaultSite {
                        layer,
                        neuron,
                        unit: UnitKind::Multiplier,
                        synapse: Some(s),
                    });
                }
            }
            if let Some(hw) = nf.adder_mut(s) {
                probed += 1;
                let got: Vec<Fx> = vectors.iter().map(|&(a, b)| hw.add(a, b)).collect();
                if got.iter().zip(&vectors).any(|(&s, &(a, b))| s != a + b) {
                    flagged.insert(FaultSite {
                        layer,
                        neuron,
                        unit: UnitKind::Adder,
                        synapse: Some(s),
                    });
                }
            }
        }
        probed += 1;
        let got: Vec<Fx> = vectors
            .iter()
            .map(|&(x, _)| nf.activation(x, &lut))
            .collect();
        if got
            .iter()
            .zip(&vectors)
            .any(|(&y, &(x, _))| y != lut.eval(x))
        {
            flagged.insert(FaultSite {
                layer,
                neuron,
                unit: UnitKind::Activation,
                synapse: None,
            });
        }
    }
    (flagged.into_iter().collect(), probed)
}

/// Fraction of distinct ground-truth sites present in `flagged`; `None`
/// when the truth is empty (nothing to detect).
pub fn detection_rate(truth: &[FaultSite], flagged: &[FaultSite]) -> Option<f64> {
    let truth: BTreeSet<FaultSite> = truth.iter().copied().collect();
    if truth.is_empty() {
        return None;
    }
    let flagged: BTreeSet<FaultSite> = flagged.iter().copied().collect();
    Some(truth.intersection(&flagged).count() as f64 / truth.len() as f64)
}

/// Fraction of flagged sites that are genuine ground-truth sites;
/// `None` when nothing was flagged (no accusation to be wrong about).
pub fn localization_precision(truth: &[FaultSite], flagged: &[FaultSite]) -> Option<f64> {
    let flagged: BTreeSet<FaultSite> = flagged.iter().copied().collect();
    if flagged.is_empty() {
        return None;
    }
    let truth: BTreeSet<FaultSite> = truth.iter().copied().collect();
    Some(truth.intersection(&flagged).count() as f64 / flagged.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_ann::Topology;
    use dta_circuits::FaultModel;

    #[test]
    fn clean_array_passes_selftest() {
        let mut accel = Accelerator::new();
        let diag = run_selftest(&mut accel, &BistConfig::default()).unwrap();
        assert!(!diag.detected());
        assert!(diag.faulty_hidden_lanes().is_empty());
        assert_eq!(diag.operators_probed, 0, "no fault state, no probes");
    }

    #[test]
    fn selftest_restores_user_network() {
        let mut accel = Accelerator::new();
        let mlp = Mlp::new(Topology::new(4, 3, 2), 5);
        accel.map_network(mlp.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        accel
            .inject_defects(3, FaultModel::TransistorLevel, &mut rng)
            .unwrap();
        let _ = run_selftest(&mut accel, &BistConfig::default()).unwrap();
        assert_eq!(accel.network(), Some(&mlp), "user network restored");
    }

    #[test]
    fn flagged_sites_are_always_genuine() {
        // The structural no-false-positives property: across many
        // single- and multi-defect arrays, every flagged site must be a
        // ground-truth site (precision exactly 1.0 whenever anything is
        // flagged), and most visible defects must be caught.
        let cfg = BistConfig::default();
        let mut detected_any = 0usize;
        for seed in 0..30u64 {
            let mut accel = Accelerator::new();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = 1 + (seed as usize % 4);
            accel
                .inject_defects(n, FaultModel::TransistorLevel, &mut rng)
                .unwrap();
            let truth = accel.faults().sites().to_vec();
            let diag = run_selftest(&mut accel, &cfg).unwrap();
            if let Some(p) = localization_precision(&truth, &diag.flagged) {
                assert_eq!(p, 1.0, "seed {seed}: false accusation {:?}", diag.flagged);
            }
            // Screened lanes must also be genuinely faulty lanes.
            let truth_lanes: BTreeSet<(Layer, usize)> =
                truth.iter().map(|s| (s.layer, s.neuron)).collect();
            for lane in &diag.screened_lanes {
                assert!(truth_lanes.contains(lane), "seed {seed}: {lane:?}");
            }
            if diag.detected() {
                detected_any += 1;
            }
        }
        assert!(
            detected_any >= 15,
            "only {detected_any}/30 arrays detected anything"
        );
    }

    #[test]
    fn selftest_is_deterministic_and_state_clean() {
        let cfg = BistConfig::default();
        let build = || {
            let mut accel = Accelerator::new();
            let mut rng = ChaCha8Rng::seed_from_u64(77);
            accel
                .inject_defects(6, FaultModel::TransistorLevel, &mut rng)
                .unwrap();
            accel
        };
        let mut a = build();
        let mut b = build();
        let da = run_selftest(&mut a, &cfg).unwrap();
        let db = run_selftest(&mut b, &cfg).unwrap();
        assert_eq!(da, db);
        // Running the BIST must not perturb subsequent evaluation: a
        // fresh twin and the tested array produce identical rows.
        let mlp = Mlp::new(Topology::new(4, 3, 2), 5);
        a.map_network(mlp.clone()).unwrap();
        let mut fresh = build();
        fresh.map_network(mlp).unwrap();
        let row = [0.3, -0.1, 0.8, 0.5];
        assert_eq!(a.process_row(&row), fresh.process_row(&row));
    }

    #[test]
    fn march_stage_localizes_memory_defects() {
        let mut accel = Accelerator::new();
        // No weight store attached: no memory report at all.
        let diag = run_selftest(&mut accel, &BistConfig::default()).unwrap();
        assert_eq!(diag.memory, None);

        accel.attach_weight_memory().unwrap();
        let diag = run_selftest(&mut accel, &BistConfig::default()).unwrap();
        assert!(diag.memory.as_ref().unwrap().clean());
        assert!(!diag.detected());

        // Plant a wordline failure and a lone stuck cell; the march
        // localizes each at its own granularity.
        let mem = accel.memory_mut().unwrap();
        mem.push_defect(dta_mem::MemDefect::RowStuck { row: 3 }, None);
        mem.push_defect(
            dta_mem::MemDefect::StuckCell {
                row: 7,
                col: 11,
                value: true,
            },
            None,
        );
        let diag = run_selftest(&mut accel, &BistConfig::default()).unwrap();
        assert!(diag.detected());
        let report = diag.memory.as_ref().unwrap();
        assert_eq!(report.bad_rows, vec![3]);
        assert_eq!(report.bad_cells, vec![(7, 11)]);
        assert!(report.bad_cols.is_empty());
    }

    #[test]
    fn incremental_probe_screens_routed_lanes_and_respects_masks() {
        use crate::accel::Accel;
        use std::sync::atomic::AtomicBool;
        let clear = AtomicBool::new(false);
        let cfg = BistConfig::default();
        // Find a seed whose single defect the probe screens on the
        // mapped network's own routing.
        let mut hit = None;
        for seed in 0..40u64 {
            let mut accel = Accelerator::new();
            accel
                .map_network(Mlp::new(Topology::new(4, 8, 3), 11))
                .unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            accel
                .inject_defects(1, FaultModel::TransistorLevel, &mut rng)
                .unwrap();
            let diag = accel.probe_touched(&cfg, &clear).unwrap().unwrap();
            let lanes = diag.faulty_hidden_lanes();
            // Only lanes the mapped network routes through (0..8) can
            // be screened, and every screened lane is genuinely faulty.
            let truth: Vec<usize> = accel
                .faults()
                .sites()
                .iter()
                .filter(|s| s.layer == Layer::Hidden)
                .map(|s| s.neuron)
                .collect();
            for &lane in &lanes {
                assert!(truth.contains(&lane), "seed {seed}: lane {lane}");
            }
            if !lanes.is_empty() && lanes[0] < 8 {
                hit = Some((accel, lanes[0], seed));
                break;
            }
        }
        let (mut accel, lane, seed) = hit.expect("some defect visible to the probe");
        // Quarantining the flagged lane silences it: the next probe
        // skips the masked lane and reports clean.
        let evidence = accel.probe_touched(&cfg, &clear).unwrap().unwrap();
        let silenced = accel.quarantine(&evidence).unwrap();
        assert!(silenced >= 1, "seed {seed}");
        let diag = accel.probe_touched(&cfg, &clear).unwrap().unwrap();
        assert!(
            !diag.faulty_hidden_lanes().contains(&lane),
            "seed {seed}: masked lane {lane} re-flagged"
        );
        // A tripped abort flag stops the probe with None.
        let tripped = AtomicBool::new(true);
        assert_eq!(accel.probe_touched(&cfg, &tripped).unwrap(), None);
    }

    #[test]
    fn incremental_probe_is_state_clean_and_walks_the_memory() {
        use crate::accel::Accel;
        use std::sync::atomic::AtomicBool;
        let clear = AtomicBool::new(false);
        let cfg = BistConfig::default();
        let mut accel = Accelerator::new();
        accel
            .map_network(Mlp::new(Topology::new(4, 6, 3), 7))
            .unwrap();
        accel.attach_weight_memory().unwrap();
        accel
            .memory_mut()
            .unwrap()
            .push_defect(dta_mem::MemDefect::RowStuck { row: 2 }, None);
        let diag = accel.probe_touched(&cfg, &clear).unwrap().unwrap();
        assert_eq!(diag.memory.as_ref().unwrap().bad_rows, vec![2]);
        assert!(diag.detected());
        // State-clean: a probed array and a fresh twin serve identical
        // rows afterwards.
        let mut fresh = Accelerator::new();
        fresh
            .map_network(Mlp::new(Topology::new(4, 6, 3), 7))
            .unwrap();
        fresh.attach_weight_memory().unwrap();
        fresh
            .memory_mut()
            .unwrap()
            .push_defect(dta_mem::MemDefect::RowStuck { row: 2 }, None);
        let row = [0.4, -0.2, 0.9, 0.1];
        assert_eq!(accel.process_row(&row), fresh.process_row(&row));
    }

    #[test]
    fn scoring_helpers() {
        let site = |n: usize| FaultSite {
            layer: Layer::Hidden,
            neuron: n,
            unit: UnitKind::Adder,
            synapse: Some(0),
        };
        assert_eq!(detection_rate(&[], &[]), None);
        assert_eq!(localization_precision(&[site(1)], &[]), None);
        assert_eq!(detection_rate(&[site(1), site(2)], &[site(1)]), Some(0.5));
        // Duplicate truth sites (two defects on one operator) count once.
        assert_eq!(detection_rate(&[site(1), site(1)], &[site(1)]), Some(1.0));
        assert_eq!(
            localization_precision(&[site(1)], &[site(1), site(3)]),
            Some(0.5)
        );
    }
}
