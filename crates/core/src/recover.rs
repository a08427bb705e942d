//! The online recovery ladder: what to do once a self-test
//! ([`crate::selftest`]) has localized defects in the array.
//!
//! Policy rungs, tried in order, each under an epoch budget and a
//! wall-clock watchdog:
//!
//! 1. **Retrain-around-defect** — the paper's Figure 10 mechanism: the
//!    companion core retrains the mapped network *through* the faulty
//!    silicon, letting gradient descent silence defective elements.
//! 2. **ECC scrub** (memory-native, when a weight store backs the
//!    latches) — a full scrub pass over the live words: counts the
//!    single-bit errors the SEC-DED code absorbs transparently and
//!    pins down the words it cannot protect.
//! 3. **Spare steer** (memory-native) — the March C- localization from
//!    the diagnosis (or a fresh march) drives row/column steering onto
//!    the array's spares, retiring wordline/bitline-class damage in
//!    hardware.
//! 4. **Sensitivity-aware placement** (memory-native) — the logical
//!    hidden neurons that matter most to the outputs are re-placed on
//!    the least-damaged surviving memory rows, then a retrain under
//!    its own budget adapts the network to the new placement.
//! 5. **Remap/mask** — faulty hidden lanes named by the diagnosis are
//!    remapped onto spare healthy lanes (physical lanes beyond the
//!    logical width); lanes left over when spares run out are masked
//!    to 0 (fail-silent). A retrain under its own budget follows, so
//!    the network adapts to the new routing.
//! 6. **Graceful degradation** — no further repair is attempted; the
//!    expected residual accuracy is *estimated* from the output-
//!    visibility of the flagged operators (no labeled data needed), so
//!    the accelerator reports how wrong it expects to be instead of
//!    serving silently-wrong results.
//!
//! Each rung's wall-clock deadline is enforced by a watchdog thread
//! (the same scoped-thread machinery as [`crate::parallel`]) that trips
//! an atomic flag; the training loop checks it between epochs, so a
//! deadline overrun yields a typed [`RecoveryError::Timeout`] and the
//! ladder falls through to the next rung instead of hanging.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_ann::{FaultSite, Layer, UnitKind};
use dta_circuits::visibility::{adder_visibility, multiplier_visibility, sigmoid_visibility};
use dta_datasets::Dataset;
use dta_fixed::Fx;
use dta_mem::{march_cminus, MarchReport};

use crate::accel::Accel;
use crate::accelerator::{AccelError, Accelerator};
use crate::selftest::Diagnosis;

/// One rung of the recovery ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryRung {
    /// Retrain the mapped network through the faulty silicon.
    Retrain,
    /// Scrub the weight store through its SEC-DED code, counting what
    /// the code absorbs and localizing what it cannot.
    EccScrub,
    /// Steer march-diagnosed bad rows/columns of the weight store onto
    /// its spare rows/columns.
    SpareSteer,
    /// Re-place the most output-sensitive logical neurons on the
    /// least-damaged memory rows, then retrain.
    Place,
    /// Remap faulty hidden lanes onto spares (mask when none), then
    /// retrain.
    Remap,
    /// Bypass flagged systolic PEs (fail-silent pass-through of the
    /// incoming partial sum), then retrain around the holes.
    PeBypass,
    /// Re-point systolic schedule rows through flagged PEs at healthy
    /// spare physical rows, then retrain.
    GridRemap,
    /// Stop repairing; estimate and report the expected accuracy loss.
    Degrade,
}

impl fmt::Display for RecoveryRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryRung::Retrain => write!(f, "retrain"),
            RecoveryRung::EccScrub => write!(f, "ecc-scrub"),
            RecoveryRung::SpareSteer => write!(f, "spare-steer"),
            RecoveryRung::Place => write!(f, "place"),
            RecoveryRung::Remap => write!(f, "remap"),
            RecoveryRung::PeBypass => write!(f, "pe-bypass"),
            RecoveryRung::GridRemap => write!(f, "grid-remap"),
            RecoveryRung::Degrade => write!(f, "degrade"),
        }
    }
}

/// Deadline/budget for one recovery rung.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RungBudget {
    /// Maximum retraining epochs before the rung gives up.
    pub max_epochs: usize,
    /// Wall-clock watchdog deadline for the whole rung, in
    /// milliseconds.
    pub wall_clock_ms: u64,
}

/// Typed outcomes of a recovery step that did not reach its target.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoveryError {
    /// The rung's wall-clock watchdog expired before the epoch budget
    /// was spent.
    Timeout {
        /// Which rung timed out.
        rung: RecoveryRung,
        /// The deadline that was exceeded.
        budget_ms: u64,
        /// Epochs completed before the deadline hit.
        epochs_done: usize,
    },
    /// The rung spent its full epoch budget without reaching the
    /// accuracy target.
    AccuracyShortfall {
        /// Which rung fell short.
        rung: RecoveryRung,
        /// Best accuracy the rung measured (`None` if it never
        /// completed an epoch).
        achieved: Option<f64>,
        /// The target it was asked to reach.
        target: f64,
    },
    /// A structural rung was applied to a topology that does not
    /// implement it (setup error; aborts the ladder).
    UnsupportedRung {
        /// The rung the topology rejected.
        rung: RecoveryRung,
    },
    /// An accelerator operation failed (setup error; aborts the
    /// ladder).
    Accel(AccelError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Timeout {
                rung,
                budget_ms,
                epochs_done,
            } => write!(
                f,
                "{rung} rung exceeded its {budget_ms} ms deadline after {epochs_done} epoch(s)"
            ),
            RecoveryError::AccuracyShortfall {
                rung,
                achieved,
                target,
            } => match achieved {
                Some(a) => write!(f, "{rung} rung reached {a:.3}, target {target:.3}"),
                None => write!(f, "{rung} rung finished no epoch, target {target:.3}"),
            },
            RecoveryError::UnsupportedRung { rung } => {
                write!(f, "{rung} rung is not implemented by this topology")
            }
            RecoveryError::Accel(e) => write!(f, "accelerator error: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<AccelError> for RecoveryError {
    fn from(e: AccelError) -> RecoveryError {
        RecoveryError::Accel(e)
    }
}

/// Configuration of the whole ladder.
#[derive(Clone, Debug)]
pub struct RecoveryPolicy {
    /// Budget for the retrain-around-defect rung.
    pub retrain: RungBudget,
    /// Budget for the post-remap retrain.
    pub remap: RungBudget,
    /// Accuracy at which a rung declares success and stops the ladder.
    pub target_accuracy: f64,
    /// Companion-core learning rate.
    pub learning_rate: f64,
    /// Companion-core momentum.
    pub momentum: f64,
    /// Seed for the per-rung training streams (deterministic ladder).
    pub seed: u64,
    /// Whether the topology's structural rungs
    /// ([`Accel::structural_rungs`]) run at all. `false` is the
    /// blind-retrain baseline the paper's mechanism is compared
    /// against: retrain-around-defect, then graceful degradation.
    pub structural: bool,
    /// Test hook: stall the named rung's epoch loop by this many
    /// milliseconds per epoch, to exercise the watchdog path.
    pub chaos_stall: Option<(RecoveryRung, u64)>,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            retrain: RungBudget {
                max_epochs: 24,
                wall_clock_ms: 60_000,
            },
            remap: RungBudget {
                max_epochs: 24,
                wall_clock_ms: 60_000,
            },
            target_accuracy: 0.9,
            learning_rate: 0.2,
            momentum: 0.1,
            seed: 0x5EC0,
            structural: true,
            chaos_stall: None,
        }
    }
}

/// What a memory-native rung did to the weight store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemRungStats {
    /// Words the ECC scrub visited.
    pub words_scrubbed: usize,
    /// Words where the scrub's SEC-DED pass fixed a single-bit error.
    pub corrected: usize,
    /// Words the code could not protect (double or worse).
    pub uncorrectable: usize,
    /// Memory rows steered onto spares.
    pub rows_steered: usize,
    /// Memory columns steered onto spares.
    pub cols_steered: usize,
    /// March-diagnosed units left unrepaired (spares exhausted).
    pub unrepaired: usize,
    /// Logical hidden neurons moved by sensitivity-aware placement.
    pub moved: usize,
}

/// What one rung did.
#[derive(Clone, Debug, PartialEq)]
pub struct RungReport {
    /// Which rung.
    pub rung: RecoveryRung,
    /// Best test accuracy the rung measured, if it completed an epoch.
    pub accuracy: Option<f64>,
    /// Epochs it ran.
    pub epochs_used: usize,
    /// Why it stopped short of the target, if it did.
    pub error: Option<RecoveryError>,
    /// Logical lanes remapped onto spares (remap rung only).
    pub remapped: usize,
    /// Physical lanes masked to 0 (remap rung only).
    pub masked: usize,
    /// Weight-store statistics (memory-native rungs only).
    pub memory: Option<MemRungStats>,
}

/// The graceful-degradation estimate: expected residual accuracy from
/// the output-visibility of the still-active flagged operators, with no
/// labeled data.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradationEstimate {
    /// Predicted serving accuracy (floored at chance level).
    pub expected_accuracy: f64,
    /// Flagged sites still active after any remap/mask repairs.
    pub active_sites: usize,
    /// Of those, sites whose damage is visible at the operator output.
    pub visible_sites: usize,
    /// Mean visible fraction across the active sites (0 when none).
    pub mean_visible_fraction: f64,
}

/// The ladder's overall outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryReport {
    /// Per-rung reports, in execution order.
    pub rungs: Vec<RungReport>,
    /// Test accuracy before any rung ran.
    pub pre_recovery_accuracy: f64,
    /// Best measured accuracy across the pre-recovery state and every
    /// rung — what the accelerator actually serves with.
    pub accuracy: f64,
    /// True if some rung reached the accuracy target.
    pub succeeded: bool,
    /// Present when the ladder fell through to graceful degradation.
    pub degradation: Option<DegradationEstimate>,
}

impl RecoveryReport {
    /// The last rung that ran.
    pub fn final_rung(&self) -> Option<RecoveryRung> {
        self.rungs.last().map(|r| r.rung)
    }
}

/// Runs `body` with a watchdog that trips `expired` once `budget`
/// elapses; the watchdog thread exits as soon as `body` returns.
pub(crate) fn with_watchdog<T>(budget: Duration, body: impl FnOnce(&AtomicBool) -> T) -> T {
    let expired = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let deadline = Instant::now() + budget;
            while !done.load(Ordering::Acquire) {
                if Instant::now() >= deadline {
                    expired.store(true, Ordering::Release);
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let out = body(&expired);
        done.store(true, Ordering::Release);
        out
    })
}

/// Epoch-at-a-time retraining under a budget: early-outs on the target,
/// returns a typed [`RecoveryError::Timeout`] report when the watchdog
/// trips first, an [`RecoveryError::AccuracyShortfall`] report when the
/// epoch budget runs dry below target.
fn retrain_under_budget<A: Accel>(
    accel: &mut A,
    ds: &Dataset,
    train_idx: &[usize],
    test_idx: &[usize],
    policy: &RecoveryPolicy,
    budget: &RungBudget,
    rung: RecoveryRung,
) -> Result<RungReport, AccelError> {
    let salt = match rung {
        RecoveryRung::Retrain => 0x517A,
        RecoveryRung::EccScrub => 0xECC5,
        RecoveryRung::SpareSteer => 0x57EE,
        RecoveryRung::Place => 0x97AC,
        RecoveryRung::Remap => 0x9E3A,
        RecoveryRung::PeBypass => 0xB97A,
        RecoveryRung::GridRemap => 0x6E1D,
        RecoveryRung::Degrade => 0xDE64,
    };
    let stall = match policy.chaos_stall {
        Some((r, ms)) if r == rung => ms,
        _ => 0,
    };
    with_watchdog(Duration::from_millis(budget.wall_clock_ms), |expired| {
        let mut rng = ChaCha8Rng::seed_from_u64(policy.seed ^ salt);
        let mut best: Option<f64> = None;
        let mut epochs_used = 0usize;
        for _ in 0..budget.max_epochs {
            if stall > 0 {
                std::thread::sleep(Duration::from_millis(stall));
            }
            if expired.load(Ordering::Acquire) {
                return Ok(RungReport {
                    rung,
                    accuracy: best,
                    epochs_used,
                    error: Some(RecoveryError::Timeout {
                        rung,
                        budget_ms: budget.wall_clock_ms,
                        epochs_done: epochs_used,
                    }),
                    remapped: 0,
                    masked: 0,
                    memory: None,
                });
            }
            accel.retrain(
                ds,
                train_idx,
                policy.learning_rate,
                policy.momentum,
                1,
                &mut rng,
            )?;
            epochs_used += 1;
            let acc = accel.evaluate(ds, test_idx)?;
            if best.is_none_or(|b| acc > b) {
                best = Some(acc);
            }
            if acc >= policy.target_accuracy {
                return Ok(RungReport {
                    rung,
                    accuracy: best,
                    epochs_used,
                    error: None,
                    remapped: 0,
                    masked: 0,
                    memory: None,
                });
            }
        }
        Ok(RungReport {
            rung,
            accuracy: best,
            epochs_used,
            error: Some(RecoveryError::AccuracyShortfall {
                rung,
                achieved: best,
                target: policy.target_accuracy,
            }),
            remapped: 0,
            masked: 0,
            memory: None,
        })
    })
}

/// Re-measures accuracy after a weight-transparent repair (ECC scrub,
/// spare steering) under the rung watchdog, so a stalled memory
/// operation (the `chaos_stall` hook, or real pathological silicon)
/// surfaces as a typed [`RecoveryError::Timeout`] with the repair's
/// partial stats attached instead of an unbounded hang.
fn measure_under_watchdog<A: Accel>(
    accel: &mut A,
    ds: &Dataset,
    test_idx: &[usize],
    policy: &RecoveryPolicy,
    budget: &RungBudget,
    rung: RecoveryRung,
    outcome: &crate::accel::StructuralOutcome,
) -> Result<RungReport, AccelError> {
    let stall = match policy.chaos_stall {
        Some((r, ms)) if r == rung => ms,
        _ => 0,
    };
    with_watchdog(Duration::from_millis(budget.wall_clock_ms), |expired| {
        if stall > 0 {
            std::thread::sleep(Duration::from_millis(stall));
        }
        if expired.load(Ordering::Acquire) {
            return Ok(RungReport {
                rung,
                accuracy: None,
                epochs_used: 0,
                error: Some(RecoveryError::Timeout {
                    rung,
                    budget_ms: budget.wall_clock_ms,
                    epochs_done: 0,
                }),
                remapped: outcome.remapped,
                masked: outcome.masked,
                memory: outcome.memory.clone(),
            });
        }
        let acc = accel.evaluate(ds, test_idx)?;
        let reached = acc >= policy.target_accuracy;
        Ok(RungReport {
            rung,
            accuracy: Some(acc),
            epochs_used: 0,
            error: (!reached).then_some(RecoveryError::AccuracyShortfall {
                rung,
                achieved: Some(acc),
                target: policy.target_accuracy,
            }),
            remapped: outcome.remapped,
            masked: outcome.masked,
            memory: outcome.memory.clone(),
        })
    })
}

/// Installs the remap/mask repairs for the diagnosed faulty hidden
/// lanes: spares first, then masks for the lanes left over. Returns
/// `(remapped, masked)`.
pub(crate) fn install_remaps(
    accel: &mut Accelerator,
    diagnosis: &Diagnosis,
) -> Result<(usize, usize), RecoveryError> {
    let logical = accel
        .network()
        .ok_or(RecoveryError::Accel(AccelError::NoNetwork))?
        .topology();
    let phys = accel.geometry();
    let faulty = diagnosis.faulty_hidden_lanes();
    // Lanes the logical network currently routes through and that the
    // diagnosis implicated.
    let need: Vec<usize> = (0..logical.hidden)
        .filter(|&j| faulty.contains(&accel.faults().hidden_lane(j)))
        .collect();
    // Spares: physical lanes beyond the logical width, healthy and not
    // already the target of a remap.
    let spares: Vec<usize> = (logical.hidden..phys.hidden)
        .filter(|lane| !faulty.contains(lane))
        .filter(|&lane| (0..logical.hidden).all(|j| accel.faults().hidden_lane(j) != lane))
        .collect();
    let mut remapped = 0usize;
    let mut masked = 0usize;
    for (i, &j) in need.iter().enumerate() {
        if let Some(&spare) = spares.get(i) {
            accel.remap_hidden(j, spare)?;
            remapped += 1;
        } else {
            accel.mask_hidden(accel.faults().hidden_lane(j))?;
            masked += 1;
        }
    }
    Ok((remapped, masked))
}

/// Residual damage score of one hidden-bank memory row: a whole-row
/// failure dominates any count of residual bad cells.
fn row_badness(march: &MarchReport, row: usize) -> usize {
    let cells = march.bad_cells.iter().filter(|&&(r, _)| r == row).count();
    if march.bad_rows.contains(&row) {
        cells + 1_000_000
    } else {
        cells
    }
}

/// Sensitivity-aware placement: permutes the logical hidden neurons
/// across the physical lanes they currently occupy so that the neurons
/// the output layer leans on hardest (largest summed |output weight|)
/// land on the least-damaged memory rows. Returns how many logical
/// neurons moved.
pub(crate) fn place_by_sensitivity(accel: &mut Accelerator) -> Result<usize, RecoveryError> {
    let net = accel
        .network()
        .ok_or(RecoveryError::Accel(AccelError::NoNetwork))?;
    let topo = net.topology();
    // Output-sensitivity of each logical hidden neuron.
    let mut by_sensitivity: Vec<(usize, f64)> = (0..topo.hidden)
        .map(|j| {
            let s: f64 = (0..topo.outputs).map(|k| net.w_output(k, j).abs()).sum();
            (j, s)
        })
        .collect();
    by_sensitivity.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    // Residual row damage after any steering, from a fresh march (the
    // march rewinds the store's activation streams when it finishes).
    let march = march_cminus(accel.memory_mut().ok_or(AccelError::NoMemory)?);
    // The lanes currently in use, healthiest memory row first. A hidden
    // lane's weights live on the hidden-bank row of the same index.
    let mut lanes: Vec<(usize, usize)> = (0..topo.hidden)
        .map(|j| {
            let lane = accel.faults().hidden_lane(j);
            (lane, row_badness(&march, lane))
        })
        .collect();
    lanes.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));

    // Most sensitive neuron → healthiest row. Both sides draw from the
    // same lane set, so the assignment stays a bijection.
    let mut moved = 0usize;
    for (&(j, _), &(lane, _)) in by_sensitivity.iter().zip(&lanes) {
        if accel.faults().hidden_lane(j) != lane {
            moved += 1;
        }
        accel.faults_mut().remap_hidden(j, lane);
    }
    Ok(moved)
}

/// Estimates residual accuracy without labeled data: each flagged,
/// still-active operator contributes an expected loss proportional to
/// its measured output visibility, scaled by how much of the neuron's
/// accumulation it touches. A deliberately simple, monotone heuristic —
/// the point is an honest "how wrong to expect", not a tight bound.
pub(crate) fn estimate_degradation(
    accel: &mut Accelerator,
    diagnosis: &Diagnosis,
    baseline_accuracy: f64,
) -> DegradationEstimate {
    let logical = accel.network().map(|m| m.topology());
    let phys = accel.geometry();
    // Physical hidden lanes the logical network actually routes through.
    let active_hidden: Vec<usize> = match logical {
        Some(l) => (0..l.hidden)
            .map(|j| accel.faults().hidden_lane(j))
            .collect(),
        None => (0..phys.hidden).collect(),
    };
    let outputs = logical.map_or(phys.outputs, |l| l.outputs);
    let chance = 1.0 / outputs.max(1) as f64;
    let hw_inputs = accel.faults().hw_inputs() as f64;

    let mut active_sites = 0usize;
    let mut visible_sites = 0usize;
    let mut vf_sum = 0.0f64;
    let mut loss = 0.0f64;
    let samples = 256;
    for (i, site) in diagnosis.flagged.iter().enumerate() {
        let lane_active = match site.layer {
            Layer::Hidden => {
                active_hidden.contains(&site.neuron)
                    && !accel.faults().is_masked(Layer::Hidden, site.neuron)
            }
            Layer::Output => {
                site.neuron < outputs && !accel.faults().is_masked(Layer::Output, site.neuron)
            }
        };
        if !lane_active {
            continue;
        }
        active_sites += 1;
        let seed = 0xD156_0000 ^ i as u64;
        let vf = site_visibility(accel, site, samples, seed);
        if vf > 0.0 {
            visible_sites += 1;
        }
        vf_sum += vf;
        // Per-synapse operators corrupt one of `hw_inputs` accumulation
        // terms; adders and activation units sit on the whole sum.
        let sensitivity = match site.unit {
            UnitKind::Adder | UnitKind::Activation => 0.25,
            UnitKind::Multiplier | UnitKind::Latch | UnitKind::Pe => 0.25 / hw_inputs.sqrt(),
        };
        loss += vf * sensitivity;
    }
    let expected = (baseline_accuracy - loss).clamp(chance, baseline_accuracy.max(chance));
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

/// Visible fraction of one flagged operator's output, via the
/// `dta-circuits` visibility model (latches measured inline: fraction
/// of random weight words the stuck bits alter).
fn site_visibility(accel: &mut Accelerator, site: &FaultSite, samples: usize, seed: u64) -> f64 {
    let plan = accel.faults_mut();
    let Some(nf) = plan.neuron_mut(site.layer, site.neuron) else {
        return 0.0;
    };
    match (site.unit, site.synapse) {
        (UnitKind::Multiplier, Some(s)) => nf.multiplier_mut(s).map_or(0.0, |hw| {
            multiplier_visibility(hw, samples, seed).visible_fraction
        }),
        (UnitKind::Adder, Some(s)) => nf.adder_mut(s).map_or(0.0, |hw| {
            adder_visibility(hw, samples, seed).visible_fraction
        }),
        (UnitKind::Activation, _) => nf.sigmoid_mut().map_or(0.0, |hw| {
            sigmoid_visibility(hw, samples, seed).visible_fraction
        }),
        (UnitKind::Latch, Some(s)) => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut visible = 0usize;
            for _ in 0..samples {
                let w = Fx::from_raw(rand::Rng::random::<i16>(&mut rng));
                if nf.latch_filter(s, w) != w {
                    visible += 1;
                }
            }
            visible as f64 / samples.max(1) as f64
        }
        _ => 0.0,
    }
}

/// Runs the recovery ladder on a diagnosed accelerator.
///
/// Rungs execute in order: the universal retrain-around-defect rung
/// first, then the topology's own structural rungs
/// ([`Accel::structural_rungs`]: ecc-scrub → spare-steer → place →
/// remap on the spatial array, pe-bypass → grid-remap on the systolic
/// grid; skipped when `policy.structural` is off), then graceful
/// degradation; a rung that reaches
/// `policy.target_accuracy` stops the ladder. The report's
/// `accuracy` is the best *measured* accuracy across the pre-recovery
/// state and every rung — recovery never serves a worse network than it
/// started with.
///
/// # Errors
///
/// [`RecoveryError::Accel`] on accelerator setup errors (no network
/// mapped, mismatched dataset). Rung-level failures (timeout,
/// shortfall) are recorded in the per-rung reports and
/// do *not* abort the ladder — that is the fall-through the ladder
/// exists for.
pub fn recover<A: Accel>(
    accel: &mut A,
    ds: &Dataset,
    train_idx: &[usize],
    test_idx: &[usize],
    diagnosis: &Diagnosis,
    policy: &RecoveryPolicy,
) -> Result<RecoveryReport, RecoveryError> {
    let pre = accel.evaluate(ds, test_idx)?;
    let mut rungs: Vec<RungReport> = Vec::new();
    let mut best = pre;
    let mut succeeded = false;

    // Rung 1: retrain around the defects.
    let r1 = retrain_under_budget(
        accel,
        ds,
        train_idx,
        test_idx,
        policy,
        &policy.retrain,
        RecoveryRung::Retrain,
    )?;
    if let Some(a) = r1.accuracy {
        best = best.max(a);
    }
    succeeded |= r1.error.is_none();
    let mut stop = r1.error.is_none();
    rungs.push(r1);

    // Topology-specific structural rungs, in the topology's order.
    let structural = if policy.structural {
        accel.structural_rungs(policy)
    } else {
        Vec::new()
    };
    for rung in structural {
        if stop {
            break;
        }
        let outcome = accel.apply_structural_rung(rung, diagnosis, policy)?;
        let rp = if outcome.retrain_after {
            // Routing changed: retrain to the new configuration under
            // the remap budget.
            let mut r =
                retrain_under_budget(accel, ds, train_idx, test_idx, policy, &policy.remap, rung)?;
            r.remapped = outcome.remapped;
            r.masked = outcome.masked;
            r.memory = outcome.memory;
            r
        } else {
            // Weight-transparent repair: re-measure under the rung
            // watchdog (a stalled store must fall through, not hang).
            measure_under_watchdog(accel, ds, test_idx, policy, &policy.remap, rung, &outcome)?
        };
        if let Some(a) = rp.accuracy {
            best = best.max(a);
        }
        succeeded |= rp.error.is_none();
        stop |= rp.error.is_none();
        rungs.push(rp);
    }

    // Final rung: graceful degradation — always "succeeds" at reporting.
    let degradation = if succeeded {
        None
    } else {
        let est = accel.degradation(diagnosis, best);
        rungs.push(RungReport {
            rung: RecoveryRung::Degrade,
            accuracy: None,
            epochs_used: 0,
            error: None,
            remapped: 0,
            masked: 0,
            memory: None,
        });
        Some(est)
    };

    Ok(RecoveryReport {
        rungs,
        pre_recovery_accuracy: pre,
        accuracy: best,
        succeeded,
        degradation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selftest::{run_selftest, BistConfig};
    use dta_ann::{Mlp, Topology};
    use dta_circuits::FaultModel;
    use dta_datasets::suite;

    fn iris_split() -> (Dataset, Vec<usize>, Vec<usize>) {
        let ds = suite::load("iris").unwrap();
        let train: Vec<usize> = (0..ds.len()).filter(|i| i % 3 != 0).collect();
        let test: Vec<usize> = (0..ds.len()).step_by(3).collect();
        (ds, train, test)
    }

    fn commissioned_accel(
        seed: u64,
        defects: usize,
    ) -> (Accelerator, Dataset, Vec<usize>, Vec<usize>) {
        let (ds, train, test) = iris_split();
        let mut accel = Accelerator::new();
        accel
            .map_network(Mlp::new(Topology::new(4, 6, 3), seed))
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        accel.retrain(&ds, &train, 0.2, 0.1, 30, &mut rng).unwrap();
        accel
            .inject_defects(defects, FaultModel::TransistorLevel, &mut rng)
            .unwrap();
        (accel, ds, train, test)
    }

    #[test]
    fn retrain_rung_recovers_a_damaged_network() {
        let (mut accel, ds, train, test) = commissioned_accel(3, 4);
        let diagnosis = run_selftest(&mut accel, &BistConfig::default()).unwrap();
        let policy = RecoveryPolicy {
            target_accuracy: 0.85,
            ..RecoveryPolicy::default()
        };
        let report = recover(&mut accel, &ds, &train, &test, &diagnosis, &policy).unwrap();
        assert!(report.accuracy >= report.pre_recovery_accuracy);
        assert!(!report.rungs.is_empty());
        assert_eq!(report.rungs[0].rung, RecoveryRung::Retrain);
    }

    #[test]
    fn timeout_is_typed_and_falls_through() {
        // Chaos hook: stall the retrain rung past its deadline. The
        // rung must return a typed Timeout and the ladder must continue
        // to the next rung instead of hanging or aborting.
        let (mut accel, ds, train, test) = commissioned_accel(5, 6);
        let diagnosis = run_selftest(&mut accel, &BistConfig::default()).unwrap();
        let policy = RecoveryPolicy {
            retrain: RungBudget {
                max_epochs: 5,
                wall_clock_ms: 30,
            },
            target_accuracy: 2.0, // unreachable: forces the full ladder
            chaos_stall: Some((RecoveryRung::Retrain, 100)),
            ..RecoveryPolicy::default()
        };
        let report = recover(&mut accel, &ds, &train, &test, &diagnosis, &policy).unwrap();
        let r1 = &report.rungs[0];
        assert_eq!(r1.rung, RecoveryRung::Retrain);
        assert!(
            matches!(
                r1.error,
                Some(RecoveryError::Timeout {
                    rung: RecoveryRung::Retrain,
                    budget_ms: 30,
                    ..
                })
            ),
            "expected a typed timeout, got {:?}",
            r1.error
        );
        // Fall-through: the remap rung ran (unstalled) and then the
        // unreachable target forced graceful degradation.
        assert!(report.rungs.len() >= 2, "ladder stopped at the timeout");
        assert_eq!(report.rungs[1].rung, RecoveryRung::Remap);
        assert!(
            report.rungs[1].epochs_used > 0,
            "next rung did real work after the timeout"
        );
        assert_eq!(report.final_rung(), Some(RecoveryRung::Degrade));
        assert!(!report.succeeded);
        let est = report.degradation.expect("degradation estimate present");
        assert!(est.expected_accuracy >= 1.0 / 3.0 - 1e-12);
        assert!(est.expected_accuracy <= 1.0);
    }

    #[test]
    fn every_spatial_rung_times_out_typed_and_falls_through() {
        // Satellite: drive the chaos stall through each rung of the
        // spatial ladder in turn. Whatever rung stalls, the ladder must
        // record a typed Timeout on it — keeping any partial repair
        // stats the rung accrued before the watchdog hit — and keep
        // climbing to graceful degradation instead of hanging.
        let tight = RungBudget {
            max_epochs: 3,
            wall_clock_ms: 30,
        };
        let table = [
            RecoveryRung::Retrain,
            RecoveryRung::EccScrub,
            RecoveryRung::SpareSteer,
            RecoveryRung::Place,
            RecoveryRung::Remap,
        ];
        for &stalled in &table {
            let (mut accel, ds, train, test) = commissioned_accel(9, 4);
            accel.attach_weight_memory().unwrap();
            accel
                .memory_mut()
                .unwrap()
                .push_defect(dta_mem::MemDefect::RowStuck { row: 2 }, None);
            let diagnosis = run_selftest(&mut accel, &BistConfig::default()).unwrap();
            let policy = RecoveryPolicy {
                retrain: tight,
                remap: tight,
                target_accuracy: 2.0, // unreachable: forces the full ladder
                chaos_stall: Some((stalled, 80)),
                ..RecoveryPolicy::default()
            };
            let report = recover(&mut accel, &ds, &train, &test, &diagnosis, &policy).unwrap();
            let pos = report
                .rungs
                .iter()
                .position(|r| r.rung == stalled)
                .unwrap_or_else(|| panic!("{stalled} never ran"));
            let hit = &report.rungs[pos];
            assert!(
                matches!(hit.error, Some(RecoveryError::Timeout { .. })),
                "{stalled}: expected a typed timeout, got {:?}",
                hit.error
            );
            if stalled == RecoveryRung::SpareSteer {
                // The repair itself landed before the watchdog hit: the
                // timed-out report still carries the steering stats.
                let stats = hit.memory.as_ref().expect("steer stats on the timeout");
                assert!(stats.rows_steered > 0, "{stalled}: {stats:?}");
            }
            assert!(
                report.rungs.len() > pos + 1,
                "{stalled}: ladder stopped at the timeout"
            );
            assert_eq!(report.final_rung(), Some(RecoveryRung::Degrade));
            assert!(!report.succeeded);
        }
    }

    #[test]
    fn timed_out_mask_fallback_keeps_partial_remap_stats() {
        // The "mask" flavor of the remap rung: 6 faulty in-use lanes on
        // a 10-lane array leaves 4 spares, so 4 remaps + 2 masks land
        // before the post-remap retrain stalls out. The typed Timeout
        // report must still carry those partial repair stats.
        let (mut accel, ds, train, test) = commissioned_accel(9, 0);
        let diagnosis = Diagnosis {
            screened_lanes: (0..6).map(|n| (Layer::Hidden, n)).collect(),
            ..Diagnosis::default()
        };
        let tight = RungBudget {
            max_epochs: 3,
            wall_clock_ms: 30,
        };
        let policy = RecoveryPolicy {
            retrain: tight,
            remap: tight,
            target_accuracy: 2.0,
            chaos_stall: Some((RecoveryRung::Remap, 80)),
            ..RecoveryPolicy::default()
        };
        let report = recover(&mut accel, &ds, &train, &test, &diagnosis, &policy).unwrap();
        let hit = report
            .rungs
            .iter()
            .find(|r| r.rung == RecoveryRung::Remap)
            .expect("remap rung ran");
        assert!(matches!(hit.error, Some(RecoveryError::Timeout { .. })));
        assert_eq!(hit.remapped, 4);
        assert_eq!(hit.masked, 2);
        assert_eq!(report.final_rung(), Some(RecoveryRung::Degrade));
    }

    #[test]
    fn memory_rungs_run_and_never_lose_to_blind_retraining() {
        // Twin arrays with the same memory damage: the full ladder
        // (ECC scrub, spare steer, placement) must never end below the
        // blind-retrain arm, because the rungs are strictly additive
        // over the same rung-1 trajectory.
        for seed in [2u64, 13] {
            let build = || {
                let (mut accel, ds, train, test) = commissioned_accel(seed, 0);
                accel.attach_weight_memory().unwrap();
                let mem = accel.memory_mut().unwrap();
                // A wordline failure on an in-use hidden row plus a
                // spread of stuck cells: enough to hurt, repairable.
                mem.push_defect(
                    dta_mem::MemDefect::RowStuck {
                        row: 1 + (seed as usize % 4),
                    },
                    None,
                );
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFEED);
                mem.inject_many(6, dta_mem::Activation::Permanent, &mut rng);
                (accel, ds, train, test)
            };
            let base = RecoveryPolicy {
                retrain: RungBudget {
                    max_epochs: 6,
                    wall_clock_ms: 60_000,
                },
                remap: RungBudget {
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
            // The blind arm skips every structural rung, memory rungs
            // included, even with a store attached.
            let blind_kinds: Vec<RecoveryRung> = blind.rungs.iter().map(|r| r.rung).collect();
            assert!(
                blind_kinds
                    .iter()
                    .all(|r| matches!(r, RecoveryRung::Retrain | RecoveryRung::Degrade)),
                "seed {seed}: {blind_kinds:?}"
            );

            let (mut full_accel, _, _, _) = build();
            let diagnosis = run_selftest(&mut full_accel, &BistConfig::default()).unwrap();
            assert!(
                diagnosis.memory.as_ref().is_some_and(|m| !m.clean()),
                "seed {seed}: march missed the planted damage"
            );
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
            // Unless rung 1 already hit the target, the memory rungs
            // must appear in order with their stats populated.
            if full.rungs[0].error.is_some() {
                let kinds: Vec<RecoveryRung> = full.rungs.iter().map(|r| r.rung).collect();
                assert!(kinds.contains(&RecoveryRung::EccScrub), "{kinds:?}");
                assert!(kinds.contains(&RecoveryRung::SpareSteer), "{kinds:?}");
                let steer = full
                    .rungs
                    .iter()
                    .find(|r| r.rung == RecoveryRung::SpareSteer)
                    .unwrap();
                let stats = steer.memory.as_ref().unwrap();
                assert!(
                    stats.rows_steered > 0,
                    "seed {seed}: row failure not steered: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn remap_rung_repairs_what_blind_retraining_cannot() {
        // A deterministic ladder comparison on the same damaged array:
        // the remap arm must never end below the blind arm, because the
        // rungs are strictly additive over the same rung-1 trajectory.
        for seed in [11u64, 23, 31] {
            let build = || commissioned_accel(seed, 8);
            let (mut blind_accel, ds, train, test) = build();
            let (mut remap_accel, _, _, _) = build();
            let diagnosis = run_selftest(&mut remap_accel, &BistConfig::default()).unwrap();
            let base = RecoveryPolicy {
                retrain: RungBudget {
                    max_epochs: 6,
                    wall_clock_ms: 60_000,
                },
                remap: RungBudget {
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
            let blind = recover(
                &mut blind_accel,
                &ds,
                &train,
                &test,
                &Diagnosis::default(),
                &blind_policy,
            )
            .unwrap();
            let full = recover(&mut remap_accel, &ds, &train, &test, &diagnosis, &base).unwrap();
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
        }
    }
}
