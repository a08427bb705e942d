//! Mission-mode runtime: **degrade-and-recover operation under
//! mid-stream fault arrival**.
//!
//! The offline campaigns ([`crate::campaign`]) commission an array,
//! damage it once, and measure the repaired steady state. A deployed
//! accelerator does not get that luxury: defects arrive *while it is
//! serving traffic* — latchup in a multiplier mid-batch, a weight-store
//! row failing after months of electromigration, a systolic PE going
//! quiet. This module runs that scenario end to end:
//!
//! 1. A sustained inference stream is served in **traffic batches**
//!    (each bracketed by [`Accel::begin_batch`] / [`Accel::end_batch`],
//!    so structural mutation mid-batch is a typed error).
//! 2. A seeded **Poisson arrival process** injects defect events
//!    between batches, each event drawn from its own per-event RNG so a
//!    blind arm and a mission arm of the same seed see *identical*
//!    fault sets.
//! 3. Periodic lightweight **incremental BIST probes**
//!    ([`Accel::probe_touched`]) run under a wall-clock watchdog; a
//!    stalling probe (chaos hooks on the weight store's March walk or
//!    the grid's PE walk) falls through as a typed
//!    [`MissionEvent::ProbeTimedOut`] instead of hanging the stream.
//! 4. Probe evidence drives the per-accelerator
//!    [`HealthMonitor`](crate::health::HealthMonitor) through
//!    Healthy → Suspect → Recovering → {Healthy, Degraded,
//!    Quarantined}; recovery runs the full ladder
//!    ([`crate::recover::recover`]), failed episodes charge
//!    **exponential backoff in skipped traffic batches** (4, 8, 16, …
//!    capped at 64), and a unit whose retry budget is spent is
//!    **quarantined** ([`Accel::quarantine`]) — masked fail-silent
//!    while the stream keeps serving.
//! 5. The outcome is an **accuracy/availability-over-time trace** with
//!    detection latency, recovery time, and availability metrics.
//!
//! Every decision (arrival schedule, fault draws, probe stimuli,
//! backoff) is derived from seeds and batch indices — never from wall
//! clock — so a mission trace is bit-reproducible and a blind arm is a
//! true control.

use std::fmt;
use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dta_circuits::FaultModel;
use dta_datasets::Dataset;
use dta_mem::Activation as MemActivation;

use crate::accel::Accel;
use crate::accelerator::{AccelError, Accelerator};
use crate::health::{HealthEvent, HealthMonitor, HealthState, IllegalTransition};
use crate::recover::{recover, with_watchdog, RecoveryError, RecoveryPolicy};
use crate::selftest::BistConfig;

/// Salt for the arrival-schedule RNG (inter-arrival gaps only).
const ARRIVAL_SALT: u64 = 0xA331_7E4F;
/// Salt for the per-event fault-draw RNGs.
const EVENT_SALT: u64 = 0xFA17_0B57;
/// Odd multiplier spreading event indices across the seed space.
const EVENT_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;
/// Traffic batches skipped after the first failed recovery episode.
const BACKOFF_BASE_BATCHES: u64 = 4;
/// Ceiling on the backoff charged for one failed episode, in batches.
const BACKOFF_CAP_BATCHES: u64 = 64;

/// Backoff charged for failed recovery episode number `attempt`
/// (0-based): `BACKOFF_BASE_BATCHES · 2^attempt`, capped at
/// [`BACKOFF_CAP_BATCHES`]. A persistently failing unit backs off
/// instead of stealing the whole stream.
fn backoff_batches(attempt: usize) -> u64 {
    let mut b = BACKOFF_BASE_BATCHES;
    for _ in 0..attempt {
        if b >= BACKOFF_CAP_BATCHES {
            break;
        }
        b *= 2;
    }
    b.min(BACKOFF_CAP_BATCHES)
}

/// How many defects one arrival event plants on each fault surface.
///
/// The mix is what makes an event *combined-surface*: one arrival can
/// carry datapath damage and weight-store damage at once, which is the
/// hard case for a recovery ladder tuned per surface. The interpreting
/// injector decides what "datapath" means for its topology (transistor
/// -level cell defects on the spatial array, PE faults on the systolic
/// grid).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SurfaceMix {
    /// Datapath defects per event (operator cells / PEs).
    pub datapath: usize,
    /// Weight-store bit-cell defects per event (ignored by injectors
    /// whose accelerator has no store attached).
    pub memory: usize,
}

impl SurfaceMix {
    /// All `n` defects on the datapath surface.
    pub fn datapath_only(n: usize) -> SurfaceMix {
        SurfaceMix {
            datapath: n,
            memory: 0,
        }
    }

    /// `n` defects split across both surfaces: `ceil(n/2)` datapath,
    /// `floor(n/2)` memory.
    pub fn combined(n: usize) -> SurfaceMix {
        SurfaceMix {
            datapath: n.div_ceil(2),
            memory: n / 2,
        }
    }

    /// Total defects per event.
    pub fn total(&self) -> usize {
        self.datapath + self.memory
    }

    /// Plants one event's worth of defects on a spatial
    /// [`Accelerator`]: transistor-level cell defects on the datapath
    /// plus permanent bit-cell defects on the attached weight store.
    /// The memory share is silently dropped when no store is attached
    /// (the surface does not exist on that unit).
    ///
    /// # Errors
    ///
    /// Propagates [`AccelError`] from the injection APIs — notably
    /// [`AccelError::NotQuiescent`] if called mid-batch.
    pub fn inject_spatial(
        &self,
        accel: &mut Accelerator,
        rng: &mut ChaCha8Rng,
    ) -> Result<Vec<String>, AccelError> {
        let mut records = accel.inject_defects(self.datapath, FaultModel::TransistorLevel, rng)?;
        if self.memory > 0 && accel.memory().is_some() {
            records.extend(accel.inject_memory_defects(
                self.memory,
                MemActivation::Permanent,
                rng,
            )?);
        }
        Ok(records)
    }
}

/// Configuration of one mission run.
#[derive(Clone, Debug)]
pub struct MissionConfig {
    /// Reporting windows in the accuracy/availability trace.
    pub windows: usize,
    /// Traffic batches per window.
    pub batches_per_window: u64,
    /// Dataset rows served per batch (cycled deterministically through
    /// the evaluation split).
    pub rows_per_batch: usize,
    /// Expected fault-arrival events per batch (Poisson; 0 disables
    /// arrivals).
    pub arrival_rate: f64,
    /// Batches between incremental BIST probes (0 disables probing).
    pub probe_interval: u64,
    /// Wall-clock watchdog on each probe, in milliseconds; a probe
    /// that overruns is aborted and logged as
    /// [`MissionEvent::ProbeTimedOut`].
    pub probe_budget_ms: u64,
    /// Whether this arm detects and recovers at all. `false` is the
    /// **blind arm**: same traffic, same fault arrivals, no probes, no
    /// repair — the control the mission arm's floor is asserted
    /// against.
    pub detection: bool,
    /// Failed recovery episodes tolerated per fault before the unit is
    /// quarantined (`0` = quarantine on the first failure).
    pub max_recovery_attempts: usize,
    /// Master seed; the arrival schedule and every event's fault draw
    /// derive from it.
    pub seed: u64,
    /// Probe configuration (stimulus rows, vectors, probe seed).
    pub bist: BistConfig,
    /// Recovery-ladder configuration.
    pub recovery: RecoveryPolicy,
}

impl Default for MissionConfig {
    fn default() -> MissionConfig {
        MissionConfig {
            windows: 8,
            batches_per_window: 16,
            rows_per_batch: 8,
            arrival_rate: 0.02,
            probe_interval: 4,
            probe_budget_ms: 10_000,
            detection: true,
            max_recovery_attempts: 2,
            seed: 0xD7A_CAFE,
            bist: BistConfig::default(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// One batch-stamped entry in a mission's event log.
#[derive(Clone, Debug, PartialEq)]
pub enum MissionEvent {
    /// A Poisson arrival planted defects before batch `batch` ran.
    FaultArrival {
        /// Batch index the event landed on.
        batch: u64,
        /// Ordinal of the event in the arrival stream.
        event: u64,
        /// Defect records the injector reported.
        records: usize,
    },
    /// A probe matched every signature.
    ProbeClean {
        /// Batch index after which the probe ran.
        batch: u64,
    },
    /// A probe flagged at least one unit.
    ProbeMismatch {
        /// Batch index after which the probe ran.
        batch: u64,
        /// Operator instances flagged.
        flagged: usize,
        /// Lanes flagged by the array screen.
        screened: usize,
        /// Whether the March walk found weight-store damage.
        memory_dirty: bool,
    },
    /// A probe overran its watchdog and was aborted; the stream kept
    /// serving (the typed fall-through for a stalling March walk or PE
    /// probe).
    ProbeTimedOut {
        /// Batch index after which the probe ran.
        batch: u64,
        /// The watchdog budget it overran.
        budget_ms: u64,
    },
    /// One run of the recovery ladder.
    RecoveryEpisode {
        /// Batch index at whose boundary the ladder ran.
        batch: u64,
        /// Failed-attempt count for the current fault *after* this
        /// episode (resets on success).
        attempt: usize,
        /// Whether the ladder reached its accuracy target.
        succeeded: bool,
        /// Retraining epochs the ladder consumed (its recovery time).
        epochs: usize,
        /// Whether the pre-episode weight snapshot evaluated better
        /// than the ladder's result and was served instead.
        rolled_back: bool,
    },
    /// A failed episode charged backoff: the next `skipped` batches are
    /// not served.
    BackoffSkip {
        /// Batch index at whose boundary the backoff was charged.
        batch: u64,
        /// Batches skipped.
        skipped: u64,
    },
    /// Retries exhausted: implicated units masked fail-silent.
    Quarantined {
        /// Batch index at whose boundary quarantine was applied.
        batch: u64,
        /// Units silenced by [`Accel::quarantine`].
        silenced: usize,
    },
}

/// Why a mission run aborted (distinct from degraded service, which is
/// an *outcome*, not an error).
#[derive(Debug)]
pub enum MissionError {
    /// The configuration cannot describe a runnable mission.
    BadConfig(String),
    /// The accelerator refused an operation.
    Accel(AccelError),
    /// The recovery ladder failed structurally (not merely below
    /// target).
    Recovery(RecoveryError),
    /// The runtime drove the health machine through an illegal
    /// transition — a logic error, surfaced typed.
    Health(IllegalTransition),
}

impl fmt::Display for MissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MissionError::BadConfig(what) => write!(f, "bad mission config: {what}"),
            MissionError::Accel(e) => write!(f, "accelerator error: {e}"),
            MissionError::Recovery(e) => write!(f, "recovery error: {e}"),
            MissionError::Health(e) => write!(f, "health-machine error: {e}"),
        }
    }
}

impl std::error::Error for MissionError {}

impl From<AccelError> for MissionError {
    fn from(e: AccelError) -> MissionError {
        MissionError::Accel(e)
    }
}

impl From<RecoveryError> for MissionError {
    fn from(e: RecoveryError) -> MissionError {
        MissionError::Recovery(e)
    }
}

impl From<IllegalTransition> for MissionError {
    fn from(e: IllegalTransition) -> MissionError {
        MissionError::Health(e)
    }
}

/// The accuracy/availability-over-time trace plus summary metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct MissionOutcome {
    /// Mean served accuracy per window (a window with no served batch
    /// carries the last served accuracy forward).
    pub window_accuracy: Vec<f64>,
    /// Served-batch fraction per window.
    pub window_availability: Vec<f64>,
    /// The batch-stamped event log, oldest first.
    pub events: Vec<MissionEvent>,
    /// Fault-arrival events that fired.
    pub arrivals: usize,
    /// Arrivals a later probe detected.
    pub detected: usize,
    /// Mean batches from arrival to the detecting probe (`None` when
    /// nothing was detected).
    pub mean_detection_latency: Option<f64>,
    /// Recovery-ladder episodes run.
    pub recovery_episodes: usize,
    /// Mean retraining epochs per episode (`None` when none ran).
    pub mean_recovery_epochs: Option<f64>,
    /// Served batches over total batches.
    pub availability: f64,
    /// Health state at end of mission.
    pub final_state: HealthState,
    /// Units masked fail-silent by quarantine.
    pub quarantined_units: usize,
    /// Accuracy over the full evaluation split after the last batch.
    pub final_accuracy: f64,
    /// The health machine's batch-stamped transition log.
    pub health_log: Vec<(u64, HealthState)>,
}

/// One scheduled fault arrival and whether a probe has caught it yet.
struct Arrival {
    batch: u64,
    detected: bool,
}

/// Draws an exponential inter-arrival gap in whole batches (≥ 1).
fn exp_gap(rng: &mut ChaCha8Rng, rate: f64) -> u64 {
    let u: f64 = rng.random();
    let gap = (-(1.0 - u).ln() / rate).ceil();
    if gap.is_finite() && gap >= 1.0 {
        gap as u64
    } else {
        1
    }
}

/// The evaluation rows batch `t` serves: `rows` indices cycled through
/// the split starting at `t * rows mod len`.
fn batch_rows(eval_idx: &[usize], t: u64, rows: usize) -> Vec<usize> {
    let len = eval_idx.len();
    let start = (t as usize * rows) % len;
    (0..rows.min(len))
        .map(|k| eval_idx[(start + k) % len])
        .collect()
}

/// Runs one mission: serves `windows × batches_per_window` traffic
/// batches on `accel` while `inject` plants each Poisson arrival's
/// defects, probing / recovering / quarantining per `cfg`.
///
/// `inject` receives the accelerator (quiescent, between batches), the
/// event ordinal, and a fresh RNG seeded from `(cfg.seed, event)` only
/// — so two arms of the same seed see identical fault sets regardless
/// of what else each arm does. It returns the defect records planted.
///
/// # Errors
///
/// [`MissionError::BadConfig`] for an unrunnable configuration, and
/// typed wrappers for accelerator, ladder, or health-machine failures.
/// Degraded accuracy, failed recovery, and quarantine are *outcomes*
/// (see [`MissionOutcome`]), not errors.
pub fn run_mission<A, F>(
    accel: &mut A,
    ds: &Dataset,
    train_idx: &[usize],
    eval_idx: &[usize],
    cfg: &MissionConfig,
    mut inject: F,
) -> Result<MissionOutcome, MissionError>
where
    A: Accel,
    F: FnMut(&mut A, u64, &mut ChaCha8Rng) -> Result<Vec<String>, AccelError>,
{
    if cfg.windows == 0 || cfg.batches_per_window == 0 {
        return Err(MissionError::BadConfig(
            "windows and batches_per_window must be nonzero".into(),
        ));
    }
    if cfg.rows_per_batch == 0 {
        return Err(MissionError::BadConfig(
            "rows_per_batch must be nonzero".into(),
        ));
    }
    if eval_idx.is_empty() {
        return Err(MissionError::BadConfig("empty evaluation split".into()));
    }
    if !cfg.arrival_rate.is_finite() || cfg.arrival_rate < 0.0 {
        return Err(MissionError::BadConfig(format!(
            "arrival_rate {} is not a finite non-negative rate",
            cfg.arrival_rate
        )));
    }

    let total = cfg.windows as u64 * cfg.batches_per_window;
    let mut arrival_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ ARRIVAL_SALT);
    let mut next_arrival = if cfg.arrival_rate > 0.0 {
        exp_gap(&mut arrival_rng, cfg.arrival_rate)
    } else {
        u64::MAX
    };

    let mut monitor = HealthMonitor::new();
    let mut events: Vec<MissionEvent> = Vec::new();
    let mut arrivals: Vec<Arrival> = Vec::new();
    let mut event_idx: u64 = 0;

    let mut served: u64 = 0;
    let mut skip_remaining: u64 = 0;
    let mut last_acc = 0.0_f64;
    let mut ever_served = false;

    let mut window_accuracy = Vec::with_capacity(cfg.windows);
    let mut window_availability = Vec::with_capacity(cfg.windows);
    let mut win_acc_sum = 0.0_f64;
    let mut win_served: u64 = 0;

    let mut detected = 0usize;
    let mut latency_sum: u64 = 0;
    let mut episodes = 0usize;
    let mut epochs_sum = 0usize;
    let mut attempts = 0usize;
    let mut quarantined_units = 0usize;

    for t in 0..total {
        // Fault arrivals tick on the batch clock — backoff does not
        // pause the physics. Injection happens here, between batches,
        // where the array is quiescent.
        while next_arrival <= t {
            let mut event_rng = ChaCha8Rng::seed_from_u64(
                cfg.seed ^ EVENT_SALT ^ event_idx.wrapping_mul(EVENT_STRIDE),
            );
            let records = inject(accel, event_idx, &mut event_rng)?;
            events.push(MissionEvent::FaultArrival {
                batch: t,
                event: event_idx,
                records: records.len(),
            });
            arrivals.push(Arrival {
                batch: t,
                detected: false,
            });
            event_idx += 1;
            next_arrival = next_arrival.saturating_add(exp_gap(&mut arrival_rng, cfg.arrival_rate));
        }

        if skip_remaining > 0 {
            // Backoff: the unit rests; the batch is lost to
            // availability.
            skip_remaining -= 1;
        } else {
            accel.begin_batch()?;
            let sel = batch_rows(eval_idx, t, cfg.rows_per_batch);
            let acc = accel.evaluate(ds, &sel);
            accel.end_batch();
            let acc = acc?;
            served += 1;
            win_served += 1;
            win_acc_sum += acc;
            last_acc = acc;
            ever_served = true;

            // Probe at the configured cadence — only on served batches
            // (a resting or quarantined unit is not probed).
            let due = cfg.detection
                && cfg.probe_interval > 0
                && (t + 1) % cfg.probe_interval == 0
                && !monitor.is_quarantined();
            if due {
                let probe = with_watchdog(Duration::from_millis(cfg.probe_budget_ms), |expired| {
                    accel.probe_touched(&cfg.bist, expired)
                })?;
                match probe {
                    None => events.push(MissionEvent::ProbeTimedOut {
                        batch: t,
                        budget_ms: cfg.probe_budget_ms,
                    }),
                    Some(diagnosis) if diagnosis.detected() => {
                        for a in arrivals.iter_mut() {
                            if !a.detected && a.batch <= t {
                                a.detected = true;
                                detected += 1;
                                latency_sum += t - a.batch;
                            }
                        }
                        events.push(MissionEvent::ProbeMismatch {
                            batch: t,
                            flagged: diagnosis.flagged.len(),
                            screened: diagnosis.screened_lanes.len(),
                            memory_dirty: diagnosis.memory.as_ref().is_some_and(|m| !m.clean()),
                        });
                        monitor.on_event(HealthEvent::ProbeMismatch, t)?;
                        monitor.on_event(HealthEvent::RecoveryStarted, t)?;

                        // Snapshot the weights: a ladder that makes
                        // serving accuracy *worse* is rolled back, so
                        // a recovery attempt never costs more than the
                        // epochs it burned.
                        let snapshot = accel.network().cloned();
                        let report =
                            recover(accel, ds, train_idx, eval_idx, &diagnosis, &cfg.recovery)?;
                        let epochs: usize = report.rungs.iter().map(|r| r.epochs_used).sum();
                        episodes += 1;
                        epochs_sum += epochs;

                        let mut rolled_back = false;
                        if let Some(snap) = snapshot {
                            let ladder_acc = accel.evaluate(ds, eval_idx)?;
                            let ladder_net = accel.unmap_network();
                            accel.map_network(snap)?;
                            let snap_acc = accel.evaluate(ds, eval_idx)?;
                            if ladder_acc >= snap_acc {
                                let net = ladder_net.expect("ladder left a mapped network");
                                accel.unmap_network();
                                accel.map_network(net)?;
                            } else {
                                rolled_back = true;
                            }
                        }

                        if report.succeeded {
                            attempts = 0;
                            monitor.on_event(HealthEvent::RecoverySucceeded, t)?;
                        } else {
                            attempts += 1;
                        }
                        events.push(MissionEvent::RecoveryEpisode {
                            batch: t,
                            attempt: attempts,
                            succeeded: report.succeeded,
                            epochs,
                            rolled_back,
                        });
                        if !report.succeeded {
                            if attempts > cfg.max_recovery_attempts {
                                monitor.on_event(HealthEvent::RetriesExhausted, t)?;
                                let silenced = accel.quarantine(&diagnosis)?;
                                quarantined_units += silenced;
                                events.push(MissionEvent::Quarantined { batch: t, silenced });
                            } else {
                                monitor.on_event(HealthEvent::RecoveryFellShort, t)?;
                                let skipped = backoff_batches(attempts - 1);
                                skip_remaining = skipped;
                                events.push(MissionEvent::BackoffSkip { batch: t, skipped });
                            }
                        }
                    }
                    Some(_) => {
                        events.push(MissionEvent::ProbeClean { batch: t });
                        monitor.on_event(HealthEvent::ProbeClean, t)?;
                    }
                }
            }
        }

        if (t + 1) % cfg.batches_per_window == 0 {
            let acc = if win_served > 0 {
                win_acc_sum / win_served as f64
            } else {
                last_acc
            };
            window_accuracy.push(acc);
            window_availability.push(win_served as f64 / cfg.batches_per_window as f64);
            win_acc_sum = 0.0;
            win_served = 0;
        }
    }

    let final_accuracy = accel.evaluate(ds, eval_idx)?;
    if !ever_served {
        // Degenerate config (everything backed off): report the final
        // full-split accuracy rather than a stale 0.
        for w in window_accuracy.iter_mut() {
            *w = final_accuracy;
        }
    }

    Ok(MissionOutcome {
        window_accuracy,
        window_availability,
        events,
        arrivals: arrivals.len(),
        detected,
        mean_detection_latency: (detected > 0).then(|| latency_sum as f64 / detected as f64),
        recovery_episodes: episodes,
        mean_recovery_epochs: (episodes > 0).then(|| epochs_sum as f64 / episodes as f64),
        availability: served as f64 / total as f64,
        final_state: monitor.state(),
        quarantined_units,
        final_accuracy,
        health_log: monitor.log().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::RungBudget;
    use dta_ann::{Mlp, Topology};
    use dta_datasets::suite;

    fn iris_split() -> (Dataset, Vec<usize>, Vec<usize>) {
        let ds = suite::load("iris").unwrap();
        let train: Vec<usize> = (0..ds.len()).filter(|i| i % 3 != 0).collect();
        let eval: Vec<usize> = (0..ds.len()).step_by(3).collect();
        (ds, train, eval)
    }

    fn commissioned(seed: u64) -> (Accelerator, Dataset, Vec<usize>, Vec<usize>) {
        let (ds, train, eval) = iris_split();
        let mut accel = Accelerator::new();
        accel
            .map_network(Mlp::new(Topology::new(4, 6, 3), seed))
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        accel.retrain(&ds, &train, 0.2, 0.1, 30, &mut rng).unwrap();
        (accel, ds, train, eval)
    }

    fn fast_recovery(target: f64) -> RecoveryPolicy {
        RecoveryPolicy {
            retrain: RungBudget {
                max_epochs: 4,
                wall_clock_ms: 30_000,
            },
            remap: RungBudget {
                max_epochs: 4,
                wall_clock_ms: 30_000,
            },
            target_accuracy: target,
            ..RecoveryPolicy::default()
        }
    }

    #[test]
    fn blind_and_mission_arms_see_identical_fault_streams() {
        let mix = SurfaceMix::datapath_only(2);
        let mut streams: Vec<Vec<(u64, Vec<String>)>> = Vec::new();
        for detection in [false, true] {
            let (mut accel, ds, train, eval) = commissioned(11);
            let cfg = MissionConfig {
                windows: 4,
                batches_per_window: 10,
                rows_per_batch: 6,
                arrival_rate: 0.08,
                probe_interval: 5,
                detection,
                recovery: fast_recovery(0.8),
                seed: 0xBEEF,
                ..MissionConfig::default()
            };
            let mut log: Vec<(u64, Vec<String>)> = Vec::new();
            run_mission(&mut accel, &ds, &train, &eval, &cfg, |a, ev, rng| {
                let records = mix.inject_spatial(a, rng)?;
                log.push((ev, records.clone()));
                Ok(records)
            })
            .unwrap();
            streams.push(log);
        }
        assert!(!streams[0].is_empty(), "no arrivals fired");
        // Identical event ordinals AND identical defect records: the
        // blind arm is a true control.
        assert_eq!(streams[0], streams[1]);
    }

    #[test]
    fn mission_detects_recovers_and_beats_the_blind_arm() {
        let mix = SurfaceMix::datapath_only(3);
        let cfg_base = MissionConfig {
            windows: 5,
            batches_per_window: 12,
            rows_per_batch: 8,
            arrival_rate: 0.05,
            probe_interval: 4,
            detection: true,
            max_recovery_attempts: 2,
            recovery: fast_recovery(0.8),
            seed: 0x5151,
            ..MissionConfig::default()
        };

        let (mut blind_accel, ds, train, eval) = commissioned(7);
        let blind_cfg = MissionConfig {
            detection: false,
            ..cfg_base.clone()
        };
        let blind = run_mission(
            &mut blind_accel,
            &ds,
            &train,
            &eval,
            &blind_cfg,
            |a, _, rng| mix.inject_spatial(a, rng),
        )
        .unwrap();

        let (mut accel, ds, train, eval) = commissioned(7);
        let mission = run_mission(&mut accel, &ds, &train, &eval, &cfg_base, |a, _, rng| {
            mix.inject_spatial(a, rng)
        })
        .unwrap();

        assert_eq!(mission.arrivals, blind.arrivals);
        assert!(mission.arrivals > 0, "no arrivals fired");
        assert!(mission.detected > 0, "nothing detected");
        assert!(mission.mean_detection_latency.is_some());
        assert!(mission.recovery_episodes > 0, "no recovery ran");
        assert_eq!(mission.window_accuracy.len(), cfg_base.windows);
        assert_eq!(mission.window_availability.len(), cfg_base.windows);
        // The blind arm never repairs, so it serves every batch.
        assert!((blind.availability - 1.0).abs() < 1e-12);
        assert!(blind.recovery_episodes == 0 && blind.detected == 0);
        assert_eq!(blind.health_log, vec![(0, HealthState::Healthy)]);
        // The floor: a detected-and-repaired stream must not end below
        // the blind stream carrying the same damage.
        assert!(
            mission.final_accuracy >= blind.final_accuracy,
            "mission {} < blind {}",
            mission.final_accuracy,
            blind.final_accuracy
        );
    }

    #[test]
    fn stalling_march_probe_times_out_typed_and_the_stream_keeps_serving() {
        // Satellite regression: chaos-stall the weight store's March
        // walk so every probe overruns its watchdog. The mission must
        // log typed ProbeTimedOut events and keep serving — never hang.
        let (mut accel, ds, train, eval) = commissioned(13);
        accel.attach_weight_memory().unwrap();
        accel.memory_mut().unwrap().set_chaos_stall(Some(25));
        let cfg = MissionConfig {
            windows: 2,
            batches_per_window: 6,
            rows_per_batch: 6,
            arrival_rate: 0.0,
            probe_interval: 3,
            probe_budget_ms: 20,
            detection: true,
            recovery: fast_recovery(0.8),
            seed: 3,
            ..MissionConfig::default()
        };
        let out = run_mission(&mut accel, &ds, &train, &eval, &cfg, |_, _, _| Ok(vec![])).unwrap();
        let timeouts = out
            .events
            .iter()
            .filter(|e| matches!(e, MissionEvent::ProbeTimedOut { budget_ms: 20, .. }))
            .count();
        assert!(timeouts > 0, "no probe timed out: {:?}", out.events);
        assert!((out.availability - 1.0).abs() < 1e-12);
        assert_eq!(out.final_state, HealthState::Healthy);
    }

    #[test]
    fn exhausted_retries_quarantine_and_the_stream_stays_alive() {
        let (mut accel, ds, train, eval) = commissioned(17);
        let mix = SurfaceMix::datapath_only(10);
        let cfg = MissionConfig {
            windows: 4,
            batches_per_window: 8,
            rows_per_batch: 6,
            arrival_rate: 0.2,
            probe_interval: 2,
            detection: true,
            max_recovery_attempts: 0,
            // Unreachable target: every episode fails, so the first
            // failure quarantines.
            recovery: fast_recovery(2.0),
            seed: 0x0A11,
            ..MissionConfig::default()
        };
        let out = run_mission(&mut accel, &ds, &train, &eval, &cfg, |a, _, rng| {
            mix.inject_spatial(a, rng)
        })
        .unwrap();
        assert_eq!(out.final_state, HealthState::Quarantined);
        let q_batch = out
            .events
            .iter()
            .find_map(|e| match e {
                MissionEvent::Quarantined { batch, .. } => Some(*batch),
                _ => None,
            })
            .expect("no quarantine event");
        // Quarantine is terminal: no probe or recovery events after it.
        for e in &out.events {
            match e {
                MissionEvent::ProbeClean { batch }
                | MissionEvent::ProbeMismatch { batch, .. }
                | MissionEvent::RecoveryEpisode { batch, .. } => {
                    assert!(*batch <= q_batch, "activity after quarantine: {e:?}");
                }
                _ => {}
            }
        }
        // Fail-silent, not fail-stop: the stream served every batch
        // (quarantine charges no backoff).
        assert!((out.availability - 1.0).abs() < 1e-12);
        assert_eq!(
            *out.health_log.last().unwrap(),
            (q_batch, HealthState::Quarantined)
        );
    }

    #[test]
    fn failed_episodes_charge_exponential_backoff_against_availability() {
        let (mut accel, ds, train, eval) = commissioned(19);
        let mix = SurfaceMix::datapath_only(8);
        let cfg = MissionConfig {
            windows: 4,
            batches_per_window: 10,
            rows_per_batch: 6,
            arrival_rate: 0.1,
            probe_interval: 2,
            detection: true,
            max_recovery_attempts: 10,
            recovery: fast_recovery(2.0),
            seed: 0xACC,
            ..MissionConfig::default()
        };
        let out = run_mission(&mut accel, &ds, &train, &eval, &cfg, |a, _, rng| {
            mix.inject_spatial(a, rng)
        })
        .unwrap();
        let skips: Vec<u64> = out
            .events
            .iter()
            .filter_map(|e| match e {
                MissionEvent::BackoffSkip { skipped, .. } => Some(*skipped),
                _ => None,
            })
            .collect();
        assert!(!skips.is_empty(), "no backoff charged: {:?}", out.events);
        // The schedule doubles from the base per consecutive failure.
        for (i, s) in skips.iter().enumerate() {
            assert_eq!(*s, backoff_batches(i));
        }
        assert!(out.availability < 1.0);
        let lost: u64 = skips.iter().sum();
        let total = cfg.windows as u64 * cfg.batches_per_window;
        // Backoff that runs past the mission end is truncated, so the
        // availability loss is at most the charged skips.
        assert!(out.availability >= (total.saturating_sub(lost)) as f64 / total as f64 - 1e-12);
        assert!(out.window_availability.iter().any(|w| *w < 1.0));
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        assert_eq!(backoff_batches(0), 4);
        assert_eq!(backoff_batches(1), 8);
        assert_eq!(backoff_batches(2), 16);
        assert_eq!(backoff_batches(4), 64);
        assert_eq!(backoff_batches(40), 64, "cap holds, no overflow");
    }

    #[test]
    fn mission_traces_are_deterministic() {
        let mix = SurfaceMix::combined(4);
        let mut outs = Vec::new();
        for _ in 0..2 {
            let (mut accel, ds, train, eval) = commissioned(23);
            accel.attach_weight_memory().unwrap();
            let cfg = MissionConfig {
                windows: 3,
                batches_per_window: 8,
                rows_per_batch: 6,
                arrival_rate: 0.07,
                probe_interval: 4,
                detection: true,
                recovery: fast_recovery(0.8),
                seed: 0xD5,
                ..MissionConfig::default()
            };
            outs.push(
                run_mission(&mut accel, &ds, &train, &eval, &cfg, |a, _, rng| {
                    mix.inject_spatial(a, rng)
                })
                .unwrap(),
            );
        }
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let (mut accel, ds, train, eval) = commissioned(1);
        for cfg in [
            MissionConfig {
                windows: 0,
                ..MissionConfig::default()
            },
            MissionConfig {
                rows_per_batch: 0,
                ..MissionConfig::default()
            },
            MissionConfig {
                arrival_rate: f64::NAN,
                ..MissionConfig::default()
            },
        ] {
            let err = run_mission(&mut accel, &ds, &train, &eval, &cfg, |_, _, _| Ok(vec![]))
                .unwrap_err();
            assert!(matches!(err, MissionError::BadConfig(_)), "{err}");
        }
        let err = run_mission(
            &mut accel,
            &ds,
            &train,
            &[],
            &MissionConfig::default(),
            |_, _, _| Ok(vec![]),
        )
        .unwrap_err();
        assert!(matches!(err, MissionError::BadConfig(_)));
    }

    #[test]
    fn surface_mix_split_matches_the_campaign_convention() {
        assert_eq!(
            SurfaceMix::combined(5),
            SurfaceMix {
                datapath: 3,
                memory: 2
            }
        );
        assert_eq!(
            SurfaceMix::combined(4),
            SurfaceMix {
                datapath: 2,
                memory: 2
            }
        );
        assert_eq!(
            SurfaceMix::combined(1),
            SurfaceMix {
                datapath: 1,
                memory: 0
            }
        );
        assert_eq!(SurfaceMix::datapath_only(7).total(), 7);
    }
}
