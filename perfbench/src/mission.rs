//! `mission`: the serving path of `serve`, under mutation.
//!
//! Setup commissions one spatial accelerator per mission on iris, with
//! a weight store attached, and damages it with one arrival's worth of
//! defects before its mission starts. A run plays the missions one
//! after the other through `run_mission`: combined-surface arrivals (operator and
//! weight-store defects) land mid-stream, every fourth batch is
//! followed by an incremental BIST probe, and a mismatch runs the
//! recovery ladder. Plans change between batches, so the fused memo
//! misses and recompiles, and recovery rewrites the weights.
//!
//! One op is one whole mission, timed around `run_mission`. A single
//! 8-row batch costs a fraction of a millisecond, too little to time
//! steadily, and a probe period costs either a few milliseconds or, when
//! its probe starts a recovery, tens to hundreds: timed alone, periods
//! fall into two cost classes whose mix moves with the arrival times. A
//! mission sums four periods, and the pre-damage puts every mission's
//! first probe on a damaged unit, so missions form one cost class
//! whether or not an arrival lands. The wrapper only adds spans for the
//! traced pass. Systolic missions are left out: they are about 50 times
//! cheaper and would split the op distribution.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_ann::{Mlp, Topology};
use dta_core::{
    run_mission, Accel, Accelerator, BistConfig, MemGeometry, MissionConfig, MissionError,
    MissionEvent, MissionOutcome, RecoveryPolicy, RungBudget, SurfaceMix, WeightMemory,
};
use dta_datasets::{suite, Dataset, Fold, TaskSpec};

use crate::timed::{Engine, Timed};
use crate::trace::{self, span};
use crate::{derive_seed, Digest, RunOutcome, Workload};

const WINDOWS: usize = 2;
const BATCHES_PER_WINDOW: u64 = 8;
const ROWS_PER_BATCH: usize = 8;
const PROBE_INTERVAL: u64 = 4;
/// Expected arrival events per batch.
const ARRIVAL_RATE: f64 = 0.05;
/// Defects per arrival, split across both surfaces.
const EVENT_DEFECTS: usize = 4;
const COMMISSION_EPOCHS: usize = 30;
/// Commissioning trains this many candidates per unit from different
/// initial weights and keeps the one with the best clean accuracy. A
/// badly trained unit has an easy recovery target and would make
/// missions cheaper for some seeds than for others; a fixed number of
/// candidates keeps set-up work the same for every seed.
const CANDIDATES: u64 = 2;
const RECOVERY_EPOCHS: usize = 12;
/// Watchdog budget of every probe and rung, far above any op, so no
/// simulated result depends on host speed. An op that takes this long
/// could have hit a rung timeout and is counted as failed.
pub const BUDGET_MS: u64 = 120_000;
/// Nominal missions per second; sets how many missions a run plays.
const MISSIONS_PER_SECOND: f64 = 4.2;

pub struct Mission {
    pub seed: u64,
    pub missions: usize,
}

pub struct State {
    spec: TaskSpec,
    ds: Dataset,
    /// One commissioned accelerator per mission.
    fleet: Vec<Unit>,
}

/// A commissioned accelerator, the train/test split its mission serves
/// and retrains on, and its clean accuracy on the test rows.
pub struct Unit {
    accel: Timed<Accelerator>,
    fold: Fold,
    clean: f64,
}

/// What one played mission left behind.
struct Played {
    outcome: Result<MissionOutcome, MissionError>,
    /// Wall time of the mission in milliseconds.
    ms: f64,
    vectorizable_arrivals: usize,
    counters: crate::timed::Counters,
}

impl Mission {
    pub fn new(seed: u64, seconds: u64) -> Mission {
        Mission {
            seed,
            missions: ((seconds as f64 * MISSIONS_PER_SECOND).round() as usize).max(2),
        }
    }

    fn mission_seed(&self, m: usize) -> u64 {
        derive_seed(self.seed ^ 0x3155, m as u64)
    }

    fn commission(&self, spec: &TaskSpec, ds: &Dataset, m: usize) -> Unit {
        let fold = ds.k_folds(5, self.mission_seed(m)).swap_remove(0);
        let topo = Topology::new(ds.n_features(), spec.hidden, ds.n_classes());
        let phys = Topology::accelerator();
        let geom = MemGeometry::for_network(phys.inputs, phys.hidden, phys.outputs, true);
        let mut best: Option<Unit> = None;
        for candidate in 0..CANDIDATES {
            let seed = derive_seed(self.mission_seed(m), candidate);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut bare = Accelerator::new();
            bare.attach_weight_memory_with(WeightMemory::new(geom))
                .expect("a fresh accelerator is quiescent");
            let mut accel = Timed::new(bare, Engine::Spatial);
            accel
                .map_network(Mlp::new(topo, seed))
                .expect("iris fits the array");
            accel
                .retrain(
                    ds,
                    &fold.train,
                    spec.learning_rate,
                    0.1,
                    COMMISSION_EPOCHS,
                    &mut rng,
                )
                .expect("commissioning hyperparameters are valid");
            let clean = accel.evaluate(ds, &fold.test).expect("commissioned");
            if best.as_ref().is_none_or(|b: &Unit| clean > b.clean) {
                best = Some(Unit {
                    accel,
                    fold: fold.clone(),
                    clean,
                });
            }
        }
        // The unit enters its mission with one arrival's worth of damage,
        // operator defects and failed store cells that appeared between
        // commissioning and deployment.
        let mut unit = best.expect("at least one candidate");
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(self.mission_seed(m), 0xD1E));
        SurfaceMix::combined(EVENT_DEFECTS)
            .inject_spatial(unit.accel.inner_mut(), &mut rng)
            .expect("a commissioned unit is quiescent");
        unit
    }

    fn config(&self, m: usize, clean: f64, lr: f64) -> MissionConfig {
        let seed = self.mission_seed(m);
        let budget = RungBudget {
            max_epochs: RECOVERY_EPOCHS,
            wall_clock_ms: BUDGET_MS,
        };
        MissionConfig {
            windows: WINDOWS,
            batches_per_window: BATCHES_PER_WINDOW,
            rows_per_batch: ROWS_PER_BATCH,
            arrival_rate: ARRIVAL_RATE,
            probe_interval: PROBE_INTERVAL,
            probe_budget_ms: BUDGET_MS,
            detection: true,
            max_recovery_attempts: 2,
            seed,
            bist: BistConfig::default(),
            recovery: RecoveryPolicy {
                retrain: budget,
                remap: budget,
                target_accuracy: (clean - 0.05).max(0.0),
                learning_rate: lr,
                momentum: 0.1,
                seed,
                ..RecoveryPolicy::default()
            },
        }
    }

    /// Plays mission `m` on `accel`.
    fn play<A: Accel>(
        &self,
        st: &State,
        accel: &mut A,
        m: usize,
        fold: &Fold,
        clean: f64,
        mut planted: impl FnMut(&mut A, &mut ChaCha8Rng) -> Result<Vec<String>, dta_core::AccelError>,
    ) -> Result<MissionOutcome, MissionError> {
        let cfg = self.config(m, clean, st.spec.learning_rate);
        run_mission(accel, &st.ds, &fold.train, &fold.test, &cfg, |a, _, rng| {
            planted(a, rng)
        })
    }

    fn play_timed(&self, st: &State, unit: Unit, m: usize) -> Played {
        let Unit {
            mut accel,
            fold,
            clean,
        } = unit;
        let mix = SurfaceMix::combined(EVENT_DEFECTS);
        let mut vectorizable_arrivals = 0usize;
        accel.counters = Default::default();
        let started = Instant::now();
        let outcome = self.play(st, &mut accel, m, &fold, clean, |a, rng| {
            span("ann.fault.inject", || {
                let r = mix.inject_spatial(a.inner_mut(), rng);
                vectorizable_arrivals += usize::from(a.inner().faults().vectorizable());
                r
            })
        });
        Played {
            outcome,
            ms: started.elapsed().as_secs_f64() * 1e3,
            vectorizable_arrivals,
            counters: accel.counters,
        }
    }
}

impl Workload for Mission {
    type State = State;
    const SETUPS: usize = 5;

    fn setup(&self) -> State {
        let spec = suite::specs()
            .into_iter()
            .find(|s| s.name == "iris")
            .expect("iris is in the suite");
        let ds = span("datasets.generate", || spec.dataset());
        let fleet = (0..self.missions)
            .map(|m| self.commission(&spec, &ds, m))
            .collect();
        State { spec, ds, fleet }
    }

    fn run(&self, st: &mut State) -> RunOutcome {
        let mut out = RunOutcome::default();
        let fleet = std::mem::take(&mut st.fleet);
        if fleet.len() != self.missions {
            out.problem("mission fleet was already used".to_string());
            return out;
        }
        let mut digest = Digest::new();
        let mut acc_sum = 0.0;
        let (mut arrivals, mut vectorizable) = (0usize, 0usize);
        let (mut detected, mut latency_sum) = (0usize, 0.0f64);
        let (mut episodes, mut rollbacks) = (0usize, 0usize);
        let mut first: Option<MissionOutcome> = None;
        for (m, unit) in fleet.into_iter().enumerate() {
            trace::set_request(m as u64);
            let played = self.play_timed(st, unit, m);
            out.op_ms.push(played.ms);
            out.counters.add(&played.counters);
            match played.outcome {
                Ok(o) => {
                    let timeouts = o
                        .events
                        .iter()
                        .filter(|e| matches!(e, MissionEvent::ProbeTimedOut { .. }))
                        .count();
                    if timeouts > 0 {
                        out.fail(format!("mission {m}: {timeouts} probes timed out"));
                    } else if played.ms >= BUDGET_MS as f64 {
                        out.fail(format!(
                            "mission {m}: {} ms may have hit a rung timeout",
                            played.ms
                        ));
                    }
                    digest.str(&format!("{o:?}"));
                    acc_sum +=
                        o.window_accuracy.iter().sum::<f64>() / o.window_accuracy.len() as f64;
                    arrivals += o.arrivals;
                    vectorizable += played.vectorizable_arrivals;
                    detected += o.detected;
                    latency_sum += o.mean_detection_latency.unwrap_or(0.0) * o.detected as f64;
                    episodes += o.recovery_episodes;
                    rollbacks += o
                        .events
                        .iter()
                        .filter(|e| {
                            matches!(
                                e,
                                MissionEvent::RecoveryEpisode {
                                    rolled_back: true,
                                    ..
                                }
                            )
                        })
                        .count();
                    if m == 0 {
                        first = Some(o);
                    }
                }
                Err(e) => out.fail(format!("mission {m}: {e}")),
            }
        }
        // Transparency: mission 0 replayed on a bare accelerator must
        // give the identical outcome. Not an op, so not traced.
        let traced = trace::enabled();
        trace::enable(false);
        let bare = self.commission(&st.spec, &st.ds, 0);
        let mut accel = bare.accel.into_inner();
        let mix = SurfaceMix::combined(EVENT_DEFECTS);
        let replay = self.play(st, &mut accel, 0, &bare.fold, bare.clean, |a, rng| {
            mix.inject_spatial(a, rng)
        });
        trace::enable(traced);
        match (replay, first) {
            (Ok(a), Some(b)) if a == b => {}
            _ => out.problem("mission 0 differs without the Timed wrapper".to_string()),
        }
        out.mean_accuracy = acc_sum / self.missions as f64;
        out.digest = digest.finish();
        let ratio = |a: f64, b: usize| if b == 0 { 0.0 } else { a / b as f64 };
        out.layer.extend([
            (
                "ann.plan.vectorizable_ratio",
                ratio(vectorizable as f64, arrivals),
            ),
            ("core.mission.arrivals", arrivals as f64),
            (
                "core.mission.detection_latency_batches",
                ratio(latency_sum, detected),
            ),
            ("core.recover.episodes", episodes as f64),
            (
                "core.recover.episodes_per_detected_arrival",
                ratio(episodes as f64, detected),
            ),
            (
                "core.recover.rollback_ratio",
                ratio(rollbacks as f64, episodes),
            ),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mission_outcome_is_identical_through_the_wrapper() {
        let w = Mission::new(11, 1);
        let mut st = w.setup();
        let unit = st.fleet.remove(0);
        let played = w.play_timed(&st, unit, 0);
        let bare = w.commission(&st.spec, &st.ds, 0);
        let mut accel = bare.accel.into_inner();
        let mix = SurfaceMix::combined(EVENT_DEFECTS);
        let replay = w.play(&st, &mut accel, 0, &bare.fold, bare.clean, |a, rng| {
            mix.inject_spatial(a, rng)
        });
        assert_eq!(played.outcome.unwrap(), replay.unwrap());
    }
}
