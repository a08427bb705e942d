//! `serve`: steady-state inference on a fleet of damaged chips.
//!
//! Setup commissions the fleet: each member is mapped, damaged and
//! retrained through its own faults on optdigits (the largest task that
//! fits the 90-10-10 array), then serves one warm-up batch so the fused
//! memo holds its program. Spatial members carry gate-level stuck-at
//! plans, which are combinational, so the fused LUT stream serves them;
//! systolic members carry PE defects and serve through the tiled grid
//! walk.
//!
//! One op is one serving tick: every member serves the same batch
//! through `Accel::evaluate` inside `begin_batch`/`end_batch`. Both
//! engine kinds run in every tick, so op costs stay uniform. Training
//! and BIST are not in the timed path: work moved there shows only in
//! `setup_s`.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_ann::{Mlp, Topology};
use dta_circuits::{Activation, FaultModel};
use dta_core::{Accel, Accelerator};
use dta_datasets::{suite, Dataset, TaskSpec};
use dta_fixed::SigmoidLut;
use dta_systolic::SystolicAccelerator;

use crate::timed::{Counters, Engine, Timed};
use crate::trace::{self, span};
use crate::{derive_seed, Digest, RunOutcome, Workload};

/// Gate-level stuck-at defects per spatial member.
const SPATIAL_DEFECTS: [usize; 4] = [2, 4, 6, 8];
/// PE defects per systolic member.
const SYSTOLIC_DEFECTS: [usize; 2] = [2, 4];
/// Commissioning epochs per member.
const EPOCHS: usize = 8;
/// Commissioning draws this many damaged chips per fleet slot, retrains
/// each and keeps the one with the best held-out accuracy. A chip
/// retraining cannot repair (a dead PE, a stuck output bit) would
/// otherwise swing the fleet's accuracy from seed to seed; a fixed
/// number of candidates keeps set-up work the same for every seed.
const CANDIDATES: u64 = 2;
/// Rows each member serves per tick, cycled through the 1000-row set.
/// A tick of this size takes tens of milliseconds; 256-row ticks were
/// short enough to fall wholly in the host's fast or slow phases, and
/// their median flipped between the two levels.
const ROWS: usize = 1024;
/// Rows of the check batch compared against the reference paths.
const CHECK_ROWS: usize = 64;
/// Nominal ticks per second; sets how many ticks a run executes.
const TICKS_PER_SECOND: f64 = 27.5;

pub struct Serve {
    pub seed: u64,
    pub ticks: usize,
}

pub struct State {
    spec: TaskSpec,
    ds: Dataset,
    train: Vec<usize>,
    /// Held-out rows that pick the best commissioning candidate.
    held_out: Vec<usize>,
    spatial: Vec<Timed<Accelerator>>,
    systolic: Vec<Timed<SystolicAccelerator>>,
}

impl Serve {
    pub fn new(seed: u64, seconds: u64) -> Serve {
        Serve {
            seed,
            ticks: ((seconds as f64 * TICKS_PER_SECOND).round() as usize).max(10),
        }
    }

    /// Draws `CANDIDATES` chips from `damaged` (a fresh, damaged
    /// accelerator per RNG), retrains each through its faults and keeps
    /// the most accurate.
    fn commission<A: Accel>(
        &self,
        st: &State,
        engine: Engine,
        member: u64,
        damaged: impl Fn(&mut ChaCha8Rng) -> A,
    ) -> Timed<A> {
        let topo = Topology::new(st.ds.n_features(), 10, st.ds.n_classes());
        let mut best: Option<(f64, Timed<A>)> = None;
        for candidate in 0..CANDIDATES {
            let seed = derive_seed(self.seed, member * CANDIDATES + candidate);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut accel = Timed::new(damaged(&mut rng), engine);
            accel
                .map_network(Mlp::new(topo, seed))
                .expect("a 64-10-10 network fits both topologies");
            accel
                .retrain(
                    &st.ds,
                    &st.train,
                    st.spec.learning_rate,
                    0.1,
                    EPOCHS,
                    &mut rng,
                )
                .expect("commissioning hyperparameters are valid");
            let acc = accel
                .evaluate(&st.ds, &st.held_out)
                .expect("a commissioned chip evaluates");
            if best.as_ref().is_none_or(|(b, _)| acc > *b) {
                best = Some((acc, accel));
            }
        }
        best.expect("at least one candidate").1
    }

    /// The rows tick `t` serves.
    fn batch(ds: &Dataset, t: usize) -> Vec<usize> {
        (0..ROWS).map(|k| (t * ROWS + k) % ds.len()).collect()
    }
}

/// Engine predictions against the reference paths on the check batch:
/// the scalar `Mlp::forward_faulty` for spatial members, the per-row
/// grid walk for systolic ones. Also checks `evaluate` agrees with the
/// reference predictions.
fn check_references(st: &mut State) -> Vec<String> {
    let mut problems = Vec::new();
    let idx: Vec<usize> = (0..CHECK_ROWS).collect();
    let rows: Vec<&[f64]> = idx
        .iter()
        .map(|&s| st.ds.samples()[s].features.as_slice())
        .collect();
    let expected_acc = |preds: &[usize]| {
        preds
            .iter()
            .zip(&idx)
            .filter(|&(&p, &s)| p == st.ds.samples()[s].label)
            .count() as f64
            / idx.len() as f64
    };
    let lut = SigmoidLut::new();
    for (m, member) in st.spatial.iter_mut().enumerate() {
        let accel = member.inner_mut();
        let mlp = accel.network().expect("commissioned").clone();
        let engine: Vec<usize> = mlp
            .forward_faulty_batch(&rows, &lut, accel.faults_mut())
            .iter()
            .map(|t| t.predicted())
            .collect();
        let scalar: Vec<usize> = rows
            .iter()
            .map(|r| mlp.forward_faulty(r, &lut, accel.faults_mut()).predicted())
            .collect();
        if engine != scalar {
            problems.push(format!(
                "spatial member {m}: batch engine != scalar forward_faulty"
            ));
        }
        match Accel::evaluate(accel, &st.ds, &idx) {
            Ok(acc) if acc == expected_acc(&scalar) => {}
            other => problems.push(format!("spatial member {m}: evaluate gave {other:?}")),
        }
    }
    for (m, member) in st.systolic.iter_mut().enumerate() {
        let accel = member.inner_mut();
        let batch: Vec<usize> = match accel.forward_batch(&rows) {
            Ok(t) => t.iter().map(|t| t.predicted()).collect(),
            Err(e) => {
                problems.push(format!("systolic member {m}: {e}"));
                continue;
            }
        };
        let per_row: Vec<usize> = rows
            .iter()
            .map(|r| accel.forward(r).map_or(usize::MAX, |t| t.predicted()))
            .collect();
        if batch != per_row {
            problems.push(format!("systolic member {m}: batch walk != per-row walk"));
        }
        match Accel::evaluate(accel, &st.ds, &idx) {
            Ok(acc) if acc == expected_acc(&per_row) => {}
            other => problems.push(format!("systolic member {m}: evaluate gave {other:?}")),
        }
    }
    problems
}

/// Serves one batch on `member` inside a traffic-batch window.
fn serve_batch<A: Accel>(member: &mut A, ds: &Dataset, rows: &[usize]) -> Result<f64, String> {
    member.begin_batch().map_err(|e| e.to_string())?;
    let acc = member.evaluate(ds, rows);
    member.end_batch();
    acc.map_err(|e| e.to_string())
}

impl Workload for Serve {
    type State = State;
    const SETUPS: usize = 3;

    fn setup(&self) -> State {
        let spec = suite::specs()
            .into_iter()
            .find(|s| s.name == "optdigits")
            .expect("optdigits is in the suite");
        let ds = span("datasets.generate", || spec.dataset());
        let fold = ds.k_folds(5, self.seed).swap_remove(0);
        let mut st = State {
            spec,
            ds,
            train: fold.train,
            held_out: fold.test,
            spatial: Vec::new(),
            systolic: Vec::new(),
        };
        for (m, &n) in SPATIAL_DEFECTS.iter().enumerate() {
            let accel = self.commission(&st, Engine::Spatial, m as u64, |rng| {
                let mut accel = Accelerator::new();
                accel
                    .inject_defects(n, FaultModel::GateLevel, rng)
                    .expect("a fresh accelerator is quiescent");
                accel
            });
            st.spatial.push(accel);
        }
        for (m, &n) in SYSTOLIC_DEFECTS.iter().enumerate() {
            let member = (SPATIAL_DEFECTS.len() + m) as u64;
            let accel = self.commission(&st, Engine::Systolic, member, |rng| {
                let mut accel = SystolicAccelerator::new();
                accel
                    .inject_defects(n, Activation::Permanent, rng)
                    .expect("a fresh accelerator is quiescent");
                accel
            });
            st.systolic.push(accel);
        }
        // Warm-up batch: compiles each spatial member's fused program.
        let warm = Serve::batch(&st.ds, 0);
        for m in st.spatial.iter_mut() {
            let _ = serve_batch(m, &st.ds, &warm);
        }
        for m in st.systolic.iter_mut() {
            let _ = serve_batch(m, &st.ds, &warm);
        }
        st
    }

    fn run(&self, st: &mut State) -> RunOutcome {
        let mut out = RunOutcome::default();
        for p in check_references(st) {
            out.problem(p);
        }
        for m in st.spatial.iter_mut() {
            m.counters = Counters::default();
        }
        for m in st.systolic.iter_mut() {
            m.counters = Counters::default();
        }
        let members = st.spatial.len() + st.systolic.len();
        // Accuracy of every (member, distinct batch), first time served:
        // serving the same batch again must give the same answer.
        let distinct = st.ds.len() / gcd(st.ds.len(), ROWS);
        let mut seen: Vec<Option<f64>> = vec![None; members * distinct];
        let mut digest = Digest::new();
        let mut acc_sum = 0.0;
        let mut served = 0usize;
        for t in 0..self.ticks {
            let rows = Serve::batch(&st.ds, t);
            trace::set_request(t as u64);
            let started = Instant::now();
            let accs: Vec<Result<f64, String>> = span("serve.tick", || {
                let spatial = st.spatial.iter_mut().map(|m| serve_batch(m, &st.ds, &rows));
                let spatial: Vec<_> = spatial.collect();
                let systolic = st
                    .systolic
                    .iter_mut()
                    .map(|m| serve_batch(m, &st.ds, &rows));
                spatial.into_iter().chain(systolic).collect()
            });
            out.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
            let mut bad = None;
            for (m, acc) in accs.into_iter().enumerate() {
                match acc {
                    Ok(acc) => {
                        digest.f64(acc);
                        acc_sum += acc;
                        served += 1;
                        let slot = &mut seen[m * distinct + t % distinct];
                        if slot.is_some_and(|prev| prev != acc) {
                            bad = Some(format!("tick {t}: member {m} changed its answer"));
                        }
                        slot.get_or_insert(acc);
                    }
                    Err(e) => bad = Some(format!("tick {t}: member {m}: {e}")),
                }
            }
            if let Some(why) = bad {
                out.fail(why);
            }
        }
        out.mean_accuracy = acc_sum / served.max(1) as f64;
        out.digest = digest.finish();
        let vectorizable = st
            .spatial
            .iter()
            .filter(|m| m.inner().faults().vectorizable())
            .count();
        out.layer.push((
            "ann.plan.vectorizable_ratio",
            vectorizable as f64 / st.spatial.len() as f64,
        ));
        for m in &st.spatial {
            out.counters.add(&m.counters);
        }
        for m in &st.systolic {
            out.systolic.add(&m.counters);
        }
        out
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
