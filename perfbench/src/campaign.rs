//! `campaign`: the paper's Figure 10 retraining experiment.
//!
//! One op is one repetition of the Figure 10 grid: for each of the
//! three tasks, a `defect_tolerance_curve` call over the four defect
//! counts with one repetition, whose master seed derives from the
//! workload seed and the op index. Every op is the same mix of twelve
//! cells, so ops are uniform in kind; a single cell is not, since its
//! cost swings several-fold with the task, the defect count and the
//! defects drawn.
//!
//! The untraced pass times the `defect_tolerance_curve` calls. The
//! traced pass replays every cell through its call-site decomposition
//! (inject → `k_folds` → `Trainer::train` → `Trainer::evaluate`) with a
//! span around each call; the benchmark checks that both passes produce
//! the same accuracies bit for bit.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_ann::{FaultPlan, ForwardMode, Mlp, Topology, Trainer};
use dta_circuits::{Activation, FaultModel};
use dta_core::campaign::{defect_tolerance_curve, CampaignConfig};
use dta_datasets::{suite, Dataset, TaskSpec};

use crate::trace::{self, span};
use crate::{derive_seed, Digest, RunOutcome, Workload};

pub const TASKS: [&str; 3] = ["iris", "wine", "glass"];
pub const COUNTS: [usize; 4] = [3, 9, 18, 27];
/// Cross-validation folds per cell (the campaign default).
const FOLDS: usize = 3;
/// Folds of the fault-free baseline (the paper's setting).
const BASELINE_FOLDS: usize = 10;
/// Repetitions of the baseline's cross-validation, each from its own
/// initial weights and folds. They also make one set-up about a second
/// long, long enough to average over the host's speed swings.
const BASELINE_REPETITIONS: usize = 4;
/// `exp_fig10`'s epoch setting.
const EPOCHS: usize = 30;
/// Nominal seconds one grid repetition takes; sets how many ops a run
/// of `--seconds` executes. A run is never time-boxed.
const OP_SECONDS: f64 = 5.5;

pub struct Campaign {
    pub seed: u64,
    pub reps: usize,
}

pub struct State {
    tasks: Vec<(TaskSpec, Dataset)>,
    /// Fault-free accuracy of every task (the curve's 0-defect point).
    pub baseline: Vec<f64>,
}

impl Campaign {
    pub fn new(seed: u64, seconds: u64) -> Campaign {
        let reps = ((seconds as f64 / OP_SECONDS).round() as usize).max(1);
        Campaign { seed, reps }
    }

    fn config(master: u64, counts: &[usize]) -> CampaignConfig {
        CampaignConfig {
            defect_counts: counts.to_vec(),
            repetitions: 1,
            folds: FOLDS,
            epochs: Some(EPOCHS),
            model: FaultModel::TransistorLevel,
            activation: Activation::Permanent,
            seed: master,
            threads: 1,
            ..CampaignConfig::default()
        }
    }

    /// Master seed of op `op`.
    pub fn master(&self, op: usize) -> u64 {
        derive_seed(self.seed, op as u64)
    }
}

/// What the decomposed cell did besides its accuracy.
#[derive(Default)]
pub struct CellWork {
    pub vectorizable: bool,
    /// Per-sample forward + backprop steps of training.
    pub train_steps: u64,
    pub eval_rows: u64,
}

/// The cell `defect_tolerance_curve` runs for `(master, defects)`,
/// called layer by layer from here: the same seeds, the same draws, the
/// same order.
pub fn decomposed_cell(
    spec: &TaskSpec,
    ds: &Dataset,
    master: u64,
    defects: usize,
) -> (f64, CellWork) {
    let cfg = Campaign::config(master, &[defects]);
    let trainer = Trainer::new(spec.learning_rate, 0.1, EPOCHS, ForwardMode::Fixed);
    // The campaign's per-cell seed for repetition 0.
    let mut rng = ChaCha8Rng::seed_from_u64(master ^ ((defects as u64) << 24));
    let mut plan = span("ann.fault.inject", || {
        let mut plan = FaultPlan::new(90);
        for _ in 0..defects {
            plan.inject_random_hidden_with(spec.hidden, cfg.model, cfg.activation, &mut rng);
        }
        plan
    });
    let mut work = CellWork {
        vectorizable: plan.vectorizable(),
        ..CellWork::default()
    };
    let cv_seed = master;
    let folds = span("datasets.k_folds", || ds.k_folds(FOLDS, cv_seed));
    let topo = Topology::new(ds.n_features(), spec.hidden, ds.n_classes());
    let mut accs = Vec::with_capacity(FOLDS);
    for (f, fold) in folds.iter().enumerate() {
        let mut mlp = Mlp::new(topo, (cv_seed ^ ((f as u64) << 32)) | 0x5eed);
        let mut rng = ChaCha8Rng::seed_from_u64(cv_seed.wrapping_add(f as u64));
        plan.reset_state();
        work.train_steps += (fold.train.len() * EPOCHS) as u64;
        work.eval_rows += fold.test.len() as u64;
        span("ann.train", || {
            trainer.train(&mut mlp, ds, &fold.train, Some(&mut plan), &mut rng)
        });
        accs.push(span("ann.evaluate", || {
            trainer.evaluate(&mlp, ds, &fold.test, Some(&mut plan))
        }));
    }
    (accs.iter().sum::<f64>() / accs.len() as f64, work)
}

impl Workload for Campaign {
    type State = State;
    const SETUPS: usize = 5;

    /// Generates the three datasets and measures each task's fault-free
    /// baseline, cross-validated over the paper's 10 folds.
    fn setup(&self) -> State {
        let specs = suite::specs();
        let tasks: Vec<(TaskSpec, Dataset)> = TASKS
            .iter()
            .map(|name| {
                let spec = specs
                    .iter()
                    .find(|s| s.name == *name)
                    .expect("campaign task is in the suite")
                    .clone();
                let ds = span("datasets.generate", || spec.dataset());
                (spec, ds)
            })
            .collect();
        let baseline = tasks
            .iter()
            .map(|(spec, _)| {
                let cfg = CampaignConfig {
                    folds: BASELINE_FOLDS,
                    repetitions: BASELINE_REPETITIONS,
                    ..Campaign::config(self.seed, &[0])
                };
                let curve = span("setup.baseline", || defect_tolerance_curve(spec, &cfg))
                    .expect("one repetition is configured");
                curve[0].mean_accuracy
            })
            .collect();
        State { tasks, baseline }
    }

    fn run(&self, st: &mut State) -> RunOutcome {
        let mut out = RunOutcome::default();
        let mut digest = Digest::new();
        let mut acc_sum = 0.0;
        let mut work = CellWork::default();
        let mut vectorizable = 0usize;
        let traced = trace::enabled();
        for op in 0..self.reps {
            let master = self.master(op);
            trace::set_request(op as u64);
            let started = Instant::now();
            let accs: Result<Vec<f64>, String> = span("campaign.op", || {
                let mut accs = Vec::with_capacity(TASKS.len() * COUNTS.len());
                for (spec, ds) in &st.tasks {
                    if traced {
                        for &n in &COUNTS {
                            let (acc, w) = decomposed_cell(spec, ds, master, n);
                            vectorizable += usize::from(w.vectorizable);
                            work.train_steps += w.train_steps;
                            work.eval_rows += w.eval_rows;
                            accs.push(acc);
                        }
                        continue;
                    }
                    let curve = defect_tolerance_curve(spec, &Campaign::config(master, &COUNTS))
                        .map_err(|e| e.to_string())?;
                    if let Some(p) = curve.iter().find(|p| p.failed > 0) {
                        return Err(format!(
                            "{} cell at {} defects failed",
                            spec.name, p.defects
                        ));
                    }
                    accs.extend(curve.iter().map(|p| p.mean_accuracy));
                }
                Ok(accs)
            });
            out.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
            match accs {
                Ok(accs) if accs.iter().all(|a| (0.0..=1.0).contains(a)) => {
                    acc_sum += accs.iter().sum::<f64>() / accs.len() as f64;
                    accs.iter().for_each(|&a| digest.f64(a));
                }
                Ok(accs) => out.fail(format!("op {op}: accuracy outside [0, 1] in {accs:?}")),
                Err(e) => out.fail(format!("op {op}: {e}")),
            }
        }
        out.mean_accuracy = acc_sum / self.reps as f64;
        out.digest = digest.finish();
        for (i, b) in st.baseline.iter().enumerate() {
            if !(0.0..=1.0).contains(b) {
                out.problem(format!("task {} baseline accuracy {b}", TASKS[i]));
            }
        }
        if traced {
            let cells = self.reps * TASKS.len() * COUNTS.len();
            out.layer.extend([
                (
                    "ann.plan.vectorizable_ratio",
                    vectorizable as f64 / cells as f64,
                ),
                ("ann.train.steps", work.train_steps as f64),
                ("ann.evaluate.rows", work.eval_rows as f64),
            ]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_equals_defect_tolerance_curve() {
        let specs = suite::specs();
        let spec = specs.iter().find(|s| s.name == "iris").unwrap();
        let ds = spec.dataset();
        let master = 0xBEEF;
        let counts = [3, 9];
        let curve = defect_tolerance_curve(spec, &Campaign::config(master, &counts)).unwrap();
        for (point, &n) in curve.iter().zip(&counts) {
            let (acc, _) = decomposed_cell(spec, &ds, master, n);
            assert_eq!(acc.to_bits(), point.mean_accuracy.to_bits());
        }
    }

    #[test]
    fn ops_repeat_the_grid_with_fresh_seeds() {
        let c = Campaign::new(7, 17);
        assert_eq!(c.reps, 3);
        assert_eq!(c.master(1), Campaign::new(7, 17).master(1));
        assert_ne!(c.master(0), c.master(1));
    }
}
