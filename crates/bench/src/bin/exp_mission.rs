//! Experiment: **mission mode** — degrade-and-recover operation under
//! mid-stream fault arrival, on both accelerator topologies.
//!
//! Where the other campaigns damage a commissioned array once and
//! measure the repaired steady state, this binary serves a sustained
//! inference stream while a seeded Poisson process plants defects *mid
//! -stream*, and compares two arms of the same seed at each arrival
//! rate:
//!
//! * **blind** — same traffic, same fault arrivals, no probes, no
//!   repair: the array just soaks up damage (the deployed-and-ignored
//!   control);
//! * **mission** — periodic incremental BIST probes drive the
//!   per-accelerator health machine (Healthy → Suspect → Recovering →
//!   {Healthy, Degraded, Quarantined}); detection triggers the full
//!   recovery ladder, failed episodes charge exponential backoff in
//!   skipped batches, and exhausted retry budgets quarantine the unit
//!   fail-silent while the stream keeps serving.
//!
//! On the spatial topology each arrival is **combined-surface**
//! (transistor-level operator defects plus permanent bit-cell defects
//! in the attached SEC-DED weight store, split `ceil/floor` by
//! `SurfaceMix::combined`); on the systolic grid each arrival plants
//! permanent PE faults. Both arms of a cell share the mission seed, so
//! they see bit-identical arrival schedules and fault draws; the binary
//! asserts the floor **mission terminal accuracy ≥ blind** at every
//! (topology, rate) cell and exits 1 on a violation.
//!
//! With `--checkpoint`, every finished arm lands in a
//! fingerprint-guarded journal as one line (keyed `task@topo:arm` and
//! the rate index) and a killed sweep resumes byte-identical.
//! Machine-readable lines for scripts/CI start with `data `; the perf
//! record goes to `BENCH_mission.json` (`--bench-out` overrides).
//!
//! ```sh
//! cargo run --release -p dta-bench --bin exp_mission
//! cargo run --release -p dta-bench --bin exp_mission -- \
//!     --rates 0.05 --windows 4 --batches 8 --checkpoint mission.jsonl
//! ```

use std::time::Instant;

use dta_bench::twin;
use dta_bench::{open_checkpoint, pct, resume, rule, Args, Journaled, JsonMap};
use dta_circuits::Activation;
use dta_core::{
    run_mission, Accel, AccelError, Accelerator, BistConfig, HealthState, MemGeometry,
    MissionConfig, MissionOutcome, RecoveryPolicy, SurfaceMix, WeightMemory,
};
use dta_datasets::{Dataset, TaskSpec};
use dta_systolic::SystolicAccelerator;
use rand_chacha::ChaCha8Rng;

const BIN: &str = "exp_mission";

/// The two topologies of the comparison, in run order.
const TOPOS: [&str; 2] = ["spatial", "systolic"];

/// The two arms of each cell, in run order.
const ARMS: [&str; 2] = ["blind", "mission"];

/// One arm's journaled trace and summary. Every field is an `f64` (or
/// an optional one) so the whole struct round-trips through one
/// checkpoint line; counters are exact small integers, so the round
/// trip is lossless. The two means are `None` when no detection or
/// recovery episode happened: the journal, the perf record and the
/// `data` lines all write them as `null`.
#[derive(Clone, Debug, PartialEq)]
struct ArmResult {
    /// Mean served accuracy per reporting window.
    window_accuracy: Vec<f64>,
    /// Served-batch fraction per reporting window.
    window_availability: Vec<f64>,
    /// Accuracy over the full evaluation split after the last batch.
    final_accuracy: f64,
    /// Served batches over total batches.
    availability: f64,
    /// Fault-arrival events that fired.
    arrivals: f64,
    /// Arrivals a later probe detected.
    detected: f64,
    /// Mean batches from arrival to the detecting probe (`None` = no
    /// arrival was detected).
    detection_latency: Option<f64>,
    /// Mean retraining epochs per recovery episode (`None` = none ran).
    recovery_epochs: Option<f64>,
    /// Recovery-ladder episodes run.
    episodes: f64,
    /// Units masked fail-silent by quarantine.
    quarantined: f64,
    /// Final health state, encoded by [`state_code`].
    state: f64,
}

/// Stable numeric encoding of a health state for the journal.
fn state_code(state: HealthState) -> f64 {
    match state {
        HealthState::Healthy => 0.0,
        HealthState::Suspect => 1.0,
        HealthState::Recovering => 2.0,
        HealthState::Degraded => 3.0,
        HealthState::Quarantined => 4.0,
    }
}

/// Human-readable name for a journaled state code.
fn state_name(code: f64) -> &'static str {
    match code as i64 {
        0 => "healthy",
        1 => "suspect",
        2 => "recovering",
        3 => "degraded",
        4 => "quarantined",
        _ => "?",
    }
}

/// Renders an optional mean for the `data` lines: `{:?}` or `null`.
fn data_mean(value: Option<f64>) -> String {
    value.map_or_else(|| "null".into(), |v| format!("{v:?}"))
}

/// One line per arm: the per-window accuracies, then the per-window
/// availabilities, then the nine summary fields in declaration order.
impl Journaled for ArmResult {
    fn to_values(&self) -> Vec<Option<f64>> {
        let mut values: Vec<Option<f64>> = self
            .window_accuracy
            .iter()
            .chain(&self.window_availability)
            .map(|&v| Some(v))
            .collect();
        values.extend([
            Some(self.final_accuracy),
            Some(self.availability),
            Some(self.arrivals),
            Some(self.detected),
            self.detection_latency,
            self.recovery_epochs,
            Some(self.episodes),
            Some(self.quarantined),
            Some(self.state),
        ]);
        values
    }

    fn from_values(values: &[Option<f64>]) -> Option<ArmResult> {
        // Nine summary fields follow the two equal-length window traces.
        let (trace, summary) = values.split_at(values.len().checked_sub(9)?);
        if trace.len() % 2 != 0 {
            return None;
        }
        let mut window_accuracy: Vec<f64> = trace.iter().copied().collect::<Option<_>>()?;
        let window_availability = window_accuracy.split_off(trace.len() / 2);
        Some(ArmResult {
            window_accuracy,
            window_availability,
            final_accuracy: summary[0]?,
            availability: summary[1]?,
            arrivals: summary[2]?,
            detected: summary[3]?,
            detection_latency: summary[4],
            recovery_epochs: summary[5],
            episodes: summary[6]?,
            quarantined: summary[7]?,
            state: summary[8]?,
        })
    }
}

/// One finished (topology index, rate index) cell: blind arm, then
/// mission arm.
type CellRow = (usize, usize, ArmResult, ArmResult);

/// One per-topology perf-record curve: its key suffix and how to read
/// a point off a cell.
type Curve = (&'static str, fn(&CellRow) -> Option<f64>);

/// Everything shared by every cell of the sweep.
struct Sweep<'a> {
    spec: &'a TaskSpec,
    ds: &'a Dataset,
    epochs: usize,
    windows: usize,
    batches: u64,
    rows: usize,
    probe_interval: u64,
    probe_budget_ms: u64,
    event_defects: usize,
    max_attempts: usize,
    recovery_epochs: usize,
    budget_ms: u64,
    target_drop: f64,
    seed: u64,
    geom: MemGeometry,
}

impl Sweep<'_> {
    /// The shared mission seed of one (topology, rate) cell. Both arms
    /// use it, so they see identical arrival schedules and fault draws.
    fn cell_seed(&self, topo_idx: usize, rate_idx: usize) -> u64 {
        self.seed ^ ((topo_idx as u64) << 40) ^ ((rate_idx as u64) << 24)
    }

    /// The mission configuration of one arm.
    fn config(&self, rate: f64, detection: bool, cell_seed: u64, clean: f64) -> MissionConfig {
        MissionConfig {
            windows: self.windows,
            batches_per_window: self.batches,
            rows_per_batch: self.rows,
            arrival_rate: rate,
            probe_interval: self.probe_interval,
            probe_budget_ms: self.probe_budget_ms,
            detection,
            max_recovery_attempts: self.max_attempts,
            seed: cell_seed,
            bist: BistConfig::default(),
            recovery: RecoveryPolicy {
                target_accuracy: (clean - self.target_drop).max(0.0),
                seed: cell_seed,
                ..twin::base_policy(self.spec, self.recovery_epochs, self.budget_ms)
            },
        }
    }

    /// Runs one arm of one cell and returns its trace.
    fn run_arm(&self, topo: &str, rate_idx: usize, rate: f64, arm: &str) -> ArmResult {
        let topo_idx = TOPOS.iter().position(|t| *t == topo).unwrap();
        let cell_seed = self.cell_seed(topo_idx, rate_idx);
        let label = format!("{topo} rate={rate} {arm}");
        let config = |clean| self.config(rate, arm == "mission", cell_seed, clean);
        let n = self.event_defects;
        let outcome = if topo == "spatial" {
            let attach = |accel: &mut Accelerator| {
                accel
                    .attach_weight_memory_with(WeightMemory::new(self.geom))
                    .unwrap_or_else(|e| twin::die(BIN, &label, "memory attach", &e));
            };
            // Combined-surface arrivals: operator cells and weight bit
            // cells damaged by the same event.
            let mix = SurfaceMix::combined(n);
            self.serve(
                &label,
                cell_seed,
                Accelerator::new(),
                attach,
                config,
                |a, _, rng| mix.inject_spatial(a, rng),
            )
        } else {
            self.serve(
                &label,
                cell_seed,
                SystolicAccelerator::new(),
                |_| {},
                config,
                |a, _, rng| a.inject_defects(n, Activation::Permanent, rng),
            )
        };

        ArmResult {
            window_accuracy: outcome.window_accuracy,
            window_availability: outcome.window_availability,
            final_accuracy: outcome.final_accuracy,
            availability: outcome.availability,
            arrivals: outcome.arrivals as f64,
            detected: outcome.detected as f64,
            detection_latency: outcome.mean_detection_latency,
            recovery_epochs: outcome.mean_recovery_epochs,
            episodes: outcome.recovery_episodes as f64,
            quarantined: outcome.quarantined_units as f64,
            state: state_code(outcome.final_state),
        }
    }

    /// Commissions `accel`, readies it with `setup`, then serves one
    /// arm's mission, configured from its clean accuracy, with `inject`
    /// planting each fault arrival.
    fn serve<A: Accel>(
        &self,
        label: &str,
        cell_seed: u64,
        accel: A,
        setup: impl FnOnce(&mut A),
        config: impl FnOnce(f64) -> MissionConfig,
        inject: impl FnMut(&mut A, u64, &mut ChaCha8Rng) -> Result<Vec<String>, AccelError>,
    ) -> MissionOutcome {
        let ds = self.ds;
        let fold = &ds.k_folds(5, self.seed)[0];
        let mut accel = twin::commission(
            BIN,
            accel,
            self.spec,
            ds,
            &fold.train,
            self.epochs,
            cell_seed,
        );
        setup(&mut accel);
        let clean = accel
            .evaluate(ds, &fold.test)
            .unwrap_or_else(|e| twin::die(BIN, label, "clean evaluation", &e));
        run_mission(
            &mut accel,
            ds,
            &fold.train,
            &fold.test,
            &config(clean),
            inject,
        )
        .unwrap_or_else(|e| twin::die(BIN, label, "mission", &e))
    }
}

fn main() {
    let args = Args::parse();
    let spec = args.task("iris");
    let task = spec.name;
    let rates = args.get_f64_list("rates", &[0.02, 0.05, 0.1]);
    let windows = args.get("windows", 6usize);
    let batches = args.get("batches", 12u64);
    let rows = args.get("rows", 8usize);
    let probe_interval = args.get("probe-interval", 4u64);
    let probe_budget_ms = args.get("probe-budget-ms", 10_000u64);
    let event_defects = args.get("event-defects", 4usize);
    let max_attempts = args.get("max-attempts", 2usize);
    let epochs = args.get("epochs", 30usize);
    let recovery_epochs = args.get("recovery-epochs", 12usize);
    let budget_ms = args.get("budget-ms", 60_000u64);
    let target_drop = args.get("target-drop", 0.05f64);
    let seed = args.get("seed", 0x00A1_1077u64);

    let ds = spec.dataset();
    let phys = dta_ann::Topology::accelerator();
    let mut geom = MemGeometry::for_network(phys.inputs, phys.hidden, phys.outputs, true);
    geom.spare_rows = 2;
    geom.spare_cols = 8;

    let sweep = Sweep {
        spec: &spec,
        ds: &ds,
        epochs,
        windows,
        batches,
        rows,
        probe_interval,
        probe_budget_ms,
        event_defects,
        max_attempts,
        recovery_epochs,
        budget_ms,
        target_drop,
        seed,
        geom,
    };

    // Everything that determines arm results goes into the journal
    // fingerprint — a resumed run with a different stream shape, fault
    // mix, or ladder budget must refuse the journal, not mix traces.
    let fingerprint = format!(
        "exp_mission v1 task={task} rates={rates:?} windows={windows} batches={batches} \
         rows={rows} probe_interval={probe_interval} probe_budget_ms={probe_budget_ms} \
         event_defects={event_defects} max_attempts={max_attempts} epochs={epochs} \
         recovery_epochs={recovery_epochs} budget_ms={budget_ms} target_drop={target_drop:?} \
         seed={seed:#x} mem=ecc:2r8c"
    );
    let checkpoint = args
        .get_opt_str("checkpoint")
        .map(|p| open_checkpoint(BIN, p, &fingerprint));

    println!(
        "Mission mode on {task}: {windows}x{batches} batches of {rows} rows, probe every \
         {probe_interval}, {event_defects} defects/event, {max_attempts} retry(s) before \
         quarantine, {recovery_epochs} epochs / {budget_ms} ms per rung\n"
    );
    println!(
        "{:<10}{:>7}{:>8}{:>9}{:>7}{:>9}{:>8}{:>6}  {:<12}",
        "topo", "rate", "blind", "mission", "gain", "avail", "detlat", "quar", "state"
    );
    rule(78);

    let start = Instant::now();
    // results[(topo, rate_idx)] = [blind, mission]
    let mut results: Vec<CellRow> = Vec::new();
    let mut floor_violations = 0usize;
    for (topo_idx, topo) in TOPOS.iter().enumerate() {
        for (rate_idx, &rate) in rates.iter().enumerate() {
            let [blind, mission] = ARMS.map(|arm| {
                let key = format!("{task}@{topo}:{arm}");
                resume(BIN, checkpoint.as_ref(), &key, rate_idx, 0, || {
                    sweep.run_arm(topo, rate_idx, rate, arm)
                })
            });
            if mission.final_accuracy < blind.final_accuracy {
                eprintln!(
                    "{BIN}: FLOOR VIOLATION at {topo} rate={rate}: mission {} < blind {}",
                    pct(mission.final_accuracy),
                    pct(blind.final_accuracy)
                );
                floor_violations += 1;
            }
            println!(
                "{:<10}{:>7}{:>8}{:>9}{:>7}{:>9}{:>8}{:>6}  {:<12}",
                topo,
                format!("{rate}"),
                pct(blind.final_accuracy),
                pct(mission.final_accuracy),
                pct(mission.final_accuracy - blind.final_accuracy),
                pct(mission.availability),
                mission
                    .detection_latency
                    .map_or_else(|| "-".to_string(), |v| format!("{v:.1}")),
                mission.quarantined as usize,
                state_name(mission.state),
            );
            results.push((topo_idx, rate_idx, blind, mission));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    rule(78);

    // Stable machine-readable lines (floats in shortest round-trip
    // form, so a resumed run diffs clean against an uninterrupted one).
    println!();
    for (topo_idx, rate_idx, blind, mission) in &results {
        for (arm, r) in ARMS.iter().zip([blind, mission]) {
            println!(
                "data {task} {} {:?} {arm} {:?} {:?} {:?} {:?} {:?} {:?} {} {} {:?} {:?} {:?}",
                TOPOS[*topo_idx],
                rates[*rate_idx],
                r.window_accuracy,
                r.window_availability,
                r.final_accuracy,
                r.availability,
                r.arrivals,
                r.detected,
                data_mean(r.detection_latency),
                data_mean(r.recovery_epochs),
                r.episodes,
                r.quarantined,
                r.state,
            );
        }
    }

    eprintln!(
        "\n{} cell(s) in {wall_s:.2} s; mission terminal accuracy >= blind at every \
         (topology, rate) — asserted in-binary.",
        results.len()
    );

    let mut record = JsonMap::new()
        .str("bin", BIN)
        .str("task", task)
        .str_list(
            "topos",
            &TOPOS.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
        )
        .num_list("rates", &rates)
        .int("windows", windows as u64)
        .int("batches_per_window", batches)
        .int("rows_per_batch", rows as u64)
        .int("probe_interval", probe_interval)
        .int("probe_budget_ms", probe_budget_ms)
        .int("event_defects", event_defects as u64)
        .int("max_recovery_attempts", max_attempts as u64)
        .int("epochs", epochs as u64)
        .int("recovery_epochs", recovery_epochs as u64)
        .int("budget_ms", budget_ms)
        .num("target_drop", target_drop)
        .int("seed", seed);
    for (topo_idx, topo) in TOPOS.iter().enumerate() {
        let cells: Vec<&CellRow> = results
            .iter()
            .filter(|(t, _, _, _)| *t == topo_idx)
            .collect();
        // `opt_num_list` renders a present value exactly as `num_list`.
        let curves: [Curve; 11] = [
            ("blind_final", |c| Some(c.2.final_accuracy)),
            ("mission_final", |c| Some(c.3.final_accuracy)),
            ("blind_availability", |c| Some(c.2.availability)),
            ("mission_availability", |c| Some(c.3.availability)),
            ("mission_arrivals", |c| Some(c.3.arrivals)),
            ("mission_detected", |c| Some(c.3.detected)),
            ("mission_detection_latency", |c| c.3.detection_latency),
            ("mission_recovery_epochs", |c| c.3.recovery_epochs),
            ("mission_episodes", |c| Some(c.3.episodes)),
            ("mission_quarantined", |c| Some(c.3.quarantined)),
            ("mission_state", |c| Some(c.3.state)),
        ];
        for (name, curve) in curves {
            let values: Vec<Option<f64>> = cells.iter().map(|c| curve(c)).collect();
            record = record.opt_num_list(&format!("{topo}_{name}"), &values);
        }
    }
    args.write_record("BENCH_mission.json", record.num("wall_s", wall_s));

    if floor_violations > 0 {
        eprintln!("{BIN}: {floor_violations} floor violation(s) — mission arm below blind arm");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_journal_line_round_trips_absent_means() {
        let arm = ArmResult {
            window_accuracy: vec![0.5, 0.75, 1.0],
            window_availability: vec![1.0, 0.5, 1.0],
            final_accuracy: 0.9,
            availability: 5.0 / 6.0,
            arrivals: 3.0,
            detected: 0.0,
            detection_latency: None,
            recovery_epochs: Some(4.5),
            episodes: 1.0,
            quarantined: 0.0,
            state: state_code(HealthState::Degraded),
        };
        let values = arm.to_values();
        assert_eq!(values.len(), 2 * 3 + 9);
        assert_eq!(ArmResult::from_values(&values), Some(arm));
        // A row of the wrong shape is not an arm.
        assert_eq!(ArmResult::from_values(&values[1..]), None);
        assert_eq!(ArmResult::from_values(&values[..8]), None);
    }
}
