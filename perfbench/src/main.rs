//! The repository's benchmark: drives the `dta` library as an outside
//! client through three workloads and prints every metric by name and
//! unit, with a correctness verdict, as the last line of stdout.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run executes a fixed, seed-derived list of ops whose length
//! derives from `--seconds`; a run is never cut off by a timer. Each
//! workload is a closed loop with one client: the next op starts when
//! the previous one has returned. `--trace 0` reports the end-to-end
//! metrics. `--trace 1` runs the ops twice, untraced and then traced
//! from a fresh set-up, and reports the per-layer metrics, the
//! tracing overhead, and writes the spans to `perfbench/out/`.
//! See `perfbench/README.md` for the workloads and metrics.

mod campaign;
mod host;
mod mission;
mod serve;
mod stats;
mod timed;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use dta_ann::{clear_fused_cache, fused_cache_stats};
use dta_logic::program_cache_stats;

use timed::Counters;
use trace::Span;

/// End-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("mean_accuracy", "fraction"),
];

/// Per-layer metrics, printed by every `--trace 1` run; a layer a
/// workload does not touch reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("ann.train.calls", "count"),
    ("ann.train.steps", "count"),
    ("ann.train.ms", "ms"),
    ("ann.train.us_per_step", "us"),
    ("ann.evaluate.rows", "count"),
    ("ann.evaluate.ms", "ms"),
    ("ann.evaluate.us_per_row", "us"),
    ("ann.fault.inject.calls", "count"),
    ("ann.fault.inject.ms", "ms"),
    ("ann.plan.vectorizable_ratio", "fraction"),
    ("ann.fused.hits", "count"),
    ("ann.fused.misses", "count"),
    ("ann.fused.hit_ratio", "fraction"),
    ("logic.program_cache.hits", "count"),
    ("logic.program_cache.misses", "count"),
    ("datasets.generate.ms", "ms"),
    ("datasets.k_folds.ms", "ms"),
    ("core.accel.evaluate.batch.calls", "count"),
    ("core.accel.evaluate.batch.ms", "ms"),
    ("core.accel.evaluate.batch.us_per_row", "us"),
    ("core.accel.evaluate.full.calls", "count"),
    ("core.accel.evaluate.full.ms", "ms"),
    ("core.selftest.probe.calls", "count"),
    ("core.selftest.probe.ms", "ms"),
    ("core.selftest.probe.mismatch_ratio", "fraction"),
    ("core.selftest.probe.timeouts", "count"),
    ("core.selftest.probe.memory_dirty", "count"),
    ("core.accel.retrain.calls", "count"),
    ("core.accel.retrain.ms", "ms"),
    ("core.accel.retrain.epochs", "count"),
    ("core.accel.structural_rung.calls", "count"),
    ("core.accel.structural_rung.ms", "ms"),
    ("core.accel.degradation.ms", "ms"),
    ("core.accel.quarantine.ms", "ms"),
    ("core.recover.episodes", "count"),
    ("core.recover.episodes_per_detected_arrival", "ratio"),
    ("core.recover.rollback_ratio", "fraction"),
    ("core.mission.arrivals", "count"),
    ("core.mission.detection_latency_batches", "batches"),
    ("systolic.evaluate.calls", "count"),
    ("systolic.evaluate.ms", "ms"),
    ("systolic.evaluate.us_per_row", "us"),
    ("setup.retrain.calls", "count"),
    ("setup.retrain.ms", "ms"),
    ("setup.baseline.ms", "ms"),
    ("setup.other.ms", "ms"),
    ("other.ms", "ms"),
    ("other.share", "fraction"),
    ("trace.overhead_pct", "%"),
];

/// Sim digests of whole runs at the default seed and length. A run
/// with these arguments whose simulated outputs hash differently fails
/// its correctness gate.
const STORED_DIGESTS: [(&str, u64); 3] = [
    ("campaign", 0xc6c2_726f_b5ee_aa61),
    ("serve", 0x707b_28ff_2c0a_3b35),
    ("mission", 0x502d_53aa_99a2_142d),
];
pub const DEFAULT_SEED: u64 = 1;
pub const DEFAULT_SECONDS: u64 = 20;

/// Spans of a workload's op root (one per op), not a layer.
const OP_ROOTS: [&str; 2] = ["campaign.op", "serve.tick"];
/// Request id of the traced set-up.
const SETUP_REQUEST: u64 = u64::MAX;

/// SplitMix64 of `seed` mixed with `i`: independent per-op seeds from
/// one workload seed.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a run's simulated outputs.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What one pass over a workload's ops produced.
#[derive(Default)]
pub struct RunOutcome {
    /// Wall time of every op in milliseconds, in op order.
    pub op_ms: Vec<f64>,
    pub failed: u64,
    /// Why ops failed or a correctness check did not hold.
    pub problems: Vec<String>,
    pub mean_accuracy: f64,
    pub digest: u64,
    /// Workload-specific per-layer values.
    pub layer: Vec<(&'static str, f64)>,
    /// Work counted by the `Timed` wrappers of spatial accelerators.
    pub counters: Counters,
    /// Work counted by the `Timed` wrappers of systolic accelerators.
    pub systolic: Counters,
}

impl RunOutcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problem(why);
    }

    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }
}

/// One benchmark workload.
pub trait Workload {
    type State;
    /// Set-ups per untraced run; `setup_s` is their median.
    const SETUPS: usize;
    /// Generates the inputs and commissions the system under test.
    fn setup(&self) -> Self::State;
    /// Executes every op once, closed loop, and checks the outputs.
    fn run(&self, state: &mut Self::State) -> RunOutcome;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: dta-perfbench --workload campaign|serve|mission [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 600),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["campaign", "serve", "mission"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cpu_start = host::CpuTimes::now();
    let report = match args.workload.as_str() {
        "campaign" => drive(&campaign::Campaign::new(args.seed, args.seconds), &args),
        "serve" => drive(&serve::Serve::new(args.seed, args.seconds), &args),
        _ => drive(&mission::Mission::new(args.seed, args.seconds), &args),
    };
    let steal = cpu_start.steal_share(&host::CpuTimes::now());
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let host = host::record(root.parent().unwrap_or(&root), steal);
    for p in report.problems.iter().take(20) {
        eprintln!("problem: {p}");
    }
    println!(
        "{{\"host\":{host},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"ops\":{},\"digest\":\"{:016x}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        report.attempted,
        report.digest
    );
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let line = report.json();
    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, format!("{{\"host\":{host},\"result\":{line}}}\n")))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!("{line}");
}

/// Where records and spans are written: `out/` beside this manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digest: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                // JSON has no NaN: a value that could not be measured is null.
                let v = if v.is_finite() {
                    v.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Times one set-up from an empty fused memo; with `record`, its spans
/// are returned too.
fn timed_setup<W: Workload>(w: &W, record: bool) -> (f64, W::State, Vec<Span>) {
    clear_fused_cache();
    trace::enable(record);
    trace::set_request(SETUP_REQUEST);
    let started = Instant::now();
    let state = trace::span("setup", || w.setup());
    let secs = started.elapsed().as_secs_f64();
    trace::enable(false);
    let spans = if record { trace::take() } else { Vec::new() };
    (secs, state, spans)
}

fn drive<W: Workload>(w: &W, args: &Args) -> Report {
    let mut setup_times = Vec::with_capacity(W::SETUPS);
    let mut setup_spans = Vec::new();
    let mut state = if args.trace {
        // Warm the process-wide memos, then record a set-up.
        drop(timed_setup(w, false));
        let (_, state, spans) = timed_setup(w, true);
        setup_spans = spans;
        state
    } else {
        // Set-ups back to back, each state dropped before the next
        // starts, so only one is ever alive; the last one serves the
        // ops.
        let mut last = None;
        for _ in 0..W::SETUPS {
            drop(last.take());
            let (secs, state, _) = timed_setup(w, false);
            setup_times.push(secs);
            last = Some(state);
        }
        last.expect("at least one set-up")
    };
    let untraced = w.run(&mut state);
    let mut problems = untraced.problems.clone();
    let stored = STORED_DIGESTS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|&(_, d)| d);
    let mut failed = untraced.failed;
    if args.seed == DEFAULT_SEED && args.seconds == DEFAULT_SECONDS {
        if let Some(d) = stored.filter(|&d| d != untraced.digest) {
            problems.push(format!(
                "sim digest {:016x} differs from the stored {d:016x}",
                untraced.digest
            ));
            failed = untraced.op_ms.len() as u64;
        }
    }
    let attempted = (untraced.op_ms.len() as u64).max(failed).max(1);
    if !args.trace {
        let mut sorted = untraced.op_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let total_s = sorted.iter().sum::<f64>() / 1e3;
        let values = [
            stats::median(&setup_times),
            sorted.len() as f64 / total_s,
            stats::percentile(&sorted, 0.5),
            stats::percentile(&sorted, 0.9),
            host::peak_rss_mb().unwrap_or(f64::NAN),
            untraced.mean_accuracy,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect::<Vec<_>>();
        if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite() || *v <= 0.0) {
            problems.push(format!("metric {name} is not a positive number"));
        }
        return Report {
            attempted,
            failed,
            problems,
            digest: untraced.digest,
            metrics,
        };
    }

    // Traced pass: a fresh set-up, then the same ops with spans on.
    drop(state);
    clear_fused_cache();
    let mut state = w.setup();
    let fused0 = fused_cache_stats();
    let prog0 = program_cache_stats();
    trace::enable(true);
    let traced = w.run(&mut state);
    trace::enable(false);
    let fused1 = fused_cache_stats();
    let prog1 = program_cache_stats();
    let spans = trace::take();
    problems.extend(traced.problems.iter().cloned());
    failed = failed.max(traced.failed);
    if traced.digest != untraced.digest {
        problems.push("traced pass diverged from the untraced pass".to_string());
    }
    let mut all = setup_spans.clone();
    all.extend(spans.iter().cloned().map(|mut s| {
        s.id += setup_spans.len();
        s.parent = s.parent.map(|p| p + setup_spans.len());
        s
    }));
    let span_file = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) =
        std::fs::create_dir_all(out_dir()).and_then(|()| trace::write_jsonl(&span_file, &all))
    {
        eprintln!("could not write {}: {e}", span_file.display());
    }

    let mut v = layer_metrics(&spans, &setup_spans, &traced);
    v.insert("ann.fused.hits", (fused1.0 - fused0.0) as f64);
    v.insert("ann.fused.misses", (fused1.1 - fused0.1) as f64);
    let lookups = (fused1.0 - fused0.0) + (fused1.1 - fused0.1);
    v.insert(
        "ann.fused.hit_ratio",
        ratio((fused1.0 - fused0.0) as f64, lookups as f64),
    );
    v.insert("logic.program_cache.hits", (prog1.0 - prog0.0) as f64);
    v.insert("logic.program_cache.misses", (prog1.1 - prog0.1) as f64);
    let untraced_ms: f64 = untraced.op_ms.iter().sum();
    let traced_ms: f64 = traced.op_ms.iter().sum();
    v.insert(
        "trace.overhead_pct",
        (traced_ms / untraced_ms - 1.0) * 100.0,
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, v.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Report {
        attempted,
        failed,
        problems,
        digest: untraced.digest,
        metrics,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer values from the traced pass's spans, the traced set-up's
/// spans and the counters of the `Timed` wrappers.
fn layer_metrics(
    spans: &[Span],
    setup_spans: &[Span],
    out: &RunOutcome,
) -> BTreeMap<&'static str, f64> {
    let t = trace::totals(spans);
    let ms = |name: &str| t.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e6);
    let calls = |name: &str| t.get(name).map_or(0.0, |x| x.calls as f64);
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(name, value) in &out.layer {
        v.insert(name, value);
    }
    let c = &out.counters;
    let s = &out.systolic;
    let steps = v.get("ann.train.steps").copied().unwrap_or(0.0);
    let rows = v.get("ann.evaluate.rows").copied().unwrap_or(0.0);
    v.extend([
        ("ann.train.calls", calls("ann.train")),
        ("ann.train.ms", ms("ann.train")),
        ("ann.train.us_per_step", ratio(ms("ann.train") * 1e3, steps)),
        ("ann.evaluate.ms", ms("ann.evaluate")),
        (
            "ann.evaluate.us_per_row",
            ratio(ms("ann.evaluate") * 1e3, rows),
        ),
        ("ann.fault.inject.calls", calls("ann.fault.inject")),
        ("ann.fault.inject.ms", ms("ann.fault.inject")),
        ("datasets.k_folds.ms", ms("datasets.k_folds")),
        ("core.accel.evaluate.batch.calls", c.batch_calls as f64),
        (
            "core.accel.evaluate.batch.ms",
            ms("core.accel.evaluate.batch"),
        ),
        (
            "core.accel.evaluate.batch.us_per_row",
            ratio(ms("core.accel.evaluate.batch") * 1e3, c.batch_rows as f64),
        ),
        ("core.accel.evaluate.full.calls", c.full_calls as f64),
        (
            "core.accel.evaluate.full.ms",
            ms("core.accel.evaluate.full"),
        ),
        ("core.selftest.probe.calls", c.probes as f64),
        ("core.selftest.probe.ms", ms("core.selftest.probe")),
        (
            "core.selftest.probe.mismatch_ratio",
            ratio(c.probe_mismatches as f64, c.probes as f64),
        ),
        ("core.selftest.probe.timeouts", c.probe_timeouts as f64),
        (
            "core.selftest.probe.memory_dirty",
            c.probe_memory_dirty as f64,
        ),
        ("core.accel.retrain.calls", c.retrain_calls as f64),
        ("core.accel.retrain.ms", ms("core.accel.retrain")),
        ("core.accel.retrain.epochs", c.retrain_epochs as f64),
        ("core.accel.structural_rung.calls", c.rungs as f64),
        (
            "core.accel.structural_rung.ms",
            ms("core.accel.structural_rung"),
        ),
        ("core.accel.degradation.ms", ms("core.accel.degradation")),
        ("core.accel.quarantine.ms", ms("core.accel.quarantine")),
        ("systolic.evaluate.calls", s.batch_calls as f64),
        ("systolic.evaluate.ms", ms("systolic.evaluate")),
        (
            "systolic.evaluate.us_per_row",
            ratio(ms("systolic.evaluate") * 1e3, s.batch_rows as f64),
        ),
    ]);

    // Op time no layer span covers: the op roots' own time, plus the
    // gaps between top-level spans of workloads without an op root.
    let total_ms: f64 = out.op_ms.iter().sum();
    let covered_ns: u64 = spans
        .iter()
        .filter(|s| !OP_ROOTS.contains(&s.name))
        .filter(|s| match s.parent {
            None => true,
            Some(p) => OP_ROOTS.contains(&spans[p].name),
        })
        .map(Span::dur_ns)
        .sum();
    let other = (total_ms - covered_ns as f64 / 1e6).max(0.0);
    v.insert("other.ms", other);
    v.insert("other.share", ratio(other, total_ms));

    let st = trace::totals(setup_spans);
    let sms = |name: &str| st.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e6);
    v.insert("datasets.generate.ms", sms("datasets.generate"));
    v.insert(
        "setup.retrain.calls",
        st.get("core.accel.retrain").map_or(0.0, |x| x.calls as f64),
    );
    v.insert("setup.retrain.ms", sms("core.accel.retrain"));
    v.insert("setup.baseline.ms", sms("setup.baseline"));
    v.insert("setup.other.ms", sms("setup"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names this binary prints are the ones BENCHMARK.json
    /// declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (section, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let declared = body.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{section}: count");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section}: {entry} missing");
            }
        }
    }

    #[test]
    fn derived_seeds_differ_per_op_and_repeat() {
        assert_eq!(derive_seed(5, 3), derive_seed(5, 3));
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| derive_seed(5, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(derive_seed(5, 0), derive_seed(6, 0));
    }
}
