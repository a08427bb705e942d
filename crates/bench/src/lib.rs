#![warn(missing_docs)]

//! Shared plumbing for the experiment binaries: a tiny `--key value`
//! argument parser and table-printing helpers.
//!
//! Every experiment binary (`exp_*`) regenerates one table or figure of
//! the paper; run them with `cargo run --release -p dta-bench --bin
//! exp_<name> -- [--key value ...]`. All accept `--help`-ish defaults:
//! invoked bare, they run a reduced configuration that finishes in
//! seconds to a few minutes; flags scale them up to the paper's full
//! settings.

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

pub mod twin;

pub use twin::{
    assert_twin_floor, commission, mean, open_checkpoint, record_twin, replay_twin, run_twin_race,
    TwinCell, TwinRace, TWIN_ARMS,
};

/// The `--key value` options the experiment binaries read, with one-line
/// help. Not every binary reads every key; unread keys are ignored.
const KNOWN_KEYS: &[(&str, &str)] = &[
    ("tasks", "comma-separated task list, or `all`"),
    ("task", "single benchmark task"),
    ("reps", "repetitions per configuration"),
    ("folds", "cross-validation folds"),
    ("epochs", "training epochs (0 = task's Table II value)"),
    ("counts", "comma-separated defect counts"),
    ("defects", "number of injected defects"),
    ("samples", "stimulus sample count"),
    ("trials", "trial count"),
    ("hidden", "hidden-layer size"),
    ("model", "fault model: transistor | gate"),
    ("seed", "master RNG seed"),
    (
        "threads",
        "worker threads for campaign grids (0 = all cores)",
    ),
    ("full", "true = paper-scale configuration"),
    ("serial", "exp_fig10: also time a --threads 1 reference run"),
    ("bench-out", "path for the machine-readable timing JSON"),
    (
        "breakdown",
        "exp_simspeed: report compile vs execute time and memo hit rates",
    ),
    (
        "net-rows",
        "exp_simspeed: rows for the network-level forward-pass shootout",
    ),
    (
        "net-defects",
        "exp_simspeed: defect counts for the network-level shootout",
    ),
    ("smoke", "exp_simspeed: reduced grid for CI smoke lanes"),
    (
        "checkpoint",
        "journal file for resumable campaigns (per-class suffix in exp_transient)",
    ),
    (
        "chaos",
        "exp_transient: inject engine panics, `defects:rep:attempts[,..]`",
    ),
    (
        "classes",
        "exp_transient: activation classes to run (default all three)",
    ),
    ("p", "exp_transient: transient per-evaluation probability"),
    (
        "period",
        "exp_transient: intermittent cycle length (evaluations)",
    ),
    (
        "duty",
        "exp_transient: active evaluations per intermittent cycle",
    ),
    (
        "budget-ms",
        "exp_recovery: wall-clock watchdog deadline per recovery rung",
    ),
    (
        "target-drop",
        "exp_recovery: accepted accuracy drop below the clean network",
    ),
    (
        "recovery-epochs",
        "exp_recovery: epoch budget per recovery rung",
    ),
    (
        "densities",
        "exp_memfault: comma-separated memory defect densities (faults per bit cell)",
    ),
    (
        "ecc",
        "exp_memfault: protect words with SEC-DED (default true)",
    ),
    ("spare-rows", "exp_memfault: spare rows for steering"),
    ("spare-cols", "exp_memfault: spare columns for steering"),
    (
        "rates",
        "exp_mission: comma-separated Poisson fault-arrival rates (events/batch)",
    ),
    ("windows", "exp_mission: reporting windows in the trace"),
    ("batches", "exp_mission: traffic batches per window"),
    ("rows", "exp_mission: dataset rows served per batch"),
    (
        "probe-interval",
        "exp_mission: batches between incremental BIST probes",
    ),
    (
        "probe-budget-ms",
        "exp_mission: wall-clock watchdog per probe",
    ),
    (
        "event-defects",
        "exp_mission: defects planted per arrival event",
    ),
    (
        "max-attempts",
        "exp_mission: failed recovery episodes tolerated before quarantine",
    ),
];

/// Parsed `--key value` command-line options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()`.
    ///
    /// On `--help`/`-h`, a bare argument, or a dangling `--key` without
    /// a value, prints a usage summary listing the accepted keys and
    /// exits with status 0.
    pub fn parse() -> Args {
        match Args::try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(HelpRequested(detail)) => {
                if let Some(detail) = detail {
                    println!("{detail}\n");
                }
                print_usage();
                std::process::exit(0);
            }
        }
    }

    /// Parses an explicit argument stream (without the program name).
    /// `Err` carries the message to print above the usage text, if any.
    fn try_parse<I: Iterator<Item = String>>(iter: I) -> Result<Args, HelpRequested> {
        let mut values = HashMap::new();
        let mut iter = iter.peekable();
        while let Some(arg) = iter.next() {
            if arg == "--help" || arg == "-h" {
                return Err(HelpRequested(None));
            }
            if let Some(key) = arg.strip_prefix("--") {
                match iter.next() {
                    Some(value) => {
                        values.insert(key.to_string(), value);
                    }
                    None => return Err(HelpRequested(Some(format!("--{key} needs a value")))),
                }
            } else {
                return Err(HelpRequested(Some(format!(
                    "unexpected argument `{arg}` (use --key value)"
                ))));
            }
        }
        Ok(Args { values })
    }

    /// Fetches a typed option or its default. A value that does not
    /// parse as `T` prints the error plus the usage summary and exits
    /// with status 2.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: Display,
    {
        match self.values.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|e| bad_value(&format!("--{key} {v}: {e}"))),
        }
    }

    /// Fetches a comma-separated list of `usize`, or the default.
    pub fn get_usize_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.values.get(key) {
            None => default.to_vec(),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|e| bad_value(&format!("--{key} `{s}`: {e}")))
                })
                .collect(),
        }
    }

    /// Fetches a comma-separated list of `f64`, or the default.
    pub fn get_f64_list(&self, key: &str, default: &[f64]) -> Vec<f64> {
        match self.values.get(key) {
            None => default.to_vec(),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|e| bad_value(&format!("--{key} `{s}`: {e}")))
                })
                .collect(),
        }
    }

    /// Fetches a comma-separated list of strings, or the default.
    pub fn get_str_list(&self, key: &str, default: &[&str]) -> Vec<String> {
        match self.values.get(key) {
            None => default.iter().map(|s| s.to_string()).collect(),
            Some(v) => v.split(',').map(|s| s.trim().to_string()).collect(),
        }
    }

    /// Fetches a string option that has no default (e.g. an optional
    /// output path).
    pub fn get_opt_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// True if `--key true` (or any value other than `false`/`0`) was
    /// passed.
    pub fn get_bool(&self, key: &str, default: bool) -> bool {
        match self.values.get(key).map(String::as_str) {
            None => default,
            Some("false") | Some("0") => false,
            Some(_) => true,
        }
    }
}

/// Internal marker: the argument stream asked for (or forced) the usage
/// text. The payload is an optional explanation line.
struct HelpRequested(Option<String>);

fn print_usage() {
    println!("usage: exp_* [--key value]...\n");
    println!("accepted keys (unread keys are ignored by a given binary):");
    for (key, help) in KNOWN_KEYS {
        println!("  --{key:<12} {help}");
    }
}

/// Reports an unparseable option value and exits with status 2.
fn bad_value(msg: &str) -> ! {
    eprintln!("{msg}\n");
    print_usage();
    std::process::exit(2);
}

/// Looks up one task of the benchmark suite by name. An unknown name
/// prints the available tasks plus the usage summary and exits with
/// status 2 — a typo in `--task` is user error, not a crash.
pub fn require_task(name: &str) -> dta_datasets::TaskSpec {
    if let Some(spec) = dta_datasets::suite::specs()
        .into_iter()
        .find(|s| s.name == name)
    {
        return spec;
    }
    let names: Vec<&str> = dta_datasets::suite::specs()
        .iter()
        .map(|s| s.name)
        .collect();
    bad_value(&format!(
        "unknown task `{name}` (available: {})",
        names.join(", ")
    ))
}

/// A hand-rolled flat JSON object writer — enough to emit the
/// `BENCH_campaign.json` perf record without a serde dependency.
///
/// Keys appear in insertion order; numbers are rendered with
/// [`format_json_number`] (finite floats only — NaN/∞ become `null`).
#[derive(Clone, Debug, Default)]
pub struct JsonMap {
    entries: Vec<(String, String)>,
}

impl JsonMap {
    /// Creates an empty object.
    pub fn new() -> JsonMap {
        JsonMap::default()
    }

    fn push(&mut self, key: &str, rendered: String) {
        self.entries.push((key.to_string(), rendered));
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> JsonMap {
        self.push(key, json_string(value));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> JsonMap {
        self.push(key, value.to_string());
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn num(mut self, key: &str, value: f64) -> JsonMap {
        self.push(key, format_json_number(value));
        self
    }

    /// Adds an optional float field (`null` when absent or non-finite).
    pub fn opt_num(mut self, key: &str, value: Option<f64>) -> JsonMap {
        self.push(key, value.map_or_else(|| "null".into(), format_json_number));
        self
    }

    /// Adds a list-of-integers field.
    pub fn int_list(mut self, key: &str, values: &[usize]) -> JsonMap {
        let body: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        self.push(key, format!("[{}]", body.join(", ")));
        self
    }

    /// Adds a list-of-floats field (non-finite values become `null`).
    pub fn num_list(mut self, key: &str, values: &[f64]) -> JsonMap {
        let body: Vec<String> = values.iter().copied().map(format_json_number).collect();
        self.push(key, format!("[{}]", body.join(", ")));
        self
    }

    /// Adds a list of optional floats (`null` where absent or
    /// non-finite).
    pub fn opt_num_list(mut self, key: &str, values: &[Option<f64>]) -> JsonMap {
        let body: Vec<String> = values
            .iter()
            .map(|v| v.map_or_else(|| "null".into(), format_json_number))
            .collect();
        self.push(key, format!("[{}]", body.join(", ")));
        self
    }

    /// Adds a list-of-strings field.
    pub fn str_list(mut self, key: &str, values: &[String]) -> JsonMap {
        let body: Vec<String> = values.iter().map(|v| json_string(v)).collect();
        self.push(key, format!("[{}]", body.join(", ")));
        self
    }

    /// Renders the object as pretty-printed JSON with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            out.push_str(&format!("  {}: {value}{comma}\n", json_string(key)));
        }
        out.push_str("}\n");
        out
    }

    /// Adds the host facts that make perf records comparable across
    /// machines and commits: `nproc` and the checked-out `git_rev`
    /// (each `null` when unknown, e.g. outside a git checkout).
    pub fn host(mut self) -> JsonMap {
        let nproc = std::thread::available_parallelism().map(|n| n.get()).ok();
        self.push(
            "nproc",
            nproc.map_or_else(|| "null".into(), |n| n.to_string()),
        );
        self.push(
            "git_rev",
            git_rev().map_or_else(|| "null".into(), |r| json_string(&r)),
        );
        self
    }

    /// Writes the rendered object to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// Renders a float as a JSON number: finite values via `{:?}` (shortest
/// round-trip form), non-finite as `null` (JSON has no NaN/∞).
pub fn format_json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}

/// The commit the working directory is checked out at, if git can tell.
fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !rev.is_empty()).then_some(rev)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints a rule line matching a header width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Total-variation distance between two histograms (after
/// normalization) — the divergence measure used to compare faulty-
/// operator output distributions against the error-free one in the
/// Figure 5 analysis.
pub fn total_variation(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let sa: u64 = a.iter().sum();
    let sb: u64 = b.iter().sum();
    assert!(sa > 0 && sb > 0, "histograms must be non-empty");
    0.5 * a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64 / sa as f64 - y as f64 / sb as f64).abs())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tv_distance_properties() {
        let a = [10u64, 0, 10];
        assert_eq!(total_variation(&a, &a), 0.0);
        let b = [0u64, 20, 0];
        assert_eq!(total_variation(&a, &b), 1.0);
        let c = [10u64, 10, 0];
        let d = total_variation(&a, &c);
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn tv_rejects_empty() {
        total_variation(&[0, 0], &[1, 1]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.3%");
    }

    fn argv(args: &[&str]) -> std::vec::IntoIter<String> {
        args.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn try_parse_accepts_key_value_pairs() {
        let Ok(args) = Args::try_parse(argv(&["--reps", "7", "--tasks", "iris,wine"])) else {
            panic!("valid argument stream rejected");
        };
        assert_eq!(args.get("reps", 1usize), 7);
        assert_eq!(
            args.get_str_list("tasks", &[]),
            vec!["iris".to_string(), "wine".to_string()]
        );
    }

    #[test]
    fn try_parse_requests_help_instead_of_panicking() {
        assert!(Args::try_parse(argv(&["--help"])).is_err());
        assert!(Args::try_parse(argv(&["-h"])).is_err());
        assert!(Args::try_parse(argv(&["stray"])).is_err());
        let dangling = Args::try_parse(argv(&["--reps"]));
        let Err(HelpRequested(Some(detail))) = dangling else {
            panic!("dangling key must carry an explanation");
        };
        assert!(detail.contains("--reps"));
    }

    #[test]
    fn json_map_renders_all_field_kinds() {
        let json = JsonMap::new()
            .str("bin", "exp_fig10")
            .int("threads", 4)
            .num("wall_s", 1.5)
            .opt_num("speedup", None)
            .num("bad", f64::NAN)
            .int_list("counts", &[0, 3, 6])
            .opt_num_list("latency", &[Some(1.5), None])
            .str_list("tasks", &["iris".into(), "wi\"ne".into()])
            .render();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"bin\": \"exp_fig10\""));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"wall_s\": 1.5"));
        assert!(json.contains("\"speedup\": null"));
        assert!(json.contains("\"bad\": null"));
        assert!(json.contains("\"counts\": [0, 3, 6]"));
        assert!(json.contains("\"latency\": [1.5, null]"));
        assert!(json.contains("\"tasks\": [\"iris\", \"wi\\\"ne\"]"));
        // No trailing comma before the closing brace.
        assert!(!json.contains(",\n}"));
    }

    #[test]
    fn args_defaults_without_cli() {
        let args = Args::default();
        assert_eq!(args.get("reps", 5usize), 5);
        assert_eq!(args.get_usize_list("counts", &[1, 2]), vec![1, 2]);
        assert_eq!(args.get_str_list("tasks", &["iris"]), vec!["iris"]);
        assert!(!args.get_bool("full", false));
    }
}
