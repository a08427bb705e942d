#![warn(missing_docs)]

//! Shared plumbing for the experiment binaries: a tiny `--key value`
//! argument parser with task and enumerated-option resolvers, the
//! checkpoint resume helper, the perf-record writer and table-printing
//! helpers.
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

use dta_circuits::FaultModel;
use dta_core::Checkpoint;
use dta_datasets::{suite, TaskSpec};

pub mod twin;

/// The `--key value` options the experiment binaries read, with one-line
/// help. Any other key is refused; a listed key that a given binary
/// does not read is ignored.
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
        "switch",
        "exp_simspeed: also time the switch-level reference (default: unless --smoke)",
    ),
    (
        "phys-neurons",
        "exp_ablation_spatial: physical neurons of the time-multiplexed design",
    ),
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
    (
        "rows",
        "exp_mission: dataset rows served per batch; exp_simspeed: stimulus rows",
    ),
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

/// The accepted `--model` values, for [`Args::choice`].
pub const FAULT_MODELS: &[(&str, FaultModel)] = &[
    ("transistor", FaultModel::TransistorLevel),
    ("gate", FaultModel::GateLevel),
];

/// Parsed `--key value` command-line options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()`.
    ///
    /// `--help`/`-h` prints a usage summary listing the accepted keys
    /// and exits with status 0. A key outside that list, a bare
    /// argument or a dangling `--key` without a value prints the
    /// problem plus the usage summary and exits with status 2.
    pub fn parse() -> Args {
        match Args::try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(ArgError::Help) => {
                print_usage();
                std::process::exit(0);
            }
            Err(ArgError::Usage(msg)) => bad_value(&msg),
        }
    }

    /// Parses an explicit argument stream (without the program name).
    fn try_parse<I: Iterator<Item = String>>(mut iter: I) -> Result<Args, ArgError> {
        let mut values = HashMap::new();
        while let Some(arg) = iter.next() {
            if arg == "--help" || arg == "-h" {
                return Err(ArgError::Help);
            }
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ArgError::Usage(format!(
                    "unexpected argument `{arg}` (use --key value)"
                )));
            };
            if !KNOWN_KEYS.iter().any(|(known, _)| *known == key) {
                return Err(ArgError::Usage(format!("unknown option --{key}")));
            }
            let Some(value) = iter.next() else {
                return Err(ArgError::Usage(format!("--{key} needs a value")));
            };
            values.insert(key.to_string(), value);
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
        self.get_list(key, default)
    }

    /// Fetches a comma-separated list of `f64`, or the default.
    pub fn get_f64_list(&self, key: &str, default: &[f64]) -> Vec<f64> {
        self.get_list(key, default)
    }

    fn get_list<T: FromStr + Clone>(&self, key: &str, default: &[T]) -> Vec<T>
    where
        T::Err: Display,
    {
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

    /// Fetches a boolean option (`true`, `false`, `1` or `0`), or the
    /// default; any other value exits with status 2 and the usage text.
    pub fn get_bool(&self, key: &str, default: bool) -> bool {
        match self.get_opt_str(key) {
            None => default,
            Some(v) => parse_bool(key, v).unwrap_or_else(|e| bad_value(&e)),
        }
    }

    /// The suite tasks named by `--tasks` (comma-separated, or `all`
    /// for the whole suite), or by `default`. An unknown name prints
    /// the available tasks plus the usage summary and exits with
    /// status 2 — a typo is user error, not a crash.
    pub fn tasks(&self, default: &[&str]) -> Vec<TaskSpec> {
        let names = self.get_str_list("tasks", default);
        if names == ["all"] {
            return suite::specs();
        }
        names
            .iter()
            .map(|name| find_task(name).unwrap_or_else(|e| bad_value(&e)))
            .collect()
    }

    /// The suite task named by `--task`, or by `default`; an unknown
    /// name exits with status 2 like [`tasks`](Args::tasks).
    pub fn task(&self, default: &str) -> TaskSpec {
        let name = self.get_opt_str("task").unwrap_or(default);
        find_task(name).unwrap_or_else(|e| bad_value(&e))
    }

    /// Reads an enumerated option: `--key` (or `default`) must name one
    /// of `choices`. Returns the accepted name with its value; any
    /// other name prints the accepted ones plus the usage summary and
    /// exits with status 2.
    pub fn choice<T: Clone>(
        &self,
        key: &str,
        default: &str,
        choices: &[(&'static str, T)],
    ) -> (&'static str, T) {
        let name = self.get_opt_str(key).unwrap_or(default);
        pick(key, name, choices).unwrap_or_else(|e| bad_value(&e))
    }

    /// [`choice`](Args::choice) over a comma-separated list of names.
    pub fn choices<T: Clone>(
        &self,
        key: &str,
        default: &[&str],
        choices: &[(&'static str, T)],
    ) -> Vec<(&'static str, T)> {
        self.get_str_list(key, default)
            .iter()
            .map(|name| pick(key, name, choices).unwrap_or_else(|e| bad_value(&e)))
            .collect()
    }

    /// Writes a perf record, with the host facts appended, to
    /// `--bench-out` (or `default_path`). A failed write exits with
    /// status 1: a run whose record is lost must not look green.
    pub fn write_record(&self, default_path: &str, record: JsonMap) {
        let path = self.get_opt_str("bench-out").unwrap_or(default_path);
        match record.host().write(path) {
            Ok(()) => println!("perf record written to {path}"),
            Err(e) => {
                eprintln!("could not write perf record {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Why an argument stream yielded no options.
#[derive(Debug)]
enum ArgError {
    /// `--help`/`-h`: print the usage text and succeed.
    Help,
    /// A usage error, explained by the message.
    Usage(String),
}

fn print_usage() {
    println!("usage: exp_* [--key value]...\n");
    println!("accepted keys (a binary ignores the ones it does not read):");
    for (key, help) in KNOWN_KEYS {
        println!("  --{key:<12} {help}");
    }
}

/// Reports an unusable option and exits with status 2.
fn bad_value(msg: &str) -> ! {
    eprintln!("{msg}\n");
    print_usage();
    std::process::exit(2);
}

fn find_task(name: &str) -> Result<TaskSpec, String> {
    let specs = suite::specs();
    let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
    let available = names.join(", ");
    specs
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown task `{name}` (available: {available})"))
}

fn pick<T: Clone>(
    key: &str,
    name: &str,
    choices: &[(&'static str, T)],
) -> Result<(&'static str, T), String> {
    choices
        .iter()
        .find(|(accepted, _)| *accepted == name)
        .cloned()
        .ok_or_else(|| {
            let accepted: Vec<&str> = choices.iter().map(|(n, _)| *n).collect();
            format!("--{key} {name}: expected one of {}", accepted.join(" | "))
        })
}

/// Parses a boolean option value: only `true`, `false`, `1` and `0`.
fn parse_bool(key: &str, value: &str) -> Result<bool, String> {
    const BOOLS: [(&str, bool); 4] = [("true", true), ("false", false), ("1", true), ("0", false)];
    pick(key, value, &BOOLS).map(|(_, b)| b)
}

/// Opens (or resumes) a fingerprint-guarded checkpoint journal,
/// reporting how many cells were already journaled. A journal that
/// cannot be used (unreadable, corrupt, another format version or a
/// different fingerprint) exits with status 1.
pub fn open_checkpoint(bin: &str, path: &str, fingerprint: &str) -> Checkpoint {
    match Checkpoint::open(path, fingerprint) {
        Ok(ck) => {
            if ck.completed() > 0 {
                eprintln!(
                    "{bin}: resuming from {path} ({} journaled cell(s))",
                    ck.completed()
                );
            }
            ck
        }
        Err(e) => {
            eprintln!("{bin}: {e}");
            std::process::exit(1);
        }
    }
}

/// A result row that journals as one checkpoint line of optional
/// floats.
pub trait Journaled: Sized {
    /// The row's values, in journal order.
    fn to_values(&self) -> Vec<Option<f64>>;

    /// Rebuilds a row from its journaled values; `None` when they do not
    /// have this row's shape.
    fn from_values(values: &[Option<f64>]) -> Option<Self>;
}

/// Replays cell `(key, idx, rep)` if the journal holds it; otherwise
/// runs it and journals the result. Without a journal it just runs. A
/// journal write failure exits with status 1.
pub fn resume<T: Journaled>(
    bin: &str,
    checkpoint: Option<&Checkpoint>,
    key: &str,
    idx: usize,
    rep: usize,
    run: impl FnOnce() -> T,
) -> T {
    let Some(ck) = checkpoint else {
        return run();
    };
    if let Some(row) = ck.values(key, idx, rep).and_then(T::from_values) {
        return row;
    }
    let row = run();
    if let Err(e) = ck.record_values(key, idx, rep, &row.to_values()) {
        eprintln!("{bin}: {e}");
        std::process::exit(1);
    }
    row
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
        self.push(key, opt_json_number(value));
        self
    }

    fn list(mut self, key: &str, items: impl Iterator<Item = String>) -> JsonMap {
        self.push(key, format!("[{}]", items.collect::<Vec<_>>().join(", ")));
        self
    }

    /// Adds a list-of-integers field.
    pub fn int_list(self, key: &str, values: &[usize]) -> JsonMap {
        self.list(key, values.iter().map(usize::to_string))
    }

    /// Adds a list-of-floats field (non-finite values become `null`).
    pub fn num_list(self, key: &str, values: &[f64]) -> JsonMap {
        self.list(key, values.iter().copied().map(format_json_number))
    }

    /// Adds a list of optional floats (`null` where absent or
    /// non-finite).
    pub fn opt_num_list(self, key: &str, values: &[Option<f64>]) -> JsonMap {
        self.list(key, values.iter().map(|v| opt_json_number(*v)))
    }

    /// Adds a list-of-strings field.
    pub fn str_list(self, key: &str, values: &[String]) -> JsonMap {
        self.list(key, values.iter().map(|v| json_string(v)))
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
    fn host(mut self) -> JsonMap {
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

fn opt_json_number(value: Option<f64>) -> String {
    value.map_or_else(|| "null".into(), format_json_number)
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
        assert!(matches!(
            Args::try_parse(argv(&["--help"])),
            Err(ArgError::Help)
        ));
        assert!(matches!(
            Args::try_parse(argv(&["-h"])),
            Err(ArgError::Help)
        ));
        assert!(matches!(
            Args::try_parse(argv(&["stray"])),
            Err(ArgError::Usage(_))
        ));
        let Err(ArgError::Usage(detail)) = Args::try_parse(argv(&["--reps"])) else {
            panic!("dangling key must carry an explanation");
        };
        assert!(detail.contains("--reps"));
    }

    #[test]
    fn unknown_keys_are_refused() {
        let Err(ArgError::Usage(detail)) = Args::try_parse(argv(&["--rep", "5"])) else {
            panic!("a misspelled key must not silently run the default");
        };
        assert!(detail.contains("--rep"), "{detail}");
    }

    #[test]
    fn enumerated_options_accept_only_listed_names() {
        let models = [("transistor", 0u8), ("gate", 1)];
        let Ok(args) = Args::try_parse(argv(&["--model", "gate"])) else {
            panic!("valid argument stream rejected");
        };
        assert_eq!(args.choice("model", "transistor", &models), ("gate", 1));
        assert_eq!(
            Args::default().choice("model", "transistor", &models),
            ("transistor", 0)
        );
        let Ok(args) = Args::try_parse(argv(&["--model", "gat"])) else {
            panic!("the value is checked by the reader, not the parser");
        };
        let err = pick("model", args.get_opt_str("model").unwrap(), &models).unwrap_err();
        assert!(err.contains("transistor | gate"), "{err}");
    }

    #[test]
    fn boolean_options_accept_only_true_false_1_0() {
        for (v, want) in [("true", true), ("false", false), ("1", true), ("0", false)] {
            assert_eq!(parse_bool("ecc", v), Ok(want), "{v}");
        }
        for v in ["flase", "fals", "yes", "TRUE", ""] {
            let err = parse_bool("ecc", v).unwrap_err();
            assert!(
                err.contains("--ecc") && err.contains("true | false"),
                "{err}"
            );
        }
        let Ok(args) = Args::try_parse(argv(&["--ecc", "0"])) else {
            panic!("valid argument stream rejected");
        };
        assert!(!args.get_bool("ecc", true));
        assert!(Args::default().get_bool("ecc", true));
    }

    /// Every option a binary reads is documented in `KNOWN_KEYS` (or
    /// `Args::parse` would refuse it), and every documented key is read
    /// somewhere.
    #[test]
    fn known_keys_match_the_keys_binaries_read() {
        // Readers whose first argument is the key, and readers that
        // imply one.
        const KEYED: [&str; 8] = [
            ".get(",
            ".get_bool(",
            ".get_opt_str(",
            ".get_str_list(",
            ".get_usize_list(",
            ".get_f64_list(",
            ".choice(",
            ".choices(",
        ];
        const IMPLIED: [(&str, &str); 3] = [
            (".tasks(", "tasks"),
            (".task(", "task"),
            (".write_record(", "bench-out"),
        ];
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut read = std::collections::BTreeSet::new();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let src = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            for method in KEYED {
                for (at, _) in src.match_indices(method) {
                    let rest = src[at + method.len()..].trim_start();
                    if let Some(quoted) = rest.strip_prefix('"') {
                        read.insert(quoted[..quoted.find('"').unwrap()].to_string());
                    }
                }
            }
            for (method, key) in IMPLIED {
                if src.contains(method) {
                    read.insert(key.to_string());
                }
            }
        }
        let documented: std::collections::BTreeSet<String> =
            KNOWN_KEYS.iter().map(|(k, _)| k.to_string()).collect();
        let undocumented: Vec<_> = read.difference(&documented).collect();
        assert!(
            undocumented.is_empty(),
            "read but not in KNOWN_KEYS: {undocumented:?}"
        );
        let unread: Vec<_> = documented.difference(&read).collect();
        assert!(
            unread.is_empty(),
            "in KNOWN_KEYS but never read: {unread:?}"
        );
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
