//! Facts about the host a record was measured on, so records from
//! different machines or toolchains are not compared as like for like.

use std::path::Path;
use std::process::Command;

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the counters now; zeros where `/proc/stat` is unavailable.
    pub fn now() -> CpuTimes {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest ...];
        // guest time is already counted in user.
        CpuTimes {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of CPU time stolen by the hypervisor between `self` and
    /// `later`, or `None` when the counters did not move.
    pub fn steal_share(&self, later: &CpuTimes) -> Option<f64> {
        let total = later.total.checked_sub(self.total)?;
        let steal = later.steal.checked_sub(self.steal)?;
        (total > 0).then(|| steal as f64 / total as f64)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!s.is_empty()).then_some(s)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn json_str(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        None => "null".to_string(),
    }
}

fn json_num(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |x| format!("{x}"))
}

/// The commit `root` is checked out at. Git may not look above `root`,
/// so a checkout that is not a repository reads `None`.
fn git_rev(root: &Path) -> Option<String> {
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]).current_dir(root);
    if let Some(parent) = root.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_line(&mut cmd)
}

/// The host record as one JSON object. Missing facts are `null` (the
/// benchmark runs from a checkout that need not be a git repository).
pub fn record(root: &Path, steal_share: Option<f64>) -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).ok();
    format!(
        "{{\"nproc\":{},\"git_rev\":{},\"rustc\":{},\"cpu_model\":{},\"steal_share\":{}}}",
        nproc.map_or("null".to_string(), |n| n.to_string()),
        json_str(&git_rev(root)),
        json_str(&command_line(Command::new("rustc").arg("--version"))),
        json_str(&cpu_model()),
        json_num(steal_share),
    )
}
