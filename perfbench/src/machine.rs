//! The machine fingerprint recorded with every result, and peak memory.

use std::process::Command;

/// Where a result was measured.
pub struct Fingerprint {
    nproc: usize,
    cpu: String,
    rustc: String,
    commit: String,
}

impl Fingerprint {
    /// Read `nproc`, the CPU model, `rustc -V` and the commit (when the
    /// benchmark runs inside a git checkout; `unknown` otherwise).
    pub fn collect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: crate::nproc(),
            cpu,
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
            self.nproc, self.cpu, self.rustc, self.commit
        )
    }

    /// The fingerprint as JSON.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "nproc": self.nproc,
            "cpu": self.cpu,
            "rustc": self.rustc,
            "commit": self.commit,
        })
    }
}

/// First line of a command's standard output, or `unknown`. `output`
/// waits for the child, so no process outlives the call.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), MB. One process runs
/// one workload, so the figure is that workload's.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the
/// `cpu` line of `/proc/stat`. Steal is time the hypervisor ran another
/// guest while this one had work, the mark of a contended host.
pub fn cpu_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            let ticks: Vec<u64> = line
                .split_whitespace()
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect();
            Some((ticks.get(7).copied().unwrap_or(0), ticks.iter().sum()))
        })
        .unwrap_or((0, 0))
}
