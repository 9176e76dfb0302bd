//! Where a result came from: machine shape, toolchain, revision.

use std::process::Command;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Provenance {
    pub host_cores: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    // `output()` waits for the child, so nothing outlives this call.
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

pub fn gather() -> Provenance {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // The driver's checkout is not a git repository (and git must not
    // go looking for one above it); `GIT_REV` lets a caller stamp the
    // revision there.
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git_rev = std::env::var("GIT_REV")
        .ok()
        .filter(|s| !s.is_empty())
        .or_else(|| {
            repo_root
                .join(".git")
                .exists()
                .then(|| first_line_of("git", &["rev-parse", "--short", "HEAD"]))
                .flatten()
        })
        .unwrap_or_else(|| "unknown".to_string());
    Provenance {
        host_cores,
        cpu_model,
        rustc,
        git_rev,
    }
}

impl Provenance {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("host_cores", Json::uint(self.host_cores as u64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(&self.rustc)),
            ("git_rev", Json::str(&self.git_rev)),
        ])
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or NaN where
/// `/proc` does not offer it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
