//! Machine-readable benchmark reports.
//!
//! Every figure/table harness can serialize its headline numbers to a
//! `BENCH_<figure>.json` file at the repository root — one JSON object
//! per figure with the metric names and values, the cluster shape the
//! numbers were measured on, and the git revision that produced them.
//! A perf trajectory across commits is then a matter of collecting the
//! files (CI uploads them as artifacts; see `.github/workflows/ci.yml`).
//!
//! Serialization goes through [`crate::json`]; non-finite floats
//! serialize as `null` (JSON has no NaN/Infinity).

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;

/// The cluster shape a report's numbers were measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterShape {
    /// Number of ICI islands.
    pub islands: u32,
    /// Hosts per island.
    pub hosts_per_island: u32,
    /// Devices per host.
    pub devices_per_host: u32,
}

impl ClusterShape {
    /// `islands` islands of `hosts_per_island` x `devices_per_host`.
    pub const fn new(islands: u32, hosts_per_island: u32, devices_per_host: u32) -> Self {
        ClusterShape {
            islands,
            hosts_per_island,
            devices_per_host,
        }
    }

    /// Total device count.
    pub fn devices(&self) -> u32 {
        self.islands * self.hosts_per_island * self.devices_per_host
    }
}

/// One verdict on a claim the paper (or this reproduction) makes.
#[derive(Debug, Clone)]
pub struct Claim {
    /// What is claimed, e.g. `"PW-F ~= JAX-F"`.
    pub name: String,
    /// Whether the measured numbers bear it out.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// One figure's machine-readable result set: the cluster it was
/// measured on, its headline metrics, and a verdict per claim.
#[derive(Debug, Clone)]
pub struct BenchReport {
    cluster: ClusterShape,
    metrics: Vec<(String, f64)>,
    claims: Vec<Claim>,
}

impl BenchReport {
    /// Starts an empty report for numbers measured on `cluster`.
    pub fn new(cluster: ClusterShape) -> Self {
        BenchReport {
            cluster,
            metrics: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Appends one named metric. Insertion order is preserved in the
    /// output.
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Appends one claim verdict.
    pub fn claim(mut self, name: impl Into<String>, ok: bool, detail: String) -> Self {
        self.claims.push(Claim {
            name: name.into(),
            ok,
            detail,
        });
        self
    }

    /// The claim verdicts recorded so far.
    pub fn claims(&self) -> &[Claim] {
        &self.claims
    }

    /// Serializes the report as `figure`'s `BENCH_<figure>.json`.
    pub fn to_json(&self, figure: &str) -> String {
        let num = |v: u32| Json::Num(f64::from(v));
        let c = self.cluster;
        Json::Obj(vec![
            ("figure".into(), Json::Str(figure.into())),
            ("git_rev".into(), Json::Str(git_rev())),
            (
                "cluster".into(),
                Json::Obj(vec![
                    ("islands".into(), num(c.islands)),
                    ("hosts_per_island".into(), num(c.hosts_per_island)),
                    ("devices_per_host".into(), num(c.devices_per_host)),
                    ("devices".into(), num(c.devices())),
                ]),
            ),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::Num(*value)))
                        .collect(),
                ),
            ),
        ])
        .write()
    }

    /// Writes the report to `BENCH_<figure>.json` in the output
    /// directory (`BENCH_OUT_DIR` if set, else the repository root) and
    /// returns the path.
    pub fn write(&self, figure: &str) -> std::io::Result<PathBuf> {
        let path = out_dir().join(format!("BENCH_{figure}.json"));
        std::fs::write(&path, self.to_json(figure))?;
        Ok(path.canonicalize().unwrap_or(path))
    }
}

/// The repository root: the nearest directory at or above the current
/// one that holds `perf/baselines/`. Resolved when called, not when
/// compiled — cargo reuses a copied checkout's `target/`, and a `bench`
/// built in the original tree must still read the copy's baselines and
/// sources and write the copy's reports. Run from outside any checkout,
/// it falls back to the tree it was compiled in.
pub fn repo_root() -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| workspace_root_above(&cwd))
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

fn workspace_root_above(dir: &Path) -> Option<PathBuf> {
    dir.ancestors()
        .find(|d| d.join("perf/baselines").is_dir())
        .map(Path::to_path_buf)
}

/// The directory `BENCH_*.json` files land in: `$BENCH_OUT_DIR` when
/// set, else the repository root.
pub fn out_dir() -> PathBuf {
    std::env::var_os("BENCH_OUT_DIR").map_or_else(repo_root, PathBuf::from)
}

/// Short git revision of the working tree, `"unknown"` when git is
/// unavailable (e.g. running from an exported tarball). A non-empty
/// `GIT_REV` environment variable overrides the probe — CI and release
/// tooling use it to stamp reports with the commit under test rather
/// than whatever HEAD the checkout happens to be on.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("GIT_REV") {
        let rev = rev.trim().to_string();
        if !rev.is_empty() {
            return rev;
        }
    }
    let out = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(repo_root())
        .output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_to_valid_flat_json() {
        let json = BenchReport::new(ClusterShape::new(4, 5, 8))
            .metric("steps_per_sec", 1234.5)
            .metric("ratio", f64::NAN)
            .to_json("figX");
        assert!(json.contains("\"figure\": \"figX\""));
        assert!(json.contains("\"devices\": 160"));
        assert!(json.contains("\"steps_per_sec\": 1234.5"));
        // NaN is not JSON: it must degrade to null.
        assert!(json.contains("\"ratio\": null"));
        assert!(!json.contains("NaN"));
        // The git_rev field is present whatever its value.
        assert!(json.contains("\"git_rev\": \""));
    }

    #[test]
    fn repo_root_is_found_by_walking_up_from_the_current_directory() {
        let tmp = std::env::temp_dir().join(format!("pathways-bench-root-{}", std::process::id()));
        let copy = tmp.join("outer/crates/copy");
        let nested = copy.join("crates/bench/src");
        for dir in [
            tmp.join("outer/perf/baselines"),
            copy.join("perf/baselines"),
            nested.clone(),
        ] {
            std::fs::create_dir_all(dir).unwrap();
        }
        // The nearest root wins: a checkout copied inside another one
        // resolves to itself.
        assert_eq!(workspace_root_above(&nested), Some(copy.clone()));
        assert_eq!(workspace_root_above(&copy), Some(copy.clone()));
        assert_eq!(
            workspace_root_above(&tmp.join("outer/crates")),
            Some(tmp.join("outer"))
        );
        std::fs::remove_dir_all(&tmp).unwrap();
        // Tests run from the crate directory, inside this checkout.
        assert!(repo_root().join("crates/bench/Cargo.toml").is_file());
    }
}
