//! Machine-readable benchmark reports, checked against their baselines.
//!
//! Every figure/table harness serializes its headline numbers to
//! `perf/baselines/BENCH_<figure>.json` — one JSON object per figure
//! with the metric names and values and the cluster shape the numbers
//! were measured on. Every figure measures virtual time, which depends
//! only on the code, so a report is a golden: tier-1 checks each one
//! byte for byte ([`BenchReport::check_baseline`]), `bench all`
//! rewrites them all, and the perf trajectory across commits is
//! `git log -p perf/baselines/`.
//!
//! Serialization goes through [`crate::json`]; non-finite floats
//! serialize as `null` (JSON has no NaN/Infinity).

use std::path::{Path, PathBuf};

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

    /// Writes the report over `figure`'s baseline and returns the path.
    pub fn write(&self, figure: &str) -> std::io::Result<PathBuf> {
        let path = baseline_path(figure);
        std::fs::write(&path, self.to_json(figure))?;
        Ok(path.canonicalize().unwrap_or(path))
    }

    /// Checks the report against `figure`'s checked-in baseline, byte
    /// for byte: the values are virtual time, an exact function of the
    /// code, so any difference is a move to declare. The error names
    /// the figure and the first line that differs, which for a metric
    /// is the metric's line. The code-size trend (`codesize`) is
    /// recorded but not checked.
    pub fn check_baseline(&self, figure: &str) -> Result<(), String> {
        if figure == "codesize" {
            return Ok(());
        }
        let path = baseline_path(figure);
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| format!("{figure}: {}: {e}", path.display()))?;
        first_difference(figure, &self.to_json(figure), &baseline)
    }
}

/// `perf/baselines/BENCH_<figure>.json` under the repository root.
fn baseline_path(figure: &str) -> PathBuf {
    repo_root().join(format!("perf/baselines/BENCH_{figure}.json"))
}

/// `Ok` if `fresh == baseline`, else an error quoting the first line
/// that differs on each side. Trailing commas are ignored when looking
/// for it, because appending or dropping the last metric moves one.
fn first_difference(figure: &str, fresh: &str, baseline: &str) -> Result<(), String> {
    if fresh == baseline {
        return Ok(());
    }
    fn lines(text: &str) -> Vec<&str> {
        text.lines()
            .map(|l| l.trim().trim_end_matches(','))
            .collect()
    }
    let (fresh, baseline) = (lines(fresh), lines(baseline));
    let n = (0..fresh.len().max(baseline.len()))
        .find(|&i| fresh.get(i) != baseline.get(i))
        .unwrap_or(0);
    let quote = |lines: &[&str]| lines.get(n).copied().unwrap_or("end of file").to_string();
    Err(format!(
        "{figure}: BENCH_{figure}.json line {}: baseline `{}`, fresh `{}`; \
         if the move is intended, run `bench all` and review `git diff perf/baselines/`",
        n + 1,
        quote(&baseline),
        quote(&fresh),
    ))
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
    }

    /// A baseline of two metrics, and a fresh report of `metrics`.
    fn baseline_and(metrics: &[(&str, f64)]) -> (String, String) {
        let report = |metrics: &[(&str, f64)]| {
            let mut r = BenchReport::new(ClusterShape::new(1, 2, 4));
            for (name, value) in metrics {
                r = r.metric(*name, *value);
            }
            r.to_json("figX")
        };
        (report(&[("a", 100.0), ("b", 2.0)]), report(metrics))
    }

    /// `(case, fresh metrics, the lines the error must quote)`; no
    /// quoted lines means the report must match.
    type Case<'a> = (&'a str, &'a [(&'a str, f64)], &'a [&'a str]);

    /// Runs `check_baseline`'s comparison over `cases`.
    fn assert_cases(cases: &[Case]) {
        for (case, metrics, quoted) in cases {
            let (baseline, fresh) = baseline_and(metrics);
            let verdict = first_difference("figX", &fresh, &baseline);
            if quoted.is_empty() {
                assert_eq!(verdict, Ok(()), "{case}");
                continue;
            }
            let err = verdict.expect_err(case);
            assert!(err.starts_with("figX: "), "{case}: {err}");
            for q in quoted.iter() {
                assert!(err.contains(q), "{case}: {err} does not quote {q}");
            }
        }
    }

    /// Exact: an identical report passes, and any changed value fails
    /// naming the metric's line on either side.
    #[test]
    fn a_changed_value_fails_and_names_its_line() {
        assert_cases(&[
            ("identical", &[("a", 100.0), ("b", 2.0)], &[]),
            (
                "a 1 % move",
                &[("a", 101.0), ("b", 2.0)],
                &["`\"a\": 100`", "`\"a\": 101`"],
            ),
            (
                "a null where a number was",
                &[("a", 100.0), ("b", f64::NAN)],
                &["`\"b\": 2`", "`\"b\": null`"],
            ),
        ]);
    }

    /// A metric missing from the fresh report fails, and so does one
    /// new in it: either way the error names the odd line.
    #[test]
    fn a_missing_or_new_metric_fails_and_names_its_line() {
        assert_cases(&[
            (
                "a metric missing from the fresh report",
                &[("a", 100.0)],
                &["baseline `\"b\": 2`"],
            ),
            (
                "a metric new in the fresh report",
                &[("a", 100.0), ("b", 2.0), ("c", 3.0)],
                &["fresh `\"c\": 3`"],
            ),
        ]);
    }

    /// Line counts are recorded, not checked: whatever the report,
    /// `codesize` passes.
    #[test]
    fn codesize_is_recorded_not_checked() {
        assert_eq!(
            BenchReport::new(ClusterShape::new(0, 0, 0)).check_baseline("codesize"),
            Ok(())
        );
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
