//! Perf-regression gate over the `BENCH_*.json` trajectory.
//!
//! `bench all` emits machine-readable reports ([`crate::perf`]); this
//! module diffs them against checked-in baselines
//! (`perf/baselines/BENCH_<figure>.json`) within one tolerance.
//! `bench gate` ([`run`]) wires it into CI and offers `--bless` to
//! regenerate the baselines after an intentional change.
//!
//! Every gated metric is derived from virtual time, so it replays
//! bit-identically on the deterministic backend and gates tightly.
//! The code-size trend is recorded for the trajectory but not gated.
//! Host time is not measured here: that is pwbench's (`benchmark/`).

use std::fmt;
use std::path::Path;

use crate::json::{parse_json, Json};
use crate::perf::{out_dir, repo_root};

// ---------------------------------------------------------------------
// Bench-report shape.

/// A parsed `BENCH_<figure>.json` report.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// The figure name (`"fig5"`, `"fig_scale"`, ...).
    pub figure: String,
    /// `(name, value)` metrics in file order; `None` for JSON `null`
    /// (a non-finite float at serialization time).
    pub metrics: Vec<(String, Option<f64>)>,
}

/// Parses a report file's JSON into its gate-relevant shape.
pub fn parse_report(text: &str) -> Result<GateReport, String> {
    let doc = parse_json(text)?;
    let figure = doc
        .get("figure")
        .and_then(Json::as_str)
        .ok_or("missing \"figure\"")?
        .to_string();
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, v)| match v {
                Json::Num(n) => Ok((k.clone(), Some(*n))),
                Json::Null => Ok((k.clone(), None)),
                other => Err(format!("metric {k:?} is not a number: {other:?}")),
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("missing \"metrics\" object".into()),
    };
    Ok(GateReport { figure, metrics })
}

// ---------------------------------------------------------------------
// Tolerance classes.

/// How a metric is gated against its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Recorded for the trajectory, never gated (the code-size trend).
    Skip,
    /// Two-sided relative tolerance: virtual-time metrics are
    /// deterministic and should barely move.
    Within {
        /// Allowed `|fresh - baseline| / |baseline|`.
        rel: f64,
    },
}

/// The gate class for a metric of `figure`.
pub fn rule_for(figure: &str) -> Rule {
    if figure == "codesize" {
        Rule::Skip
    } else {
        Rule::Within { rel: 0.02 }
    }
}

// ---------------------------------------------------------------------
// Comparison.

/// One per-metric comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Figure the metric belongs to.
    pub figure: String,
    /// Metric name.
    pub metric: String,
    /// What happened.
    pub verdict: Verdict,
}

/// Outcome of gating one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within tolerance (or rule is `Skip`).
    Ok,
    /// Outside tolerance; carries fresh and baseline values.
    Regressed {
        /// Value in the fresh report.
        fresh: f64,
        /// Value in the checked-in baseline.
        baseline: f64,
        /// The rule that was violated.
        rule: Rule,
    },
    /// Present in the baseline but missing from the fresh report —
    /// lost coverage fails the gate.
    Missing,
    /// Present fresh but not in the baseline — fine (new metric), but
    /// flagged so the baseline gets re-blessed.
    Unbaselined,
}

impl Verdict {
    /// Whether this verdict fails the gate.
    pub fn fails(&self) -> bool {
        matches!(self, Verdict::Regressed { .. } | Verdict::Missing)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.verdict {
            Verdict::Ok => write!(f, "ok        {}/{}", self.figure, self.metric),
            Verdict::Regressed {
                fresh,
                baseline,
                rule,
            } => write!(
                f,
                "REGRESSED {}/{}: {fresh} vs baseline {baseline} ({rule:?})",
                self.figure, self.metric
            ),
            Verdict::Missing => write!(
                f,
                "MISSING   {}/{}: in baseline but not in fresh report",
                self.figure, self.metric
            ),
            Verdict::Unbaselined => write!(
                f,
                "new       {}/{}: not in baseline (re-bless to record)",
                self.figure, self.metric
            ),
        }
    }
}

/// Gates one value against its baseline under `rule`.
fn check(rule: Rule, fresh: f64, baseline: f64) -> bool {
    match rule {
        Rule::Skip => true,
        Rule::Within { rel } => {
            let scale = baseline.abs().max(1e-12);
            (fresh - baseline).abs() <= rel * scale
        }
    }
}

/// Compares a fresh report against its baseline, producing one finding
/// per metric (union of both metric sets).
pub fn compare(fresh: &GateReport, baseline: &GateReport) -> Vec<Finding> {
    let mut findings = Vec::new();
    let rule = rule_for(&fresh.figure);
    for (name, base_value) in &baseline.metrics {
        let finding = match fresh.metrics.iter().find(|(n, _)| n == name) {
            // Ungated metrics may come and go with the tree (which
            // crates exist).
            None if rule == Rule::Skip => Verdict::Ok,
            None => Verdict::Missing,
            Some((_, fresh_value)) => match (fresh_value, base_value) {
                // Both null (non-finite at write time): equal enough.
                (None, None) => Verdict::Ok,
                (Some(f), Some(b)) => {
                    if check(rule, *f, *b) {
                        Verdict::Ok
                    } else {
                        Verdict::Regressed {
                            fresh: *f,
                            baseline: *b,
                            rule,
                        }
                    }
                }
                // One side null, the other finite: a shape change.
                (None, Some(b)) => Verdict::Regressed {
                    fresh: f64::NAN,
                    baseline: *b,
                    rule,
                },
                (Some(f), None) => Verdict::Regressed {
                    fresh: *f,
                    baseline: f64::NAN,
                    rule,
                },
            },
        };
        findings.push(Finding {
            figure: fresh.figure.clone(),
            metric: name.clone(),
            verdict: finding,
        });
    }
    for (name, _) in &fresh.metrics {
        if !baseline.metrics.iter().any(|(n, _)| n == name) {
            findings.push(Finding {
                figure: fresh.figure.clone(),
                metric: name.clone(),
                verdict: Verdict::Unbaselined,
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// `bench gate`.

fn load(path: &Path) -> Result<GateReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_report(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Gates every figure's fresh report (written by `bench all` to
/// `BENCH_OUT_DIR`, default the repo root) against its baseline in
/// `perf/baselines/`, failing on regressions, missing metrics or a
/// missing file on either side. With `bless`, instead copies the fresh
/// reports over the baselines (run after an intentional perf/shape
/// change, then commit `perf/baselines/`). Returns whether every figure
/// passed (or was blessed).
pub fn run(bless: bool) -> bool {
    let baseline_dir = repo_root().join("perf/baselines");
    let mut failures = 0usize;
    let mut gated = 0usize;
    for figure in crate::figures::FIGURES {
        let file = format!("BENCH_{}.json", figure.name);
        let (fresh_path, base_path) = (out_dir().join(&file), baseline_dir.join(&file));
        // Parsed before blessing too, so a malformed report never
        // becomes a baseline.
        let fresh = match load(&fresh_path) {
            Ok(report) => report,
            Err(e) => {
                println!("FAIL {}: {e} — run `bench all` first", figure.name);
                failures += 1;
                continue;
            }
        };
        if bless {
            match std::fs::copy(&fresh_path, &base_path) {
                Ok(_) => println!("blessed {}", base_path.display()),
                Err(e) => {
                    println!("FAIL {}: copy to {}: {e}", figure.name, base_path.display());
                    failures += 1;
                }
            }
            continue;
        }
        let baseline = match load(&base_path) {
            Ok(report) => report,
            Err(e) => {
                println!("FAIL {}: {e} — run `bench gate --bless`", figure.name);
                failures += 1;
                continue;
            }
        };
        let findings = compare(&fresh, &baseline);
        gated += findings.len();
        let failed: Vec<_> = findings.iter().filter(|f| f.verdict.fails()).collect();
        if failed.is_empty() {
            println!("ok   {} ({} metrics)", figure.name, fresh.metrics.len());
        } else {
            println!("FAIL {}:", figure.name);
            failures += failed.len();
        }
        for f in &findings {
            if f.verdict.fails() {
                println!("  {f}");
            } else if f.verdict == Verdict::Unbaselined {
                println!("  note: {f}");
            }
        }
    }
    if !bless {
        println!("gate: {gated} metrics gated, {failures} failure(s)");
    }
    failures == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_writer_output_roundtrip() {
        let json = crate::perf::BenchReport::new(crate::perf::ClusterShape::new(2, 1, 4))
            .metric("virtual_per_sec", 123.5)
            .metric("bad", f64::NAN)
            .to_json("figX");
        let report = parse_report(&json).unwrap();
        assert_eq!(report.figure, "figX");
        assert_eq!(
            report.metrics,
            vec![
                ("virtual_per_sec".to_string(), Some(123.5)),
                ("bad".to_string(), None),
            ]
        );
    }

    fn report(figure: &str, metrics: &[(&str, f64)]) -> GateReport {
        GateReport {
            figure: figure.to_string(),
            metrics: metrics
                .iter()
                .map(|(n, v)| (n.to_string(), Some(*v)))
                .collect(),
        }
    }

    #[test]
    fn virtual_metrics_gate_tightly() {
        let base = report("fig5", &[("pw_fused_per_sec", 100.0)]);
        let ok = report("fig5", &[("pw_fused_per_sec", 101.0)]);
        let bad = report("fig5", &[("pw_fused_per_sec", 90.0)]);
        assert!(compare(&ok, &base).iter().all(|f| !f.verdict.fails()));
        assert!(compare(&bad, &base).iter().any(|f| f.verdict.fails()));
    }

    /// Which crates exist depends on the tree: a skipped metric that
    /// is absent from the fresh report is not lost coverage.
    #[test]
    fn skipped_metric_missing_from_fresh_passes() {
        assert_eq!(rule_for("codesize"), Rule::Skip);
        let base = report("codesize", &[("src_lines_crates/lint", 1762.0)]);
        let fresh = report("codesize", &[]);
        assert!(compare(&fresh, &base).iter().all(|f| !f.verdict.fails()));
    }

    #[test]
    fn missing_metric_fails_extra_metric_passes() {
        let base = report("fig5", &[("a", 1.0), ("b", 2.0)]);
        let fresh = report("fig5", &[("a", 1.0), ("c", 3.0)]);
        let findings = compare(&fresh, &base);
        assert!(findings
            .iter()
            .any(|f| f.metric == "b" && f.verdict == Verdict::Missing));
        assert!(findings
            .iter()
            .any(|f| f.metric == "c" && f.verdict == Verdict::Unbaselined));
        assert!(!findings
            .iter()
            .find(|f| f.metric == "c")
            .unwrap()
            .verdict
            .fails());
    }
}
