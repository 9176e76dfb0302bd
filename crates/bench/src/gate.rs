//! Perf-regression gate over the `BENCH_*.json` trajectory.
//!
//! `bench all` emits machine-readable reports ([`crate::perf`]); this
//! module diffs them against checked-in baselines
//! (`perf/baselines/BENCH_<figure>.json`) with per-metric tolerances.
//! `bench gate` ([`run`]) wires it into CI and offers `--bless` to
//! regenerate the baselines after an intentional change.
//!
//! Tolerances are per-metric *classes*, not per-file: metrics derived
//! from virtual time are bit-deterministic on the deterministic backend
//! and gate tightly, while wall-clock metrics (the `fig_scale` and
//! `fig_dispatch` families) vary with the host and only gate against
//! order-of-magnitude collapses. Machine-shape metrics (core counts,
//! lock-contention counters, worker-scaling ratios) and the code-size
//! trend are recorded for the trajectory but not gated at all.

use std::fmt;
use std::path::Path;

use crate::json::{parse_json, Json};
use crate::perf::{out_dir, repo_root};

// ---------------------------------------------------------------------
// Bench-report shape.

/// A parsed `BENCH_<figure>.json` report.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// The figure name (`"fig5"`, `"fig_dispatch"`, ...).
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
    /// Recorded for the trajectory, never gated (machine-shape
    /// dependent: core counts, contention counters, scaling ratios).
    Skip,
    /// Higher is better; fail when `fresh < baseline * min_ratio`.
    /// Used for wall-clock throughputs, with generous headroom for
    /// host-speed variance.
    HigherBetter {
        /// Smallest acceptable `fresh / baseline`.
        min_ratio: f64,
    },
    /// Lower is better; fail when `fresh > baseline * max_ratio`.
    LowerBetter {
        /// Largest acceptable `fresh / baseline`.
        max_ratio: f64,
    },
    /// Two-sided relative tolerance; used for virtual-time metrics,
    /// which are deterministic and should barely move.
    Within {
        /// Allowed `|fresh - baseline| / |baseline|`.
        rel: f64,
    },
}

/// The gate class for a metric name.
///
/// The classes lean on the metric naming conventions the bench
/// binaries already use: wall-clock metric names say so
/// (`*_per_sec` on `fig_dispatch`, `sim_wall_ratio_*`,
/// `wall_us_per_kernel_*`, `heal_wall_us_*` on `fig_scale`); every
/// other metric is derived from virtual time and replays
/// bit-identically on the deterministic backend.
pub fn rule_for(figure: &str, metric: &str) -> Rule {
    // Machine shape or a code-size trend, not performance.
    if figure == "codesize"
        || metric == "host_cores"
        || metric.contains("contended_")
        || metric.contains("scaling_1_to_4")
    {
        return Rule::Skip;
    }
    // fig_dispatch throughputs are wall-clock on *both* backends.
    if figure == "fig_dispatch" {
        return Rule::HigherBetter { min_ratio: 0.125 };
    }
    // fig_scale's wide-gang row is report-only until the rendezvous
    // rewrite gives it a claim (it is ~8x between the two widths today).
    if metric.starts_with("wall_us_per_kernel_w") {
        return Rule::Skip;
    }
    // fig_scale's wall-clock families.
    if metric.starts_with("sim_wall_ratio_") {
        return Rule::HigherBetter { min_ratio: 0.125 };
    }
    if metric.starts_with("wall_us_per_kernel_") || metric.starts_with("heal_wall_us_") {
        return Rule::LowerBetter { max_ratio: 8.0 };
    }
    // Everything else is virtual-time: deterministic, tight.
    Rule::Within { rel: 0.02 }
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
        Rule::HigherBetter { min_ratio } => fresh >= baseline * min_ratio,
        Rule::LowerBetter { max_ratio } => fresh <= baseline * max_ratio,
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
    for (name, base_value) in &baseline.metrics {
        let finding = match fresh.metrics.iter().find(|(n, _)| n == name) {
            // Ungated metrics may come and go with the machine (which
            // locks contend) or the tree (which crates exist).
            None if rule_for(&fresh.figure, name) == Rule::Skip => Verdict::Ok,
            None => Verdict::Missing,
            Some((_, fresh_value)) => match (fresh_value, base_value) {
                // Both null (non-finite at write time): equal enough.
                (None, None) => Verdict::Ok,
                (Some(f), Some(b)) => {
                    if check(rule_for(&fresh.figure, name), *f, *b) {
                        Verdict::Ok
                    } else {
                        Verdict::Regressed {
                            fresh: *f,
                            baseline: *b,
                            rule: rule_for(&fresh.figure, name),
                        }
                    }
                }
                // One side null, the other finite: a shape change.
                (None, Some(b)) => Verdict::Regressed {
                    fresh: f64::NAN,
                    baseline: *b,
                    rule: rule_for(&fresh.figure, name),
                },
                (Some(f), None) => Verdict::Regressed {
                    fresh: *f,
                    baseline: f64::NAN,
                    rule: rule_for(&fresh.figure, name),
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

    #[test]
    fn wall_clock_metrics_gate_loosely() {
        let base = report("fig_dispatch", &[("threaded_w4_kernels_per_sec", 8000.0)]);
        // 2x slower on a slower host: fine.
        let slower = report("fig_dispatch", &[("threaded_w4_kernels_per_sec", 4000.0)]);
        // 10x collapse: the kind of regression the gate exists for.
        let collapsed = report("fig_dispatch", &[("threaded_w4_kernels_per_sec", 800.0)]);
        assert!(compare(&slower, &base).iter().all(|f| !f.verdict.fails()));
        assert!(compare(&collapsed, &base).iter().any(|f| f.verdict.fails()));
    }

    #[test]
    fn machine_shape_metrics_are_skipped() {
        assert_eq!(rule_for("fig_dispatch", "host_cores"), Rule::Skip);
        assert_eq!(
            rule_for("fig_dispatch", "threaded_w4_contended_core.store"),
            Rule::Skip
        );
        assert_eq!(
            rule_for("fig_dispatch", "threaded_scaling_1_to_4"),
            Rule::Skip
        );
        let base = report("fig_dispatch", &[("host_cores", 16.0)]);
        let fresh = report("fig_dispatch", &[("host_cores", 1.0)]);
        assert!(compare(&fresh, &base).iter().all(|f| !f.verdict.fails()));
    }

    /// Which locks contend depends on the host: a skipped metric that
    /// is absent from the fresh report is not lost coverage.
    #[test]
    fn skipped_metric_missing_from_fresh_passes() {
        let base = report(
            "fig_dispatch",
            &[("threaded_w2_contended_core.store", 21.0)],
        );
        let fresh = report("fig_dispatch", &[]);
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
