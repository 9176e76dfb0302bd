//! One run of one workload: the rep loop, the correctness checks, the
//! end-to-end metrics, and the result line the driver reads.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::provenance::{self, Provenance};
use crate::stats;
use crate::workloads::{Rep, Workload};
use crate::{layered, span};

/// A rep shorter than this measures start-up effects, not the
/// workload; the run fails rather than report it.
pub const MIN_REP_SECONDS: f64 = 0.5;
/// Fewer reps than this have no quartiles worth printing.
const MIN_REPS: usize = 3;

/// One reported number, with the spread of the reps behind it where
/// the metric is measured per rep.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Samples behind the value (reps, or latency samples).
    pub n: usize,
}

impl Value {
    pub fn single(name: &'static str, unit: &'static str, value: f64, n: usize) -> Self {
        Value {
            name,
            unit,
            value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// The median of the reps, with their quartiles.
    fn median_of(name: &'static str, unit: &'static str, per_rep: &[f64]) -> Self {
        let (q1, med, q3) = stats::quartiles(per_rep);
        Value {
            name,
            unit,
            value: med,
            q1,
            q3,
            n: per_rep.len(),
        }
    }
}

#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub sim_fingerprint: u64,
    pub tail_percentile: f64,
    pub metrics: Vec<Value>,
    /// Free-form lines for the human reader (attribution, scaling).
    pub notes: Vec<String>,
    pub frozen: &'static [(&'static str, u64)],
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Checks that hold for any set of reps of one seed; returns the
/// fingerprint they share.
pub fn check_reps(reps: &[Rep], failures: &mut Vec<String>) -> u64 {
    let fingerprint = reps[0].sim_fingerprint();
    for (i, rep) in reps.iter().enumerate() {
        for f in &rep.failures {
            failures.push(format!("rep {i}: {f}"));
        }
        if rep.wall_s < MIN_REP_SECONDS {
            failures.push(format!(
                "rep {i} lasted {:.3} s, below the {MIN_REP_SECONDS} s floor",
                rep.wall_s
            ));
        }
        let fp = rep.sim_fingerprint();
        if fp != fingerprint {
            failures.push(format!(
                "rep {i} sim_fingerprint {fp:016x} differs from rep 0's {fingerprint:016x}: \
                 the same seed replayed differently (a determinism bug, not noise)"
            ));
        }
        if rep.tally.ok + rep.tally.failed == 0 || rep.kernels == 0 {
            failures.push(format!("rep {i} ran no programs or no kernels"));
        }
    }
    fingerprint
}

/// Programs per wall second of the timed window.
pub fn programs_per_s(rep: &Rep) -> f64 {
    rep.tally.ok as f64 / rep.wall_s
}

/// Runs one rep, recording boundary spans if `traced`.
fn one_rep(w: &Workload, seed: u64, traced: bool) -> Rep {
    span::enable(traced);
    let rep = (w.rep)(seed);
    span::enable(false);
    rep
}

/// The untraced run: reps until `seconds` of timed windows have been
/// measured, then the eight end-to-end metrics.
pub fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    let mut rss_after_first = f64::NAN;
    // A rep that failed a check (or undercut the floor) fails the run
    // whatever follows, so stop there: every rep that counts lasts at
    // least the floor, which bounds how many fit the budget.
    let sound = |r: &Rep| r.failures.is_empty() && r.wall_s >= MIN_REP_SECONDS;
    while (measured < seconds || reps.len() < MIN_REPS) && reps.last().is_none_or(sound) {
        let rep = one_rep(w, seed, false);
        measured += rep.wall_s;
        reps.push(rep);
        if reps.len() == 1 {
            rss_after_first = provenance::peak_rss_mib();
        }
    }

    let mut failures = Vec::new();
    let sim_fingerprint = check_reps(&reps, &mut failures);
    let attempted: u64 = reps.iter().map(|r| r.tally.ok + r.tally.failed).sum();
    let failed: u64 = reps.iter().map(|r| r.tally.failed).sum();

    let first = &reps[0];
    let lat_us: Vec<f64> = first
        .tally
        .latencies_ns
        .iter()
        .map(|ns| *ns as f64 / 1e3)
        .collect();
    let (p50, tail) = if lat_us.is_empty() {
        failures.push("no latency samples".to_string());
        (
            f64::NAN,
            stats::Tail {
                percentile: 50.0,
                value: f64::NAN,
                samples: 0,
            },
        )
    } else {
        (stats::median(&lat_us), stats::tail(&lat_us))
    };

    let per_rep = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let metrics = vec![
        Value::median_of("programs_per_s", "1/s", &per_rep(programs_per_s)),
        Value::median_of(
            "wall_us_per_kernel",
            "us",
            &per_rep(|r| r.wall_s * 1e6 / r.kernels as f64),
        ),
        Value::single(
            "sim_programs_per_s",
            "1/s",
            first.tally.ok as f64 / (first.sim_ns as f64 / 1e9),
            reps.len(),
        ),
        Value::single("sim_latency_us_p50", "us", p50, lat_us.len()),
        Value::single("sim_latency_us_tail", "us", tail.value, tail.samples),
        Value::median_of("setup_s", "s", &per_rep(|r| r.setup_s)),
        // Read after the first rep, so it does not depend on how many
        // reps the time budget allowed; the end-of-run reading is
        // printed beside it.
        Value::single("peak_rss_mb", "MiB", rss_after_first, 1),
        Value::single(
            "ok_ops_share",
            "ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            attempted as usize,
        ),
    ];
    debug_assert!(metrics
        .iter()
        .map(|m| m.name)
        .eq(END_TO_END.iter().map(|m| m.name)));

    Report {
        workload: w.name,
        seed,
        traced: false,
        reps: reps.len(),
        attempted,
        failed,
        failures,
        sim_fingerprint,
        tail_percentile: tail.percentile,
        metrics,
        notes: vec![
            format!(
                "window wall seconds per rep: {}",
                reps.iter()
                    .map(|r| format!("{:.3}", r.wall_s))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            format!(
                "sim latency deciles (us): {}",
                deciles(&lat_us)
                    .iter()
                    .map(|d| format!("{d:.1}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            format!(
                "VmHWM at the end of the run ({} reps): {:.1} MiB",
                reps.len(),
                provenance::peak_rss_mib()
            ),
        ],
        frozen: w.frozen,
    }
}

/// Minimum, the nine deciles and the maximum of a sample.
fn deciles(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    (0..=10).map(|d| v[(v.len() - 1) * d / 10]).collect()
}

/// The traced run: untraced and traced reps alternate (their
/// difference is the tracing overhead), then every layer is probed at
/// the workload's sizes, and the per-layer metrics are assembled.
pub fn run_traced(w: &Workload, seed: u64, prov: &Provenance) -> Report {
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    for _ in 0..2 {
        plain.push(one_rep(w, seed, false));
        traced.push(one_rep(w, seed, true));
    }

    let mut failures = Vec::new();
    let sim_fingerprint = check_reps(&plain, &mut failures);
    // Tracing may not disturb virtual time either.
    let traced_fp = check_reps(&traced, &mut failures);
    if traced_fp != sim_fingerprint {
        failures.push(format!(
            "traced reps' sim_fingerprint {traced_fp:016x} differs from the untraced {sim_fingerprint:016x}"
        ));
    }
    let attempted: u64 = plain
        .iter()
        .chain(&traced)
        .map(|r| r.tally.ok + r.tally.failed)
        .sum();
    let failed: u64 = plain.iter().chain(&traced).map(|r| r.tally.failed).sum();

    let layered = layered::assemble(w, seed, prov, &plain, &traced);
    debug_assert!(layered
        .metrics
        .iter()
        .map(|m| m.name)
        .eq(PER_LAYER.iter().map(|m| m.name)));
    failures.extend(layered.failures);

    Report {
        workload: w.name,
        seed,
        traced: true,
        reps: plain.len() + traced.len(),
        attempted,
        failed,
        failures,
        sim_fingerprint,
        tail_percentile: f64::NAN,
        metrics: layered.metrics,
        notes: layered.notes,
        frozen: w.frozen,
    }
}

/// The human-readable block: one `e2e`/`layer` line per metric (also
/// what `run --all` and `noise` read back from their children).
pub fn print_report(r: &Report, prov: &Provenance) {
    println!(
        "# pwbench {} seed={} trace={} reps={} sim_fingerprint={:016x}",
        r.workload,
        r.seed,
        u8::from(r.traced),
        r.reps,
        r.sim_fingerprint
    );
    println!(
        "# host_cores={} cpu=\"{}\" rustc=\"{}\" git_rev={}",
        prov.host_cores, prov.cpu_model, prov.rustc, prov.git_rev
    );
    let frozen: Vec<String> = r.frozen.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# frozen op counts: {}", frozen.join(" "));
    let kind = if r.traced { "layer" } else { "e2e" };
    for m in &r.metrics {
        let mut line = format!(
            "{kind} {} {} {} {} q1={} q3={} n={}",
            r.workload, m.name, m.value, m.unit, m.q1, m.q3, m.n
        );
        if m.name == "sim_latency_us_tail" {
            line.push_str(&format!(" percentile=p{}", r.tail_percentile));
        }
        println!("{line}");
    }
    for n in &r.notes {
        println!("# {n}");
    }
    for f in &r.failures {
        println!("CHECK FAILED {}: {f}", r.workload);
    }
}

/// The one-line JSON object the benchmark contract asks for.
pub fn result_line(r: &Report) -> String {
    let metrics = r.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::uint(r.attempted)),
        ("failed", Json::uint(r.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// Everything about the run, for `benchmark/out/`.
pub fn full_record(r: &Report, prov: &Provenance) -> Json {
    let metrics = r.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit)),
                ("q1", Json::Num(m.q1)),
                ("q3", Json::Num(m.q3)),
                ("n", Json::uint(m.n as u64)),
            ]),
        )
    });
    Json::obj([
        ("workload", Json::str(r.workload)),
        ("seed", Json::uint(r.seed)),
        ("traced", Json::Bool(r.traced)),
        ("reps", Json::uint(r.reps as u64)),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::uint(r.attempted)),
        ("failed", Json::uint(r.failed)),
        (
            "sim_fingerprint",
            Json::str(format!("{:016x}", r.sim_fingerprint)),
        ),
        ("tail_percentile", Json::Num(r.tail_percentile)),
        ("provenance", prov.to_json()),
        (
            "frozen_op_counts",
            Json::obj(r.frozen.iter().map(|(k, v)| (*k, Json::uint(*v)))),
        ),
        ("metrics", Json::obj(metrics)),
        (
            "failures",
            Json::Arr(r.failures.iter().map(Json::str).collect()),
        ),
        ("notes", Json::Arr(r.notes.iter().map(Json::str).collect())),
    ])
}
