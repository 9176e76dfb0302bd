//! `run --all` and `noise`: every workload in its own child process
//! (so `peak_rss_mb` is the workload's own and one crash cannot take
//! the others' numbers with it), read back through the `e2e`/`layer`
//! lines the child prints.

use std::collections::BTreeMap;
use std::process::Command;

use crate::clock::Stopwatch;
use crate::json::Json;
use crate::layered::out_dir;
use crate::metrics::END_TO_END;
use crate::provenance::Provenance;
use crate::workloads;

/// One metric as read back from a child's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Read {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

/// workload → metric → reading.
pub type Readings = BTreeMap<String, BTreeMap<String, Read>>;

/// What one pass over every workload produced.
#[derive(Debug, Default)]
pub struct Set {
    pub e2e: Readings,
    pub layer: Readings,
    /// workload → the `sim_fingerprint` its untraced run printed.
    pub fingerprints: BTreeMap<String, String>,
    /// Whether every child exited with code 0.
    pub ok: bool,
}

/// Reads `(workload, sim_fingerprint)` from a child's header line:
/// `# pwbench <workload> seed=.. trace=.. reps=.. sim_fingerprint=<hex>`.
pub fn parse_fingerprint(stdout: &str) -> Option<(String, String)> {
    let header = stdout.lines().find(|l| l.starts_with("# pwbench "))?;
    let mut it = header.split_whitespace().skip(2);
    let workload = it.next()?;
    let fp = it.find_map(|tok| tok.strip_prefix("sim_fingerprint="))?;
    Some((workload.to_string(), fp.to_string()))
}

/// Parses the `e2e`/`layer` lines of a child's stdout:
/// `<kind> <workload> <name> <value> <unit> q1=<q1> q3=<q3> n=<n> ...`.
pub fn parse_lines(kind: &str, stdout: &str, into: &mut Readings) {
    for line in stdout.lines() {
        let mut it = line.split_whitespace();
        if it.next() != Some(kind) {
            continue;
        }
        let (Some(workload), Some(name), Some(value)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let mut read = Read {
            value,
            q1: value,
            q3: value,
        };
        for tok in it {
            if let Some(v) = tok.strip_prefix("q1=") {
                read.q1 = v.parse().unwrap_or(value);
            } else if let Some(v) = tok.strip_prefix("q3=") {
                read.q3 = v.parse().unwrap_or(value);
            }
        }
        into.entry(workload.to_string())
            .or_default()
            .insert(name.to_string(), read);
    }
}

/// Runs one workload in a child process; returns its stdout and whether
/// it exited with code 0.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> (String, bool) {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("spawning a pwbench child");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.stderr.is_empty() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (stdout, out.status.success())
}

/// Every workload once (and once more traced, if asked), echoing the
/// children's output if asked.
pub fn run_all(seed: u64, seconds: f64, trace: bool, echo: bool) -> Set {
    let mut set = Set {
        ok: true,
        ..Set::default()
    };
    for w in workloads::all() {
        let passes: &[bool] = if trace { &[false, true] } else { &[false] };
        for &traced in passes {
            let (stdout, success) = child(w.name, seed, seconds, traced);
            if echo {
                print!("{stdout}");
            }
            if !success {
                println!("FAILED {} (trace={})", w.name, u8::from(traced));
                set.ok = false;
            }
            if traced {
                parse_lines("layer", &stdout, &mut set.layer);
            } else {
                parse_lines("e2e", &stdout, &mut set.e2e);
                set.fingerprints.extend(parse_fingerprint(&stdout));
            }
        }
    }
    set
}

fn readings_json(r: &Readings) -> Json {
    Json::obj(r.iter().map(|(w, ms)| {
        (
            w.as_str(),
            Json::obj(ms.iter().map(|(m, v)| {
                (
                    m.as_str(),
                    Json::obj([
                        ("value", Json::Num(v.value)),
                        ("q1", Json::Num(v.q1)),
                        ("q3", Json::Num(v.q3)),
                    ]),
                )
            })),
        )
    }))
}

/// `run --all`: the whole set, a summary table, and
/// `benchmark/out/results.json`.
pub fn all(seed: u64, seconds: f64, trace: bool, prov: &Provenance) -> bool {
    let sw = Stopwatch::start();
    let Set { e2e, layer, ok, .. } = run_all(seed, seconds, trace, true);

    println!();
    println!("== end-to-end summary (seed {seed}) ==");
    print!("{:<20}", "metric");
    for w in e2e.keys() {
        print!(" {w:>15}");
    }
    println!();
    for m in END_TO_END {
        print!("{:<20}", m.name);
        for ms in e2e.values() {
            match ms.get(m.name) {
                Some(r) => print!(" {:>15.4}", r.value),
                None => print!(" {:>15}", "-"),
            }
        }
        println!("  {}", m.unit);
    }

    let record = Json::obj([
        ("seed", Json::uint(seed)),
        ("seconds", Json::Num(seconds)),
        ("provenance", prov.to_json()),
        ("end_to_end", readings_json(&e2e)),
        ("per_layer", readings_json(&layer)),
        ("all_correct", Json::Bool(ok)),
    ]);
    let path = out_dir().join("results.json");
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, record.render())) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
    println!("whole benchmark took {:.1} s", sw.secs());
    ok
}

/// How one pairing of metric and workload came out of an A/A run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Within,
    /// The reps' own interquartile spread exceeds the bound, so the
    /// pairing cannot resolve a difference of that size.
    Unresolved,
    Breach,
}

/// Both runs of `noise` replay one seed, so a metric that `exact`ly
/// repeats must be bit-equal: any difference is a determinism bug, not
/// noise. A host metric is compared against its bound, unless the
/// larger of the two runs' interquartile spreads (`spread`, share of
/// the median) already exceeds it.
pub fn verdict(exact: bool, a: f64, b: f64, spread: f64, bound: f64) -> Verdict {
    if exact {
        return if a.to_bits() == b.to_bits() {
            Verdict::Within
        } else {
            Verdict::Breach
        };
    }
    if spread > bound {
        Verdict::Unresolved
    } else if relative_diff(a, b) > bound {
        Verdict::Breach
    } else {
        Verdict::Within
    }
}

fn relative_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs()
    }
}

fn spread_of(r: &Read) -> f64 {
    if r.value == 0.0 {
        0.0
    } else {
        (r.q3 - r.q1) / r.value.abs()
    }
}

/// `noise`: the whole set twice on the same build and seed. Host
/// metrics are held to their bounds; `sim_*` metrics, `ok_ops_share`
/// and the `sim_fingerprint` must be identical.
pub fn noise(seed: u64, seconds: f64) -> bool {
    println!("== noise: A/A, two full sets on the same build (seed {seed}) ==");
    let a = run_all(seed, seconds, false, false);
    let b = run_all(seed, seconds, false, false);
    let mut all_within = a.ok && b.ok;
    if !all_within {
        println!("a child run failed; its workload's rows are missing below");
    }
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "diff", "spread", "bound"
    );
    for w in workloads::all() {
        let w = w.name;
        for m in END_TO_END {
            let read = |set: &Set| set.e2e.get(w).and_then(|ms| ms.get(m.name)).copied();
            let (Some(ra), Some(rb)) = (read(&a), read(&b)) else {
                println!("{w:<16} {:<20} missing from one of the runs", m.name);
                all_within = false;
                continue;
            };
            let exact = m.repeats_exactly();
            let spread = spread_of(&ra).max(spread_of(&rb));
            let v = verdict(exact, ra.value, rb.value, spread, m.bound);
            if v == Verdict::Breach {
                all_within = false;
            }
            let bound = if exact {
                "exact".to_string()
            } else {
                format!("{:.1}%", 100.0 * m.bound)
            };
            println!(
                "{w:<16} {:<20} {:>14.5} {:>14.5} {:>8.3}% {:>8.3}% {bound:>7}  {}",
                m.name,
                ra.value,
                rb.value,
                100.0 * relative_diff(ra.value, rb.value),
                100.0 * spread,
                match (v, exact) {
                    (Verdict::Within, true) => "identical",
                    (Verdict::Within, false) => "within",
                    (Verdict::Unresolved, _) => "unresolved",
                    (Verdict::Breach, true) => "DIFFERS (a determinism bug, not noise)",
                    (Verdict::Breach, false) => "BREACH",
                }
            );
        }
        match (a.fingerprints.get(w), b.fingerprints.get(w)) {
            (Some(fa), Some(fb)) if fa == fb => {
                println!(
                    "{w:<16} {:<20} {fa:>14} {fb:>14}  identical",
                    "sim_fingerprint"
                );
            }
            (fa, fb) => {
                println!(
                    "{w:<16} {:<20} {:>14} {:>14}  DIFFERS (a determinism bug, not noise)",
                    "sim_fingerprint",
                    fa.map_or("missing", String::as_str),
                    fb.map_or("missing", String::as_str)
                );
                all_within = false;
            }
        }
    }
    all_within
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_lines_parse_back() {
        let out = "# pwbench spmd_wide seed=3 trace=0 reps=7 sim_fingerprint=00ab54a98ceb1f0a\n\
            # comment\n\
            e2e spmd_wide programs_per_s 6.37 1/s q1=6.3 q3=6.41 n=5\n\
            e2e spmd_wide sim_latency_us_tail 812.5 us q1=812.5 q3=812.5 n=10 percentile=p50\n\
            layer spmd_wide sim.wake_ns 41.5 ns q1=41.5 q3=41.5 n=1\n\
            {\"correct\":true}\n";
        let mut e2e = Readings::new();
        parse_lines("e2e", out, &mut e2e);
        let m = &e2e["spmd_wide"];
        assert_eq!(m.len(), 2);
        assert_eq!(
            m["programs_per_s"],
            Read {
                value: 6.37,
                q1: 6.3,
                q3: 6.41
            }
        );
        assert_eq!(m["sim_latency_us_tail"].value, 812.5);
        let mut layer = Readings::new();
        parse_lines("layer", out, &mut layer);
        assert_eq!(layer["spmd_wide"]["sim.wake_ns"].value, 41.5);
        assert_eq!(
            parse_fingerprint(out),
            Some(("spmd_wide".to_string(), "00ab54a98ceb1f0a".to_string()))
        );
        assert_eq!(parse_fingerprint("e2e spmd_wide x 1 s\n"), None);
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(false, 100.0, 102.0, 0.01, 0.10), Verdict::Within);
        assert_eq!(verdict(false, 100.0, 112.0, 0.01, 0.10), Verdict::Breach);
        assert_eq!(
            verdict(false, 100.0, 112.0, 0.15, 0.10),
            Verdict::Unresolved
        );
        // Same-seed sim metrics: no tolerance, however small the drift
        // and however wide the bound or the spread.
        assert_eq!(verdict(true, 344.2, 344.2, 0.0, 0.02), Verdict::Within);
        assert_eq!(
            verdict(true, 344.2, 344.2000001, 0.5, 0.02),
            Verdict::Breach
        );
    }
}
