//! `pwbench`: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! pwbench run --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! pwbench run --all [--seed N] [--seconds S] [--trace]
//! pwbench noise [--seed N] [--seconds S]
//! pwbench list | manifest
//! ```

mod clock;
mod gen;
mod json;
mod layered;
mod layers;
mod metrics;
mod provenance;
mod rng;
mod runner;
mod span;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

struct Args {
    command: String,
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1).peekable();
    let mut args = Args {
        command: it.next().ok_or("missing command")?,
        workload: None,
        all: false,
        seed: 0,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--all" => args.all = true,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => match it.peek().map(String::as_str) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn usage() -> &'static str {
    "usage: pwbench run --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n\
     \x20      pwbench run --all [--seed N] [--seconds S] [--trace]\n\
     \x20      pwbench noise [--seed N] [--seconds S]\n\
     \x20      pwbench list | manifest"
}

fn run_one(name: &str, args: &Args) -> bool {
    let all = workloads::all();
    let Some(w) = all.iter().find(|w| w.name == name) else {
        eprintln!("unknown workload {name}; `pwbench list` names them");
        return false;
    };
    let prov = provenance::gather();
    if prov.host_cores < 2 {
        println!("# WARNING: 1 host core: host-time metrics share the core with everything else");
    }
    let report = if args.trace {
        runner::run_traced(w, args.seed, &prov)
    } else {
        runner::run_untraced(w, args.seed, args.seconds)
    };
    runner::print_report(&report, &prov);
    let kind = if args.trace { "layers" } else { "e2e" };
    let path = layered::out_dir().join(format!("{name}.{kind}.json"));
    let record = runner::full_record(&report, &prov).render();
    if let Err(e) =
        std::fs::create_dir_all(layered::out_dir()).and_then(|()| std::fs::write(&path, record))
    {
        println!("# could not write {}: {e}", path.display());
    }
    // Last line of stdout: the object the benchmark contract asks for.
    println!("{}", runner::result_line(&report));
    report.correct()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let ok = match args.command.as_str() {
        "run" => match (&args.workload, args.all) {
            (Some(name), false) => run_one(name, &args),
            (None, true) => suite::all(args.seed, args.seconds, args.trace, &provenance::gather()),
            _ => {
                eprintln!(
                    "run needs exactly one of --workload <name> and --all\n{}",
                    usage()
                );
                return ExitCode::from(2);
            }
        },
        "noise" => suite::noise(args.seed, args.seconds),
        // Internal: the traced run's child (see `threaded_replay_guarded`).
        "threaded-replay" => {
            let r = workloads::dispatch_fresh::threaded_replay(args.seed);
            println!("{}", r.to_line());
            true
        }
        "list" => {
            println!("workloads:");
            for w in workloads::all() {
                println!("  {:<20} {}", w.name, w.why);
            }
            println!("end-to-end metrics (bound = share of the parent's median it may worsen by):");
            for m in metrics::END_TO_END {
                println!(
                    "  {:<20} {:<6} {:<6} bound {:>5.1}%  {}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    100.0 * m.bound,
                    m.definition
                );
            }
            println!("per-layer metrics (--trace 1):");
            for m in metrics::PER_LAYER {
                println!("  {:<38} {:<6} {}", m.name, m.unit, m.better.as_str());
            }
            true
        }
        "manifest" => {
            print!("{}", metrics::manifest());
            true
        }
        _ => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
