//! `bench`: the one entry point to the experiment harness.
//!
//! ```text
//! bench list                 the figures, as the README's command table
//! bench <figure> [ARGS...]   print one figure's tables at full size
//! bench all                  every figure's report pass: PASS/FAIL per
//!                            claim, one BENCH_<figure>.json each;
//!                            exits non-zero on any FAIL
//! bench gate [--bless]       diff the fresh reports against
//!                            perf/baselines/ (or re-bless them)
//! ```
//!
//! Reports are written to `BENCH_OUT_DIR` (default: the repo root).

use std::process::ExitCode;

use pathways_bench::figures::{command_table, FIGURES};
use pathways_bench::gate;

/// Runs every figure's report pass; true if every claim held.
fn all() -> bool {
    let mut ok = true;
    for figure in FIGURES {
        let report = (figure.report)();
        for claim in report.claims() {
            ok &= claim.ok;
            let verdict = if claim.ok { "PASS" } else { "FAIL" };
            println!("{verdict} {} {}: {}", figure.name, claim.name, claim.detail);
        }
        // Report numbers even when the output directory is read-only.
        match report.write(figure.name) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write BENCH_{}.json: {e}", figure.name),
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("list") => {
            print!("{}", command_table());
            true
        }
        Some("all") => all(),
        Some("gate") => gate::run(args[1..].iter().any(|a| a == "--bless")),
        Some(name) => match FIGURES.iter().find(|f| f.name == name) {
            Some(figure) => {
                (figure.full)(&args[1..]);
                true
            }
            None => {
                eprintln!("bench: no figure named {name:?}; try `bench list`");
                false
            }
        },
        None => {
            eprintln!("usage: bench list | all | gate [--bless] | <figure> [ARGS...]");
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
