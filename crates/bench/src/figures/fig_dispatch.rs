//! Controller dispatch throughput, deterministic vs threaded: programs
//! and kernels per wall-clock second pushed through one
//! `PathwaysRuntime`, swept over work-stealing worker counts 1, 2, 4
//! and 8, plus the named-lock contention profile of each threaded run.

use pathways_sim::ExecutorKind;

use super::Figure;
use crate::dispatch::{dispatch_point, DispatchStats, DEVICES_PER_ISLAND};
use crate::perf::{BenchReport, ClusterShape};

pub(super) const FIGURE: Figure = Figure {
    name: "fig_dispatch",
    about: "Controller dispatch throughput, deterministic vs threaded at 1/2/4/8 workers \
            (args: clients, programs per client, kernels per program; default `8 64 8`)",
    full: |args| {
        let args: Vec<u32> = args
            .iter()
            .map(|a| a.parse().unwrap_or_else(|_| panic!("bad count {a:?}")))
            .collect();
        let arg = |i: usize, default| args.get(i).copied().unwrap_or(default);
        run(arg(0, 8), arg(1, 64), arg(2, 8));
    },
    report: || run(8, 64, 8),
};

const WORKER_SWEEP: &[usize] = &[1, 2, 4, 8];

fn row(s: &DispatchStats) {
    println!(
        "{:>13} {:>7} {:>8} {:>9} {:>8.4} {:>12.0} {:>12.0}",
        s.backend,
        s.workers,
        s.programs,
        s.kernels,
        s.wall_secs,
        s.programs_per_sec(),
        s.kernels_per_sec(),
    );
}

fn run(clients: u32, programs: u32, kernels: u32) -> BenchReport {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "Dispatch throughput: {clients} clients x {programs} programs x {kernels} kernels \
         (one client per {DEVICES_PER_ISLAND}-device island), {cores} host cores"
    );
    if cores < 4 {
        println!("note: fewer than 4 host cores; worker-count scaling cannot show a speedup here");
    }
    println!(
        "{:>13} {:>7} {:>8} {:>9} {:>8} {:>12} {:>12}",
        "backend", "workers", "programs", "kernels", "wall_s", "prog/s", "kern/s"
    );

    let mut report = BenchReport::new(ClusterShape::new(clients, 1, DEVICES_PER_ISLAND));

    report = report.metric("host_cores", cores as f64);
    let det = dispatch_point(ExecutorKind::Deterministic, clients, programs, kernels);
    row(&det);
    report = report
        .metric("det_programs_per_sec", det.programs_per_sec())
        .metric("det_kernels_per_sec", det.kernels_per_sec());
    let mut all_complete = det.programs == u64::from(clients * programs);

    let mut by_workers: Vec<(usize, f64)> = Vec::new();
    for &w in WORKER_SWEEP {
        let s = dispatch_point(
            ExecutorKind::Threaded { workers: w },
            clients,
            programs,
            kernels,
        );
        row(&s);
        all_complete &= s.programs == det.programs;
        by_workers.push((w, s.kernels_per_sec()));
        report = report
            .metric(
                format!("threaded_w{w}_programs_per_sec"),
                s.programs_per_sec(),
            )
            .metric(
                format!("threaded_w{w}_kernels_per_sec"),
                s.kernels_per_sec(),
            );
        // Top contended locks for this worker count (profile is sorted
        // most-contended first).
        for p in s.contention.iter().take(3) {
            report = report.metric(
                format!("threaded_w{w}_contended_{}", p.name),
                p.contended as f64,
            );
        }
    }

    let kps = |w: usize| by_workers.iter().find(|(n, _)| *n == w).map(|(_, k)| *k);
    if let (Some(k1), Some(k4)) = (kps(1), kps(4)) {
        let scaling = k4 / k1;
        println!("\nthreaded kernels/sec scaling 1 -> 4 workers: {scaling:.2}x");
        report = report.metric("threaded_scaling_1_to_4", scaling);
    }

    // Completion only: throughput is wall-clock and host-dependent, so
    // it is the gate's business, not a claim's.
    let report = report.claim(
        "every backend completes every program",
        all_complete,
        format!(
            "{} programs on deterministic and threaded x{WORKER_SWEEP:?}",
            det.programs
        ),
    );
    report
}
