//! Ablation: the §4.5 "single message describing the entire subgraph"
//! scheduling optimization — batched grant messages vs one scheduler
//! message per computation node.
//!
//! The workload is a chained program whose computations all run on the
//! same devices (the PW-C shape), so a host receives many grants per
//! program: batching collapses them into one NIC message.

use pathways_baselines::{StepWorkload, SubmissionMode};
use pathways_core::PathwaysConfig;
use pathways_sim::SimDuration;

use super::Figure;
use crate::micro::pathways_throughput;
use crate::perf::{BenchReport, ClusterShape};
use crate::table::Table;

pub(super) const FIGURE: Figure = Figure {
    name: "ablation_sched",
    about: "Ablation (§4.5): batched subgraph grants vs one scheduler message per node",
    full: |_| drop(run(&SWEEP)),
    // The 16-host row alone takes ~1.5 s of the sweep's ~2 s.
    report: || run(&SWEEP[..2]),
};

/// `(hosts, chain length)` per row.
const SWEEP: [(u32, u32); 3] = [(4, 32), (8, 64), (16, 128)];

/// Computations/second of 4 serial runs of a `chain`-kernel PW-C program
/// over all `hosts` x 4 devices.
fn chained_throughput(hosts: u32, chain: u32, batch_grants: bool) -> f64 {
    let workload = StepWorkload {
        compute: SimDuration::from_micros(10),
        allreduce_bytes: 4,
        chain_len: chain,
    };
    let config = PathwaysConfig {
        batch_grants,
        ..PathwaysConfig::default()
    };
    let total = 4 * u64::from(chain);
    pathways_throughput(hosts, 4, SubmissionMode::Chained, workload, total, config).per_sec()
}

fn run(sweep: &[(u32, u32)]) -> BenchReport {
    let (max_hosts, _) = *sweep.last().expect("sweep is non-empty");
    let mut report = BenchReport::new(ClusterShape::new(1, max_hosts, 4));
    println!("Ablation: batched subgraph grants vs per-node scheduler messages");
    println!("workload: chained computations sharing all devices (PW-C shape)\n");
    let mut t = Table::new(&[
        "hosts",
        "chain",
        "batched (comp/s)",
        "per-node (comp/s)",
        "speedup",
    ]);
    for &(hosts, chain) in sweep {
        let batched = chained_throughput(hosts, chain, true);
        let unbatched = chained_throughput(hosts, chain, false);
        t.row(vec![
            hosts.to_string(),
            chain.to_string(),
            format!("{batched:.0}"),
            format!("{unbatched:.0}"),
            format!("{:.2}x", batched / unbatched),
        ]);
        report = report
            .metric(format!("batched_per_sec_h{hosts}"), batched)
            .metric(format!("per_node_per_sec_h{hosts}"), unbatched)
            .claim(
                format!("batched grants win, {hosts} hosts x chain of {chain}"),
                batched > unbatched,
                format!("{batched:.0} vs {unbatched:.0} comp/s"),
            );
    }
    println!("{}", t.render());
    println!("expected shape: batching wins as chains lengthen — per-node grant messages");
    println!("serialize on the scheduler host's NIC and delay downstream enqueues.");
    report
}
