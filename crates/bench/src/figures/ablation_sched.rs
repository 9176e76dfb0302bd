//! Ablation: the §4.5 "single message describing the entire subgraph"
//! scheduling optimization — batched grant messages vs one scheduler
//! message per computation node.
//!
//! The workload is a chained program whose computations all run on the
//! same devices (the PW-C shape), so a host receives many grants per
//! program: batching collapses them into one NIC message.

use pathways_core::{FnSpec, PathwaysConfig, PathwaysRuntime, SliceRequest};
use pathways_net::{ClusterSpec, HostId, NetworkParams};
use pathways_sim::{Sim, SimDuration};

use super::Figure;
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

fn chained_throughput(hosts: u32, chain: u32, batch_grants: bool, programs: u64) -> f64 {
    let mut sim = Sim::new(0);
    let cfg = PathwaysConfig {
        batch_grants,
        ..PathwaysConfig::default()
    };
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::single_island(hosts, 4),
        NetworkParams::tpu_cluster(),
        cfg,
    );
    let client = rt.client(HostId(hosts - 1));
    let slice = client
        .virtual_slice(SliceRequest::devices(hosts * 4))
        .unwrap();
    let mut b = client.trace("chain");
    let mut prev = None;
    for i in 0..chain {
        let c = b.computation(
            FnSpec::compute_only(format!("s{i}"), SimDuration::from_micros(10)).with_allreduce(4),
            &slice,
        );
        if let Some(p) = prev {
            b.edge(p, c, 8);
        }
        prev = Some(c);
    }
    let program = b.build().unwrap();
    let prepared = client.prepare(&program);
    let h = sim.handle();
    let job = sim.spawn("client", async move {
        let start = h.now();
        for _ in 0..programs {
            client.run(&prepared).await;
        }
        h.now().duration_since(start)
    });
    sim.run_to_quiescence();
    (chain as u64 * programs) as f64 / job.try_take().unwrap().as_secs_f64()
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
        let batched = chained_throughput(hosts, chain, true, 4);
        let unbatched = chained_throughput(hosts, chain, false, 4);
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
