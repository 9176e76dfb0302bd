//! Multi-tenancy: four clients time-share one island of TPUs under
//! gang-aware weighted-fair queueing with weights 1:2:4:8 (the Figure 9
//! scenario), with the interleaving rendered as an ASCII trace.
//!
//! Run with: `cargo run --release --example multi_tenant`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pathways::core::{FnSpec, PathwaysConfig, PathwaysRuntime, SchedPolicy, SliceRequest};
use pathways::models::{gang_program, spawn_windowed};
use pathways::net::{ClientId, ClusterSpec, HostId, NetworkParams};
use pathways::sim::{Sim, SimDuration, SimTime};

fn main() {
    let weights = [
        (ClientId(0), 1),
        (ClientId(1), 2),
        (ClientId(2), 4),
        (ClientId(3), 8),
    ]
    .into_iter()
    .collect();
    let mut sim = Sim::new(7);
    sim.handle().record_trace(true);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::config_b(1),
        NetworkParams::tpu_cluster(),
        PathwaysConfig {
            policy: SchedPolicy::WeightedFair {
                weights,
                quantum: SimDuration::from_micros(500),
            },
            sched_horizon: SimDuration::from_micros(600),
            ..PathwaysConfig::default()
        },
    );

    let completed: Vec<Arc<AtomicU64>> = (0..4).map(|_| Arc::new(AtomicU64::new(0))).collect();
    for (i, label) in ["A", "B", "C", "D"].iter().enumerate() {
        let client = rt.client_labeled(HostId(0), *label);
        let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
        let step = FnSpec::compute_only("step", SimDuration::from_micros(330)).with_allreduce(4);
        let (prepared, _) = gang_program(&client, format!("tenant-{label}"), step, &slice).unwrap();
        // Each tenant keeps 12 programs outstanding.
        spawn_windowed(client, prepared, 12, Arc::clone(&completed[i]));
    }

    let window = SimDuration::from_millis(40);
    sim.run_until_time(SimTime::ZERO + window);
    let trace = sim.take_trace();

    println!("WFQ at weights 1:2:4:8 — device 0 timeline (one letter per client):");
    let start = SimTime::ZERO + SimDuration::from_millis(10);
    println!("{}", trace.render_ascii(start, SimTime::ZERO + window, 100));
    let util = trace.utilization("d0000", start, SimTime::ZERO + window);
    println!("device-0 utilization: {:.0}%", util * 100.0);
    println!("programs completed per client:");
    for (i, label) in ["A", "B", "C", "D"].iter().enumerate() {
        println!(
            "  {label} (weight {}): {}",
            1 << i,
            completed[i].load(Ordering::Relaxed)
        );
    }
}
