//! Layer `net`: topology tables, the interconnect fabric (PCIe / ICI /
//! DCN links) and the host-to-host message router.

use std::sync::Arc;

pub use pathways::net::{ClusterSpec, DeviceId, HostId, IslandId, NetworkParams};
use pathways::net::{CollectiveKind, Fabric, Router, Topology};
use pathways::sim::Sim;

use super::{Named, Shape, NET};
use crate::clock::{ns_per_op, Stopwatch};
use crate::span;

pub fn cluster(shape: &Shape) -> ClusterSpec {
    ClusterSpec::islands_of(
        shape.islands,
        shape.hosts_per_island,
        shape.devices_per_host,
    )
}

/// The calibration every workload runs under.
pub fn params() -> NetworkParams {
    NetworkParams::tpu_cluster()
}

pub fn first_host(topo: &Topology, island: u32) -> HostId {
    topo.hosts_of_island(IslandId(island))
        .next()
        .expect("island has a host")
}

/// The `index`-th host of `island`.
pub fn host(topo: &Topology, island: u32, index: u32) -> HostId {
    topo.hosts_of_island(IslandId(island))
        .nth(index as usize)
        .expect("island has that many hosts")
}

pub fn last_host(topo: &Topology, island: u32) -> HostId {
    topo.hosts_of_island(IslandId(island))
        .last()
        .expect("island has a host")
}

/// Host ns per fabric / router / topology operation at the workload's
/// host count and gang width.
pub fn probe(shape: &Shape) -> Vec<Named> {
    let spec = cluster(shape);
    let topo = span::sync("ClusterSpec::build", NET, || Arc::new(spec.build()));
    let hosts = topo.num_hosts();
    let devices = topo.num_devices();
    let gang: Vec<DeviceId> = topo
        .devices_of_island(IslandId(0))
        .take(shape.gang as usize)
        .collect();
    let fan_out = shape.gang_hosts().min(hosts.max(2) - 1).max(1);

    // Router::send to delivery: one sender fanning out to the gang's
    // hosts, as a scheduler's grants do.
    let route_msg_ns = span::sync("probe.route_msg", NET, || {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(sim.handle(), Arc::clone(&topo), params());
        let router: Router<u64> = Router::new(fabric);
        let rounds = (40_000 / fan_out).clamp(2, 4096);
        for h in 1..=fan_out.min(hosts - 1) {
            let mut inbox = router.register(HostId(h));
            sim.spawn("rx", async move {
                for _ in 0..rounds {
                    let _ = inbox.recv().await;
                }
            });
        }
        let receivers = fan_out.min(hosts - 1);
        let sw = Stopwatch::start();
        for r in 0..rounds {
            for h in 1..=receivers {
                router.send(HostId(0), HostId(h), u64::from(r), 128);
            }
        }
        let _ = sim.run();
        sw.nanos() / f64::from(rounds * receivers)
    });

    const XFERS: u32 = 20_000;
    let ici_transfer_ns = span::sync("probe.ici_transfer", NET, || {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(sim.handle(), Arc::clone(&topo), params());
        let island: Vec<DeviceId> = topo.devices_of_island(IslandId(0)).collect();
        let n = island.len();
        let bytes = shape.shard_bytes.max(8);
        sim.spawn("ici", async move {
            for i in 0..XFERS as usize {
                fabric
                    .ici_transfer(island[i % n], island[(i + 1) % n], bytes)
                    .await;
            }
        });
        let sw = Stopwatch::start();
        let _ = sim.run();
        sw.nanos() / f64::from(XFERS)
    });

    let dcn_send_ns = span::sync("probe.dcn_send", NET, || {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(sim.handle(), Arc::clone(&topo), params());
        let bytes = shape.shard_bytes.max(8);
        sim.spawn("dcn", async move {
            for i in 0..XFERS {
                let dst = HostId(1 + i % (hosts.max(2) - 1));
                fabric.dcn_send(HostId(0), dst, bytes).await;
            }
        });
        let sw = Stopwatch::start();
        let _ = sim.run();
        sw.nanos() / f64::from(XFERS)
    });

    let collective_cost_ns = span::sync("probe.collective_cost", NET, || {
        let sim = Sim::new(0);
        let fabric = Fabric::new(sim.handle(), Arc::clone(&topo), params());
        let iters = (2_000_000 / gang.len() as u64).clamp(16, 100_000);
        ns_per_op(iters, |i| {
            fabric.ici_collective_time(CollectiveKind::AllReduce, &gang, 4 + i % 2)
        })
    });

    let topology_lookup_ns = span::sync("probe.topology_lookup", NET, || {
        ns_per_op(1_000_000, |i| {
            let d = DeviceId((i % u64::from(devices)) as u32);
            (
                topo.host_of_device(d),
                topo.island_of_device(d),
                topo.same_island(d, DeviceId(0)),
            )
        })
    });

    vec![
        ("net.route_msg_ns", route_msg_ns),
        ("net.ici_transfer_ns", ici_transfer_ns),
        ("net.dcn_send_ns", dcn_send_ns),
        ("net.collective_cost_ns", collective_cost_ns),
        ("net.topology_lookup_ns", topology_lookup_ns),
    ]
}
