//! The cluster communication fabric: per-host DCN NICs, per-host PCIe
//! links, and per-device ICI egress ports, assembled over a
//! [`Topology`].
//!
//! A [`Fabric`] is cheaply cloneable and is the single object simulation
//! tasks use to move bytes. Contention is modelled where the paper's
//! arguments need it: every host has one DCN NIC (so coordinator fan-out
//! serializes), one PCIe queue per host (so enqueues from one host
//! serialize), and one ICI egress port per device.

use pathways_sim::hash::FxHashSet;
use pathways_sim::Lock;
use std::fmt;
use std::sync::Arc;

use pathways_sim::{SimDuration, SimHandle, SimTime};

use crate::collective::{torus_collective, CollectiveKind};
use crate::ids::{DeviceId, HostId};
use crate::link::FifoLink;
use crate::params::NetworkParams;
use crate::topology::Topology;

struct FabricInner {
    topo: Arc<Topology>,
    params: NetworkParams,
    handle: SimHandle,
    dcn_nics: Vec<FifoLink>,
    pcie: Vec<FifoLink>,
    ici_egress: Vec<FifoLink>,
    /// Failed hosts and severed host pairs (fault injection). Messages
    /// whose delivery crosses a dead endpoint or a severed pair are
    /// dropped at delivery time — exactly what a crashed NIC does.
    faults: Lock<FabricFaults>,
}

#[derive(Default)]
struct FabricFaults {
    dead_hosts: FxHashSet<HostId>,
    /// Severed pairs, stored with the smaller host first.
    severed: FxHashSet<(HostId, HostId)>,
}

fn pair_key(a: HostId, b: HostId) -> (HostId, HostId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// Handle to the cluster's communication resources.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric")
            .field("hosts", &self.inner.topo.num_hosts())
            .field("devices", &self.inner.topo.num_devices())
            .finish()
    }
}

impl Fabric {
    /// Builds the fabric for `topo` with the given parameters.
    pub fn new(handle: SimHandle, topo: Arc<Topology>, params: NetworkParams) -> Self {
        let dcn_nics = (0..topo.num_hosts())
            .map(|_| {
                FifoLink::new(
                    params.dcn_latency,
                    params.dcn_bandwidth,
                    params.dcn_send_overhead,
                )
            })
            .collect();
        let pcie = (0..topo.num_hosts())
            .map(|_| {
                FifoLink::new(
                    params.pcie_latency,
                    params.pcie_bandwidth,
                    params.enqueue_cpu_overhead,
                )
            })
            .collect();
        let ici_egress = (0..topo.num_devices())
            .map(|_| {
                FifoLink::new(
                    params.ici_hop_latency,
                    params.ici_bandwidth,
                    SimDuration::ZERO,
                )
            })
            .collect();
        Fabric {
            inner: Arc::new(FabricInner {
                topo,
                params,
                handle,
                dcn_nics,
                pcie,
                ici_egress,
                faults: Lock::named("net.fabric.faults", FabricFaults::default()),
            }),
        }
    }

    /// Marks `host`'s NIC dead: all DCN traffic to or from it is dropped
    /// from now on (in-flight messages are dropped at delivery time).
    ///
    /// This is the *wire-level* half of a host failure. Runtimes layered
    /// on the fabric keep their own failure registry for error
    /// propagation (which runs to fail, what to tell clients) — inject
    /// faults through that layer (e.g. the Pathways runtime's fault
    /// injector) rather than calling this directly, or messages will be
    /// dropped without anyone being told why.
    pub fn fail_host(&self, host: HostId) {
        self.inner.faults.lock().dead_hosts.insert(host);
    }

    /// Severs the DCN link between `a` and `b` in both directions. Same
    /// caveat as [`Fabric::fail_host`]: wire-level only; inject through
    /// the runtime's fault layer so error propagation stays in sync.
    pub fn sever_link(&self, a: HostId, b: HostId) {
        self.inner.faults.lock().severed.insert(pair_key(a, b));
    }

    /// True if DCN traffic can still flow between `src` and `dst`: both
    /// endpoints alive and the pair not severed. Loopback from a live
    /// host is always up.
    pub fn link_up(&self, src: HostId, dst: HostId) -> bool {
        let faults = self.inner.faults.lock();
        if faults.dead_hosts.contains(&src) || faults.dead_hosts.contains(&dst) {
            return false;
        }
        src == dst || !faults.severed.contains(&pair_key(src, dst))
    }

    /// True if `host`'s NIC has been failed.
    pub fn host_failed(&self, host: HostId) -> bool {
        self.inner.faults.lock().dead_hosts.contains(&host)
    }

    /// The topology this fabric connects.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.inner.topo
    }

    /// The parameters the fabric was built with.
    pub fn params(&self) -> &NetworkParams {
        &self.inner.params
    }

    /// The simulation handle the fabric sleeps on.
    pub fn handle(&self) -> &SimHandle {
        &self.inner.handle
    }

    /// Sends `bytes` from `src` to `dst` over the DCN; resolves at
    /// delivery. Same-host sends skip the NIC (loopback).
    pub async fn dcn_send(&self, src: HostId, dst: HostId, bytes: u64) {
        if src == dst {
            self.inner.handle.yield_now().await;
            return;
        }
        let nic = &self.inner.dcn_nics[src.index()];
        nic.transmit(&self.inner.handle, bytes).await;
    }

    /// Books `src`'s NIC for a `bytes`-long DCN message (`src` is not
    /// the destination) and returns the instant its last byte arrives:
    /// [`Fabric::dcn_send`] without the wait, for the router's egress
    /// actors.
    pub(crate) fn dcn_arrival(&self, src: HostId, bytes: u64) -> SimTime {
        let nic = &self.inner.dcn_nics[src.index()];
        nic.reserve(&self.inner.handle, bytes) + nic.latency()
    }

    /// Occupies `host`'s CPU/PCIe queue for one computation enqueue and
    /// pays the PCIe latency; models the multi-controller dispatch path
    /// (Figure 1a).
    pub async fn pcie_enqueue(&self, host: HostId) {
        let link = &self.inner.pcie[host.index()];
        link.transmit(&self.inner.handle, 0).await;
    }

    /// Moves `bytes` between host DRAM and a local device's HBM.
    ///
    /// # Panics
    ///
    /// Panics if `device` is not attached to `host`.
    pub async fn pcie_transfer(&self, host: HostId, device: DeviceId, bytes: u64) {
        assert_eq!(
            self.inner.topo.host_of_device(device),
            host,
            "{device} is not attached to {host}"
        );
        let link = &self.inner.pcie[host.index()];
        link.transmit(&self.inner.handle, bytes).await;
    }

    /// Point-to-point ICI transfer between two devices in one island;
    /// resolves at delivery.
    ///
    /// # Panics
    ///
    /// Panics if the devices are in different islands.
    pub async fn ici_transfer(&self, src: DeviceId, dst: DeviceId, bytes: u64) {
        if src == dst {
            self.inner.handle.yield_now().await;
            return;
        }
        let hops = self.inner.topo.ici_hops(src, dst).max(1);
        // The egress port serializes, then every hop adds its latency.
        let sent = self.inner.ici_egress[src.index()].reserve(&self.inner.handle, bytes);
        self.inner
            .handle
            .sleep_until(sent + self.inner.params.ici_hop_latency * hops as u64)
            .await;
    }

    /// Duration of an ICI collective over `participants` devices of one
    /// island carrying `bytes` per participant. Pure cost lookup — the
    /// caller (the simulated device) sleeps for this long.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is empty or spans islands.
    pub fn ici_collective_time(
        &self,
        kind: CollectiveKind,
        participants: &[DeviceId],
        bytes: u64,
    ) -> SimDuration {
        assert!(!participants.is_empty(), "collective needs participants");
        let island = self.inner.topo.island_of_device(participants[0]);
        for d in participants {
            assert_eq!(
                self.inner.topo.island_of_device(*d),
                island,
                "collective spans islands; route via DCN instead"
            );
        }
        // Participants occupy a sub-mesh; approximate it with the
        // squarest factorization of the participant count.
        let n = participants.len() as u32;
        let (rows, cols) = sub_mesh_shape(n);
        torus_collective(
            kind,
            rows,
            cols,
            bytes,
            self.inner.params.ici_bandwidth,
            self.inner.params.ici_hop_latency,
        )
    }
}

fn sub_mesh_shape(n: u32) -> (u32, u32) {
    let mut best = (1, n);
    let mut r = 1;
    while r * r <= n {
        if n.is_multiple_of(r) {
            best = (r, n / r);
        }
        r += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClusterSpec;
    use pathways_sim::Sim;

    fn fabric(sim: &Sim, spec: ClusterSpec) -> Fabric {
        Fabric::new(
            sim.handle(),
            Arc::new(spec.build()),
            NetworkParams::tpu_cluster(),
        )
    }

    #[test]
    fn dcn_send_pays_latency_and_overhead() {
        let mut sim = Sim::new(0);
        let f = fabric(&sim, ClusterSpec::config_b(4));
        let h = sim.handle();
        sim.spawn("send", async move {
            f.dcn_send(HostId(0), HostId(1), 1_000).await;
            h.now().as_nanos()
        });
        let end = sim.run_to_quiescence().as_nanos();
        let p = NetworkParams::tpu_cluster();
        let expect = p.dcn_send_overhead.as_nanos()
            + p.dcn_bandwidth.transfer_time(1_000).as_nanos()
            + p.dcn_latency.as_nanos();
        assert_eq!(end, expect);
    }

    #[test]
    fn fanout_from_one_nic_serializes() {
        let mut sim = Sim::new(0);
        let f = fabric(&sim, ClusterSpec::config_b(16));
        for dst in 1..16u32 {
            let f = f.clone();
            sim.spawn(format!("send{dst}"), async move {
                f.dcn_send(HostId(0), HostId(dst), 0).await;
            });
        }
        let end = sim.run_to_quiescence();
        let p = NetworkParams::tpu_cluster();
        // 15 messages serialized on host0's NIC then one latency.
        let expect = p.dcn_send_overhead * 15 + p.dcn_latency;
        assert_eq!(end.as_nanos(), expect.as_nanos());
    }

    #[test]
    fn loopback_is_free() {
        let mut sim = Sim::new(0);
        let f = fabric(&sim, ClusterSpec::config_b(2));
        sim.spawn("lo", async move {
            f.dcn_send(HostId(0), HostId(0), 1 << 30).await;
        });
        assert_eq!(sim.run_to_quiescence().as_nanos(), 0);
    }

    #[test]
    fn ici_transfer_scales_with_hops() {
        let mut sim = Sim::new(0);
        let f = fabric(&sim, ClusterSpec::config_b(8)); // 8x8 torus
        let f2 = f.clone();
        let near = sim.spawn("near", async move {
            f2.ici_transfer(DeviceId(0), DeviceId(1), 0).await;
            f2.handle().now().as_nanos()
        });
        sim.run_to_quiescence();
        let near_t = near.try_take().unwrap();

        let mut sim = Sim::new(0);
        let f = fabric(&sim, ClusterSpec::config_b(8));
        let far = sim.spawn("far", async move {
            // (0,0) -> (4,4): 8 hops on the 8x8 torus.
            f.ici_transfer(DeviceId(0), DeviceId(36), 0).await;
            f.handle().now().as_nanos()
        });
        sim.run_to_quiescence();
        assert_eq!(far.try_take().unwrap(), near_t * 8);
    }

    #[test]
    fn pcie_enqueues_serialize_per_host() {
        let mut sim = Sim::new(0);
        let f = fabric(&sim, ClusterSpec::config_b(2));
        for i in 0..4 {
            let f = f.clone();
            sim.spawn(format!("e{i}"), async move {
                f.pcie_enqueue(HostId(0)).await;
            });
        }
        let p = NetworkParams::tpu_cluster();
        let end = sim.run_to_quiescence();
        let expect = p.enqueue_cpu_overhead * 4 + p.pcie_latency;
        assert_eq!(end.as_nanos(), expect.as_nanos());
    }

    #[test]
    #[should_panic(expected = "not attached")]
    fn pcie_transfer_checks_attachment() {
        let mut sim = Sim::new(0);
        let f = fabric(&sim, ClusterSpec::config_b(2));
        sim.spawn("bad", async move {
            f.pcie_transfer(HostId(0), DeviceId(15), 10).await;
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn collective_time_grows_with_scale() {
        let sim = Sim::new(0);
        let f = fabric(&sim, ClusterSpec::config_a(512));
        let topo = f.topology().clone();
        let all: Vec<DeviceId> = topo.devices().collect();
        let few: Vec<DeviceId> = all.iter().copied().take(8).collect();
        let t_few = f.ici_collective_time(CollectiveKind::AllReduce, &few, 4);
        let t_all = f.ici_collective_time(CollectiveKind::AllReduce, &all, 4);
        assert!(t_all > t_few);
    }

    #[test]
    fn link_state_tracks_failures_and_severs() {
        let sim = Sim::new(0);
        let f = fabric(&sim, ClusterSpec::config_b(4));
        assert!(f.link_up(HostId(0), HostId(1)));
        f.sever_link(HostId(1), HostId(0));
        assert!(!f.link_up(HostId(0), HostId(1)), "severs are symmetric");
        assert!(!f.link_up(HostId(1), HostId(0)));
        assert!(f.link_up(HostId(0), HostId(2)), "other pairs unaffected");
        f.fail_host(HostId(2));
        assert!(f.host_failed(HostId(2)));
        assert!(!f.link_up(HostId(0), HostId(2)));
        assert!(!f.link_up(HostId(2), HostId(3)));
        assert!(!f.link_up(HostId(2), HostId(2)), "dead host loopback down");
        assert!(f.link_up(HostId(3), HostId(3)), "live loopback up");
    }

    #[test]
    #[should_panic(expected = "spans islands")]
    fn collective_across_islands_rejected() {
        let sim = Sim::new(0);
        let f = fabric(&sim, ClusterSpec::config_c());
        let _ = f.ici_collective_time(CollectiveKind::AllReduce, &[DeviceId(0), DeviceId(40)], 4);
    }
}
