//! `fig_scale` harness: warehouse-scale sweeps over island count.
//!
//! The paper's controller is sized for thousands of accelerators; this
//! sweep checks that its virtual-time behaviour holds there too. Two
//! measurements per sweep point:
//!
//! - [`scale_point`] — end-to-end stepping: one training client per
//!   island gang-steps a 4-device slice for a fixed virtual window, and
//!   we report the steps completed. This exercises every hot path
//!   rebuilt for O(10k) devices: the timer wheel, the readiness fan-out
//!   in the object store, and the gang rendezvous indexes.
//! - [`heal_point`] — resource-manager healing in isolation: allocate a
//!   fixed per-island load, kill one device, and heal. The slices
//!   remapped are the blast radius (those touching the dead device),
//!   which stays fixed as the cluster's live-slice count grows.
//!
//! Both are deterministic. Host time per kernel and per healed slice is
//! pwbench's to measure (`benchmark/`: the `spmd_wide` workload and
//! `core.resource.heal_us_per_slice`).

use std::sync::Arc;

use pathways_core::{FnSpec, PathwaysConfig, ResourceManager, SliceRequest};
use pathways_models::gang_program;
use pathways_net::{ClusterSpec, IslandId};
use pathways_sim::{SimDuration, SimTime};

use crate::runtime;

/// Hosts per island in the sweep (fixed across points).
pub const HOSTS_PER_ISLAND: u32 = 5;
/// Devices per host in the sweep (fixed across points).
pub const DEVICES_PER_HOST: u32 = 8;

/// One end-to-end sweep point of the scaling figure.
#[derive(Debug, Clone, Copy)]
pub struct ScaleStats {
    /// Island count of this point.
    pub islands: u32,
    /// Total devices simulated.
    pub devices: u32,
    /// Training steps completed across all islands.
    pub steps: u64,
}

/// Runs the end-to-end stepping workload at `islands` islands of
/// [`HOSTS_PER_ISLAND`] x [`DEVICES_PER_HOST`]: one client per island,
/// each looping a 4-device gang train step until `window` of virtual
/// time has elapsed. Deterministic for equal arguments.
pub fn scale_point(islands: u32, compute: SimDuration, window: SimDuration) -> ScaleStats {
    const GANG: u32 = 4;
    assert!(islands >= 1);
    let spec = ClusterSpec::islands_of(islands, HOSTS_PER_ISLAND, DEVICES_PER_HOST);
    let (mut sim, rt) = runtime(0, spec, PathwaysConfig::default());
    let end = SimTime::ZERO + window;

    let mut jobs = Vec::new();
    for i in 0..islands {
        let host = rt
            .topology()
            .hosts_of_island(IslandId(i))
            .next()
            .expect("island has hosts");
        let client = rt.client(host);
        let slice = client
            .virtual_slice(SliceRequest::devices(GANG).in_island(IslandId(i)))
            .expect("island fits one gang slice");
        let step = FnSpec::compute_only("train_step", compute).with_allreduce(u64::from(GANG));
        let (prepared, _) =
            gang_program(&client, format!("step-i{i}"), step, &slice).expect("valid step program");
        let h = client.handle().clone();
        jobs.push(sim.spawn(format!("stepper-{i}"), async move {
            let mut steps = 0u64;
            while h.now() < end {
                client.run(&prepared).await;
                steps += 1;
            }
            steps
        }));
    }

    sim.run_to_quiescence();

    let steps: u64 = jobs
        .into_iter()
        .map(|j| j.try_take().expect("stepper finished"))
        .sum();
    ScaleStats {
        islands,
        devices: islands * HOSTS_PER_ISLAND * DEVICES_PER_HOST,
        steps,
    }
}

/// One healing sweep point.
#[derive(Debug, Clone, Copy)]
pub struct HealScaleStats {
    /// Island count of this point.
    pub islands: u32,
    /// Total devices in the topology.
    pub devices: u32,
    /// Live slices at the moment of the kill.
    pub live_slices: usize,
    /// Slices whose mapping includes the killed device — the blast
    /// radius healing work should be proportional to.
    pub blast_radius: u32,
}

/// Allocates `slices_per_island` 4-device slices in every island of an
/// `islands` x [`HOSTS_PER_ISLAND`] x [`DEVICES_PER_HOST`] topology,
/// kills one device of island 0, and heals the slices that used it.
/// Deterministic for equal arguments.
pub fn heal_point(islands: u32, slices_per_island: u32) -> HealScaleStats {
    assert!(islands >= 1);
    let topo =
        Arc::new(ClusterSpec::islands_of(islands, HOSTS_PER_ISLAND, DEVICES_PER_HOST).build());
    let rm = ResourceManager::new(Arc::clone(&topo));
    let client = pathways_net::ClientId(0);
    let mut live = Vec::new();
    for i in 0..islands {
        for _ in 0..slices_per_island {
            live.push(
                rm.allocate(client, SliceRequest::devices(4).in_island(IslandId(i)))
                    .expect("island has capacity for the sweep load"),
            );
        }
    }
    let victim = topo
        .devices_of_island(IslandId(0))
        .next()
        .expect("island has devices");
    let blast_radius = rm.device_load(victim);

    let events = rm.heal(&[victim], &[]);

    assert_eq!(
        events.len() as u32,
        blast_radius,
        "every slice touching the victim must be visited"
    );
    HealScaleStats {
        islands,
        devices: islands * HOSTS_PER_ISLAND * DEVICES_PER_HOST,
        live_slices: live.len(),
        blast_radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_point_is_deterministic_in_virtual_time() {
        let a = scale_point(
            4,
            SimDuration::from_micros(100),
            SimDuration::from_millis(2),
        );
        let b = scale_point(
            4,
            SimDuration::from_micros(100),
            SimDuration::from_millis(2),
        );
        assert_eq!(a.steps, b.steps, "virtual-time step count must replay");
        assert!(a.steps >= 4, "every island must complete steps");
        assert_eq!(a.devices, 160);
    }

    #[test]
    fn heal_blast_radius_is_island_local() {
        let small = heal_point(2, 4);
        let big = heal_point(8, 4);
        // Load is per island, so the blast radius must not grow with
        // the island count.
        assert_eq!(small.blast_radius, big.blast_radius);
        assert!(big.live_slices > small.live_slices);
    }
}
