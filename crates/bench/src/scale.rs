//! `fig_scale` harness: warehouse-scale sweeps over island count.
//!
//! The paper's controller is sized for thousands of accelerators; this
//! sweep checks that the *simulation of it* stays tractable there too.
//! Two measurements per sweep point:
//!
//! - [`scale_point`] — end-to-end stepping: one training client per
//!   island gang-steps a 4-device slice for a fixed virtual window, and
//!   we report the sim-time/wall-time ratio plus the wall-clock
//!   controller overhead per completed step. This exercises every hot
//!   path rebuilt for O(10k) devices: the timer wheel, the readiness
//!   fan-out in the object store, and the gang rendezvous indexes.
//! - [`heal_point`] — resource-manager healing in isolation: allocate a
//!   fixed per-island load, kill one device, and time `heal`. With the
//!   device -> slices reverse index the cost tracks the blast radius
//!   (slices actually touching the dead device), not the cluster size.
//!
//! Wall-clock numbers are measured with [`std::time::Instant`] and are
//! machine-dependent; the virtual-time numbers are deterministic.

// This module is the designated wall-time measurement site: pathlint's
// wall-clock rule and clippy.toml both exempt it (and only it).
#![allow(clippy::disallowed_types)]

use std::sync::Arc;
use std::time::Instant;

use pathways_core::{FnSpec, PathwaysConfig, PathwaysRuntime, ResourceManager, SliceRequest};
use pathways_net::{ClusterSpec, IslandId, NetworkParams};
use pathways_sim::{Sim, SimDuration, SimTime};

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
    /// Virtual window covered by the run.
    pub sim_window: SimDuration,
    /// Wall-clock seconds spent simulating that window.
    pub wall_secs: f64,
    /// Training steps completed across all islands.
    pub steps: u64,
    /// Train-step computations enqueued onto devices (steps x gang
    /// size) — the unit the controller overhead is charged per.
    pub kernels: u64,
}

impl ScaleStats {
    /// Virtual seconds simulated per wall second (bigger is better).
    pub fn sim_wall_ratio(&self) -> f64 {
        self.sim_window.as_secs_f64() / self.wall_secs
    }

    /// Wall-clock microseconds of controller + simulator overhead per
    /// scheduled kernel.
    pub fn wall_us_per_kernel(&self) -> f64 {
        if self.kernels == 0 {
            f64::NAN
        } else {
            self.wall_secs * 1e6 / self.kernels as f64
        }
    }
}

/// Runs the end-to-end stepping workload at `islands` islands of
/// [`HOSTS_PER_ISLAND`] x [`DEVICES_PER_HOST`]: one client per island,
/// each looping a 4-device gang train step until `window` of virtual
/// time has elapsed. Virtual-time behavior is deterministic for equal
/// arguments; only the wall-clock fields vary run to run.
pub fn scale_point(islands: u32, compute: SimDuration, window: SimDuration) -> ScaleStats {
    const GANG: u32 = 4;
    assert!(islands >= 1);
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(islands, HOSTS_PER_ISLAND, DEVICES_PER_HOST),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
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
        let mut b = client.trace(format!("step-i{i}"));
        b.computation(
            FnSpec::compute_only("train_step", compute).with_allreduce(u64::from(GANG)),
            &slice,
        );
        let prepared = client.prepare(&b.build().expect("valid step program"));
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

    let start = Instant::now();
    sim.run_to_quiescence();
    let wall_secs = start.elapsed().as_secs_f64();

    let steps: u64 = jobs
        .into_iter()
        .map(|j| j.try_take().expect("stepper finished"))
        .sum();
    ScaleStats {
        islands,
        devices: islands * HOSTS_PER_ISLAND * DEVICES_PER_HOST,
        sim_window: window,
        wall_secs,
        steps,
        kernels: steps * u64::from(GANG),
    }
}

/// Steps *one* gang of `width` devices (one island of `width / 4` hosts
/// x 4 devices): a single client runs a prepared one-computation
/// program (`compute` + a 4-byte all-reduce) once to warm up, then
/// `steps` times under the stopwatch. [`scale_point`] widens the
/// cluster but never a gang; this is the row that shows whether
/// per-kernel overhead stays flat as a single gang widens.
pub fn wide_gang_point(width: u32, compute: SimDuration, steps: u32) -> ScaleStats {
    const DEVICES_PER_WIDE_HOST: u32 = 4;
    assert!(width >= DEVICES_PER_WIDE_HOST && width.is_multiple_of(DEVICES_PER_WIDE_HOST));
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(1, width / DEVICES_PER_WIDE_HOST, DEVICES_PER_WIDE_HOST),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    let host = rt
        .topology()
        .hosts_of_island(IslandId(0))
        .next()
        .expect("island has hosts");
    let client = rt.client(host);
    let slice = client
        .virtual_slice(SliceRequest::devices(width).in_island(IslandId(0)))
        .expect("the island is exactly one gang wide");
    let mut b = client.trace(format!("wide-{width}"));
    b.computation(
        FnSpec::compute_only("train_step", compute).with_allreduce(4),
        &slice,
    );
    let prepared = Arc::new(client.prepare(&b.build().expect("valid step program")));

    let run_steps = |sim: &mut Sim, n: u32| {
        let (client, prepared) = (client.clone(), Arc::clone(&prepared));
        let job = sim.spawn("wide-stepper", async move {
            for _ in 0..n {
                client.run(&prepared).await;
            }
        });
        sim.run_to_quiescence();
        assert!(job.is_finished(), "wide gang stepper finished");
    };
    run_steps(&mut sim, 1);
    let (wall_start, sim_start) = (Instant::now(), sim.now());
    run_steps(&mut sim, steps);
    let wall_secs = wall_start.elapsed().as_secs_f64();

    ScaleStats {
        islands: 1,
        devices: width,
        sim_window: sim.now() - sim_start,
        wall_secs,
        steps: u64::from(steps),
        kernels: u64::from(steps) * u64::from(width),
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
    /// Wall-clock microseconds spent inside `heal`.
    pub heal_wall_us: f64,
}

/// Allocates `slices_per_island` 4-device slices in every island of an
/// `islands` x [`HOSTS_PER_ISLAND`] x [`DEVICES_PER_HOST`] topology,
/// kills one device of island 0, and times the heal. The resulting
/// remappings are deterministic; only `heal_wall_us` varies run to run.
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

    let start = Instant::now();
    let events = rm.heal(&[victim], &[]);
    let heal_wall_us = start.elapsed().as_secs_f64() * 1e6;

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
        heal_wall_us,
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
