//! `fig_dispatch` harness: controller dispatch throughput, deterministic
//! vs threaded.
//!
//! Every other figure measures *virtual-time* behavior; this one
//! measures how fast the controller itself runs — programs and kernels
//! per wall-clock second pushed through one `PathwaysRuntime` — and how
//! that changes when the same controller code runs on the threaded
//! backend.
//!
//! The workload is controller-bound by construction: each client traces
//! and lowers a fresh multi-kernel program every iteration (tracing +
//! lowering is the paper's client-side cost, §4.5), so wall time is
//! dominated by real CPU work in the client, scheduler, store, and
//! dispatch paths rather than by modeled latencies (which are set to
//! zero/near-zero here). Clients sit on disjoint islands, which is what
//! makes the work parallelizable at all — one island's grant loop is
//! intentionally serial.
//!
//! Alongside throughput, the harness snapshots the named-lock
//! contention profile ([`pathways_sim::contention_profile`]): which of
//! the controller's shared structures actually block under threads.

// This module measures wall time, like `scale.rs`: both are exempt from
// clippy.toml's `Instant` ban.
#![expect(clippy::disallowed_types)]

use std::time::Instant;

use pathways_core::{FnSpec, PathwaysConfig, PathwaysRuntime, SliceRequest};
use pathways_net::{Bandwidth, ClusterSpec, HostId, IslandId, NetworkParams};
use pathways_sim::{
    contention_profile, reset_contention_profile, Executor, ExecutorKind, LockProfile, SimDuration,
};

/// Devices per (single-host) island in the dispatch workload.
pub const DEVICES_PER_ISLAND: u32 = 4;

/// One measurement: a backend, a client fleet, and what it achieved.
#[derive(Debug, Clone)]
pub struct DispatchStats {
    /// Backend label (`"deterministic"` or `"threaded"`).
    pub backend: &'static str,
    /// Worker threads (1 for the deterministic backend).
    pub workers: usize,
    /// Concurrent clients (= islands).
    pub clients: u32,
    /// Programs submitted and completed across all clients.
    pub programs: u64,
    /// Kernels dispatched to devices (programs x kernels-per-program).
    pub kernels: u64,
    /// Wall-clock seconds from first submission to quiescence.
    pub wall_secs: f64,
    /// Named-lock contention profile captured over the run.
    pub contention: Vec<LockProfile>,
}

impl DispatchStats {
    /// Programs completed per wall second.
    pub fn programs_per_sec(&self) -> f64 {
        self.programs as f64 / self.wall_secs
    }

    /// Kernels dispatched per wall second.
    pub fn kernels_per_sec(&self) -> f64 {
        self.kernels as f64 / self.wall_secs
    }
}

/// Runs the dispatch workload on `kind`: `clients` clients, one per
/// single-host island, each tracing/lowering/submitting
/// `programs_per_client` fresh programs of `kernels_per_program`
/// computations on its island's 4-device slice.
///
/// Virtual-time behavior is deterministic on the deterministic backend;
/// wall-clock fields are machine-dependent on both.
pub fn dispatch_point(
    kind: ExecutorKind,
    clients: u32,
    programs_per_client: u32,
    kernels_per_program: u32,
) -> DispatchStats {
    assert!(clients >= 1 && programs_per_client >= 1 && kernels_per_program >= 1);
    let mut exec = Executor::new(kind, 0);
    // Modeled latencies all zero: this figure charges the controller's
    // CPU work, not the simulated network/device time the other figures
    // study. Zero-duration sleeps complete without arming a timer, so
    // on the threaded backend wall time is real scheduling/lowering/
    // dispatch CPU rather than timer churn (which would serialize on
    // the timer thread and swamp any worker-count effect).
    let cfg = PathwaysConfig {
        client_overhead: SimDuration::ZERO,
        client_per_comp: SimDuration::ZERO,
        sched_decision: SimDuration::ZERO,
        ..PathwaysConfig::default()
    };
    let net = NetworkParams {
        pcie_latency: SimDuration::ZERO,
        pcie_bandwidth: Bandwidth::from_gbps(1e6),
        ici_hop_latency: SimDuration::ZERO,
        ici_bandwidth: Bandwidth::from_gbps(1e6),
        dcn_latency: SimDuration::ZERO,
        dcn_bandwidth: Bandwidth::from_gbps(1e6),
        dcn_send_overhead: SimDuration::ZERO,
        enqueue_cpu_overhead: SimDuration::ZERO,
    };
    let rt = PathwaysRuntime::new(
        &exec,
        ClusterSpec::islands_of(clients, 1, DEVICES_PER_ISLAND),
        net,
        cfg,
    );

    let mut jobs = Vec::new();
    for i in 0..clients {
        let client = rt.client(HostId(i));
        let slice = client
            .virtual_slice(SliceRequest::devices(DEVICES_PER_ISLAND).in_island(IslandId(i)))
            .expect("island fits one slice");
        jobs.push(exec.spawn(format!("dispatch-client-{i}"), async move {
            let mut done = 0u64;
            for p in 0..programs_per_client {
                // Fresh trace + prepare every iteration: the controller
                // work under test, not an artifact to cache away.
                let mut b = client.trace(format!("d{i}-{p}"));
                let mut prev = None;
                for k in 0..kernels_per_program {
                    let c = b.computation(
                        FnSpec::compute_only(format!("k{k}"), SimDuration::ZERO),
                        &slice,
                    );
                    if let Some(pr) = prev {
                        b.edge(pr, c, 8);
                    }
                    prev = Some(c);
                }
                let prepared = client.prepare(&b.build().expect("valid dispatch program"));
                client.run(&prepared).await;
                done += 1;
            }
            done
        }));
    }

    reset_contention_profile();
    let start = Instant::now();
    let outcome = exec.run();
    let wall_secs = start.elapsed().as_secs_f64();
    let contention = contention_profile();
    assert!(
        outcome.is_quiescent(),
        "dispatch workload wedged: {outcome:?}"
    );

    let programs: u64 = jobs
        .into_iter()
        .map(|j| j.try_take().expect("dispatch client finished"))
        .sum();
    DispatchStats {
        backend: match kind {
            ExecutorKind::Deterministic => "deterministic",
            ExecutorKind::Threaded { .. } => "threaded",
        },
        workers: match kind {
            ExecutorKind::Deterministic => 1,
            ExecutorKind::Threaded { workers } => workers,
        },
        clients,
        programs,
        kernels: programs * u64::from(kernels_per_program),
        wall_secs,
        contention,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_point_completes_and_replays() {
        let a = dispatch_point(ExecutorKind::Deterministic, 2, 3, 4);
        let b = dispatch_point(ExecutorKind::Deterministic, 2, 3, 4);
        assert_eq!(a.programs, 6);
        assert_eq!(a.kernels, 24);
        assert_eq!(a.programs, b.programs, "virtual behavior must replay");
        assert!(a.wall_secs > 0.0);
    }

    #[test]
    fn threaded_point_completes_all_programs() {
        let s = dispatch_point(ExecutorKind::Threaded { workers: 2 }, 2, 3, 4);
        assert_eq!(s.programs, 6);
        assert_eq!(s.kernels, 24);
        assert_eq!(s.backend, "threaded");
        assert_eq!(s.workers, 2);
    }

    #[test]
    fn contention_profile_names_hot_locks() {
        let s = dispatch_point(ExecutorKind::Threaded { workers: 2 }, 4, 4, 4);
        // The run must have exercised the named controller locks.
        let names: Vec<&str> = s.contention.iter().map(|p| p.name.as_str()).collect();
        assert!(
            names.contains(&"core.store"),
            "store lock missing from profile: {names:?}"
        );
        assert!(
            s.contention.iter().any(|p| p.acquires > 0),
            "profile counted no acquisitions"
        );
    }
}
