//! `fig_heal` harness: recovered throughput after a mid-trace device
//! kill, exercising the elastic-healing loop end to end.
//!
//! One training client per island, each stepping a 4-device gang
//! program back to back for a fixed window of virtual time. Halfway
//! through, a scripted [`FaultPlan`] kills one device of island 0's
//! slice. The in-flight step errors with `ProducerFailed`, the resource
//! manager remaps the slice onto the island's spare devices, and the
//! client's *next* submit re-lowers transparently and keeps stepping —
//! no client-side recovery code beyond tolerating the failed step.
//! Throughput is reported per island for the pre-kill and post-kill
//! halves: island 0 dips by roughly one step and recovers; the other
//! islands are unaffected.

use pathways_core::{FaultSpec, FnSpec, PathwaysConfig, SliceRequest};
use pathways_models::gang_program;
use pathways_net::{ClusterSpec, IslandId};
use pathways_sim::{FaultPlan, SimDuration, SimTime};

use crate::runtime;

/// Per-island throughput around the kill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IslandHealStats {
    /// The island.
    pub island: u32,
    /// Steps/second completed before the kill.
    pub pre_per_sec: f64,
    /// Steps/second completed after the kill (healed slice for island
    /// 0, undisturbed for the rest).
    pub post_per_sec: f64,
    /// Steps that resolved with a typed error (the in-flight step on
    /// the killed device; 0 for surviving islands).
    pub failed_steps: u64,
}

/// Outcome of one healing run.
#[derive(Debug, Clone)]
pub struct HealOutcome {
    /// Per-island pre/post-kill throughput, island order.
    pub islands: Vec<IslandHealStats>,
    /// True if the injector remapped island 0's slice onto live
    /// capacity (exactly one successful heal event).
    pub healed: bool,
}

impl HealOutcome {
    /// Island 0's post/pre throughput ratio — the recovered fraction.
    pub fn recovery(&self) -> f64 {
        let s = &self.islands[0];
        if s.pre_per_sec == 0.0 {
            0.0
        } else {
            s.post_per_sec / s.pre_per_sec
        }
    }
}

/// Runs the healing workload: `islands` islands of 2 hosts x 4 TPUs,
/// one 4-device gang-stepping client per island, a device of island 0's
/// slice killed at `window / 2`, measurement ending at `window`.
/// Deterministic for equal arguments (seeded simulation, scripted
/// fault).
pub fn healing_throughput(islands: u32, compute: SimDuration, window: SimDuration) -> HealOutcome {
    assert!(islands >= 1);
    let (mut sim, rt) = runtime(
        0,
        ClusterSpec::islands_of(islands, 2, 4),
        PathwaysConfig::default(),
    );
    let mid = SimTime::ZERO + window / 2;
    let end = SimTime::ZERO + window;

    // Allocate every slice up front so the doomed device is known
    // before the plan is installed (allocation is deterministic:
    // least-loaded devices of each island).
    let mut clients = Vec::new();
    for i in 0..islands {
        let host = rt
            .topology()
            .hosts_of_island(IslandId(i))
            .next()
            .expect("island has hosts");
        let client = rt.client(host);
        let slice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(i)))
            .expect("island fits one 4-device slice");
        let step = FnSpec::compute_only("train_step", compute)
            .with_allreduce(4)
            .with_output_bytes(1 << 12);
        let (prepared, k) =
            gang_program(&client, format!("step-i{i}"), step, &slice).expect("valid step program");
        if i == 0 {
            let victim = slice.physical_devices()[1];
            rt.install_fault_plan(FaultPlan::new().at(mid, FaultSpec::Device(victim)));
        }
        clients.push((client, prepared, k));
    }

    let mut jobs = Vec::new();
    for (i, (client, prepared, k)) in clients.into_iter().enumerate() {
        let h = client.handle().clone();
        jobs.push(sim.spawn(format!("stepper-{i}"), async move {
            let mut pre = 0u64;
            let mut post = 0u64;
            let mut failed = 0u64;
            while h.now() < end {
                // A stale preparation (slice healed) re-lowers inside
                // submit — the loop has no recovery logic beyond
                // classifying the step.
                let run = client.submit(&prepared).await;
                let out = run.object_ref(k).expect("sink exists");
                run.finish().await;
                match out.ready().await {
                    Ok(()) => {
                        if h.now() <= mid {
                            pre += 1;
                        } else {
                            post += 1;
                        }
                    }
                    Err(_) => failed += 1,
                }
            }
            (pre, post, failed)
        }));
    }
    sim.run_to_quiescence();

    let half = (window / 2).as_secs_f64();
    let islands_stats: Vec<IslandHealStats> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| {
            let (pre, post, failed) = job.try_take().expect("stepper finished");
            IslandHealStats {
                island: i as u32,
                pre_per_sec: pre as f64 / half,
                post_per_sec: post as f64 / half,
                failed_steps: failed,
            }
        })
        .collect();
    let heals = rt.faults().heal_events();
    HealOutcome {
        islands: islands_stats,
        healed: heals.len() == 1 && heals[0].healed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn island_zero_recovers_after_device_kill() {
        let out = healing_throughput(
            2,
            SimDuration::from_micros(100),
            SimDuration::from_millis(8),
        );
        assert!(out.healed, "slice must be remapped");
        let i0 = &out.islands[0];
        assert!(i0.failed_steps >= 1, "the in-flight step must fail");
        assert!(
            out.recovery() > 0.5,
            "island 0 must recover ({} -> {} steps/s)",
            i0.pre_per_sec,
            i0.post_per_sec
        );
        // The untouched island never misses a step.
        let i1 = &out.islands[1];
        assert_eq!(i1.failed_steps, 0);
        assert!(i1.post_per_sec >= i1.pre_per_sec * 0.8);
    }
}
