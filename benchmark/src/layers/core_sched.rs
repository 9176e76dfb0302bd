//! Layer `core.sched`: the per-island gang scheduler and its policy
//! engine.

use std::collections::BTreeMap;

use pathways::core::sched::{SchedPolicy, SubmitMsg};
pub use pathways::core::SchedulerHandle;
use pathways::core::{PathwaysConfig, PathwaysRuntime, QueuedProgram};
use pathways::net::{ClientId, IslandId};
use pathways::plaque::RunId;
use pathways::sim::{SimDuration, SimTime};

use super::core_client::Env;
use super::{Named, Shape, SCHED};
use crate::clock::Stopwatch;
use crate::span;

fn wfq(weights: &[u32]) -> SchedPolicy {
    let map: BTreeMap<ClientId, u32> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| (ClientId(i as u32), *w))
        .collect();
    SchedPolicy::weighted_fair(map)
}

/// Weighted-fair queueing with `weights[i]` for the i-th client the
/// runtime hands out (client ids are assigned in creation order).
pub fn with_weighted_fair(mut cfg: PathwaysConfig, weights: &[u32]) -> PathwaysConfig {
    cfg.policy = wfq(weights);
    cfg
}

pub fn scheduler(env: &Env, island: u32) -> SchedulerHandle {
    scheduler_of(&env.rt, island)
}

pub fn scheduler_of(rt: &PathwaysRuntime, island: u32) -> SchedulerHandle {
    rt.scheduler(IslandId(island)).clone()
}

/// Virtual ns at which run `run_id`'s submission reached the island's
/// scheduler (schedulers remember their most recent 1024 arrivals).
pub fn arrival_ns(sched: &SchedulerHandle, run_id: u64) -> Option<u64> {
    sched
        .arrival_time(RunId(run_id))
        .map(|t| (t - SimTime::ZERO).as_nanos())
}

pub fn counters(env: &Env) -> Vec<Named> {
    let topo = env.rt.topology();
    let granted: u64 = topo
        .islands()
        .map(|i| env.rt.scheduler(i).granted_programs())
        .sum();
    vec![("core.sched.granted_programs", granted as f64)]
}

/// Host ns per scheduling decision (`on_arrival` + `pick_next` +
/// `on_grant`) of a freshly built WFQ policy with `queue_depth` clients
/// backlogged — the policy the contended workload runs.
pub fn probe(shape: &Shape) -> Vec<Named> {
    let depth = shape.queue_depth.max(1);
    let weights: Vec<u32> = (0..depth).map(|i| 1 << (i % 4)).collect();
    let policy_pick_ns = span::sync("probe.policy_pick", SCHED, || {
        let mut policy = wfq(&weights).build();
        let msg = |client: u32, run: u64| SubmitMsg {
            client: ClientId(client),
            label: String::new(),
            run: RunId(run),
            est_cost: SimDuration::from_micros(500) * u64::from(shape.gang),
            comps: Vec::new(),
        };
        // Every client keeps one program queued: a grant is followed by
        // that client's next arrival, as in a closed loop.
        let mut heads: Vec<SubmitMsg> = (0..depth).map(|c| msg(c, u64::from(c))).collect();
        for m in &heads {
            policy.on_arrival(m);
        }
        const PICKS: u64 = 100_000;
        let sw = Stopwatch::start();
        for i in 0..PICKS {
            let picked = {
                let queues: Vec<QueuedProgram<'_>> = heads
                    .iter()
                    .map(|m| QueuedProgram {
                        client: m.client,
                        head: m,
                        backlog: 1,
                    })
                    .collect();
                policy.pick_next(&queues).expect("WFQ always picks")
            };
            let slot = picked.0 as usize;
            policy.on_grant(&heads[slot], true);
            heads[slot] = msg(picked.0, u64::from(depth) + i);
            policy.on_arrival(&heads[slot]);
        }
        sw.nanos() / PICKS as f64
    });
    vec![("core.sched.policy_pick_ns", policy_pick_ns)]
}
