//! Island-scheduling policies.
//!
//! The per-island gang scheduler (§4.4) consistently orders all
//! computations sharing an island; *which* order is a policy decision,
//! made by one [`PolicyEngine`] per island. The engine is a closed type:
//! a new multi-tenancy policy (§6.2 sketches deadline, backfill, …) is
//! one [`SchedPolicy`](super::SchedPolicy) arm plus one `PolicyEngine`
//! arm, and the scheduler loop does not change.
//!
//! A policy never touches the queues themselves: the scheduler owns one
//! FIFO backlog per client (preserving per-client program order, which
//! the deadlock-freedom argument relies on) and asks the policy only to
//! choose *whose* head program is granted next. Policies see arrivals
//! and grants through hooks and keep whatever accounting state they
//! need.
//!
//! Two policies ship:
//!
//! * [`PolicyEngine::Fifo`] — global arrival order (the paper's own
//!   implementation: "our current implementation simply enqueues work
//!   in FIFO order");
//! * [`PolicyEngine::WeightedFair`] ([`WfqPolicy`]) — gang-aware
//!   weighted-fair queueing with per-client deficit counters, the
//!   proportional-share policy behind Figure 9's 1:2:4:8 interleaving:
//!   it charges each grant the program's *whole-gang* device time, so
//!   fairness holds in device-seconds even when tenants submit gangs of
//!   very different sizes.

use std::collections::BTreeMap;

use pathways_net::ClientId;
use pathways_sim::SimDuration;

use super::SubmitMsg;

/// One client's backlog as a policy sees it: the head (earliest)
/// pending program plus queue depth. Queues with no pending work are
/// never shown to a policy.
#[derive(Debug)]
pub struct QueuedProgram<'a> {
    /// The client owning this queue.
    pub client: ClientId,
    /// The earliest pending submission of this client — the only
    /// program of the client eligible for the next grant (per-client
    /// order is FIFO by construction).
    pub head: &'a SubmitMsg,
    /// Number of pending submissions, including `head`.
    pub backlog: usize,
}

/// An island's policy engine: chooses, under contention, whose program
/// the centralized scheduler grants next. Built per island by
/// [`SchedPolicy::build`](super::SchedPolicy::build).
///
/// The scheduler calls the three hooks in a strict arrival → pick →
/// grant order, so internal accounting needs no synchronization.
#[derive(Debug)]
pub enum PolicyEngine {
    /// Grants programs in global arrival order. Arrival order is
    /// approximated by [`RunId`](pathways_plaque::RunId), which is
    /// allocated monotonically at submission time.
    Fifo,
    /// Gang-aware weighted-fair queueing.
    WeightedFair(WfqPolicy),
}

impl PolicyEngine {
    /// Human-readable policy name (used in `Debug` output and tests).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            PolicyEngine::Fifo => "fifo",
            PolicyEngine::WeightedFair(_) => "wfq",
        }
    }

    /// Arrival hook: `msg` was appended to its client's queue. Called
    /// before the next [`pick_next`](Self::pick_next).
    pub fn on_arrival(&mut self, msg: &SubmitMsg) {
        if let PolicyEngine::WeightedFair(wfq) = self {
            wfq.on_arrival(msg);
        }
    }

    /// Picks the client whose head program is granted next: always one
    /// of `queues`, and `None` only when `queues` is empty.
    pub fn pick_next(&mut self, queues: &[QueuedProgram<'_>]) -> Option<ClientId> {
        let i = self.pick(queues)?;
        queues.get(i).map(|q| q.client)
    }

    /// [`pick_next`](Self::pick_next) as a position in `queues`, so the
    /// scheduler pops a queue it showed rather than looking up a client.
    pub(super) fn pick(&mut self, queues: &[QueuedProgram<'_>]) -> Option<usize> {
        match self {
            PolicyEngine::Fifo => queues
                .iter()
                .enumerate()
                .min_by_key(|(_, q)| q.head.run)
                .map(|(i, _)| i),
            PolicyEngine::WeightedFair(wfq) => wfq.pick(queues),
        }
    }

    /// Accounting hook: `msg` (the head chosen by the last
    /// [`pick_next`](Self::pick_next)) was granted. `queue_now_empty`
    /// is true when this grant drained the client's backlog; WFQ
    /// forfeits the client's banked credit then, so an idle tenant
    /// cannot burst later.
    pub fn on_grant(&mut self, msg: &SubmitMsg, queue_now_empty: bool) {
        if let PolicyEngine::WeightedFair(wfq) = self {
            wfq.on_grant(msg, queue_now_empty);
        }
    }
}

/// Gang-aware weighted-fair queueing with per-client deficit counters
/// (deficit round-robin, Shreedhar & Varghese, adapted to gang grants).
///
/// Clients take turns in a fixed round-robin order. Each turn a client
/// is credited `quantum × weight` of deficit; its head program is
/// granted once the accumulated deficit covers the program's
/// **whole-gang** estimated device time (`est_cost`, summed over every
/// shard). The grant then debits that cost.
///
/// * **Gang awareness.** Charging full gang cost makes fairness hold in
///   device-seconds: a tenant submitting 8-device gangs pays 8× per
///   program what a 1-device tenant pays, so mixed gang sizes share an
///   island by device time, not by program count.
/// * **Bounded bursts.** A client whose queue drains forfeits its
///   remaining deficit, so an idle tenant cannot bank credit and later
///   monopolize the island; its burst is bounded by one quantum × weight
///   above steady state (the classic DRR bound).
#[derive(Debug)]
pub struct WfqPolicy {
    weights: BTreeMap<ClientId, u32>,
    quantum: SimDuration,
    /// Accumulated credit, in nanoseconds of gang device time.
    deficit: BTreeMap<ClientId, u64>,
    /// Round-robin order; clients are appended on first arrival.
    order: Vec<ClientId>,
    /// Index into `order` of the next turn.
    cursor: usize,
}

impl WfqPolicy {
    /// A WFQ scheduler with the given weights and per-turn quantum.
    ///
    /// The quantum trades scheduling overhead against burstiness: it
    /// should be at least the typical program's per-turn share. A zero
    /// quantum is clamped to 1 ns (per-turn credit must be positive or
    /// no client could ever afford a grant). Clients absent from the
    /// map get weight 1.
    pub fn new(weights: BTreeMap<ClientId, u32>, quantum: SimDuration) -> Self {
        WfqPolicy {
            weights,
            quantum: quantum.max(SimDuration::from_nanos(1)),
            deficit: BTreeMap::new(),
            order: Vec::new(),
            cursor: 0,
        }
    }

    /// The default quantum: 1 ms of gang device time per unit weight.
    pub const DEFAULT_QUANTUM: SimDuration = SimDuration::from_millis(1);

    fn weight(&self, client: ClientId) -> u64 {
        self.weights.get(&client).copied().unwrap_or(1).max(1) as u64
    }

    /// Rounds of credit `client` still needs before `cost` is covered.
    fn rounds_needed(&self, client: ClientId, cost: u64) -> u64 {
        let have = self.deficit.get(&client).copied().unwrap_or(0);
        let per_round = (self.quantum.as_nanos() * self.weight(client)).max(1);
        cost.saturating_sub(have).div_ceil(per_round)
    }

    fn on_arrival(&mut self, msg: &SubmitMsg) {
        if !self.order.contains(&msg.client) {
            self.order.push(msg.client);
        }
    }

    fn pick(&mut self, queues: &[QueuedProgram<'_>]) -> Option<usize> {
        // Fast-forward the round-robin: credit every backlogged client
        // the minimum number of whole rounds after which at least one
        // of them can afford its head program, then serve the first
        // affordable client at or after the cursor. Equivalent to
        // spinning the textbook DRR loop, without the O(rounds) walk.
        let rounds = queues
            .iter()
            .map(|q| self.rounds_needed(q.client, q.head.est_cost.as_nanos().max(1)))
            .min()?;
        if rounds > 0 {
            for q in queues {
                let credit = rounds * self.quantum.as_nanos() * self.weight(q.client);
                *self.deficit.entry(q.client).or_insert(0) += credit;
            }
        }
        let affordable =
            |c: ClientId, cost: u64| self.deficit.get(&c).copied().unwrap_or(0) >= cost;
        let n = self.order.len();
        for step in 0..n {
            let client = self.order[(self.cursor + step) % n];
            if let Some(i) = queues.iter().position(|q| q.client == client) {
                if affordable(client, queues[i].head.est_cost.as_nanos().max(1)) {
                    self.cursor = (self.cursor + step + 1) % n;
                    return Some(i);
                }
            }
        }
        // Reached only if a caller skipped on_arrival (empty `order`):
        // fall back to the first backlogged client rather than panic.
        Some(0)
    }

    fn on_grant(&mut self, msg: &SubmitMsg, queue_now_empty: bool) {
        let cost = msg.est_cost.as_nanos().max(1);
        let d = self.deficit.entry(msg.client).or_insert(0);
        *d = d.saturating_sub(cost);
        if queue_now_empty {
            // Forfeit banked credit: an idle tenant must not be able to
            // burst past its share when it returns.
            *d = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::SchedPolicy;
    use super::*;
    use pathways_plaque::RunId;

    fn submit(client: u32, run: u64, cost_us: u64) -> SubmitMsg {
        SubmitMsg {
            client: ClientId(client),
            label: format!("c{client}"),
            run: RunId(run),
            est_cost: SimDuration::from_micros(cost_us),
            comps: vec![],
        }
    }

    fn wfq(weights: BTreeMap<ClientId, u32>, quantum: SimDuration) -> PolicyEngine {
        PolicyEngine::WeightedFair(WfqPolicy::new(weights, quantum))
    }

    /// Drives a policy the way the scheduler does, with every client's
    /// queue kept saturated with equal programs, and counts grants.
    fn saturated_grant_counts(
        policy: &mut PolicyEngine,
        costs_us: &[u64],
        grants: usize,
    ) -> Vec<u64> {
        let mut counts = vec![0u64; costs_us.len()];
        let mut next_run = 0u64;
        let mut heads: Vec<SubmitMsg> = costs_us
            .iter()
            .enumerate()
            .map(|(c, us)| {
                next_run += 1;
                let m = submit(c as u32, next_run, *us);
                policy.on_arrival(&m);
                m
            })
            .collect();
        for _ in 0..grants {
            let queues: Vec<QueuedProgram<'_>> = heads
                .iter()
                .map(|m| QueuedProgram {
                    client: m.client,
                    head: m,
                    backlog: 2, // saturated: never reports empty
                })
                .collect();
            let picked = policy.pick_next(&queues).expect("backlog nonempty");
            let i = picked.0 as usize;
            counts[i] += 1;
            policy.on_grant(&heads[i], false);
            next_run += 1;
            let refill = submit(picked.0, next_run, costs_us[i]);
            policy.on_arrival(&refill);
            heads[i] = refill;
        }
        counts
    }

    fn weights_1248() -> BTreeMap<ClientId, u32> {
        [1u32, 2, 4, 8]
            .into_iter()
            .enumerate()
            .map(|(i, w)| (ClientId(i as u32), w))
            .collect()
    }

    #[test]
    fn wfq_honors_1_2_4_8_weights_within_ten_percent() {
        // 1:2:4:8 within ±10% over 1000 grants.
        let mut policy = wfq(weights_1248(), SimDuration::from_micros(10));
        let counts = saturated_grant_counts(&mut policy, &[10, 10, 10, 10], 1000);
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 1000);
        for (i, want_share) in [1.0, 2.0, 4.0, 8.0].iter().enumerate() {
            let expected = 1000.0 * want_share / 15.0;
            let got = counts[i] as f64;
            assert!(
                (got - expected).abs() <= expected * 0.10,
                "client {i}: got {got} grants, expected {expected:.0} ±10% (all: {counts:?})"
            );
        }
    }

    #[test]
    fn stride_honors_1_2_4_8_weights_within_ten_percent() {
        // Stride scheduling's invariant, on the engine that replaced
        // it: a grant advances its client by est_cost / weight (its
        // stride). With costs 1:2:4:8 under weights 1:2:4:8 every
        // stride is equal, so grants split evenly and device time
        // follows 1:2:4:8 within ±10% over 1000 grants.
        let costs_us = [10u64, 20, 40, 80];
        let mut policy = wfq(weights_1248(), SimDuration::from_micros(10));
        let counts = saturated_grant_counts(&mut policy, &costs_us, 1000);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        let time: Vec<u64> = counts.iter().zip(costs_us).map(|(n, c)| n * c).collect();
        let total: u64 = time.iter().sum();
        for (i, want_share) in [1.0, 2.0, 4.0, 8.0].iter().enumerate() {
            let expected = total as f64 * want_share / 15.0;
            let got = time[i] as f64;
            assert!(
                (got - expected).abs() <= expected * 0.10,
                "client {i}: got {got}us, expected {expected:.0}us ±10% (grants: {counts:?})"
            );
        }
    }

    #[test]
    fn wfq_is_gang_aware_charging_whole_gang_cost() {
        // Equal weights, but client 0 submits 4×-cost gangs (e.g. 4×
        // the devices per program). Fairness in device-seconds means it
        // gets ~1/4 as many *grants*.
        let weights: BTreeMap<ClientId, u32> =
            [(ClientId(0), 1), (ClientId(1), 1)].into_iter().collect();
        let mut policy = wfq(weights, SimDuration::from_micros(10));
        let counts = saturated_grant_counts(&mut policy, &[40, 10], 1000);
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!(
            (3.5..=4.5).contains(&ratio),
            "expected ~4:1 grant ratio for 1:4 cost ratio, got {ratio:.2} ({counts:?})"
        );
        // Device-time shares are near-equal.
        let time0 = counts[0] * 40;
        let time1 = counts[1] * 10;
        let tratio = time1 as f64 / time0 as f64;
        assert!(
            (0.85..=1.15).contains(&tratio),
            "device-time shares should be ~equal, got {tratio:.2}"
        );
    }

    #[test]
    fn wfq_forfeits_deficit_when_queue_drains() {
        let weights: BTreeMap<ClientId, u32> =
            [(ClientId(0), 1), (ClientId(1), 1)].into_iter().collect();
        let mut policy = WfqPolicy::new(weights, SimDuration::from_micros(100));
        // Client 0 drains its queue; the final grant reports the queue
        // empty, so any banked credit is forfeited.
        let m = submit(0, 1, 10);
        policy.on_arrival(&m);
        let q = [QueuedProgram {
            client: ClientId(0),
            head: &m,
            backlog: 1,
        }];
        assert_eq!(policy.pick(&q), Some(0));
        policy.on_grant(&m, true);
        assert_eq!(policy.deficit.get(&ClientId(0)).copied().unwrap_or(0), 0);
    }

    #[test]
    fn fifo_picks_global_arrival_order() {
        let mut policy = PolicyEngine::Fifo;
        let a = submit(1, 10, 5);
        let b = submit(0, 11, 5);
        let queues = [
            QueuedProgram {
                client: ClientId(0),
                head: &b,
                backlog: 1,
            },
            QueuedProgram {
                client: ClientId(1),
                head: &a,
                backlog: 1,
            },
        ];
        assert_eq!(policy.pick_next(&queues), Some(ClientId(1)));
        assert_eq!(policy.pick_next(&[]), None);
    }

    #[test]
    fn facade_builds_the_matching_impl() {
        assert_eq!(SchedPolicy::Fifo.build().name(), "fifo");
        let weights: BTreeMap<ClientId, u32> = [(ClientId(2), 3)].into_iter().collect();
        let facade = SchedPolicy::weighted_fair(weights.clone());
        let PolicyEngine::WeightedFair(engine) = facade.build() else {
            panic!("weighted_fair built a non-WFQ engine");
        };
        assert_eq!(engine.weights, weights);
        assert_eq!(engine.quantum, WfqPolicy::DEFAULT_QUANTUM);
        assert_eq!(facade, facade.clone());
        assert_ne!(facade, SchedPolicy::Fifo);
    }

    #[test]
    fn wfq_builds_fresh_state_per_island() {
        // Two islands built from one facade must not share round-robin
        // or deficit state: advancing one must leave the other behaving
        // like a fresh instance.
        let weights: BTreeMap<ClientId, u32> =
            [(ClientId(0), 1), (ClientId(1), 1)].into_iter().collect();
        let facade = SchedPolicy::WeightedFair {
            weights,
            quantum: SimDuration::from_micros(10),
        };
        let mut a = facade.build();
        let mut b = facade.build();
        let m0 = submit(0, 1, 10);
        let m1 = submit(1, 2, 10);
        for p in [&mut a, &mut b] {
            p.on_arrival(&m0);
            p.on_arrival(&m1);
        }
        fn queues<'a>(m0: &'a SubmitMsg, m1: &'a SubmitMsg) -> [QueuedProgram<'a>; 2] {
            [
                QueuedProgram {
                    client: ClientId(0),
                    head: m0,
                    backlog: 2,
                },
                QueuedProgram {
                    client: ClientId(1),
                    head: m1,
                    backlog: 2,
                },
            ]
        }
        // Advance island A: serve client 0, moving its cursor and
        // spending its deficit.
        assert_eq!(a.pick_next(&queues(&m0, &m1)), Some(ClientId(0)));
        a.on_grant(&m0, false);
        // A's next turn is client 1; a fresh island still starts with
        // client 0. Shared state would make B pick client 1 here.
        assert_eq!(a.pick_next(&queues(&m0, &m1)), Some(ClientId(1)));
        assert_eq!(
            b.pick_next(&queues(&m0, &m1)),
            Some(ClientId(0)),
            "island B inherited island A's round-robin/deficit state"
        );
    }

    #[test]
    fn wfq_zero_quantum_is_clamped_not_starving() {
        // quantum == 0 would make per-turn credit zero and the policy
        // degenerate to lowest-client-id; new() clamps it to 1 ns so
        // weighted sharing still holds.
        let weights: BTreeMap<ClientId, u32> =
            [(ClientId(0), 1), (ClientId(1), 3)].into_iter().collect();
        let mut policy = wfq(weights, SimDuration::ZERO);
        let counts = saturated_grant_counts(&mut policy, &[10, 10], 400);
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!(
            (2.5..=3.5).contains(&ratio),
            "zero quantum broke weighted sharing: {counts:?}"
        );
    }

    #[test]
    fn wfq_pick_without_arrival_falls_back_gracefully() {
        // A caller that skips on_arrival (empty round-robin order) must
        // get the documented first-backlogged fallback, not a panic.
        let mut policy = wfq(BTreeMap::new(), SimDuration::from_micros(10));
        let m = submit(3, 1, 10);
        let q = [QueuedProgram {
            client: ClientId(3),
            head: &m,
            backlog: 1,
        }];
        assert_eq!(policy.pick_next(&q), Some(ClientId(3)));
    }
}
