//! Centralized per-island gang scheduling (§4.4).
//!
//! One scheduler task runs per island, consistently ordering *all*
//! computations enqueued on the island's devices across every concurrent
//! client. Because every device executor receives its grants over a FIFO
//! channel from this single scheduler, kernels — and crucially their gang
//! collectives — are enqueued in the same relative order on every device,
//! which is exactly the property that prevents the deadlock demonstrated
//! in `pathways-device`'s tests.
//!
//! The *decision* of which client's program to grant next is delegated
//! to a pluggable [`SchedPolicyImpl`] (see
//! [`policy`]): FIFO (the paper's current implementation: "our current
//! implementation simply enqueues work in FIFO order"), stride-based
//! proportional share (the policy behind Figure 9's 1:2:4:8
//! interleaving), strict priority, and gang-aware weighted-fair
//! queueing. The [`SchedPolicy`] enum is a thin constructor facade kept
//! for configuration ergonomics and backward compatibility.

pub mod policy;

use pathways_sim::hash::FxHashMap;
use pathways_sim::Lock;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use pathways_device::GangTag;
use pathways_net::{ClientId, CollectiveKind, DeviceId, HostId, IslandId, Router};
use pathways_plaque::RunId;
use pathways_sim::{IdleToken, SimDuration, SimHandle, SimTime};

use crate::fault::FailureState;
use crate::program::CompId;
use policy::{FifoPolicy, PriorityPolicy, QueuedProgram, SchedPolicyImpl, StridePolicy, WfqPolicy};

/// Scheduling policy of an island scheduler: a constructor facade over
/// the [`policy::SchedPolicyImpl`] engine.
///
/// Each island scheduler builds its *own* policy instance via
/// [`SchedPolicy::build`], so per-island accounting state (stride
/// passes, deficit counters) is never shared across islands.
#[derive(Clone, Default)]
pub enum SchedPolicy {
    /// Grant programs in arrival order ([`policy::FifoPolicy`]).
    #[default]
    Fifo,
    /// Stride scheduling: each client receives device time proportional
    /// to its weight when the island is contended
    /// ([`policy::StridePolicy`]).
    ProportionalShare(BTreeMap<ClientId, u32>),
    /// Strict priority (higher number wins; ties in arrival order) —
    /// one of the §6.2 multi-tenancy policies the centralized scheduler
    /// makes possible. Low-priority clients can starve under sustained
    /// high-priority load; that is the policy's contract
    /// ([`policy::PriorityPolicy`]).
    Priority(BTreeMap<ClientId, u32>),
    /// Gang-aware weighted-fair queueing with per-client deficit
    /// counters ([`policy::WfqPolicy`]): fairness in device-seconds
    /// even when tenants submit gangs of very different sizes.
    WeightedFair {
        /// Per-client weights (absent clients default to 1).
        weights: BTreeMap<ClientId, u32>,
        /// Deficit credited per round-robin turn per unit weight.
        quantum: SimDuration,
    },
    /// An out-of-tree policy: `factory` is invoked once per island.
    /// This is the drop-in extension point — a new policy needs no
    /// change to this enum or the scheduler loop.
    Custom {
        /// Name shown in `Debug`/comparison (two customs with the same
        /// name compare equal).
        name: &'static str,
        /// Builds a fresh policy instance for one island scheduler.
        factory: Arc<dyn Fn() -> Box<dyn SchedPolicyImpl> + Send + Sync>,
    },
}

impl SchedPolicy {
    /// Weighted-fair queueing with the default quantum
    /// ([`policy::WfqPolicy::DEFAULT_QUANTUM`]).
    pub fn weighted_fair(weights: BTreeMap<ClientId, u32>) -> Self {
        SchedPolicy::WeightedFair {
            weights,
            quantum: WfqPolicy::DEFAULT_QUANTUM,
        }
    }

    /// Wraps an out-of-tree policy constructor.
    pub fn custom(
        name: &'static str,
        factory: impl Fn() -> Box<dyn SchedPolicyImpl> + Send + Sync + 'static,
    ) -> Self {
        SchedPolicy::Custom {
            name,
            factory: Arc::new(factory),
        }
    }

    /// Instantiates the policy engine for one island scheduler.
    pub fn build(&self) -> Box<dyn SchedPolicyImpl> {
        match self {
            SchedPolicy::Fifo => Box::new(FifoPolicy),
            SchedPolicy::ProportionalShare(w) => Box::new(StridePolicy::new(w.clone())),
            SchedPolicy::Priority(p) => Box::new(PriorityPolicy::new(p.clone())),
            SchedPolicy::WeightedFair { weights, quantum } => {
                Box::new(WfqPolicy::new(weights.clone(), *quantum))
            }
            SchedPolicy::Custom { factory, .. } => factory(),
        }
    }

    /// The name of the policy this facade builds.
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::ProportionalShare(_) => "stride",
            SchedPolicy::Priority(_) => "priority",
            SchedPolicy::WeightedFair { .. } => "wfq",
            SchedPolicy::Custom { name, .. } => name,
        }
    }
}

impl fmt::Debug for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedPolicy::Fifo => f.write_str("Fifo"),
            SchedPolicy::ProportionalShare(w) => {
                f.debug_tuple("ProportionalShare").field(w).finish()
            }
            SchedPolicy::Priority(p) => f.debug_tuple("Priority").field(p).finish(),
            SchedPolicy::WeightedFair { weights, quantum } => f
                .debug_struct("WeightedFair")
                .field("weights", weights)
                .field("quantum", quantum)
                .finish(),
            SchedPolicy::Custom { name, .. } => f.debug_tuple("Custom").field(name).finish(),
        }
    }
}

impl PartialEq for SchedPolicy {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (SchedPolicy::Fifo, SchedPolicy::Fifo) => true,
            (SchedPolicy::ProportionalShare(a), SchedPolicy::ProportionalShare(b)) => a == b,
            (SchedPolicy::Priority(a), SchedPolicy::Priority(b)) => a == b,
            (
                SchedPolicy::WeightedFair {
                    weights: wa,
                    quantum: qa,
                },
                SchedPolicy::WeightedFair {
                    weights: wb,
                    quantum: qb,
                },
            ) => wa == wb && qa == qb,
            // Custom policies are opaque; equality is by declared name.
            (SchedPolicy::Custom { name: a, .. }, SchedPolicy::Custom { name: b, .. }) => a == b,
            _ => false,
        }
    }
}

impl Eq for SchedPolicy {}

/// Per-computation description inside a [`SubmitMsg`].
#[derive(Debug, Clone)]
pub struct CompSubmit {
    /// Which computation.
    pub comp: CompId,
    /// True for sink computations: their output object is declared (and
    /// refcounted) by the client at submit time, so executors must not
    /// re-create it — if the client already dropped its `ObjectRef`, the
    /// output is discarded.
    pub sink: bool,
    /// Total shards (gang size).
    pub participants: u32,
    /// Collective kind, payload and precomputed wire duration.
    pub collective: Option<(CollectiveKind, u64, SimDuration)>,
    /// Per-shard compute time.
    pub compute: SimDuration,
    /// Per-shard output bytes (HBM reservation).
    pub output_bytes: u64,
    /// Per-shard input staging bytes.
    pub input_bytes: u64,
    /// Shards grouped by host: `(host, [(shard, device)])`.
    pub by_host: Vec<(HostId, Vec<(u32, DeviceId)>)>,
    /// Gang membership in shard order if the computation has a
    /// collective, empty otherwise. Built once at lowering; every grant,
    /// kernel and rendezvous arrival of every run shares this one list.
    pub gang_devices: Arc<[DeviceId]>,
}

/// Program submission: one DCN message from client to scheduler.
#[derive(Debug, Clone)]
pub struct SubmitMsg {
    /// Submitting client.
    pub client: ClientId,
    /// Label used in device traces.
    pub label: String,
    /// The plaque run executing this program.
    pub run: RunId,
    /// Estimated total device time, summed over shards (used both for
    /// proportional-share accounting and for grant pacing).
    pub est_cost: SimDuration,
    /// Computations in topological order.
    pub comps: Vec<CompSubmit>,
}

/// One computation grant, delivered to a host executor.
#[derive(Debug, Clone)]
pub struct GrantMsg {
    /// Owning client (for object ownership labels).
    pub client: ClientId,
    /// Trace label, shared by every grant and kernel of the program.
    pub label: Arc<str>,
    /// The plaque run.
    pub run: RunId,
    /// Which computation.
    pub comp: CompId,
    /// Sink flag (see [`CompSubmit::sink`]).
    pub sink: bool,
    /// Scheduler-assigned gang tag (island-unique).
    pub gang_tag: GangTag,
    /// Gang size.
    pub participants: u32,
    /// Collective kind + precomputed duration, if any.
    pub collective: Option<(CollectiveKind, SimDuration)>,
    /// Full device membership of the gang, in shard order. Carried so
    /// the collective rendezvous can abort gangs that include a dead
    /// device instead of blocking forever (empty for collective-free
    /// computations). Shared with [`CompSubmit::gang_devices`].
    pub gang_devices: Arc<[DeviceId]>,
    /// Per-shard compute time.
    pub compute: SimDuration,
    /// Per-shard output bytes.
    pub output_bytes: u64,
    /// Per-shard input staging bytes.
    pub input_bytes: u64,
    /// The receiving host's local shards: `(shard, device)`.
    pub local_shards: Vec<(u32, DeviceId)>,
}

/// Control-plane messages (client → scheduler → executors).
#[derive(Debug)]
pub enum CtrlMsg {
    /// Program submission (client → scheduler).
    Submit(SubmitMsg),
    /// Batched grants for one program on one host (scheduler → executor).
    /// One message carries every computation of the program that has
    /// shards on the destination host — the single-message subgraph
    /// dispatch of §4.5.
    Grants(Vec<GrantMsg>),
}

/// Wire-size model for control messages.
pub fn ctrl_msg_bytes(msg: &CtrlMsg) -> u64 {
    match msg {
        CtrlMsg::Submit(s) => 64 + 48 * s.comps.len() as u64,
        CtrlMsg::Grants(g) => {
            32 + g
                .iter()
                .map(|m| 48 + 12 * m.local_shards.len() as u64)
                .sum::<u64>()
        }
    }
}

/// Shared state of one island scheduler (inspectable by tests).
///
/// Owns one FIFO backlog per client — per-client program order is
/// *never* reordered, only the interleaving across clients is policy
/// territory — plus the policy engine instance making that choice.
pub struct SchedulerState {
    queues: BTreeMap<ClientId, VecDeque<SubmitMsg>>,
    policy: Box<dyn SchedPolicyImpl>,
    next_tag: u64,
    granted_programs: u64,
    /// When each run's submission reached this scheduler (virtual time).
    /// Lets tests and benches observe parallel asynchronous dispatch:
    /// with chained submissions, run N+1 arrives here while run N's
    /// kernels are still executing. Bounded to the most recent
    /// [`ARRIVAL_HISTORY`] runs so long-lived schedulers don't grow
    /// without bound.
    arrivals: FxHashMap<RunId, SimTime>,
    /// Insertion order of `arrivals`, for eviction.
    arrival_order: VecDeque<RunId>,
}

/// How many recent run arrivals each scheduler remembers.
pub const ARRIVAL_HISTORY: usize = 1024;

impl fmt::Debug for SchedulerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchedulerState")
            .field("policy", &self.policy.name())
            .field("clients", &self.queues.len())
            .field("granted_programs", &self.granted_programs)
            .finish()
    }
}

impl SchedulerState {
    fn new(island: IslandId, policy: Box<dyn SchedPolicyImpl>) -> Self {
        SchedulerState {
            queues: BTreeMap::new(),
            policy,
            // Tag-space partitioned by island so tags are globally unique
            // even though rendezvous is per island.
            next_tag: (island.0 as u64) << 48,
            granted_programs: 0,
            arrivals: FxHashMap::default(),
            arrival_order: VecDeque::new(),
        }
    }

    fn push(&mut self, msg: SubmitMsg, now: SimTime) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.arrivals.entry(msg.run) {
            e.insert(now);
            self.arrival_order.push_back(msg.run);
            if self.arrival_order.len() > ARRIVAL_HISTORY {
                if let Some(old) = self.arrival_order.pop_front() {
                    self.arrivals.remove(&old);
                }
            }
        }
        self.policy.on_arrival(&msg);
        self.queues.entry(msg.client).or_default().push_back(msg);
    }

    /// Grants the next program: asks the policy to choose among the
    /// backlogged clients' queue heads, then pops that client's head.
    fn pop(&mut self) -> Option<SubmitMsg> {
        let heads: Vec<QueuedProgram<'_>> = self
            .queues
            .iter()
            .filter_map(|(client, q)| {
                q.front().map(|head| QueuedProgram {
                    client: *client,
                    head,
                    backlog: q.len(),
                })
            })
            .collect();
        if heads.is_empty() {
            return None;
        }
        let picked = self.policy.pick_next(&heads)?;
        let q = self
            .queues
            .get_mut(&picked)
            .unwrap_or_else(|| panic!("policy picked unknown client {picked:?}"));
        let msg = q
            .pop_front()
            .unwrap_or_else(|| panic!("policy picked client {picked:?} with empty queue"));
        let now_empty = q.is_empty();
        if now_empty {
            // Empty queues are dropped so the policy only ever sees
            // backlogged clients; per-client policy state (passes,
            // deficits) lives in the policy itself.
            self.queues.remove(&picked);
        }
        self.policy.on_grant(&msg, now_empty);
        Some(msg)
    }

    /// The active policy's name (for tests and debug output).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    fn alloc_tag(&mut self) -> GangTag {
        let t = GangTag(self.next_tag);
        self.next_tag += 1;
        t
    }

    /// Programs granted so far (for tests/metrics).
    pub fn granted_programs(&self) -> u64 {
        self.granted_programs
    }

    /// When `run`'s submission arrived at this scheduler, if it has.
    pub fn arrival_time(&self, run: RunId) -> Option<SimTime> {
        self.arrivals.get(&run).copied()
    }
}

/// Handle to a spawned island scheduler.
#[derive(Clone)]
pub struct SchedulerHandle {
    /// Host the scheduler runs on.
    pub host: HostId,
    state: Arc<Lock<SchedulerState>>,
}

impl fmt::Debug for SchedulerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchedulerHandle")
            .field("host", &self.host)
            .finish()
    }
}

impl SchedulerHandle {
    /// Programs granted so far.
    pub fn granted_programs(&self) -> u64 {
        self.state.lock().granted_programs()
    }

    /// When `run`'s submission arrived at this island's scheduler.
    pub fn arrival_time(&self, run: RunId) -> Option<SimTime> {
        self.state.lock().arrival_time(run)
    }

    /// Name of the policy engine driving this island.
    pub fn policy_name(&self) -> &'static str {
        self.state.lock().policy_name()
    }
}

/// Spawns the scheduler task for `island` on `host`.
///
/// `policy` is instantiated via [`SchedPolicy::build`], so every island
/// gets private policy state. `decision_cost` models the scheduler's
/// per-program policy work; grants for a program are emitted as one
/// batched message per participating host. Submissions arrive on
/// `inbox_router`; grants leave on `grant_router` (where the executors
/// are registered). Both share the same physical NIC through the fabric.
#[allow(clippy::too_many_arguments)]
pub fn spawn_scheduler(
    handle: &SimHandle,
    inbox_router: Router<CtrlMsg>,
    grant_router: Router<CtrlMsg>,
    island: IslandId,
    host: HostId,
    island_devices: u32,
    policy: &SchedPolicy,
    decision_cost: SimDuration,
    grant_horizon: SimDuration,
    batch_grants: bool,
    failures: FailureState,
) -> SchedulerHandle {
    let state = Arc::new(Lock::named(
        "core.sched.state",
        SchedulerState::new(island, policy.build()),
    ));
    let state_task = Arc::clone(&state);
    let mut inbox = inbox_router.register(host);
    let h = handle.clone();
    let token = IdleToken::new();
    let token_task = token.clone();
    handle.spawn_service(format!("scheduler-{island}"), &token, async move {
        // Estimated instant until which already-granted work occupies
        // the island. Grants are paced so at most `grant_horizon` of
        // estimated work is outstanding; the backlog beyond the horizon
        // stays queued here, where the policy chooses the order — this
        // is the "allocating accelerators at a time-scale of
        // milliseconds" behaviour of §4.4.
        let mut granted_until = h.now();
        loop {
            token_task.set_idle();
            let Some(env) = inbox.recv().await else { break };
            token_task.set_busy();
            match env.msg {
                CtrlMsg::Submit(submit) => {
                    state_task.lock().push(submit, h.now());
                }
                CtrlMsg::Grants(_) => panic!("scheduler received a grant"),
            }
            // Drain everything grantable right now. Messages that arrive
            // while we sleep for decision_cost queue behind us (FIFO
            // inbox), preserving determinism.
            loop {
                // Pace: wait until estimated outstanding work is inside
                // the horizon, collecting any submissions that arrive in
                // the meantime so the policy can reorder them.
                loop {
                    let now = h.now();
                    if granted_until <= now + grant_horizon {
                        break;
                    }
                    h.sleep(
                        granted_until
                            .duration_since(now)
                            .saturating_sub(grant_horizon),
                    )
                    .await;
                    while let Ok(env) = inbox.try_recv() {
                        match env.msg {
                            CtrlMsg::Submit(s) => state_task.lock().push(s, h.now()),
                            CtrlMsg::Grants(_) => panic!("scheduler received a grant"),
                        }
                    }
                }
                let next = state_task.lock().pop();
                let Some(submit) = next else { break };
                // Eviction: a run failed by the fault injector (its
                // devices died, its client died, its island partitioned)
                // is dropped here rather than granted — its shards were
                // already wound down by the failure propagation.
                if failures.run_failed(submit.run) {
                    continue;
                }
                if !decision_cost.is_zero() {
                    h.sleep(decision_cost).await;
                }
                // Also drain any submissions that arrived during the
                // decision sleep so proportional share sees them.
                while let Ok(env) = inbox.try_recv() {
                    match env.msg {
                        CtrlMsg::Submit(s) => state_task.lock().push(s, h.now()),
                        CtrlMsg::Grants(_) => panic!("scheduler received a grant"),
                    }
                }
                // Island occupancy estimate: device-time divided by the
                // island's device count.
                let occupancy = SimDuration::from_nanos(
                    submit.est_cost.as_nanos() / island_devices.max(1) as u64,
                );
                granted_until = granted_until.max(h.now()) + occupancy;
                // Build one grant batch per participating host, with the
                // program's computations in topological order.
                let mut per_host: BTreeMap<HostId, Vec<GrantMsg>> = BTreeMap::new();
                let label: Arc<str> = submit.label.as_str().into();
                {
                    let mut st = state_task.lock();
                    st.granted_programs += 1;
                    for comp in &submit.comps {
                        let tag = st.alloc_tag();
                        for (host, shards) in &comp.by_host {
                            per_host.entry(*host).or_default().push(GrantMsg {
                                client: submit.client,
                                label: Arc::clone(&label),
                                run: submit.run,
                                comp: comp.comp,
                                sink: comp.sink,
                                gang_tag: tag,
                                participants: comp.participants,
                                collective: comp.collective.map(|(k, _, d)| (k, d)),
                                gang_devices: Arc::clone(&comp.gang_devices),
                                compute: comp.compute,
                                output_bytes: comp.output_bytes,
                                input_bytes: comp.input_bytes,
                                local_shards: shards.clone(),
                            });
                        }
                    }
                }
                for (dst, grants) in per_host {
                    if batch_grants {
                        let msg = CtrlMsg::Grants(grants);
                        let bytes = ctrl_msg_bytes(&msg);
                        grant_router.send(host, dst, msg, bytes);
                    } else {
                        // Ablation: one message per computation.
                        for g in grants {
                            let msg = CtrlMsg::Grants(vec![g]);
                            let bytes = ctrl_msg_bytes(&msg);
                            grant_router.send(host, dst, msg, bytes);
                        }
                    }
                }
            }
        }
    });
    SchedulerHandle { host, state }
}

/// Maps each island to the host its scheduler runs on (the island's
/// first host). Islands with no hosts are skipped — they cannot run a
/// scheduler.
pub fn scheduler_hosts(topo: &pathways_net::Topology) -> FxHashMap<IslandId, HostId> {
    topo.islands()
        .filter_map(|i| topo.hosts_of_island(i).next().map(|h| (i, h)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(client: u32, run: u64, cost_us: u64) -> SubmitMsg {
        SubmitMsg {
            client: ClientId(client),
            label: format!("c{client}"),
            run: RunId(run),
            est_cost: SimDuration::from_micros(cost_us),
            comps: vec![],
        }
    }

    fn state_with(policy: &SchedPolicy) -> SchedulerState {
        SchedulerState::new(IslandId(0), policy.build())
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let mut st = state_with(&SchedPolicy::Fifo);
        st.push(submit(1, 10, 5), SimTime::ZERO);
        st.push(submit(0, 11, 5), SimTime::ZERO);
        st.push(submit(1, 12, 5), SimTime::ZERO);
        assert_eq!(st.pop().unwrap().run, RunId(10));
        assert_eq!(st.pop().unwrap().run, RunId(11));
        assert_eq!(st.pop().unwrap().run, RunId(12));
        assert!(st.pop().is_none());
    }

    #[test]
    fn proportional_share_matches_weights() {
        // Clients 0 and 1 with weights 1 and 3, equal-cost programs:
        // out of every 4 grants, client 1 should get 3.
        let weights: BTreeMap<ClientId, u32> =
            [(ClientId(0), 1), (ClientId(1), 3)].into_iter().collect();
        let mut st = state_with(&SchedPolicy::ProportionalShare(weights));
        for i in 0..40 {
            st.push(submit(0, i, 10), SimTime::ZERO);
            st.push(submit(1, 100 + i, 10), SimTime::ZERO);
        }
        let mut counts = [0u32; 2];
        for _ in 0..40 {
            let m = st.pop().unwrap();
            counts[m.client.0 as usize] += 1;
        }
        assert_eq!(counts[0] + counts[1], 40);
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((2.5..=3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn proportional_share_accounts_for_cost() {
        // Client 0 submits programs 3x as expensive; with equal weights
        // it should be granted ~1/3 as many programs.
        let weights: BTreeMap<ClientId, u32> =
            [(ClientId(0), 1), (ClientId(1), 1)].into_iter().collect();
        let mut st = state_with(&SchedPolicy::ProportionalShare(weights));
        for i in 0..60 {
            st.push(submit(0, i, 30), SimTime::ZERO);
            st.push(submit(1, 100 + i, 10), SimTime::ZERO);
        }
        let mut counts = [0u32; 2];
        for _ in 0..60 {
            let m = st.pop().unwrap();
            counts[m.client.0 as usize] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((2.0..=4.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn priority_policy_prefers_high_priority_clients() {
        let prio: BTreeMap<ClientId, u32> =
            [(ClientId(0), 0), (ClientId(1), 10)].into_iter().collect();
        let mut st = state_with(&SchedPolicy::Priority(prio));
        st.push(submit(0, 1, 10), SimTime::ZERO);
        st.push(submit(0, 2, 10), SimTime::ZERO);
        st.push(submit(1, 3, 10), SimTime::ZERO);
        st.push(submit(1, 4, 10), SimTime::ZERO);
        // All of client 1's work drains before any of client 0's.
        assert_eq!(st.pop().unwrap().run, RunId(3));
        assert_eq!(st.pop().unwrap().run, RunId(4));
        assert_eq!(st.pop().unwrap().run, RunId(1));
        assert_eq!(st.pop().unwrap().run, RunId(2));
    }

    #[test]
    fn priority_ties_break_by_arrival() {
        let prio: BTreeMap<ClientId, u32> =
            [(ClientId(0), 5), (ClientId(1), 5)].into_iter().collect();
        let mut st = state_with(&SchedPolicy::Priority(prio));
        st.push(submit(1, 1, 10), SimTime::ZERO);
        st.push(submit(0, 2, 10), SimTime::ZERO);
        assert_eq!(st.pop().unwrap().run, RunId(1));
        assert_eq!(st.pop().unwrap().run, RunId(2));
    }

    #[test]
    fn weighted_fair_shares_grants_by_weight() {
        let weights: BTreeMap<ClientId, u32> =
            [(ClientId(0), 1), (ClientId(1), 3)].into_iter().collect();
        let mut st = state_with(&SchedPolicy::WeightedFair {
            weights,
            quantum: SimDuration::from_micros(10),
        });
        for i in 0..80 {
            st.push(submit(0, i, 10), SimTime::ZERO);
            st.push(submit(1, 1000 + i, 10), SimTime::ZERO);
        }
        let mut counts = [0u32; 2];
        for _ in 0..80 {
            let m = st.pop().unwrap();
            counts[m.client.0 as usize] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((2.5..=3.5).contains(&ratio), "ratio {ratio} ({counts:?})");
    }

    #[test]
    fn custom_policy_plugs_into_the_scheduler_state() {
        // A last-client-first policy defined entirely out of tree: the
        // drop-in extension path the engine exists for.
        struct LastClientFirst;
        impl SchedPolicyImpl for LastClientFirst {
            fn name(&self) -> &'static str {
                "last-client-first"
            }
            fn pick_next(&mut self, queues: &[QueuedProgram<'_>]) -> Option<ClientId> {
                queues.last().map(|q| q.client)
            }
        }
        let policy = SchedPolicy::custom("last-client-first", || Box::new(LastClientFirst));
        let mut st = state_with(&policy);
        assert_eq!(st.policy_name(), "last-client-first");
        st.push(submit(0, 1, 10), SimTime::ZERO);
        st.push(submit(2, 2, 10), SimTime::ZERO);
        st.push(submit(1, 3, 10), SimTime::ZERO);
        assert_eq!(st.pop().unwrap().client, ClientId(2));
        assert_eq!(st.pop().unwrap().client, ClientId(1));
        assert_eq!(st.pop().unwrap().client, ClientId(0));
    }

    #[test]
    fn tags_are_unique_and_island_partitioned() {
        let mut a = SchedulerState::new(IslandId(0), SchedPolicy::Fifo.build());
        let mut b = SchedulerState::new(IslandId(1), SchedPolicy::Fifo.build());
        let ta1 = a.alloc_tag();
        let ta2 = a.alloc_tag();
        let tb1 = b.alloc_tag();
        assert_ne!(ta1, ta2);
        assert_ne!(ta1, tb1);
        assert_ne!(ta2, tb1);
    }

    #[test]
    fn idle_client_does_not_starve_later() {
        // Stride scheduling: a client that was idle does not get an
        // unbounded backlog advantage because pass only advances when
        // granted; but it does get the next grant when it arrives with
        // the lowest pass.
        let weights: BTreeMap<ClientId, u32> =
            [(ClientId(0), 1), (ClientId(1), 1)].into_iter().collect();
        let mut st = state_with(&SchedPolicy::ProportionalShare(weights));
        for i in 0..5 {
            st.push(submit(0, i, 10), SimTime::ZERO);
        }
        for _ in 0..5 {
            st.pop();
        }
        st.push(submit(1, 100, 10), SimTime::ZERO);
        st.push(submit(0, 6, 10), SimTime::ZERO);
        // Client 1 has pass 0 < client 0's accumulated pass.
        assert_eq!(st.pop().unwrap().client, ClientId(1));
    }
}
