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
//! to a [`PolicyEngine`] (see [`policy`]): FIFO (the paper's current
//! implementation: "our current implementation simply enqueues work in
//! FIFO order") or gang-aware weighted-fair queueing (the
//! proportional-share policy behind Figure 9's 1:2:4:8 interleaving).
//! The [`SchedPolicy`] enum names which one to build.
//!
//! The control plane is two typed routers: clients send a [`SubmitMsg`]
//! to the scheduler, and the scheduler sends each host one batch of
//! [`GrantMsg`]s per program.

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
use policy::{PolicyEngine, QueuedProgram, WfqPolicy};

/// Scheduling policy of an island scheduler: which [`PolicyEngine`] to
/// build.
///
/// Each island scheduler builds its *own* engine via
/// [`SchedPolicy::build`], so per-island accounting state (deficit
/// counters) is never shared across islands.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Grant programs in arrival order ([`PolicyEngine::Fifo`]).
    #[default]
    Fifo,
    /// Gang-aware weighted-fair queueing with per-client deficit
    /// counters ([`WfqPolicy`]): each client receives device time
    /// proportional to its weight when the island is contended, in
    /// device-seconds even when tenants submit gangs of very different
    /// sizes.
    WeightedFair {
        /// Per-client weights (absent clients default to 1).
        weights: BTreeMap<ClientId, u32>,
        /// Deficit credited per round-robin turn per unit weight.
        quantum: SimDuration,
    },
}

impl SchedPolicy {
    /// Weighted-fair queueing with the default quantum
    /// ([`WfqPolicy::DEFAULT_QUANTUM`]).
    pub fn weighted_fair(weights: BTreeMap<ClientId, u32>) -> Self {
        SchedPolicy::WeightedFair {
            weights,
            quantum: WfqPolicy::DEFAULT_QUANTUM,
        }
    }

    /// Instantiates the policy engine for one island scheduler.
    pub fn build(&self) -> PolicyEngine {
        match self {
            SchedPolicy::Fifo => PolicyEngine::Fifo,
            SchedPolicy::WeightedFair { weights, quantum } => {
                PolicyEngine::WeightedFair(WfqPolicy::new(weights.clone(), *quantum))
            }
        }
    }
}

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
    /// weighted-fair accounting and for grant pacing).
    pub est_cost: SimDuration,
    /// Computations in topological order.
    pub comps: Vec<CompSubmit>,
}

impl SubmitMsg {
    /// Simulated wire size of this submission.
    pub(crate) fn wire_bytes(&self) -> u64 {
        64 + 48 * self.comps.len() as u64
    }
}

/// One computation grant, delivered to a host executor inside a batch:
/// one message carries every computation of a program that has shards
/// on the destination host — the single-message subgraph dispatch of
/// §4.5.
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
    /// The receiving host's local shards: `(shard, device)`.
    pub local_shards: Vec<(u32, DeviceId)>,
}

/// Simulated wire size of one host's grant batch.
fn grant_batch_bytes(batch: &[GrantMsg]) -> u64 {
    32 + batch
        .iter()
        .map(|m| 48 + 12 * m.local_shards.len() as u64)
        .sum::<u64>()
}

/// Shared state of one island scheduler (inspectable by tests).
///
/// Owns one FIFO backlog per client — per-client program order is
/// *never* reordered, only the interleaving across clients is policy
/// territory — plus the policy engine instance making that choice.
pub struct SchedulerState {
    queues: BTreeMap<ClientId, VecDeque<SubmitMsg>>,
    policy: PolicyEngine,
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

/// The scheduler's policy work per program, slept before each grant.
const SCHED_DECISION: SimDuration = SimDuration::from_micros(4);

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
    fn new(island: IslandId, policy: PolicyEngine) -> Self {
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
    /// The policy answers with a position in the heads it was shown, so
    /// it can only pick a client with a pending program.
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
        let picked = heads.get(self.policy.pick(&heads)?)?.client;
        let q = self.queues.get_mut(&picked)?;
        let msg = q.pop_front()?;
        let now_empty = q.is_empty();
        if now_empty {
            // Empty queues are dropped so the policy only ever sees
            // backlogged clients; per-client policy state (deficits)
            // lives in the policy itself.
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
/// gets private policy state. `SCHED_DECISION` models the scheduler's
/// per-program policy work; grants for a program are emitted as one
/// batched message per participating host. Submissions arrive on
/// `inbox_router`; grants leave on `grant_router` (where the executors
/// are registered). Both share the same physical NIC through the fabric.
#[allow(clippy::too_many_arguments)]
pub fn spawn_scheduler(
    handle: &SimHandle,
    inbox_router: Router<SubmitMsg>,
    grant_router: Router<Vec<GrantMsg>>,
    island: IslandId,
    host: HostId,
    island_devices: u32,
    policy: &SchedPolicy,
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
            state_task.lock().push(env.msg, h.now());
            // Drain everything grantable right now. Messages that arrive
            // while we sleep for SCHED_DECISION queue behind us (FIFO
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
                        state_task.lock().push(env.msg, h.now());
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
                h.sleep(SCHED_DECISION).await;
                // Also drain any submissions that arrived during the
                // decision sleep so the policy sees them.
                while let Ok(env) = inbox.try_recv() {
                    state_task.lock().push(env.msg, h.now());
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
                                local_shards: shards.clone(),
                            });
                        }
                    }
                }
                for (dst, grants) in per_host {
                    if batch_grants {
                        let bytes = grant_batch_bytes(&grants);
                        grant_router.send(host, dst, grants, bytes);
                    } else {
                        // Ablation: one message per computation.
                        for g in grants {
                            let batch = vec![g];
                            let bytes = grant_batch_bytes(&batch);
                            grant_router.send(host, dst, batch, bytes);
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
    fn proportional_share_matches_weights() {
        // Clients 0 and 1 with weights 1 and 3, equal-cost programs:
        // out of every 4 grants, client 1 should get 3. The quantum is
        // half a program's cost, so client 0 needs two rounds of credit
        // per grant.
        let weights: BTreeMap<ClientId, u32> =
            [(ClientId(0), 1), (ClientId(1), 3)].into_iter().collect();
        let mut st = state_with(&SchedPolicy::WeightedFair {
            weights,
            quantum: SimDuration::from_micros(5),
        });
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
        assert!((2.5..=3.5).contains(&ratio), "ratio {ratio} ({counts:?})");
    }

    #[test]
    fn proportional_share_accounts_for_cost() {
        // Client 0 submits programs 3x as expensive; with equal weights
        // it should be granted ~1/3 as many programs.
        let weights: BTreeMap<ClientId, u32> =
            [(ClientId(0), 1), (ClientId(1), 1)].into_iter().collect();
        let mut st = state_with(&SchedPolicy::WeightedFair {
            weights,
            quantum: SimDuration::from_micros(10),
        });
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
        assert!((2.0..=4.0).contains(&ratio), "ratio {ratio} ({counts:?})");
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
        // WFQ with a quantum of ten programs: client 0, served alone,
        // banks credit it forfeits when its queue drains. When idle
        // client 1 arrives next to a fresh backlog of client 0's, it is
        // granted within one round, not after client 0's banked credit.
        let weights: BTreeMap<ClientId, u32> =
            [(ClientId(0), 1), (ClientId(1), 1)].into_iter().collect();
        let mut st = state_with(&SchedPolicy::WeightedFair {
            weights,
            quantum: SimDuration::from_micros(100),
        });
        for i in 0..5 {
            st.push(submit(0, i, 10), SimTime::ZERO);
        }
        for _ in 0..5 {
            assert_eq!(st.pop().unwrap().client, ClientId(0));
        }
        for i in 5..10 {
            st.push(submit(0, i, 10), SimTime::ZERO);
        }
        st.push(submit(1, 100, 10), SimTime::ZERO);
        let round: Vec<ClientId> = (0..2).map(|_| st.pop().unwrap().client).collect();
        assert!(
            round.contains(&ClientId(1)),
            "client 1 waited past one round: {round:?}"
        );
    }
}
