//! The PLAQUE-replacement runtime: per-host workers executing sharded
//! dataflow programs over the simulated DCN.
//!
//! One worker task runs per host; it owns every shard placed on that
//! host, across all concurrently-running programs (the substrate is
//! multi-tenant, §4.3's "background housekeeping" included). Messages to
//! the same destination host produced in one delivery round are coalesced
//! into a single DCN message (batching for throughput); asynchronous
//! [`Emitter`](crate::Emitter) sends bypass the batcher (low latency).

use pathways_sim::hash::FxHashMap;
use pathways_sim::Lock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use pathways_net::{Fabric, HostId, Router};
use pathways_sim::channel::{self, OneshotReceiver, Sender};
use pathways_sim::{IdleToken, SimHandle, TaskName};

use crate::graph::{EdgeId, Graph, NodeId};
use crate::operator::{Operator, ShardCore, ShardCtx};
use crate::progress::ProgressTracker;
use crate::tuple::Tuple;

/// Identifier of one launched program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunId(pub u64);

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run{}", self.0)
    }
}

/// Wire size of a Start message per shard.
const START_BYTES: u64 = 64;

/// Messages exchanged by plaque workers.
#[derive(Debug)]
pub enum PlaqueMsg {
    /// Begin executing a shard (sent by the launching client).
    Start {
        /// Program run.
        run: RunId,
        /// Node to start.
        node: NodeId,
        /// Shard index to start.
        shard: u32,
    },
    /// A data tuple on a sharded edge.
    Data {
        /// Program run.
        run: RunId,
        /// Destination node of `edge`.
        dst: NodeId,
        /// Edge carrying the tuple.
        edge: EdgeId,
        /// Producing shard.
        src_shard: u32,
        /// Destination shard.
        dst_shard: u32,
        /// Payload.
        tuple: Tuple,
    },
    /// Punctuation: `src_shard` sent `sent` tuples to `dst_shard` on
    /// `edge` and will send no more.
    Done {
        /// Program run.
        run: RunId,
        /// Destination node of `edge`.
        dst: NodeId,
        /// Edge being punctuated.
        edge: EdgeId,
        /// Producing shard.
        src_shard: u32,
        /// Destination shard.
        dst_shard: u32,
        /// Exact tuple count promised to the destination.
        sent: u64,
    },
}

struct Slot {
    op: Box<dyn Operator>,
    core: Arc<Lock<ShardCore>>,
    trackers: FxHashMap<EdgeId, ProgressTracker>,
    started: bool,
    pending: Vec<PlaqueMsg>,
    inputs_complete_fired: bool,
}

type ShardKey = (RunId, NodeId, u32);
type ShardMap = Arc<Lock<FxHashMap<ShardKey, Arc<Lock<Slot>>>>>;

struct RunEntry {
    remaining: u32,
    done_tx: Option<channel::OneshotSender<()>>,
}

/// Pending `(destination, message, bytes)` triples coalescing into one
/// NIC message per destination at the end of the current micro-step.
type EgressBuffer = Vec<(HostId, PlaqueMsg, u64)>;

/// One source host's asynchronous egress: what is waiting to coalesce,
/// and the doorbell of the flusher service that sends it.
struct HostEgress {
    buffer: EgressBuffer,
    flusher: Sender<()>,
}

/// Cloneable shared state used by contexts and emitters.
#[derive(Clone)]
pub struct RuntimeShared {
    pub(crate) handle: SimHandle,
    router: Router<Vec<PlaqueMsg>>,
    runs: Arc<Lock<FxHashMap<RunId, RunEntry>>>,
    /// Per-host shard tables (shared with the workers) so completed
    /// shards can be reclaimed as soon as they finalize — long-running
    /// benchmarks launch thousands of runs and must not accumulate
    /// dead slots.
    workers: Arc<Lock<FxHashMap<HostId, ShardMap>>>,
    /// Per-source-host egress buffers for the asynchronous (emitter)
    /// path: messages emitted within the same virtual instant coalesce
    /// into one NIC message per destination host. This adds no virtual
    /// latency (the flush runs after one executor micro-step) and is
    /// what keeps punctuation storms from O(M x N) sharded edges off
    /// the NICs — §4.3's batching requirement.
    async_egress: Arc<Lock<FxHashMap<HostId, HostEgress>>>,
}

impl fmt::Debug for RuntimeShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuntimeShared")
            .field("live_runs", &self.runs.lock().len())
            .finish()
    }
}

/// `plaque-flush-{src}`, rendered only when a deadlock report reads it.
fn flush_task_name(src: HostId) -> TaskName {
    TaskName::lazy([src.0.into(), 0, 0, 0], |ids, f| {
        write!(f, "plaque-flush-{}", HostId(ids[0] as u32))
    })
}

impl RuntimeShared {
    /// Groups messages by destination host (deterministically) and sends
    /// one batched DCN message per host.
    pub(crate) fn route_from(&self, src: HostId, msgs: Vec<(HostId, PlaqueMsg, u64)>) {
        let Some(&(first, ..)) = msgs.first() else {
            return;
        };
        if msgs.iter().all(|m| m.0 == first) {
            let bytes = msgs.iter().map(|m| m.2).sum();
            let batch = msgs.into_iter().map(|m| m.1).collect();
            self.router.send(src, first, batch, bytes);
            return;
        }
        let mut by_host: BTreeMap<HostId, (Vec<PlaqueMsg>, u64)> = BTreeMap::new();
        for (dst, msg, bytes) in msgs {
            let entry = by_host.entry(dst).or_default();
            entry.0.push(msg);
            entry.1 += bytes;
        }
        for (dst, (batch, bytes)) in by_host {
            self.router.send(src, dst, batch, bytes);
        }
    }

    /// Queues messages on the source host's egress buffer; everything
    /// queued within one virtual instant flushes as one batch.
    pub(crate) fn route_from_async(&self, src: HostId, msgs: Vec<(HostId, PlaqueMsg, u64)>) {
        if msgs.is_empty() {
            return;
        }
        let mut egress = self.async_egress.lock();
        let host = egress.entry(src).or_insert_with(|| self.spawn_flusher(src));
        if host.buffer.is_empty() {
            // The flusher runs for as long as the runtime does.
            let _ = host.flusher.send(());
        }
        host.buffer.extend(msgs);
    }

    /// Starts `src`'s flusher service. Rung once per batch, it yields
    /// once — the window in which one micro-step's tuples coalesce, which
    /// fixes the DCN message count and so virtual time — then sends.
    fn spawn_flusher(&self, src: HostId) -> HostEgress {
        let (flusher, mut rung) = channel::channel();
        let shared = self.clone();
        let token = IdleToken::new();
        let token_task = token.clone();
        self.handle
            .spawn_service(flush_task_name(src), &token, async move {
                loop {
                    token_task.set_idle();
                    let Some(()) = rung.recv().await else { break };
                    token_task.set_busy();
                    shared.handle.yield_now().await;
                    let batch = shared
                        .async_egress
                        .lock()
                        .get_mut(&src)
                        .map(|host| std::mem::take(&mut host.buffer));
                    shared.route_from(src, batch.unwrap_or_default());
                }
            });
        HostEgress {
            buffer: Vec::new(),
            flusher,
        }
    }

    /// Marks a shard complete in its run's tracking and reclaims its
    /// slot (idempotent).
    pub(crate) fn finalize_shard(&self, core: &Arc<Lock<ShardCore>>) {
        let (run, node, shard, host) = {
            let mut core = core.lock();
            if core.finalized {
                return;
            }
            core.finalized = true;
            (core.run, core.node, core.shard, core.host)
        };
        // Reclaim the slot: late messages to it are dropped by dispatch.
        if let Some(map) = self.workers.lock().get(&host) {
            map.lock().remove(&(run, node, shard));
        }
        let mut runs = self.runs.lock();
        let entry = runs.get_mut(&run).expect("run entry missing");
        entry.remaining -= 1;
        if entry.remaining == 0 {
            if let Some(tx) = entry.done_tx.take() {
                let _ = tx.send(());
            }
            runs.remove(&run);
        }
    }
}

/// The sharded dataflow runtime.
#[derive(Clone)]
pub struct PlaqueRuntime {
    shared: RuntimeShared,
    workers: Arc<Lock<FxHashMap<HostId, ShardMap>>>,
    next_run: Arc<Lock<u64>>,
}

impl fmt::Debug for PlaqueRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlaqueRuntime")
            .field("workers", &self.workers.lock().len())
            .finish()
    }
}

/// Handle to a launched program run.
#[derive(Debug)]
pub struct RunHandle {
    id: RunId,
    done: OneshotReceiver<()>,
}

impl RunHandle {
    /// The run's id.
    pub fn id(&self) -> RunId {
        self.id
    }

    /// Resolves when every shard of the program has halted.
    pub async fn await_done(self) {
        self.done.await.expect("plaque runtime dropped mid-run");
    }

    /// Splits the handle into its raw completion receiver, for callers
    /// that must race completion against another signal (e.g. a failure
    /// notification: a run partitioned by a severed DCN link can never
    /// deliver the punctuations its completion tracking needs, so its
    /// client abandons it on error delivery instead).
    pub fn into_done_receiver(self) -> OneshotReceiver<()> {
        self.done
    }
}

impl PlaqueRuntime {
    /// Creates a runtime over `fabric`.
    pub fn new(fabric: Fabric) -> Self {
        let handle = fabric.handle().clone();
        let workers: Arc<Lock<FxHashMap<HostId, ShardMap>>> =
            Arc::new(Lock::new(FxHashMap::default()));
        PlaqueRuntime {
            shared: RuntimeShared {
                handle,
                router: Router::new(fabric),
                runs: Arc::new(Lock::named("plaque.runs", FxHashMap::default())),
                workers: Arc::clone(&workers),
                async_egress: Arc::new(Lock::new(FxHashMap::default())),
            },
            workers,
            next_run: Arc::new(Lock::new(0)),
        }
    }

    /// Ensures a worker task is running on `host`; returns its shard map.
    fn ensure_worker(&self, host: HostId) -> ShardMap {
        if let Some(map) = self.workers.lock().get(&host) {
            return Arc::clone(map);
        }
        let map: ShardMap = Arc::new(Lock::named("plaque.shard_map", FxHashMap::default()));
        self.workers.lock().insert(host, Arc::clone(&map));
        let mut inbox = self.shared.router.register(host);
        let shared = self.shared.clone();
        let map_task = Arc::clone(&map);
        let token = IdleToken::new();
        let token_task = token.clone();
        self.shared
            .handle
            .spawn_service(format!("plaque-worker-{host}"), &token, async move {
                loop {
                    token_task.set_idle();
                    let Some(env) = inbox.recv().await else { break };
                    token_task.set_busy();
                    let mut egress: Vec<(HostId, PlaqueMsg, u64)> = Vec::new();
                    for msg in env.msg {
                        Self::dispatch(&shared, &map_task, msg, &mut egress);
                    }
                    if !egress.is_empty() {
                        shared.route_from(host, egress);
                    }
                }
            });
        map
    }

    fn dispatch(
        shared: &RuntimeShared,
        map: &ShardMap,
        msg: PlaqueMsg,
        egress: &mut Vec<(HostId, PlaqueMsg, u64)>,
    ) {
        let key = match &msg {
            PlaqueMsg::Start { run, node, shard } => (*run, *node, *shard),
            PlaqueMsg::Data {
                run,
                dst,
                dst_shard,
                ..
            }
            | PlaqueMsg::Done {
                run,
                dst,
                dst_shard,
                ..
            } => (*run, *dst, *dst_shard),
        };
        let slot_rc = {
            let map = map.lock();
            match map.get(&key) {
                Some(s) => Arc::clone(s),
                // The shard already halted and its slot was reclaimed;
                // late punctuations are dropped.
                None => return,
            }
        };
        match msg {
            PlaqueMsg::Start { .. } => {
                {
                    let mut slot = slot_rc.lock();
                    assert!(!slot.started, "shard started twice");
                    slot.started = true;
                    let core = Arc::clone(&slot.core);
                    let mut ctx = ShardCtx {
                        core: &core,
                        shared,
                        egress,
                    };
                    slot.op.on_start(&mut ctx);
                }
                // Replay messages that raced ahead of Start.
                let pending = std::mem::take(&mut slot_rc.lock().pending);
                for m in pending {
                    Self::deliver(shared, &slot_rc, m, egress);
                }
                Self::check_inputs_complete(shared, &slot_rc, egress);
            }
            data_or_done => {
                if !slot_rc.lock().started {
                    slot_rc.lock().pending.push(data_or_done);
                    return;
                }
                Self::deliver(shared, &slot_rc, data_or_done, egress);
                Self::check_inputs_complete(shared, &slot_rc, egress);
            }
        }
    }

    fn deliver(
        shared: &RuntimeShared,
        slot_rc: &Arc<Lock<Slot>>,
        msg: PlaqueMsg,
        egress: &mut Vec<(HostId, PlaqueMsg, u64)>,
    ) {
        let mut slot = slot_rc.lock();
        if slot.core.lock().halted {
            return; // late messages to an already-halted shard
        }
        let core = Arc::clone(&slot.core);
        match msg {
            PlaqueMsg::Data {
                edge,
                src_shard,
                tuple,
                ..
            } => {
                slot.trackers
                    .get_mut(&edge)
                    .unwrap_or_else(|| panic!("data on unexpected {edge}"))
                    .record_data(src_shard);
                let mut ctx = ShardCtx {
                    core: &core,
                    shared,
                    egress,
                };
                slot.op.on_tuple(&mut ctx, edge, src_shard, tuple);
                if slot
                    .trackers
                    .get_mut(&edge)
                    .expect("checked")
                    .take_completion()
                {
                    let mut ctx = ShardCtx {
                        core: &core,
                        shared,
                        egress,
                    };
                    slot.op.on_edge_complete(&mut ctx, edge);
                }
            }
            PlaqueMsg::Done {
                edge,
                src_shard,
                sent,
                ..
            } => {
                slot.trackers
                    .get_mut(&edge)
                    .unwrap_or_else(|| panic!("punctuation on unexpected {edge}"))
                    .record_done(src_shard, sent);
                if slot
                    .trackers
                    .get_mut(&edge)
                    .expect("checked")
                    .take_completion()
                {
                    let mut ctx = ShardCtx {
                        core: &core,
                        shared,
                        egress,
                    };
                    slot.op.on_edge_complete(&mut ctx, edge);
                }
            }
            PlaqueMsg::Start { .. } => unreachable!("Start handled by dispatch"),
        }
    }

    fn check_inputs_complete(
        shared: &RuntimeShared,
        slot_rc: &Arc<Lock<Slot>>,
        egress: &mut Vec<(HostId, PlaqueMsg, u64)>,
    ) {
        let mut slot = slot_rc.lock();
        if slot.inputs_complete_fired || slot.core.lock().halted {
            return;
        }
        if slot.trackers.values().all(|t| t.is_complete()) {
            slot.inputs_complete_fired = true;
            let core = Arc::clone(&slot.core);
            let mut ctx = ShardCtx {
                core: &core,
                shared,
                egress,
            };
            slot.op.on_all_inputs_complete(&mut ctx);
        }
    }

    /// Launches `graph` as a new run. Shard slots are installed on each
    /// participating host; a single batched Start message per host (the
    /// "one message for the whole subgraph" pattern of §4.5) is sent from
    /// `client_host`.
    pub fn launch(&self, graph: &Graph, client_host: HostId) -> RunHandle {
        self.launch_inner(graph, client_host, true)
    }

    /// Installs the run's shard slots without sending Start messages.
    ///
    /// Use with [`PlaqueRuntime::start_local`]: an external control
    /// plane (the Pathways scheduler's grant messages) carries the
    /// start signal with its own fan-out, so the dataflow launch costs
    /// no extra DCN messages — the start information piggybacks on the
    /// grant (§4.5's single subgraph message).
    pub fn launch_unstarted(&self, graph: &Graph) -> RunHandle {
        self.launch_inner(graph, HostId(0), false)
    }

    /// Starts a shard in place on `host`, as if its Start message had
    /// just been delivered there. Must be called from a task logically
    /// running on `host` (e.g. that host's executor processing a grant
    /// that carried the start information).
    ///
    /// # Panics
    ///
    /// Panics if the shard was not installed on `host`.
    pub fn start_local(&self, host: HostId, run: RunId, node: NodeId, shard: u32) {
        let map = {
            let workers = self.workers.lock();
            Arc::clone(
                workers
                    .get(&host)
                    .unwrap_or_else(|| panic!("start_local on {host} with no plaque worker")),
            )
        };
        let mut egress: Vec<(HostId, PlaqueMsg, u64)> = Vec::new();
        Self::dispatch(
            &self.shared,
            &map,
            PlaqueMsg::Start { run, node, shard },
            &mut egress,
        );
        if !egress.is_empty() {
            self.shared.route_from(host, egress);
        }
    }

    fn launch_inner(&self, graph: &Graph, client_host: HostId, send_starts: bool) -> RunHandle {
        let run = {
            let mut next = self.next_run.lock();
            let id = RunId(*next);
            *next += 1;
            id
        };
        let total_shards: u32 = graph.nodes().map(|n| graph.shards(n)).sum();
        let (done_tx, done_rx) = channel::oneshot();
        self.shared.runs.lock().insert(
            run,
            RunEntry {
                remaining: total_shards,
                done_tx: Some(done_tx),
            },
        );
        // Install shard slots.
        let mut starts: Vec<(HostId, PlaqueMsg, u64)> = Vec::new();
        for node in graph.nodes() {
            for (shard, &host) in graph.placement(node).iter().enumerate() {
                let shard = shard as u32;
                let map = self.ensure_worker(host);
                let core = Arc::new(Lock::new(ShardCore::new(
                    run,
                    node,
                    shard,
                    host,
                    graph.clone(),
                )));
                let mut trackers = FxHashMap::default();
                for &e in graph.in_edges(node) {
                    trackers.insert(e, ProgressTracker::new(graph.expected_srcs(e, shard)));
                }
                let factory = Arc::clone(&graph.inner.nodes[node.index()].factory);
                let op = factory(shard);
                let prev = map.lock().insert(
                    (run, node, shard),
                    Arc::new(Lock::new(Slot {
                        op,
                        core,
                        trackers,
                        started: false,
                        pending: Vec::new(),
                        inputs_complete_fired: false,
                    })),
                );
                assert!(prev.is_none(), "duplicate shard deployment");
                starts.push((host, PlaqueMsg::Start { run, node, shard }, START_BYTES));
            }
        }
        // One batched message per destination host.
        if send_starts {
            self.shared.route_from(client_host, starts);
        }
        RunHandle {
            id: run,
            done: done_rx,
        }
    }

    /// The simulation handle.
    pub fn handle(&self) -> &SimHandle {
        &self.shared.handle
    }

    /// Number of runs still executing.
    pub fn live_runs(&self) -> usize {
        self.shared.runs.lock().len()
    }

    /// True while `run` has shards that have not halted.
    pub fn is_live(&self, run: RunId) -> bool {
        self.shared.runs.lock().contains_key(&run)
    }

    /// Allocates a fresh [`RunId`] without installing anything — used for
    /// runs that fail before launch (their output objects still need
    /// unique identities for error delivery).
    pub fn reserve_run_id(&self) -> RunId {
        let mut next = self.next_run.lock();
        let id = RunId(*next);
        *next += 1;
        id
    }

    /// Force-starts every not-yet-started shard of `run`, in
    /// deterministic `(host, node, shard)` order.
    ///
    /// This is the failure-propagation path: a run whose scheduler
    /// grants were dropped (evicted, or lost with a dead host) has shard
    /// slots that would otherwise never start and hence never halt,
    /// wedging [`RunHandle::await_done`] forever. Starting them lets
    /// their operators run their abort paths and wind the run down to a
    /// clean completion.
    pub fn force_start_run(&self, run: RunId) {
        let mut targets: Vec<(HostId, NodeId, u32)> = Vec::new();
        {
            let workers = self.workers.lock();
            for (&host, map) in workers.iter() {
                for ((r, node, shard), slot) in map.lock().iter() {
                    if *r == run && !slot.lock().started {
                        targets.push((host, *node, *shard));
                    }
                }
            }
        }
        targets.sort();
        for (host, node, shard) in targets {
            self.start_local(host, run, node, shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_task_name_renders_as_the_formatted_string_it_replaced() {
        let src = HostId(4095);
        assert_eq!(
            flush_task_name(src).to_string(),
            format!("plaque-flush-{src}")
        );
    }
}
