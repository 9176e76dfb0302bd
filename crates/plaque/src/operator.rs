//! Operator callbacks and the per-shard context.
//!
//! An [`Operator`] is the user logic of one shard of one node. Callbacks
//! run on the shard's host; outputs buffered through [`ShardCtx`] are
//! coalesced into one DCN message per destination host per delivery
//! round (the "batch messages destined for the same host" requirement of
//! §4.3), while an [`Emitter`] sends immediately for latency-critical
//! messages from async tasks (the "send critical messages with low
//! latency" requirement).

use pathways_sim::hash::FxHashMap;
use pathways_sim::Lock;
use std::fmt;
use std::sync::Arc;

use pathways_net::HostId;
use pathways_sim::{SimHandle, SimTime};

use crate::graph::{EdgeId, Graph, NodeId};
use crate::runtime::{PlaqueMsg, RunId, RuntimeShared};
use crate::tuple::Tuple;

/// Wire-size overhead charged per data tuple message.
pub(crate) const DATA_OVERHEAD_BYTES: u64 = 32;
/// Wire size of a punctuation message.
pub(crate) const DONE_BYTES: u64 = 16;

/// User logic for one shard of a dataflow node.
///
/// All methods have defaults so simple operators implement only what
/// they need. The default [`Operator::on_all_inputs_complete`] halts the
/// shard; operators that keep emitting from spawned tasks must override
/// it and call [`Emitter::halt`] themselves when finished.
pub trait Operator: Send {
    /// Called once when the shard starts (before any input).
    fn on_start(&mut self, ctx: &mut ShardCtx<'_>) {
        let _ = ctx;
    }

    /// Called for every data tuple arriving on an in-edge.
    fn on_tuple(&mut self, ctx: &mut ShardCtx<'_>, edge: EdgeId, src_shard: u32, tuple: Tuple) {
        let _ = (ctx, edge, src_shard, tuple);
    }

    /// Called when progress tracking proves an in-edge has delivered
    /// everything addressed to this shard.
    fn on_edge_complete(&mut self, ctx: &mut ShardCtx<'_>, edge: EdgeId) {
        let _ = (ctx, edge);
    }

    /// Called when every in-edge is complete (immediately after
    /// [`Operator::on_start`] for source nodes). Default: halt the shard.
    fn on_all_inputs_complete(&mut self, ctx: &mut ShardCtx<'_>) {
        ctx.halt();
    }
}

/// An operator that does nothing and halts as soon as its inputs finish.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullOperator;

impl Operator for NullOperator {}

/// Mutable, shared per-shard bookkeeping.
pub(crate) struct ShardCore {
    pub run: RunId,
    pub node: NodeId,
    pub shard: u32,
    pub host: HostId,
    pub graph: Graph,
    /// Per out-edge, per destination shard: tuples sent so far.
    pub sent: FxHashMap<EdgeId, Vec<u64>>,
    /// Out-edges already punctuated.
    pub edge_done: FxHashMap<EdgeId, bool>,
    /// Shard declared finished.
    pub halted: bool,
    /// Completion was already propagated to the run tracker.
    pub finalized: bool,
}

impl ShardCore {
    pub fn new(run: RunId, node: NodeId, shard: u32, host: HostId, graph: Graph) -> Self {
        let mut sent = FxHashMap::default();
        let mut edge_done = FxHashMap::default();
        for &e in graph.out_edges(node) {
            let (_, dst) = graph.edge_endpoints(e);
            sent.insert(e, vec![0; graph.shards(dst) as usize]);
            edge_done.insert(e, false);
        }
        ShardCore {
            run,
            node,
            shard,
            host,
            graph,
            sent,
            edge_done,
            halted: false,
            finalized: false,
        }
    }

    /// Validates and accounts one send; returns the destination node
    /// and the host its `dst_shard` is placed on.
    pub fn record_send(&mut self, edge: EdgeId, dst_shard: u32) -> (NodeId, HostId) {
        assert!(!self.halted, "shard sent a tuple after halting");
        let done = *self
            .edge_done
            .get(&edge)
            .unwrap_or_else(|| panic!("{edge} is not an out-edge of {}", self.node));
        assert!(!done, "shard sent a tuple on {edge} after punctuating it");
        let counts = self.sent.get_mut(&edge).expect("validated above");
        assert!(
            (dst_shard as usize) < counts.len(),
            "destination shard {dst_shard} out of range on {edge}"
        );
        assert!(
            self.graph
                .reachable_dst_shards(edge, self.shard)
                .contains(&dst_shard),
            "shard {} cannot address destination shard {dst_shard} on {edge} under its mapping",
            self.shard
        );
        counts[dst_shard as usize] += 1;
        let (_, dst) = self.graph.edge_endpoints(edge);
        (dst, self.graph.placement(dst)[dst_shard as usize])
    }

    /// Marks an out-edge punctuated and returns the punctuation messages
    /// to deliver: one per destination shard this shard *may address*
    /// under the edge mapping, with its exact count. Sparse mappings keep
    /// this O(1) per shard rather than O(destination shards).
    pub fn punctuate(&mut self, edge: EdgeId) -> Vec<(HostId, PlaqueMsg, u64)> {
        let done = self
            .edge_done
            .get_mut(&edge)
            .unwrap_or_else(|| panic!("{edge} is not an out-edge of {}", self.node));
        assert!(!*done, "{edge} punctuated twice");
        *done = true;
        let counts = self.sent.get(&edge).expect("out-edge has counts").clone();
        let (_, dst) = self.graph.edge_endpoints(edge);
        self.graph
            .reachable_dst_shards(edge, self.shard)
            .into_iter()
            .map(|d| {
                let host = self.graph.placement(dst)[d as usize];
                (
                    host,
                    PlaqueMsg::Done {
                        run: self.run,
                        dst,
                        edge,
                        src_shard: self.shard,
                        dst_shard: d,
                        sent: counts[d as usize],
                    },
                    DONE_BYTES,
                )
            })
            .collect()
    }

    /// Punctuates all remaining out-edges and marks the shard halted.
    pub fn halt(&mut self) -> Vec<(HostId, PlaqueMsg, u64)> {
        assert!(!self.halted, "shard halted twice");
        self.halted = true;
        let open: Vec<EdgeId> = self
            .edge_done
            .iter()
            .filter(|(_, done)| !**done)
            .map(|(e, _)| *e)
            .collect();
        let mut msgs = Vec::new();
        let mut open = open;
        open.sort();
        for e in open {
            msgs.extend(self.punctuate(e));
        }
        msgs
    }
}

/// Context handed to operator callbacks. Sends are buffered and coalesced
/// per destination host when the callback round finishes.
pub struct ShardCtx<'a> {
    pub(crate) core: &'a Arc<Lock<ShardCore>>,
    pub(crate) shared: &'a RuntimeShared,
    pub(crate) egress: &'a mut Vec<(HostId, PlaqueMsg, u64)>,
}

impl fmt::Debug for ShardCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.core.lock();
        f.debug_struct("ShardCtx")
            .field("node", &core.node)
            .field("shard", &core.shard)
            .finish()
    }
}

impl ShardCtx<'_> {
    /// This shard's index within its node.
    pub fn shard(&self) -> u32 {
        self.core.lock().shard
    }

    /// The program run this shard belongs to.
    pub fn run(&self) -> RunId {
        self.core.lock().run
    }

    /// The host this shard runs on.
    pub fn host(&self) -> HostId {
        self.core.lock().host
    }

    /// Number of destination shards on `edge`.
    pub fn dst_shards(&self, edge: EdgeId) -> u32 {
        let core = self.core.lock();
        let (_, dst) = core.graph.edge_endpoints(edge);
        core.graph.shards(dst)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.handle.now()
    }

    /// The simulation handle, for spawning asynchronous shard work.
    pub fn handle(&self) -> &SimHandle {
        &self.shared.handle
    }

    /// Sends `tuple` to `dst_shard` on `edge` (buffered; batched per
    /// destination host).
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not an out-edge of this node, the destination
    /// shard is out of range, or the edge was already punctuated.
    pub fn send(&mut self, edge: EdgeId, dst_shard: u32, tuple: Tuple) {
        let mut core = self.core.lock();
        let (dst, host) = core.record_send(edge, dst_shard);
        let bytes = tuple.bytes() + DATA_OVERHEAD_BYTES;
        self.egress.push((
            host,
            PlaqueMsg::Data {
                run: core.run,
                dst,
                edge,
                src_shard: core.shard,
                dst_shard,
                tuple,
            },
            bytes,
        ));
    }

    /// Sends `tuple` to every destination shard of `edge`.
    pub fn broadcast(&mut self, edge: EdgeId, tuple: Tuple) {
        for d in 0..self.dst_shards(edge) {
            self.send(edge, d, tuple.clone());
        }
    }

    /// Declares this shard finished emitting on `edge`; punctuations are
    /// sent so destinations can complete their progress tracking.
    pub fn done(&mut self, edge: EdgeId) {
        let msgs = self.core.lock().punctuate(edge);
        self.egress.extend(msgs);
    }

    /// Halts the shard: punctuates any open out-edges and releases the
    /// shard's slot in the run's completion tracking.
    pub fn halt(&mut self) {
        let msgs = self.core.lock().halt();
        self.egress.extend(msgs);
        self.shared.finalize_shard(self.core);
    }

    /// True once [`ShardCtx::halt`] (or [`Emitter::halt`]) has run.
    pub fn is_halted(&self) -> bool {
        self.core.lock().halted
    }

    /// Returns a cloneable emitter for asynchronous, low-latency sends
    /// from spawned tasks.
    pub fn emitter(&self) -> Emitter {
        Emitter {
            core: Arc::clone(self.core),
            shared: self.shared.clone(),
        }
    }
}

/// Low-latency asynchronous sender owned by a shard's spawned tasks.
///
/// Unlike [`ShardCtx`], sends are dispatched to the DCN immediately
/// rather than batched.
#[derive(Clone)]
pub struct Emitter {
    core: Arc<Lock<ShardCore>>,
    shared: RuntimeShared,
}

impl fmt::Debug for Emitter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.core.lock();
        f.debug_struct("Emitter")
            .field("node", &core.node)
            .field("shard", &core.shard)
            .finish()
    }
}

impl Emitter {
    /// This shard's index.
    pub fn shard(&self) -> u32 {
        self.core.lock().shard
    }

    /// The program run this shard belongs to.
    pub fn run(&self) -> RunId {
        self.core.lock().run
    }

    /// Sends a tuple immediately.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ShardCtx::send`].
    pub fn send(&self, edge: EdgeId, dst_shard: u32, tuple: Tuple) {
        let (src_host, msg, bytes) = {
            let mut core = self.core.lock();
            let (dst, host) = core.record_send(edge, dst_shard);
            let bytes = tuple.bytes() + DATA_OVERHEAD_BYTES;
            (
                core.host,
                (
                    host,
                    PlaqueMsg::Data {
                        run: core.run,
                        dst,
                        edge,
                        src_shard: core.shard,
                        dst_shard,
                        tuple,
                    },
                    bytes,
                ),
                bytes,
            )
        };
        let _ = bytes;
        self.shared.route_from_async(src_host, vec![msg]);
    }

    /// Punctuates `edge` immediately.
    pub fn done(&self, edge: EdgeId) {
        let (src_host, msgs) = {
            let mut core = self.core.lock();
            (core.host, core.punctuate(edge))
        };
        self.shared.route_from_async(src_host, msgs);
    }

    /// Halts the shard (see [`ShardCtx::halt`]).
    pub fn halt(&self) {
        let (src_host, msgs) = {
            let mut core = self.core.lock();
            (core.host, core.halt())
        };
        self.shared.route_from_async(src_host, msgs);
        self.shared.finalize_shard(&self.core);
    }
}
