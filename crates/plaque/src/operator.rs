//! Operator callbacks and the per-shard context.
//!
//! An [`Operator`] is the user logic of one shard of one node. Callbacks
//! run on the shard's host; outputs buffered through [`ShardCtx`] are
//! coalesced into one DCN message per destination host per delivery
//! round (the "batch messages destined for the same host" requirement of
//! §4.3), while an [`Emitter`] sends immediately for latency-critical
//! messages from async tasks (the "send critical messages with low
//! latency" requirement).

use pathways_sim::Lock;
use std::fmt;
use std::ops::Range;
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
    /// The node's out-edges, in edge-id order.
    out: Vec<OutEdge>,
    /// Shard declared finished.
    pub halted: bool,
    /// Completion was already propagated to the run tracker.
    pub finalized: bool,
}

/// One out-edge's send accounting.
struct OutEdge {
    edge: EdgeId,
    /// Destination shards this shard may address under the mapping.
    reach: Range<u32>,
    /// Tuples sent to each of them so far, indexed from `reach.start`.
    sent: Vec<u64>,
    /// Punctuated.
    done: bool,
}

impl ShardCore {
    pub fn new(run: RunId, node: NodeId, shard: u32, host: HostId, graph: Graph) -> Self {
        let out = graph
            .out_edges(node)
            .iter()
            .map(|&edge| {
                let reach = graph.reachable_dst_shards(edge, shard);
                OutEdge {
                    edge,
                    sent: vec![0; reach.len()],
                    reach,
                    done: false,
                }
            })
            .collect();
        ShardCore {
            run,
            node,
            shard,
            host,
            graph,
            out,
            halted: false,
            finalized: false,
        }
    }

    fn out_index(&self, edge: EdgeId) -> Option<usize> {
        self.out.iter().position(|o| o.edge == edge)
    }

    /// Validates and accounts one send; returns the destination node
    /// and the host its `dst_shard` is placed on.
    #[expect(clippy::panic, reason = "trackers are built before the run")]
    pub fn record_send(&mut self, edge: EdgeId, dst_shard: u32) -> (NodeId, HostId) {
        assert!(!self.halted, "shard sent a tuple after halting");
        let i = self
            .out_index(edge)
            .unwrap_or_else(|| panic!("{edge} is not an out-edge of {}", self.node));
        let (_, dst) = self.graph.edge_endpoints(edge);
        let dst_shards = self.graph.shards(dst);
        let out = &mut self.out[i];
        assert!(
            !out.done,
            "shard sent a tuple on {edge} after punctuating it"
        );
        assert!(
            dst_shard < dst_shards,
            "destination shard {dst_shard} out of range on {edge}"
        );
        assert!(
            out.reach.contains(&dst_shard),
            "shard {} cannot address destination shard {dst_shard} on {edge} under its mapping",
            self.shard
        );
        out.sent[(dst_shard - out.reach.start) as usize] += 1;
        (dst, self.graph.placement(dst)[dst_shard as usize])
    }

    /// Marks an out-edge punctuated and appends the punctuation messages
    /// to `msgs`: one per destination shard this shard *may address*
    /// under the edge mapping, with its exact count. Sparse mappings keep
    /// this O(1) per shard rather than O(destination shards).
    #[expect(clippy::panic, reason = "trackers are built before the run")]
    pub fn punctuate(&mut self, edge: EdgeId, msgs: &mut Vec<(HostId, PlaqueMsg, u64)>) {
        let i = self
            .out_index(edge)
            .unwrap_or_else(|| panic!("{edge} is not an out-edge of {}", self.node));
        assert!(!self.out[i].done, "{edge} punctuated twice");
        self.punctuate_at(i, msgs);
    }

    fn punctuate_at(&mut self, i: usize, msgs: &mut Vec<(HostId, PlaqueMsg, u64)>) {
        let out = &mut self.out[i];
        out.done = true;
        let (_, dst) = self.graph.edge_endpoints(out.edge);
        let placement = self.graph.placement(dst);
        msgs.extend(out.reach.clone().zip(&out.sent).map(|(d, &sent)| {
            (
                placement[d as usize],
                PlaqueMsg::Done {
                    run: self.run,
                    dst,
                    edge: out.edge,
                    src_shard: self.shard,
                    dst_shard: d,
                    sent,
                },
                DONE_BYTES,
            )
        }));
    }

    /// Punctuates all remaining out-edges, in edge-id order, and marks
    /// the shard halted.
    pub fn halt(&mut self, msgs: &mut Vec<(HostId, PlaqueMsg, u64)>) {
        assert!(!self.halted, "shard halted twice");
        self.halted = true;
        for i in 0..self.out.len() {
            if !self.out[i].done {
                self.punctuate_at(i, msgs);
            }
        }
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
        self.core.lock().punctuate(edge, self.egress);
    }

    /// Halts the shard: punctuates any open out-edges and releases the
    /// shard's slot in the run's completion tracking.
    pub fn halt(&mut self) {
        self.core.lock().halt(self.egress);
        self.shared.finalize_shard(self.core);
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
        let (src_host, msg) = {
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
            )
        };
        self.shared.route_from_async(src_host, [msg]);
    }

    /// Punctuates `edge` immediately.
    pub fn done(&self, edge: EdgeId) {
        let mut msgs = Vec::new();
        let src_host = {
            let mut core = self.core.lock();
            core.punctuate(edge, &mut msgs);
            core.host
        };
        self.shared.route_from_async(src_host, msgs);
    }

    /// Halts the shard (see [`ShardCtx::halt`]).
    pub fn halt(&self) {
        let mut msgs = Vec::new();
        let src_host = {
            let mut core = self.core.lock();
            core.halt(&mut msgs);
            core.host
        };
        self.shared.route_from_async(src_host, msgs);
        self.shared.finalize_shard(&self.core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// Shard 2 of `A` (4 shards) with three out-edges: all-to-all to `B`
    /// (4 shards, hosts 10..), one-to-one to `C` (4, hosts 20..) and
    /// all-to-all to `D` (3, hosts 30..).
    fn mixed_core() -> (ShardCore, [EdgeId; 3]) {
        let hosts = |base: u32, n: u32| (base..base + n).map(HostId).collect::<Vec<_>>();
        let mut g = GraphBuilder::new("mixed");
        let a = g.node("A", hosts(0, 4), |_| Box::new(NullOperator));
        let b = g.node("B", hosts(10, 4), |_| Box::new(NullOperator));
        let c = g.node("C", hosts(20, 4), |_| Box::new(NullOperator));
        let d = g.node("D", hosts(30, 3), |_| Box::new(NullOperator));
        let edges = [g.edge(a, b), g.one_to_one_edge(a, c), g.edge(a, d)];
        let graph = g.build().unwrap();
        (ShardCore::new(RunId(7), a, 2, HostId(2), graph), edges)
    }

    /// `(edge, destination shard, promised count, destination host)` of
    /// each punctuation, in order.
    fn dones(msgs: &[(HostId, PlaqueMsg, u64)]) -> Vec<(u32, u32, u64, u32)> {
        msgs.iter()
            .map(|(host, msg, bytes)| match msg {
                PlaqueMsg::Done {
                    run,
                    edge,
                    src_shard,
                    dst_shard,
                    sent,
                    ..
                } => {
                    assert_eq!((*run, *src_shard, *bytes), (RunId(7), 2, DONE_BYTES));
                    (edge.0, *dst_shard, *sent, host.0)
                }
                other => panic!("not a punctuation: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn punctuations_carry_exact_counts_per_edge_and_destination_shard() {
        let (mut core, [ab, ac, ad]) = mixed_core();
        for (edge, dst) in [
            (ab, 0),
            (ab, 3),
            (ac, 2),
            (ab, 3),
            (ad, 2),
            (ac, 2),
            (ab, 1),
        ] {
            core.record_send(edge, dst);
        }
        let mut msgs = Vec::new();
        core.punctuate(ac, &mut msgs);
        // One-to-one: only the one destination this shard may address.
        assert_eq!(dones(&msgs), [(1, 2, 2, 22)]);
        msgs.clear();
        core.halt(&mut msgs);
        // The open edges close in edge-id order, every reachable
        // destination with its exact count, zero included.
        assert_eq!(
            dones(&msgs),
            [
                (0, 0, 1, 10),
                (0, 1, 1, 11),
                (0, 2, 0, 12),
                (0, 3, 2, 13),
                (2, 0, 0, 30),
                (2, 1, 0, 31),
                (2, 2, 1, 32),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "destination shard 3 out of range on edge2")]
    fn record_send_rejects_an_out_of_range_destination() {
        let (mut core, [_, _, ad]) = mixed_core();
        core.record_send(ad, 3);
    }

    #[test]
    #[should_panic(expected = "shard 2 cannot address destination shard 1 on edge1")]
    fn record_send_rejects_an_unreachable_destination() {
        let (mut core, [_, ac, _]) = mixed_core();
        core.record_send(ac, 1);
    }
}
