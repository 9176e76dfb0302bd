//! Lowering a traced program to a PLAQUE dataflow, and the operators
//! that execute it.
//!
//! §4.3: *"The low-level PATHWAYS IR is converted directly to a PLAQUE
//! program, represented as a dataflow graph."* [`prepare`] is that
//! conversion: each computation becomes one sharded node (one shard per
//! device), each IR data edge becomes a *forward* edge (output futures +
//! data-ready signals) plus a *backward* edge (consumer input-buffer
//! addresses — the handshake of Figure 4), and every sink computation
//! gains an edge to a single-shard `Result` node at the client's host
//! that delivers output handles back to the client.
//!
//! One operator, `ShardOperator`, runs every computation shard, and one
//! driver task per shard speaks the producer half of the handshake.
//! A kernel shard registers its input buffers with its host's executor
//! in `on_start`, which the executor runs itself through
//! `PlaqueRuntime::start_local`, so the registration is there when the
//! executor looks. External-input placeholders
//! ([`crate::ProgramBuilder::input`]) lower to shards on the *client's*
//! host: virtual producers that replay another program's output (an
//! [`ObjectRef`](crate::ObjectRef) bound at submit time) into the
//! consumer's input buffers. Everything control-plane — the address
//! handshake, scheduling, buffer allocation, PCIe enqueue — proceeds
//! eagerly; only the data movement (and hence the consuming *kernel*,
//! which gates on its input futures inside the device queue) waits for
//! the producer's per-shard readiness events in the object store. That
//! is the paper's parallel asynchronous dispatch, extended across
//! program boundaries.

use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock};

use pathways_device::KernelCompletion;
use pathways_net::{DeviceId, HostId, IslandId};
use pathways_plaque::{
    EdgeId as PEdge, Emitter, Graph, GraphBuilder, Operator, Payload, RunId, ShardCtx, Tuple,
};
use pathways_sim::channel::OneshotReceiver;
use pathways_sim::sync::{event_or_cancel, Event};
use pathways_sim::{join_each, SimDuration, TaskName};

use crate::context::CoreCtx;
use crate::exec::CompRegistration;
use crate::objref::InputBinding;
use crate::program::{CompId, Program, ShardMapping};
use crate::sched::CompSubmit;
use crate::storage::ObjectId;

/// Control-tuple payloads on forward edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FwdSignal {
    /// Producer enqueued its kernel (or, for an external input, the
    /// bound `ObjectRef` already is the future); carries the output
    /// future.
    Future,
    /// The producer's output has been transferred into the consumer's
    /// input buffer.
    Data,
}

/// Payload on backward edges: consumer's input buffer is allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AddrSignal;

/// Payload on sink→Result edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompletionSignal {
    pub comp: CompId,
    pub object: ObjectId,
}

const SIGNAL_BYTES: u64 = 16;

// The unit signals go out once per shard pair; each shares one payload.
static FUTURE: LazyLock<Payload> = LazyLock::new(|| Arc::new(FwdSignal::Future));
static DATA: LazyLock<Payload> = LazyLock::new(|| Arc::new(FwdSignal::Data));
static ADDR: LazyLock<Payload> = LazyLock::new(|| Arc::new(AddrSignal));

/// The name of a shard's driver task, `driver-{run}-{comp}-{shard}`
/// (`input-…` for an external input): the ids now, the text only if a
/// deadlock report asks for it.
fn shard_task_name(run: RunId, comp: CompId, shard: u32, input: bool) -> TaskName {
    TaskName::lazy(
        [run.0, comp.0.into(), shard.into(), input.into()],
        |ids, f| {
            let (run, comp) = (RunId(ids[0]), CompId(ids[1] as u32));
            let kind = if ids[3] == 0 { "driver" } else { "input" };
            write!(f, "{kind}-{run}-{comp}-{}", ids[2])
        },
    )
}

/// Immutable lowered-program structures shared by all shard operators.
pub struct ProgInfo {
    /// The traced program.
    pub program: Program,
    /// Shard count per computation (inputs included).
    pub shards: Vec<u32>,
    /// Physical devices per computation (snapshot at lowering time).
    /// Empty for external inputs — their devices come from the bound
    /// `ObjectRef` at run time.
    pub devices: Vec<Vec<DeviceId>>,
    /// Host of each shard of each computation (inputs: the client host).
    pub hosts: Vec<Vec<HostId>>,
    /// Plaque forward edge per program edge index.
    pub fwd_edges: Vec<PEdge>,
    /// Plaque backward edge per program edge index.
    pub back_edges: Vec<PEdge>,
    /// Plaque edge from each sink computation to the Result node.
    pub result_edges: BTreeMap<CompId, PEdge>,
    /// In-edges of each computation (indices into the program's edge
    /// list, ascending), computed once because every shard of every run
    /// asks.
    pub in_edges: Vec<Vec<usize>>,
    /// Out-edges of each computation, likewise.
    pub out_edges: Vec<Vec<usize>>,
    /// Position of each program edge among its consumer's in-edges (the
    /// consumer's input-slot index) and among its producer's out-edges.
    pub edge_slots: Vec<EdgeSlots>,
}

/// Where one program edge sits in its two endpoints' edge lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeSlots {
    /// Index among the consumer's in-edges.
    pub dst_in: usize,
    /// Index among the producer's out-edges.
    pub src_out: usize,
}

impl std::fmt::Debug for ProgInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgInfo")
            .field("program", &self.program.name())
            .finish()
    }
}

impl ProgInfo {
    /// Producer shards feeding shard `dst_shard` on program edge `e`.
    pub fn feeders(&self, e: usize, dst_shard: u32) -> std::ops::Range<u32> {
        let edge = &self.program.edges()[e];
        match edge.mapping {
            ShardMapping::OneToOne => dst_shard..dst_shard + 1,
            ShardMapping::AllToAll => 0..self.shards[edge.src.index()],
        }
    }

    /// Consumer shards fed by shard `src_shard` on program edge `e`.
    pub fn feeds(&self, e: usize, src_shard: u32) -> std::ops::Range<u32> {
        let edge = &self.program.edges()[e];
        match edge.mapping {
            ShardMapping::OneToOne => src_shard..src_shard + 1,
            ShardMapping::AllToAll => 0..self.shards[edge.dst.index()],
        }
    }

    /// Bytes moved per (src shard, dst shard) pair on program edge `e`.
    pub fn pair_bytes(&self, e: usize) -> u64 {
        let edge = &self.program.edges()[e];
        match edge.mapping {
            ShardMapping::OneToOne => edge.bytes_per_src_shard,
            ShardMapping::AllToAll => {
                let dsts = self.shards[edge.dst.index()] as u64;
                edge.bytes_per_src_shard.div_ceil(dsts)
            }
        }
    }
}

/// A lowered program, ready to run repeatedly.
pub struct PreparedProgram {
    pub(crate) info: Arc<ProgInfo>,
    pub(crate) graph: Graph,
    pub(crate) submits: BTreeMap<IslandId, Vec<CompSubmit>>,
    /// Mapping generation of each computation's slice at lowering time
    /// (`None` for external inputs). If any slice has been remapped
    /// since — healing, rebalancing, explicit `remap` — this
    /// preparation is stale and must be re-lowered.
    pub(crate) slice_gens: Vec<Option<u64>>,
    /// Cache of the re-lowered form minted when this preparation went
    /// stale, so a long-lived prepared program pays the re-lowering
    /// cost once per remap rather than once per submit.
    pub(crate) relowered: pathways_sim::Lock<Option<std::sync::Arc<PreparedProgram>>>,
}

impl std::fmt::Debug for PreparedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedProgram")
            .field("name", &self.info.program.name())
            .field("plaque_nodes", &self.graph.num_nodes())
            .field("plaque_edges", &self.graph.num_edges())
            .finish()
    }
}

impl PreparedProgram {
    /// The dataflow graph size — one node per computation plus the
    /// Result node, independent of shard counts (§4.3).
    pub fn graph_size(&self) -> (usize, usize) {
        (self.graph.num_nodes(), self.graph.num_edges())
    }

    /// The lowered program structures.
    pub fn info(&self) -> &Arc<ProgInfo> {
        &self.info
    }

    /// True if any slice this program was lowered against has been
    /// remapped since (its generation moved on) — the snapshot of
    /// physical devices in here no longer matches the virtual→physical
    /// mapping. [`Client::submit_with`](crate::Client) re-lowers stale
    /// preparations automatically; callers holding long-lived prepared
    /// programs can poll this to re-prepare eagerly.
    pub fn is_stale(&self) -> bool {
        self.info
            .program
            .computations()
            .iter()
            .zip(&self.slice_gens)
            .any(|(comp, gen)| comp.slice().map(|s| s.generation()) != *gen)
    }
}

/// Lowers `program` into a runnable PLAQUE dataflow whose Result node
/// and external inputs run on `client_host`.
///
/// # Panics
///
/// Panics if any computation's slice spans islands (collectives require
/// one island; the resource manager never produces such slices).
#[expect(clippy::expect_used, reason = "static shape, validated by build()")]
pub fn prepare(core: &Arc<CoreCtx>, client_host: HostId, program: &Program) -> PreparedProgram {
    let topo = Arc::clone(core.fabric.topology());
    let n_comps = program.computations().len();

    let shards: Vec<u32> = program.computations().iter().map(|c| c.shards()).collect();
    let devices: Vec<Vec<DeviceId>> = (0..n_comps)
        .map(|c| program.physical_devices(CompId(c as u32)))
        .collect();
    // Kernel shards live with their device's host; input shards live on
    // the client host, where the coordinator drives the replay.
    let hosts: Vec<Vec<HostId>> = (0..n_comps)
        .map(|c| {
            if program.computations()[c].is_input() {
                vec![client_host; shards[c] as usize]
            } else {
                devices[c].iter().map(|d| topo.host_of_device(*d)).collect()
            }
        })
        .collect();

    // Edge ids in the plaque graph are assigned in creation order; we
    // create forward edges, then backward edges, then result edges, so
    // the ids are predictable and can be recorded in ProgInfo before the
    // graph itself is assembled.
    let n_edges = program.edges().len();
    let sinks = program.sinks();
    let fwd_edges: Vec<PEdge> = (0..n_edges).map(|i| PEdge(i as u32)).collect();
    let back_edges: Vec<PEdge> = (0..n_edges).map(|i| PEdge((n_edges + i) as u32)).collect();
    let result_edges: BTreeMap<CompId, PEdge> = sinks
        .iter()
        .enumerate()
        .map(|(i, c)| (*c, PEdge((2 * n_edges + i) as u32)))
        .collect();

    let mut in_edges = vec![Vec::new(); n_comps];
    let mut out_edges = vec![Vec::new(); n_comps];
    let edge_slots = program
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let (ins, outs) = (&mut in_edges[e.dst.index()], &mut out_edges[e.src.index()]);
            ins.push(i);
            outs.push(i);
            EdgeSlots {
                dst_in: ins.len() - 1,
                src_out: outs.len() - 1,
            }
        })
        .collect();

    let info = Arc::new(ProgInfo {
        program: program.clone(),
        shards,
        devices,
        hosts,
        fwd_edges,
        back_edges,
        result_edges,
        in_edges,
        out_edges,
        edge_slots,
    });

    // Assemble the plaque graph: one node per computation + Result.
    let mut g = GraphBuilder::new(program.name());
    let mut pnodes = Vec::with_capacity(n_comps);
    for c in 0..n_comps {
        let comp = CompId(c as u32);
        let core = Arc::clone(core);
        let info_f = Arc::clone(&info);
        let node = g.node(
            program.computations()[c].name().to_string(),
            info.hosts[c].clone(),
            move |shard| -> Box<dyn Operator> {
                Box::new(ShardOperator {
                    core: Arc::clone(&core),
                    info: Arc::clone(&info_f),
                    comp,
                    shard,
                    state: None,
                })
            },
        );
        pnodes.push(node);
    }
    let result_node = g.node("Result", vec![client_host], move |_| {
        Box::new(ResultOperator)
    });
    // One-to-one IR edges become one-to-one plaque edges so progress
    // punctuations stay O(1) per shard (the sparse-exchange support of
    // §4.3); resharding edges stay all-to-all.
    let pmap = |m: ShardMapping| match m {
        ShardMapping::OneToOne => pathways_plaque::EdgeMapping::OneToOne,
        ShardMapping::AllToAll => pathways_plaque::EdgeMapping::AllToAll,
    };
    for e in program.edges() {
        let got = g.edge_with_mapping(
            pnodes[e.src.index()],
            pnodes[e.dst.index()],
            pmap(e.mapping),
        );
        debug_assert_eq!(got, info.fwd_edges[got.index()]);
    }
    for e in program.edges() {
        g.edge_with_mapping(
            pnodes[e.dst.index()],
            pnodes[e.src.index()],
            pmap(e.mapping),
        );
    }
    for sink in &sinks {
        let got = g.edge(pnodes[sink.index()], result_node);
        debug_assert_eq!(got, info.result_edges[sink]);
    }
    let graph = g.build().expect("lowering produced an invalid graph");

    // Per-island submissions, kernel computations in topological order.
    // External inputs are not submitted: they occupy no devices and the
    // scheduler never sees them.
    let mut submits: BTreeMap<IslandId, Vec<CompSubmit>> = BTreeMap::new();
    for &comp in program.topo_order() {
        let Some(spec) = program.computations()[comp.index()].fn_spec() else {
            continue;
        };
        let devs = &info.devices[comp.index()];
        let island = topo.island_of_device(devs[0]);
        for d in devs {
            assert_eq!(
                topo.island_of_device(*d),
                island,
                "computation {comp} spans islands"
            );
        }
        let collective = spec.collective.map(|(kind, bytes)| {
            let duration = spec
                .collective_time_override
                .unwrap_or_else(|| core.fabric.ici_collective_time(kind, devs, bytes));
            (kind, bytes, duration)
        });
        let mut by_host: BTreeMap<HostId, Vec<(u32, DeviceId)>> = BTreeMap::new();
        for (shard, d) in devs.iter().enumerate() {
            by_host
                .entry(topo.host_of_device(*d))
                .or_default()
                .push((shard as u32, *d));
        }
        submits.entry(island).or_default().push(CompSubmit {
            comp,
            sink: info.result_edges.contains_key(&comp),
            participants: devs.len() as u32,
            collective,
            compute: spec.compute,
            output_bytes: spec.output_bytes_per_shard,
            by_host: by_host.into_iter().collect(),
            gang_devices: if collective.is_some() {
                devs.as_slice().into()
            } else {
                [].into()
            },
        });
    }

    let slice_gens = program
        .computations()
        .iter()
        .map(|c| c.slice().map(|s| s.generation()))
        .collect();
    PreparedProgram {
        info,
        graph,
        submits,
        slice_gens,
        relowered: pathways_sim::Lock::new(None),
    }
}

// ---------------------------------------------------------------------------
// Shard operator
// ---------------------------------------------------------------------------

/// The consumer-address events of one producer shard: one per
/// (out-edge of the computation, consumer shard that edge feeds from this
/// shard). The operator sets them as address tuples arrive; the shard's
/// transfers wait on them.
struct AddrEvents {
    /// Per local out-edge index: the first consumer shard fed, and one
    /// event per consumer shard from there.
    per_out_edge: Vec<(u32, Vec<Event>)>,
}

impl AddrEvents {
    fn new(info: &ProgInfo, comp: CompId, shard: u32) -> Self {
        AddrEvents {
            per_out_edge: info.out_edges[comp.index()]
                .iter()
                .map(|&e| {
                    let fed = info.feeds(e, shard);
                    (fed.start, fed.map(|_| Event::new()).collect())
                })
                .collect(),
        }
    }

    /// The event an address tuple on plaque edge `edge` from consumer
    /// shard `src_shard` stands for; `None` if `edge` is not a backward
    /// edge out of `comp` or this shard does not feed `src_shard`.
    /// [`prepare`] numbers the forward plaque edges first, in
    /// program-edge order, and the backward ones after them.
    fn for_address(
        &self,
        info: &ProgInfo,
        comp: CompId,
        edge: PEdge,
        src_shard: u32,
    ) -> Option<&Event> {
        let e = edge.index().checked_sub(info.program.edges().len())?;
        if info.program.edges().get(e)?.src != comp {
            return None;
        }
        let (first, events) = self.per_out_edge.get(info.edge_slots[e].src_out)?;
        events.get(src_shard.checked_sub(*first)? as usize)
    }
}

struct OpState {
    addr_events: Arc<AddrEvents>,
    /// Sequential-mode gate: set once `futures_left` reaches zero.
    prereq: Event,
    futures_left: u64,
}

/// One shard of a computation: a kernel on its device's host, or an
/// external input on the client host — a virtual producer that speaks
/// the producer half of the Figure 4 handshake for a buffer another
/// program is (or will be) writing.
pub(crate) struct ShardOperator {
    core: Arc<CoreCtx>,
    info: Arc<ProgInfo>,
    comp: CompId,
    shard: u32,
    state: Option<OpState>,
}

impl Operator for ShardOperator {
    #[expect(clippy::panic, reason = "routes come from the same lowering")]
    fn on_start(&mut self, ctx: &mut ShardCtx<'_>) {
        let (run, comp, shard) = (ctx.run(), self.comp, self.shard);
        let info = &self.info;
        let addr_events = Arc::new(AddrEvents::new(info, comp, shard));
        let prereq = Event::new();
        let mut futures_left = 0u64;
        let source = if info.program.computations()[comp.index()].is_input() {
            // The bound ObjectRef *is* the output future — announce it
            // downstream immediately, before any data exists. Sequential
            // dispatch within the consuming program therefore never
            // serializes on a cross-program edge.
            for &e in &info.out_edges[comp.index()] {
                for d in info.feeds(e, shard) {
                    ctx.send(info.fwd_edges[e], d, Tuple::shared(&FUTURE, SIGNAL_BYTES));
                }
            }
            let binding = self
                .core
                .bindings
                .lock()
                .get(&(run, comp))
                .cloned()
                .unwrap_or_else(|| panic!("no ObjectRef bound for {run} input {comp}"));
            Source::Replay(binding)
        } else {
            // Input buffers: one slot per in-edge, delivered directly by
            // producer transfers (ICI path — no DCN hop before the kernel
            // can start). Edges from external inputs deliver the same
            // way, driven by the client-side input shard replaying the
            // bound ObjectRef.
            let in_edges = &info.in_edges[comp.index()];
            let mut input_events = Vec::with_capacity(in_edges.len());
            for (ii, &e) in in_edges.iter().enumerate() {
                let feeders = info.feeders(e, shard).len() as u64;
                let slot = crate::context::InputSlot::new(feeders);
                input_events.push(slot.event().clone());
                self.core
                    .input_slots
                    .lock()
                    .insert((run, comp, shard, ii), slot);
                futures_left += feeders;
            }
            if futures_left == 0 {
                prereq.set();
            }
            // Hand the executor what it needs to enqueue our kernel; it
            // takes the registration as soon as this returns.
            let host = ctx.host();
            let (enq_tx, enq_rx) = pathways_sim::channel::oneshot();
            self.core
                .executors
                .get(&host)
                .unwrap_or_else(|| panic!("no executor on {host}"))
                .register(
                    (run, comp, shard),
                    CompRegistration {
                        input_events,
                        prereq: prereq.clone(),
                        on_enqueued: enq_tx,
                    },
                );
            Source::Kernel(enq_rx)
        };
        let name = shard_task_name(run, comp, shard, matches!(source, Source::Replay(_)));
        let driver = drive_shard(
            Arc::clone(&self.core),
            Arc::clone(info),
            comp,
            shard,
            run,
            ctx.emitter(),
            source,
            Arc::clone(&addr_events),
        );
        ctx.handle().spawn(name, driver);
        self.state = Some(OpState {
            addr_events,
            prereq,
            futures_left,
        });
    }

    #[expect(clippy::expect_used, reason = "routes come from the same lowering")]
    fn on_tuple(
        &mut self,
        _ctx: &mut ShardCtx<'_>,
        edge: pathways_plaque::EdgeId,
        src_shard: u32,
        tuple: Tuple,
    ) {
        let st = self.state.as_mut().expect("tuple before start");
        if let Some(addr) = st
            .addr_events
            .for_address(&self.info, self.comp, edge, src_shard)
        {
            tuple.expect::<AddrSignal>();
            addr.set();
            return;
        }
        match tuple.expect::<FwdSignal>() {
            FwdSignal::Future => {
                st.futures_left -= 1;
                if st.futures_left == 0 {
                    st.prereq.set();
                }
            }
            // Data-readiness is delivered in-band with the transfer
            // (InputSlot); the tuple only closes the plaque edge for
            // progress tracking.
            FwdSignal::Data => {}
        }
    }

    fn on_all_inputs_complete(&mut self, _ctx: &mut ShardCtx<'_>) {
        // The driver halts the shard after its transfers finish.
    }
}

/// Where a shard's output comes from.
enum Source {
    /// A kernel: the executor hands over the kernel's completion here
    /// once it has enqueued it.
    Kernel(OneshotReceiver<OneshotReceiver<KernelCompletion>>),
    /// An external input: the bound object it replays.
    Replay(Arc<InputBinding>),
}

/// The asynchronous life of one shard after `on_start`.
///
/// A kernel shard waits for its enqueue, then announces its output
/// futures downstream and its input-buffer addresses upstream, and moves
/// its output once the kernel completes. Failure-aware from end to end:
/// an abort before the enqueue (the fault injector swept our
/// registration), a dropped completion (our device died with the kernel
/// queued) and a gang abort (a partner device died) all land in the same
/// wind-down — announce the signals the rest of the dataflow gates on,
/// *poison-deliver* the consumer input buffers instead of moving data,
/// and halt, so the run drains to a clean completion instead of wedging.
///
/// An input shard replays its shard of the bound object into every
/// consumer buffer. The address handshake and the transfer *setup*
/// happen eagerly; the bytes move only once the producer's kernel has
/// marked the shard ready in the object store — the single gate the
/// consuming kernel inherits through its input future.
#[allow(clippy::too_many_arguments)]
async fn drive_shard(
    core: Arc<CoreCtx>,
    info: Arc<ProgInfo>,
    comp: CompId,
    shard: u32,
    run: pathways_plaque::RunId,
    emitter: Emitter,
    mut source: Source,
    addr_events: Arc<AddrEvents>,
) {
    // Every shard of every run holds one of these futures: keep the
    // locals that live across its awaits few and small.
    let (src_dev, gate, mode) = match &mut source {
        Source::Kernel(enq_rx) => {
            let enq = enq_rx.await.ok();
            // Announce output futures downstream (sequential-dispatch
            // consumers gate on these)...
            for &e in &info.out_edges[comp.index()] {
                for d in info.feeds(e, shard) {
                    emitter.send(info.fwd_edges[e], d, Tuple::shared(&FUTURE, SIGNAL_BYTES));
                }
            }
            // ...and our input-buffer addresses upstream (the Figure 4
            // handshake: "Host B allocates B's inputs, transmits the
            // input buffer addresses to host A"). Sent on the abort path
            // too: an upstream producer mid-transfer must not wait
            // forever for the address of a consumer that will never
            // enqueue.
            for &e in &info.in_edges[comp.index()] {
                for s in info.feeders(e, shard) {
                    emitter.send(info.back_edges[e], s, Tuple::shared(&ADDR, SIGNAL_BYTES));
                }
            }
            // A dropped completion sender is the device's abort signal
            // (it died with this kernel queued, or its gang aborted).
            let completed = match enq {
                Some(completion) => completion.await.is_ok(),
                None => false,
            };
            // No readiness gate: this shard's kernel just completed (or
            // aborted, in which case consumers get a zero-byte poison
            // delivery — their runs were failed by the injector, so the
            // error, not the data, is what they observe).
            let mode = if completed {
                core.store.mark_ready(ObjectId { run, comp }, shard);
                TransferMode::Data
            } else {
                TransferMode::Poison
            };
            (info.devices[comp.index()][shard as usize], None, mode)
        }
        // Gate every transfer on the producer's per-shard readiness
        // event. If the producer failed, the failure path fires those
        // events and records the error; the replay then poisons
        // (delivers without data) rather than replaying stale bytes.
        Source::Replay(binding) => (
            binding.objref.devices()[shard as usize],
            Some(binding.objref.shard_ready(shard)),
            TransferMode::CheckObject(binding.objref.id()),
        ),
    };

    // Move outputs to every consumer shard as soon as its buffer address
    // is known; transfers to different consumers proceed concurrently.
    let completed = matches!(mode, TransferMode::Data);
    join_each(output_transfers(
        &core,
        &info,
        comp,
        shard,
        run,
        &emitter,
        &addr_events,
        src_dev,
        gate,
        mode,
    ))
    .await;

    match source {
        Source::Kernel(_) => {
            // Release this shard's input-slot registrations.
            {
                let mut slots = core.input_slots.lock();
                for ii in 0..info.in_edges[comp.index()].len() {
                    slots.remove(&(run, comp, shard, ii));
                }
            }
            if let Some(&result_edge) = info.result_edges.get(&comp) {
                // Sink: shard 0 delivers the *logical* output handle to
                // the Result node — one handle per sharded buffer, not
                // per shard (the §4.2 amortization). The run still waits
                // for every shard: completion requires all shards to
                // halt. The client's ObjectRef (minted at submit time)
                // owns the object's refcount; nothing is released here.
                // Aborted shards skip the tuple — the plaque edge closes
                // through halt's punctuation.
                if completed && shard == 0 {
                    let object = ObjectId { run, comp };
                    emitter.send(
                        result_edge,
                        0,
                        Tuple::new(CompletionSignal { comp, object }, SIGNAL_BYTES),
                    );
                }
            } else {
                // Intermediate output: consumers have their copies (or
                // their poison); release ours. A release of an object
                // the grant never created is a no-op.
                core.store.release(ObjectId { run, comp });
            }
        }
        // Last shard of this input drops the binding, releasing its
        // ObjectRef clone (and with it, possibly, the object).
        Source::Replay(binding) => {
            if binding
                .remaining
                .fetch_sub(1, std::sync::atomic::Ordering::AcqRel)
                == 1
            {
                core.bindings.lock().remove(&(run, comp));
            }
        }
    }
    emitter.halt();
}

/// How a producer shard's output reaches (or fails to reach) each
/// consumer input buffer.
#[derive(Debug, Clone, Copy)]
enum TransferMode {
    /// Move the real bytes over the interconnect.
    Data,
    /// The producer aborted: deliver the consumer's input slot without
    /// moving anything, so its kernel unblocks. The consumer's run
    /// carries the typed error; the poison is just the unwedging.
    Poison,
    /// External-input replay: decide per transfer *after* the readiness
    /// gate fires — a producer that failed (events fired by the failure
    /// path, error recorded in the store) poisons instead of replaying
    /// stale or never-written data.
    CheckObject(ObjectId),
}

/// One transfer per (out-edge, consumer shard) of `comp` shard `shard`
/// — the producer half of the Figure 4 handshake, shared by kernel
/// shards and external-input replays, run by the shard's driver through
/// [`join_each`]. Each transfer waits for the consumer's buffer address
/// (eager: allocated during grant processing), then the optional
/// readiness `gate` (external inputs gate on the producer's per-shard
/// event; kernel shards pass `None` because their kernel already
/// completed), moves the bytes from `src_dev` (unless the `mode`
/// poisons the delivery), delivers the consumer's input slot in-band
/// (the transfer's arrival is the consumer kernel's trigger — no
/// control message in between), and closes the plaque edge off the
/// critical path.
#[allow(clippy::too_many_arguments)]
fn output_transfers<'a>(
    core: &'a Arc<CoreCtx>,
    info: &'a ProgInfo,
    comp: CompId,
    shard: u32,
    run: pathways_plaque::RunId,
    emitter: &'a Emitter,
    addr_events: &'a AddrEvents,
    src_dev: DeviceId,
    gate: Option<&'a Event>,
    mode: TransferMode,
) -> Vec<impl std::future::Future<Output = ()> + Send + 'a> {
    // The address arrives as a dataflow tuple from the consumer host —
    // which a fault may have silenced (dead NIC, severed link). Racing
    // the wait against the run's failure event keeps the transfer from
    // wedging; the consumer's input slot is still delivered
    // (shared-memory simulation state), so a consumer kernel already
    // sitting on a live device unblocks.
    let cancel = core.failures.failed_event(run);
    let mut transfers = Vec::new();
    let out_edges = &info.out_edges[comp.index()];
    for (&e, (first, addrs)) in out_edges.iter().zip(&addr_events.per_out_edge) {
        let bytes = info.pair_bytes(e);
        let dst_comp = info.program.edges()[e].dst;
        let dst_in_idx = info.edge_slots[e].dst_in;
        for (d, addr) in (*first..).zip(addrs) {
            let dst_dev = info.devices[dst_comp.index()][d as usize];
            let cancel = cancel.clone();
            transfers.push(async move {
                let cancel = cancel.as_ref();
                event_or_cancel(addr, cancel).await;
                if let Some(ready) = gate {
                    ready.wait().await;
                }
                let mut src = src_dev;
                let mut move_data = addr.is_set();
                if move_data {
                    match mode {
                        TransferMode::Data => {}
                        TransferMode::Poison => move_data = false,
                        TransferMode::CheckObject(src_obj) => {
                            // Tiered store: a source object mid
                            // restore/recompute is neither stale nor
                            // failed — wait the recovery window out
                            // (racing the consumer's own failure so a
                            // doomed run still unwedges).
                            while let Some(rec) = core.store.recovering(src_obj) {
                                event_or_cancel(&rec, cancel).await;
                                if !rec.is_set() {
                                    break;
                                }
                            }
                            if core.store.object_error(src_obj).is_some() {
                                move_data = false;
                            } else if let Some((loc, penalty)) =
                                core.store.read_shard(src_obj, shard)
                            {
                                // Spilled/restored shards replay from
                                // their current tier location with the
                                // staging penalty.
                                if penalty > SimDuration::ZERO {
                                    core.handle.sleep(penalty).await;
                                }
                                src = loc;
                            }
                        }
                    }
                }
                if move_data {
                    core.move_bytes(src, dst_dev, bytes).await;
                }
                if let Some(slot) = core.input_slots.lock().get(&(run, dst_comp, d, dst_in_idx)) {
                    slot.deliver();
                }
                emitter.send(info.fwd_edges[e], d, Tuple::shared(&DATA, SIGNAL_BYTES));
            });
        }
    }
    transfers
}

// ---------------------------------------------------------------------------
// Result operator
// ---------------------------------------------------------------------------

/// Terminal single-shard node on the client host. Output handles are
/// minted at submit time as `ObjectRef`s, so the completion tuples are
/// purely structural: they close the sink→Result plaque edges, and the
/// node's halt marks the run complete.
pub(crate) struct ResultOperator;

impl Operator for ResultOperator {
    fn on_tuple(
        &mut self,
        _ctx: &mut ShardCtx<'_>,
        _edge: pathways_plaque::EdgeId,
        _src: u32,
        tuple: Tuple,
    ) {
        let _ = tuple.expect::<CompletionSignal>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_task_names_render_as_the_formatted_strings_they_replaced() {
        let (run, comp, shard) = (RunId(1 << 40), CompId(17), 2047u32);
        assert_eq!(
            shard_task_name(run, comp, shard, false).to_string(),
            format!("driver-{run}-{comp}-{shard}")
        );
        assert_eq!(
            shard_task_name(run, comp, shard, true).to_string(),
            format!("input-{run}-{comp}-{shard}")
        );
    }
}
