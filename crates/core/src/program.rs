//! Traced Pathways programs: the device-location-agnostic IR.
//!
//! §3: a user wraps a block of code calling many compiled functions with
//! the program tracer; each compiled function becomes one (sharded)
//! computation node in a dataflow graph. [`ProgramBuilder`] is that
//! tracer's output interface: computations reference the virtual devices
//! of a slice, and [`Program::lower`] resolves them to physical devices
//! (the paper's "lowering" pass that can be re-run when the resource
//! manager changes the virtual→physical mapping).
//!
//! Programs can also declare **external inputs**
//! ([`ProgramBuilder::input`]): placeholder nodes that are bound to an
//! [`ObjectRef`](crate::ObjectRef) — the output future of another
//! program — at submission time. This is what makes cross-program
//! chaining first-class: a consumer program can be traced, lowered and
//! dispatched before its producer has run.

use std::fmt;

use serde::{Deserialize, Serialize};

use pathways_net::{CollectiveKind, DeviceId};
use pathways_sim::SimDuration;

use crate::resource::VirtualSlice;

/// Index of a computation within one program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CompId(pub u32);

impl fmt::Display for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "comp{}", self.0)
    }
}

impl CompId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Static description of one compiled function (per shard).
///
/// Everything here is known before the function's inputs exist — the
/// defining property of compiled functions (§3, Appendix B) that makes
/// parallel asynchronous dispatch possible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FnSpec {
    /// Function name (used in labels/traces).
    pub name: String,
    /// Per-shard compute time.
    pub compute: SimDuration,
    /// Optional collective over all shards of the computation, with the
    /// per-shard payload size.
    pub collective: Option<(CollectiveKind, u64)>,
    /// Overrides the cost-model duration of the collective when the
    /// caller knows it better (e.g. a calibrated per-layer communication
    /// schedule the analytic torus model cannot see).
    pub collective_time_override: Option<SimDuration>,
    /// Bytes each shard's output occupies in HBM.
    pub output_bytes_per_shard: u64,
}

impl FnSpec {
    /// A pure-compute function with no collective and no output payload.
    pub fn compute_only(name: impl Into<String>, compute: SimDuration) -> Self {
        FnSpec {
            name: name.into(),
            compute,
            collective: None,
            collective_time_override: None,
            output_bytes_per_shard: 0,
        }
    }

    /// Fixes the collective's wire time explicitly (builder style).
    #[must_use]
    pub fn with_collective_time(mut self, duration: SimDuration) -> Self {
        self.collective_time_override = Some(duration);
        self
    }

    /// Adds an all-reduce over the computation's shards (builder style).
    #[must_use]
    pub fn with_allreduce(mut self, bytes: u64) -> Self {
        self.collective = Some((CollectiveKind::AllReduce, bytes));
        self
    }

    /// Sets output bytes per shard (builder style).
    #[must_use]
    pub fn with_output_bytes(mut self, bytes: u64) -> Self {
        self.output_bytes_per_shard = bytes;
        self
    }
}

/// Static description of an external input: a placeholder that is bound
/// to another program's output ([`ObjectRef`](crate::ObjectRef)) when
/// the program is submitted with
/// [`Client::submit_with`](crate::Client::submit_with).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputSpec {
    /// Name (used in labels/traces).
    pub name: String,
    /// Number of shards of the bound object. Must match the bound
    /// `ObjectRef`'s sharding; one-to-one edges out of the input require
    /// the consumer to have the same shard count.
    pub shards: u32,
}

impl InputSpec {
    /// An input expecting an object sharded `shards` ways.
    pub fn new(name: impl Into<String>, shards: u32) -> Self {
        InputSpec {
            name: name.into(),
            shards,
        }
    }
}

/// One program node: either a compiled function placed on a virtual
/// slice, or an external-input placeholder bound at submission time.
#[derive(Debug, Clone)]
pub enum Computation {
    /// A compiled function running one shard per device of `slice`.
    Kernel {
        /// The function.
        spec: FnSpec,
        /// Virtual devices it runs on (one shard per device).
        slice: VirtualSlice,
    },
    /// An external input, fed by an `ObjectRef` bound at submit time.
    Input {
        /// The input's static description.
        spec: InputSpec,
    },
}

impl Computation {
    /// Node name (function or input name).
    pub fn name(&self) -> &str {
        match self {
            Computation::Kernel { spec, .. } => &spec.name,
            Computation::Input { spec } => &spec.name,
        }
    }

    /// Number of shards of this node.
    pub fn shards(&self) -> u32 {
        match self {
            Computation::Kernel { slice, .. } => slice.len() as u32,
            Computation::Input { spec } => spec.shards,
        }
    }

    /// The kernel spec, if this is a kernel node.
    pub fn fn_spec(&self) -> Option<&FnSpec> {
        match self {
            Computation::Kernel { spec, .. } => Some(spec),
            Computation::Input { .. } => None,
        }
    }

    /// The virtual slice, if this is a kernel node.
    pub fn slice(&self) -> Option<&VirtualSlice> {
        match self {
            Computation::Kernel { slice, .. } => Some(slice),
            Computation::Input { .. } => None,
        }
    }

    /// True for external-input placeholder nodes.
    pub fn is_input(&self) -> bool {
        matches!(self, Computation::Input { .. })
    }
}

/// How the shards of a producer map onto the shards of a consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardMapping {
    /// Shard `i` feeds shard `i` (requires equal shard counts).
    OneToOne,
    /// Every producer shard feeds every consumer shard, splitting the
    /// payload (scatter/gather resharding).
    AllToAll,
}

/// A dataflow edge between two computations.
#[derive(Debug, Clone, Copy)]
pub struct DataEdge {
    /// Producer computation.
    pub src: CompId,
    /// Consumer computation.
    pub dst: CompId,
    /// Bytes each producer shard sends in total on this edge.
    pub bytes_per_src_shard: u64,
    /// Shard mapping.
    pub mapping: ShardMapping,
}

/// Errors from program construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// An edge referenced a computation that does not exist.
    UnknownComputation {
        /// The dangling id.
        comp: CompId,
    },
    /// A one-to-one edge connects computations with different shard
    /// counts.
    ShardCountMismatch {
        /// Producer.
        src: CompId,
        /// Producer shards.
        src_shards: u32,
        /// Consumer.
        dst: CompId,
        /// Consumer shards.
        dst_shards: u32,
    },
    /// The edges form a cycle.
    Cyclic,
    /// The program has no computations.
    Empty,
    /// The program has no kernel computations (inputs only).
    NoKernels,
    /// An external input is the destination of a dataflow edge; inputs
    /// are sources by definition.
    InputHasInEdge {
        /// The offending input node.
        comp: CompId,
    },
    /// An external input has no consumers.
    UnusedInput {
        /// The unused input node.
        comp: CompId,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnknownComputation { comp } => {
                write!(f, "edge references unknown {comp}")
            }
            ProgramError::ShardCountMismatch {
                src,
                src_shards,
                dst,
                dst_shards,
            } => write!(
                f,
                "one-to-one edge between {src} ({src_shards} shards) and {dst} ({dst_shards} shards)"
            ),
            ProgramError::Cyclic => write!(f, "program contains a cycle"),
            ProgramError::Empty => write!(f, "program has no computations"),
            ProgramError::NoKernels => write!(f, "program has only input placeholders"),
            ProgramError::InputHasInEdge { comp } => {
                write!(f, "external input {comp} has an incoming edge")
            }
            ProgramError::UnusedInput { comp } => {
                write!(f, "external input {comp} has no consumers")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// Builder for [`Program`] — the interface the program tracer targets.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    comps: Vec<Computation>,
    edges: Vec<DataEdge>,
}

impl ProgramBuilder {
    /// Starts tracing a program named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            comps: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a computation node running `spec` on `slice`.
    pub fn computation(&mut self, spec: FnSpec, slice: &VirtualSlice) -> CompId {
        let id = CompId(self.comps.len() as u32);
        self.comps.push(Computation::Kernel {
            spec,
            slice: slice.clone(),
        });
        id
    }

    /// Adds an external-input placeholder. The returned id is used both
    /// for dataflow edges out of the input and as the binding key of
    /// [`Client::submit_with`](crate::Client::submit_with).
    pub fn input(&mut self, spec: InputSpec) -> CompId {
        let id = CompId(self.comps.len() as u32);
        self.comps.push(Computation::Input { spec });
        id
    }

    /// Adds a one-to-one dataflow edge carrying `bytes_per_src_shard`.
    pub fn edge(&mut self, src: CompId, dst: CompId, bytes_per_src_shard: u64) -> &mut Self {
        self.edges.push(DataEdge {
            src,
            dst,
            bytes_per_src_shard,
            mapping: ShardMapping::OneToOne,
        });
        self
    }

    /// Adds an all-to-all (resharding) edge.
    pub fn reshard_edge(
        &mut self,
        src: CompId,
        dst: CompId,
        bytes_per_src_shard: u64,
    ) -> &mut Self {
        self.edges.push(DataEdge {
            src,
            dst,
            bytes_per_src_shard,
            mapping: ShardMapping::AllToAll,
        });
        self
    }

    /// Validates and finalizes the program.
    ///
    /// # Errors
    ///
    /// See [`ProgramError`].
    pub fn build(self) -> Result<Program, ProgramError> {
        if self.comps.is_empty() {
            return Err(ProgramError::Empty);
        }
        if self.comps.iter().all(Computation::is_input) {
            return Err(ProgramError::NoKernels);
        }
        let n = self.comps.len() as u32;
        for e in &self.edges {
            for c in [e.src, e.dst] {
                if c.0 >= n {
                    return Err(ProgramError::UnknownComputation { comp: c });
                }
            }
            if self.comps[e.dst.index()].is_input() {
                return Err(ProgramError::InputHasInEdge { comp: e.dst });
            }
            if e.mapping == ShardMapping::OneToOne {
                let s = self.comps[e.src.index()].shards();
                let d = self.comps[e.dst.index()].shards();
                if s != d {
                    return Err(ProgramError::ShardCountMismatch {
                        src: e.src,
                        src_shards: s,
                        dst: e.dst,
                        dst_shards: d,
                    });
                }
            }
        }
        for (i, c) in self.comps.iter().enumerate() {
            let id = CompId(i as u32);
            if c.is_input() && !self.edges.iter().any(|e| e.src == id) {
                return Err(ProgramError::UnusedInput { comp: id });
            }
        }
        let order = topological_order(self.comps.len(), &self.edges).ok_or(ProgramError::Cyclic)?;
        Ok(Program {
            name: self.name,
            comps: self.comps,
            edges: self.edges,
            topo_order: order,
        })
    }
}

/// A validated, traced Pathways program.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    comps: Vec<Computation>,
    edges: Vec<DataEdge>,
    topo_order: Vec<CompId>,
}

impl Program {
    /// Program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The computations, indexed by [`CompId`].
    pub fn computations(&self) -> &[Computation] {
        &self.comps
    }

    /// The dataflow edges.
    pub fn edges(&self) -> &[DataEdge] {
        &self.edges
    }

    /// Computations in a topological order (producers first).
    pub fn topo_order(&self) -> &[CompId] {
        &self.topo_order
    }

    /// Physical devices of `comp` under the current virtual→physical
    /// mapping (the lowering step that is re-run if the resource manager
    /// remaps a slice). External inputs have no devices until bound.
    pub fn physical_devices(&self, comp: CompId) -> Vec<DeviceId> {
        self.comps[comp.index()]
            .slice()
            .map(VirtualSlice::physical_devices)
            .unwrap_or_default()
    }

    /// Out-edges of `comp` (indices into [`Program::edges`]).
    pub fn out_edges(&self, comp: CompId) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.src == comp)
            .map(|(i, _)| i)
            .collect()
    }

    /// Kernel computations with no out-edges (their completion ends the
    /// run; each produces one logical output object). External inputs
    /// are never sinks: validation requires them to have consumers.
    pub fn sinks(&self) -> Vec<CompId> {
        (0..self.comps.len() as u32)
            .map(CompId)
            .filter(|c| !self.comps[c.index()].is_input() && self.out_edges(*c).is_empty())
            .collect()
    }

    /// External-input placeholder nodes, in id order.
    pub fn inputs(&self) -> Vec<CompId> {
        (0..self.comps.len() as u32)
            .map(CompId)
            .filter(|c| self.comps[c.index()].is_input())
            .collect()
    }

    /// Estimated total device time (used by schedulers for
    /// proportional-share accounting). Collective time is estimated with
    /// the latency-free bandwidth bound and refined by the executor.
    pub fn estimated_device_time(&self) -> SimDuration {
        self.comps
            .iter()
            .filter_map(|c| c.fn_spec().map(|spec| spec.compute * c.shards() as u64))
            .sum()
    }
}

fn topological_order(n: usize, edges: &[DataEdge]) -> Option<Vec<CompId>> {
    let mut indegree = vec![0usize; n];
    for e in edges {
        indegree[e.dst.index()] += 1;
    }
    let mut queue: std::collections::VecDeque<usize> =
        (0..n).filter(|i| indegree[*i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop_front() {
        order.push(CompId(i as u32));
        for e in edges.iter().filter(|e| e.src.index() == i) {
            indegree[e.dst.index()] -= 1;
            if indegree[e.dst.index()] == 0 {
                queue.push_back(e.dst.index());
            }
        }
    }
    (order.len() == n).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::VirtualSlice;

    fn slice(devs: &[u32]) -> VirtualSlice {
        VirtualSlice::for_tests(devs.iter().map(|d| DeviceId(*d)).collect())
    }

    fn spec(name: &str) -> FnSpec {
        FnSpec::compute_only(name, SimDuration::from_micros(10))
    }

    #[test]
    fn slices_and_kernels_format_with_debug() {
        // A slice's Debug takes its mapping lock once; taking it twice in
        // one expression panicked as a re-entrant lock, and so did the
        // derived Debug of every kernel computation holding the slice.
        let s = slice(&[3, 4]);
        let text = format!("{s:?}");
        assert!(
            text.contains("devices: 2") && text.contains("generation: 0"),
            "{text}"
        );
        let mut b = ProgramBuilder::new("p");
        b.computation(spec("a"), &s);
        let kernel = format!("{:?}", b.build().unwrap().computations()[0]);
        assert!(
            kernel.starts_with("Kernel {") && kernel.contains("devices: 2"),
            "{kernel}"
        );
    }

    #[test]
    fn builder_produces_topo_order() {
        let mut b = ProgramBuilder::new("p");
        let s = slice(&[0, 1]);
        let a = b.computation(spec("a"), &s);
        let c = b.computation(spec("c"), &s);
        let bb = b.computation(spec("b"), &s);
        b.edge(a, bb, 8);
        b.edge(bb, c, 8);
        let p = b.build().unwrap();
        assert_eq!(p.topo_order(), &[a, bb, c]);
        assert_eq!(p.sinks(), vec![c]);
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = ProgramBuilder::new("p");
        let s = slice(&[0]);
        let a = b.computation(spec("a"), &s);
        let c = b.computation(spec("b"), &s);
        b.edge(a, c, 8);
        b.edge(c, a, 8);
        assert_eq!(b.build().unwrap_err(), ProgramError::Cyclic);
    }

    #[test]
    fn one_to_one_requires_equal_shards() {
        let mut b = ProgramBuilder::new("p");
        let a = b.computation(spec("a"), &slice(&[0, 1]));
        let c = b.computation(spec("b"), &slice(&[2]));
        b.edge(a, c, 8);
        assert!(matches!(
            b.build(),
            Err(ProgramError::ShardCountMismatch { .. })
        ));
    }

    #[test]
    fn reshard_edge_allows_different_shards() {
        let mut b = ProgramBuilder::new("p");
        let a = b.computation(spec("a"), &slice(&[0, 1]));
        let c = b.computation(spec("b"), &slice(&[2]));
        b.reshard_edge(a, c, 8);
        assert!(b.build().is_ok());
    }

    #[test]
    fn empty_program_is_rejected() {
        assert_eq!(
            ProgramBuilder::new("p").build().unwrap_err(),
            ProgramError::Empty
        );
    }

    #[test]
    fn unknown_computation_is_rejected() {
        let mut b = ProgramBuilder::new("p");
        let a = b.computation(spec("a"), &slice(&[0]));
        b.edge(a, CompId(9), 8);
        assert_eq!(
            b.build().unwrap_err(),
            ProgramError::UnknownComputation { comp: CompId(9) }
        );
    }

    #[test]
    fn input_node_feeds_kernels_and_is_not_a_sink() {
        let mut b = ProgramBuilder::new("p");
        let x = b.input(InputSpec::new("x", 2));
        let k = b.computation(spec("k"), &slice(&[0, 1]));
        b.edge(x, k, 64);
        let p = b.build().unwrap();
        assert!(p.computations()[x.index()].is_input());
        assert_eq!(p.computations()[x.index()].shards(), 2);
        assert_eq!(p.inputs(), vec![x]);
        assert_eq!(p.sinks(), vec![k]);
        assert!(p.physical_devices(x).is_empty());
        // Inputs contribute no device time.
        assert_eq!(
            p.estimated_device_time(),
            SimDuration::from_micros(10) * 2u64
        );
    }

    #[test]
    fn input_with_in_edge_is_rejected() {
        let mut b = ProgramBuilder::new("p");
        let k = b.computation(spec("k"), &slice(&[0]));
        let x = b.input(InputSpec::new("x", 1));
        b.edge(x, k, 8);
        b.edge(k, x, 8);
        assert_eq!(
            b.build().unwrap_err(),
            ProgramError::InputHasInEdge { comp: x }
        );
    }

    #[test]
    fn unused_input_is_rejected() {
        let mut b = ProgramBuilder::new("p");
        b.computation(spec("k"), &slice(&[0]));
        let x = b.input(InputSpec::new("x", 1));
        assert_eq!(
            b.build().unwrap_err(),
            ProgramError::UnusedInput { comp: x }
        );
    }

    #[test]
    fn inputs_only_program_is_rejected() {
        let mut b = ProgramBuilder::new("p");
        b.input(InputSpec::new("x", 1));
        assert_eq!(b.build().unwrap_err(), ProgramError::NoKernels);
    }

    #[test]
    fn one_to_one_from_input_checks_shard_counts() {
        let mut b = ProgramBuilder::new("p");
        let x = b.input(InputSpec::new("x", 4));
        let k = b.computation(spec("k"), &slice(&[0]));
        b.edge(x, k, 8);
        assert!(matches!(
            b.build(),
            Err(ProgramError::ShardCountMismatch { .. })
        ));
    }

    #[test]
    fn fn_spec_builders() {
        let s = FnSpec::compute_only("f", SimDuration::from_millis(1))
            .with_allreduce(4)
            .with_output_bytes(128)
            .with_collective_time(SimDuration::from_micros(7));
        assert_eq!(s.collective, Some((CollectiveKind::AllReduce, 4)));
        assert_eq!(s.output_bytes_per_shard, 128);
        assert_eq!(
            s.collective_time_override,
            Some(SimDuration::from_micros(7))
        );
    }
}
