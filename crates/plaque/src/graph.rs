//! Sharded dataflow graphs.
//!
//! §4.3: *"the representation used to describe the PATHWAYS IR must
//! contain a single node for each sharded computation ... a chained
//! execution of 2 computations A and B with N computation shards each
//! should have 4 nodes in the dataflow representation: Arg → Compute(A) →
//! Compute(B) → Result, regardless of the choice of N."*
//!
//! A [`Graph`] therefore stores one [`NodeId`] per *logical* computation;
//! the shard count and per-shard host placement are node attributes, not
//! extra nodes. Tests assert the representation stays O(nodes + edges)
//! as shard counts grow.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use pathways_net::HostId;

use crate::operator::Operator;

/// Index of a logical (sharded) node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Index of a logical edge in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "edge{}", self.0)
    }
}

/// Factory producing the operator instance for one shard of a node.
pub type OperatorFactory = Arc<dyn Fn(u32) -> Box<dyn Operator> + Send + Sync>;

pub(crate) struct NodeInfo {
    pub placement: Vec<HostId>,
    pub factory: OperatorFactory,
    pub in_edges: Vec<EdgeId>,
    pub out_edges: Vec<EdgeId>,
}

impl NodeInfo {
    pub fn shards(&self) -> u32 {
        self.placement.len() as u32
    }
}

/// How the shards of an edge's endpoints may communicate. Declaring a
/// restricted mapping lets the runtime skip punctuations to destinations
/// a shard could never address, keeping progress-tracking traffic O(1)
/// per shard instead of O(dst shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeMapping {
    /// Any source shard may send to any destination shard.
    AllToAll,
    /// Source shard `i` may only send to destination shard `i`
    /// (requires equal shard counts).
    OneToOne,
}

pub(crate) struct EdgeInfo {
    pub src: NodeId,
    pub dst: NodeId,
    pub mapping: EdgeMapping,
}

/// Errors from graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node was declared with no shards.
    EmptyPlacement {
        /// Offending node name.
        node: String,
    },
    /// An edge referenced a node id not in the graph.
    UnknownNode {
        /// The dangling id.
        node: NodeId,
    },
    /// An edge connects a node to itself.
    SelfLoop {
        /// The node with the self-edge.
        node: NodeId,
    },
    /// A one-to-one edge connects nodes with different shard counts.
    MappingShardMismatch {
        /// The offending edge.
        edge: EdgeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EmptyPlacement { node } => {
                write!(f, "node {node:?} has an empty placement")
            }
            GraphError::UnknownNode { node } => write!(f, "edge references unknown {node}"),
            GraphError::SelfLoop { node } => write!(f, "self-loop on {node}"),
            GraphError::MappingShardMismatch { edge } => {
                write!(f, "one-to-one {edge} connects different shard counts")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Builder for [`Graph`].
pub struct GraphBuilder {
    name: String,
    nodes: Vec<NodeInfo>,
    edges: Vec<EdgeInfo>,
    error: Option<GraphError>,
}

impl fmt::Debug for GraphBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraphBuilder")
            .field("name", &self.name)
            .field("nodes", &self.nodes.len())
            .field("edges", &self.edges.len())
            .finish()
    }
}

impl GraphBuilder {
    /// Starts a new graph named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            error: None,
        }
    }

    /// Adds a sharded node: one operator instance per entry of
    /// `placement`, running on that host. The factory is invoked with the
    /// shard index at launch time.
    pub fn node(
        &mut self,
        name: impl Into<String>,
        placement: Vec<HostId>,
        factory: impl Fn(u32) -> Box<dyn Operator> + Send + Sync + 'static,
    ) -> NodeId {
        if placement.is_empty() && self.error.is_none() {
            self.error = Some(GraphError::EmptyPlacement { node: name.into() });
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeInfo {
            placement,
            factory: Arc::new(factory),
            in_edges: Vec::new(),
            out_edges: Vec::new(),
        });
        id
    }

    /// Adds a logical edge from `src` to `dst`. Tuples sent on the edge
    /// are tagged with a destination shard; the representation stays one
    /// edge regardless of the shard counts of either endpoint.
    pub fn edge(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        self.edge_with_mapping(src, dst, EdgeMapping::AllToAll)
    }

    /// Adds an edge on which shard `i` only communicates with shard `i`.
    pub fn one_to_one_edge(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        self.edge_with_mapping(src, dst, EdgeMapping::OneToOne)
    }

    /// Adds an edge with an explicit shard mapping.
    pub fn edge_with_mapping(&mut self, src: NodeId, dst: NodeId, mapping: EdgeMapping) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        if self.error.is_none() {
            let n = self.nodes.len() as u32;
            if src.0 >= n {
                self.error = Some(GraphError::UnknownNode { node: src });
            } else if dst.0 >= n {
                self.error = Some(GraphError::UnknownNode { node: dst });
            } else if src == dst {
                self.error = Some(GraphError::SelfLoop { node: src });
            } else if mapping == EdgeMapping::OneToOne
                && self.nodes[src.index()].shards() != self.nodes[dst.index()].shards()
            {
                self.error = Some(GraphError::MappingShardMismatch { edge: id });
            }
        }
        if self.error.is_none() {
            self.nodes[src.index()].out_edges.push(id);
            self.nodes[dst.index()].in_edges.push(id);
        }
        self.edges.push(EdgeInfo { src, dst, mapping });
        id
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns the first structural error recorded during building.
    pub fn build(self) -> Result<Graph, GraphError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(Graph {
            inner: Arc::new(GraphInner {
                name: self.name,
                nodes: self.nodes,
                edges: self.edges,
            }),
        })
    }
}

pub(crate) struct GraphInner {
    pub name: String,
    pub nodes: Vec<NodeInfo>,
    pub edges: Vec<EdgeInfo>,
}

/// An immutable, cheaply-cloneable sharded dataflow graph.
#[derive(Clone)]
pub struct Graph {
    pub(crate) inner: Arc<GraphInner>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("name", &self.inner.name)
            .field("nodes", &self.num_nodes())
            .field("edges", &self.num_edges())
            .finish()
    }
}

impl NodeId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl Graph {
    /// Graph name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of logical nodes — independent of shard counts.
    pub fn num_nodes(&self) -> usize {
        self.inner.nodes.len()
    }

    /// Number of logical edges — independent of shard counts.
    pub fn num_edges(&self) -> usize {
        self.inner.edges.len()
    }

    /// Shard count of `node`.
    pub fn shards(&self, node: NodeId) -> u32 {
        self.inner.nodes[node.index()].shards()
    }

    /// Host placement of `node` (one entry per shard).
    pub fn placement(&self, node: NodeId) -> &[HostId] {
        &self.inner.nodes[node.index()].placement
    }

    /// Endpoints of `edge`.
    pub fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let e = &self.inner.edges[edge.index()];
        (e.src, e.dst)
    }

    /// Destination shards a given source shard may address on `edge`.
    pub fn reachable_dst_shards(&self, edge: EdgeId, src_shard: u32) -> Range<u32> {
        let e = &self.inner.edges[edge.index()];
        match e.mapping {
            EdgeMapping::AllToAll => 0..self.shards(e.dst),
            EdgeMapping::OneToOne => src_shard..src_shard + 1,
        }
    }

    /// Number of source shards that may address a destination shard on
    /// `edge` (the punctuation count progress tracking must await).
    pub fn expected_srcs(&self, edge: EdgeId, _dst_shard: u32) -> u32 {
        let e = &self.inner.edges[edge.index()];
        match e.mapping {
            EdgeMapping::AllToAll => self.shards(e.src),
            EdgeMapping::OneToOne => 1,
        }
    }

    /// In-edges of `node`.
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.inner.nodes[node.index()].in_edges
    }

    /// Out-edges of `node`.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.inner.nodes[node.index()].out_edges
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.inner.nodes.len() as u32).map(NodeId)
    }

    /// Hosts that hold at least one shard of the graph.
    pub fn participating_hosts(&self) -> Vec<HostId> {
        let mut hosts: Vec<HostId> = self
            .inner
            .nodes
            .iter()
            .flat_map(|n| n.placement.iter().copied())
            .collect();
        hosts.sort();
        hosts.dedup();
        hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::NullOperator;

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    #[test]
    fn representation_is_independent_of_shard_count() {
        // The §4.3 requirement: Arg -> A -> B -> Result is 4 nodes and 3
        // edges whether N is 1 or 1000.
        for n in [1u32, 8, 1000] {
            let mut g = GraphBuilder::new("chain");
            let arg = g.node("Arg", hosts(1), |_| Box::new(NullOperator));
            let a = g.node("A", hosts(n), |_| Box::new(NullOperator));
            let b = g.node("B", hosts(n), |_| Box::new(NullOperator));
            let result = g.node("Result", hosts(1), |_| Box::new(NullOperator));
            g.edge(arg, a);
            g.edge(a, b);
            g.edge(b, result);
            let graph = g.build().unwrap();
            assert_eq!(graph.num_nodes(), 4);
            assert_eq!(graph.num_edges(), 3);
            assert_eq!(graph.shards(a), n);
        }
    }

    #[test]
    fn adjacency_is_recorded() {
        let mut g = GraphBuilder::new("g");
        let a = g.node("A", hosts(2), |_| Box::new(NullOperator));
        let b = g.node("B", hosts(2), |_| Box::new(NullOperator));
        let c = g.node("C", hosts(2), |_| Box::new(NullOperator));
        let e1 = g.edge(a, b);
        let e2 = g.edge(a, c);
        let graph = g.build().unwrap();
        assert_eq!(graph.out_edges(a), &[e1, e2]);
        assert_eq!(graph.in_edges(b), &[e1]);
        assert_eq!(graph.edge_endpoints(e2), (a, c));
    }

    #[test]
    fn empty_placement_is_rejected() {
        let mut g = GraphBuilder::new("g");
        g.node("bad", vec![], |_| Box::new(NullOperator));
        assert!(matches!(g.build(), Err(GraphError::EmptyPlacement { .. })));
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut g = GraphBuilder::new("g");
        let a = g.node("A", hosts(1), |_| Box::new(NullOperator));
        g.edge(a, a);
        assert_eq!(g.build().unwrap_err(), GraphError::SelfLoop { node: a });
    }

    #[test]
    fn participating_hosts_dedup() {
        let mut g = GraphBuilder::new("g");
        let a = g.node("A", vec![HostId(3), HostId(1)], |_| Box::new(NullOperator));
        let b = g.node("B", vec![HostId(1), HostId(2)], |_| Box::new(NullOperator));
        g.edge(a, b);
        let graph = g.build().unwrap();
        assert_eq!(
            graph.participating_hosts(),
            vec![HostId(1), HostId(2), HostId(3)]
        );
    }
}
