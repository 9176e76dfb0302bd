//! # pathways-plaque
//!
//! An open re-implementation of the coordination substrate the paper
//! calls PLAQUE (§4.3) — a production sharded dataflow system that is
//! closed source. The paper states the exact requirements Pathways
//! places on it, and this crate implements each one:
//!
//! 1. **Compact sharded representation** — one graph node per sharded
//!    computation, so `Arg → A → B → Result` is 4 nodes and 3 edges no
//!    matter how many shards `A` and `B` have ([`GraphBuilder`]).
//! 2. **Tagged data tuples** — each node emits tuples tagged with a
//!    destination shard ([`Tuple`], [`ShardCtx::send`]).
//! 3. **Sparse exchanges with progress tracking** — counted punctuations
//!    close edges even when a dynamically-chosen subset of shards
//!    communicates ([`ProgressTracker`]).
//! 4. **Low latency and batching** — buffered callback outputs are
//!    coalesced into one DCN message per destination host, while
//!    [`Emitter`] sends immediately for critical-path messages.
//!
//! ## Example: sharded map-reduce in 4 logical nodes
//!
//! ```
//! use std::sync::Arc;
//! use pathways_net::{ClusterSpec, Fabric, HostId, NetworkParams};
//! use pathways_plaque::{GraphBuilder, NullOperator, PlaqueRuntime};
//! use pathways_sim::Sim;
//!
//! let mut sim = Sim::new(0);
//! let fabric = Fabric::new(
//!     sim.handle(),
//!     Arc::new(ClusterSpec::config_b(4).build()),
//!     NetworkParams::tpu_cluster(),
//! );
//! let runtime = PlaqueRuntime::new(fabric);
//! let mut g = GraphBuilder::new("noop");
//! g.node("only", vec![HostId(0), HostId(1)], |_| Box::new(NullOperator));
//! let graph = g.build()?;
//! let run = runtime.launch(&graph, HostId(0));
//! let done = sim.spawn("client", async move { run.await_done().await });
//! sim.run_to_quiescence();
//! assert!(done.is_finished());
//! # Ok::<(), pathways_plaque::GraphError>(())
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod graph;
mod operator;
mod progress;
mod runtime;
mod tuple;

pub use graph::{EdgeId, EdgeMapping, Graph, GraphBuilder, GraphError, NodeId, OperatorFactory};
pub use operator::{Emitter, NullOperator, Operator, ShardCtx};
pub use progress::ProgressTracker;
pub use runtime::{PlaqueMsg, PlaqueRuntime, RunHandle, RunId, RuntimeShared};
pub use tuple::{Payload, Tuple};
