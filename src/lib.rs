//! # pathways
//!
//! A from-scratch Rust reproduction of **Pathways: Asynchronous
//! Distributed Dataflow for ML** (Barham et al., MLSys 2022): a
//! single-controller, gang-scheduled, asynchronously-dispatched runtime
//! for ML accelerators, together with every substrate it depends on and
//! the baselines it is evaluated against — all running on a
//! deterministic virtual-time simulation of a TPU-like cluster.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`sim`] — deterministic virtual-time async executor;
//! * [`net`] — cluster topology and PCIe/ICI/DCN interconnect models;
//! * [`device`] — simulated accelerators (in-order non-preemptible
//!   queues, HBM, gang collectives);
//! * [`plaque`] — the sharded-dataflow coordination substrate;
//! * [`core`] — the Pathways runtime itself (resource manager, client,
//!   schedulers, executors, object store);
//! * [`baselines`] — JAX-like, TF1-like and Ray-like comparators;
//! * [`models`] — Transformer workloads and cost models.
//!
//! See `examples/` for runnable end-to-end scenarios, and
//! `cargo run --release -p pathways-bench -- list` for the figures that
//! regenerate every table and figure of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use pathways::core::{FnSpec, PathwaysConfig, PathwaysRuntime, SliceRequest};
//! use pathways::net::{ClusterSpec, HostId, NetworkParams};
//! use pathways::sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(0);
//! let rt = PathwaysRuntime::new(
//!     &sim,
//!     ClusterSpec::config_b(2),
//!     NetworkParams::tpu_cluster(),
//!     PathwaysConfig::default(),
//! );
//! let client = rt.client(HostId(0));
//! let slice = client.virtual_slice(SliceRequest::devices(16))?;
//! let mut b = client.trace("train");
//! b.computation(
//!     FnSpec::compute_only("step", SimDuration::from_millis(1)).with_allreduce(4),
//!     &slice,
//! );
//! let program = b.build()?;
//! let prepared = client.prepare(&program);
//! let job = sim.spawn("client", async move { client.run(&prepared).await });
//! sim.run_to_quiescence();
//! assert!(job.is_finished());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use pathways_baselines as baselines;
pub use pathways_core as core;
pub use pathways_device as device;
pub use pathways_models as models;
pub use pathways_net as net;
pub use pathways_plaque as plaque;
pub use pathways_sim as sim;
