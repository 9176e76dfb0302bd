//! # pathways-models
//!
//! The §5.3 evaluation workloads of the Pathways paper: the T5
//! encoder-decoder family (Table 1), the 3B/64B/136B decoder-only LMs
//! (Table 2, Figures 10 and 12), an analytic TPU cost model, and
//! builders that lower SPMD, GPipe-pipelined and two-island
//! data-parallel training steps onto Pathways programs.
//!
//! ## Example
//!
//! ```
//! use pathways_models::{spmd_program, TrainSetup, TransformerConfig};
//! use pathways_core::{PathwaysConfig, PathwaysRuntime, SliceRequest};
//! use pathways_net::{ClusterSpec, HostId, NetworkParams};
//! use pathways_sim::Sim;
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
//! let setup = TrainSetup::new(TransformerConfig::t5_base(), 1 << 20);
//! let program = spmd_program(&client, &slice, &setup);
//! let prepared = client.prepare(&program);
//! sim.spawn("train", async move {
//!     client.run(&prepared).await;
//! });
//! sim.run_to_quiescence();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

mod calibration;
mod transformer;
mod workloads;

pub use calibration::Calibration;
pub use transformer::{Arch, TransformerConfig};
pub use workloads::{
    chain_program, gang_program, gpipe_program, measure_tokens_per_sec_chained, run_serial,
    spawn_windowed, spmd_chained, spmd_program, two_island_chained,
    two_island_data_parallel_program, StepChain, TrainSetup,
};
