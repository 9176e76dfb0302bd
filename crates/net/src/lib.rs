//! # pathways-net
//!
//! Cluster topology and interconnect models for the Pathways
//! reproduction: islands of hosts with locally attached accelerator
//! devices, joined by three interconnects with very different
//! characteristics (§2 and Appendix A of the paper):
//!
//! * **PCIe** — host to local device; low latency, the multi-controller
//!   dispatch path;
//! * **ICI** — the per-island device mesh; high bandwidth, used by
//!   collectives and inter-device transfers without host involvement;
//! * **DCN** — the datacenter network between hosts; roughly an order of
//!   magnitude slower than PCIe, the single-controller dispatch path.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use pathways_net::{ClusterSpec, Fabric, HostId, NetworkParams};
//! use pathways_sim::Sim;
//!
//! let mut sim = Sim::new(0);
//! let topo = Arc::new(ClusterSpec::config_b(4).build());
//! let fabric = Fabric::new(sim.handle(), topo, NetworkParams::tpu_cluster());
//! sim.spawn("xfer", async move {
//!     fabric.dcn_send(HostId(0), HostId(3), 1 << 20).await;
//! });
//! sim.run_to_quiescence();
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collective;
mod fabric;
mod ids;
mod link;
mod params;
pub mod router;
mod topology;

pub use collective::CollectiveKind;
pub use fabric::Fabric;
pub use ids::{ClientId, DeviceId, HostId, IslandId, TorusCoord};
pub use link::FifoLink;
pub use params::{Bandwidth, NetworkParams};
pub use pathways_sim::hash::{FxHashMap, FxHashSet};
pub use router::{Envelope, Router};
pub use topology::{ClusterSpec, IslandSpec, Topology};
