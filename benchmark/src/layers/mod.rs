//! One file per layer of the system under test. Every call the
//! benchmark makes into `pathways::<crate>` lives in the file named
//! after that layer, so an API rename there costs one file here. Each
//! file holds three things:
//!
//! * thin wrappers the workloads call (recording a boundary span when
//!   the run is traced),
//! * `counters`: the layer's public counters, read around a timed rep,
//! * `probe`: the layer's public functions called in isolation on a
//!   fresh instance, at the sizes of the workload being traced.

pub mod baselines;
pub mod core_client;
pub mod core_resource;
pub mod core_sched;
pub mod core_storage;
pub mod device;
pub mod models;
pub mod net;
pub mod plaque;
pub mod sim;

/// Layer names, as they prefix metric names and tag spans.
pub const SIM: &str = "sim";
pub const NET: &str = "net";
pub const DEVICE: &str = "device";
pub const PLAQUE: &str = "plaque";
pub const CLIENT: &str = "core.client";
pub const SCHED: &str = "core.sched";
pub const RESOURCE: &str = "core.resource";
pub const STORAGE: &str = "core.storage";
pub const MODELS: &str = "models";
pub const BASELINES: &str = "baselines";

/// The sizes a workload runs at; probes are taken at these so a probe
/// number means "this layer, at this workload's scale".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub islands: u32,
    pub hosts_per_island: u32,
    pub devices_per_host: u32,
    /// Devices one computation gangs over.
    pub gang: u32,
    /// Computations per program (nodes of the lowered graph, roughly).
    pub comps: u32,
    /// Reshard (all-to-all) edges per program.
    pub reshard_edges: u32,
    /// Programs waiting at one scheduler at a time.
    pub queue_depth: u32,
    /// Bytes per shard a program moves or stores.
    pub shard_bytes: u64,
}

impl Shape {
    pub fn hosts(&self) -> u32 {
        self.islands * self.hosts_per_island
    }

    pub fn devices(&self) -> u32 {
        self.hosts() * self.devices_per_host
    }

    /// Hosts one gang spans.
    pub fn gang_hosts(&self) -> u32 {
        self.gang.div_ceil(self.devices_per_host).max(1)
    }
}

/// A named number: a counter reading or a probe result.
pub type Named = (&'static str, f64);
