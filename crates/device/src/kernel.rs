//! Compiled-function kernel descriptors.
//!
//! §3 and Appendix B of the paper define a "compiled function" as a
//! computation whose input/output types, shapes, loop bounds and hence
//! *resource requirements are known in advance*. That static knowledge is
//! what enables parallel asynchronous dispatch (§4.5). A [`Kernel`] is
//! the executable form of one shard of a compiled function: a compute
//! duration, an optional gang collective, and declared memory traffic.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use pathways_net::{CollectiveKind, DeviceId};
use pathways_sim::SimDuration;

/// Unique tag identifying one *instance* of a gang collective: every
/// participant enqueues a kernel carrying the same tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GangTag(pub u64);

impl std::fmt::Display for GangTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gang{}", self.0)
    }
}

/// A collective embedded in a kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveOp {
    /// Which collective pattern.
    pub kind: CollectiveKind,
    /// Instance tag; all participants must agree.
    pub tag: GangTag,
    /// Number of participating devices.
    pub participants: u32,
    /// Wire time of the collective (precomputed from the fabric's cost
    /// model by the code constructing the kernel).
    pub duration: SimDuration,
    /// The gang's device membership, when the enqueueing control plane
    /// knows it (the scheduler's grant carries the full list). Used by
    /// the rendezvous to abort gangs that include a dead device instead
    /// of blocking forever. An empty list opts out of failure detection.
    /// Shared: every kernel of the gang points at the one list lowering
    /// built, so a 2048-wide step does not hold 2048 copies of it.
    pub devices: Arc<[DeviceId]>,
}

/// One shard of a compiled function, ready to enqueue on a device.
///
/// Execution order within a kernel: wait for inputs, run the collective
/// (if any), then compute for `compute` — matching a fused XLA program
/// that starts with a cross-replica sum (the paper's micro-benchmark
/// computation is "a single scalar AllReduce followed by a scalar
/// addition").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// Human-readable label; first character is used in trace renderings.
    pub label: Arc<str>,
    /// Pure compute time on the device.
    pub compute: SimDuration,
    /// Optional gang collective executed before the compute phase.
    pub collective: Option<CollectiveOp>,
    /// Bytes of HBM the kernel's outputs occupy (informational; actual
    /// reservation is done by the object store before enqueue).
    pub output_bytes: u64,
}

impl Kernel {
    /// A pure-compute kernel.
    pub fn compute(label: impl Into<Arc<str>>, compute: SimDuration) -> Self {
        Kernel {
            label: label.into(),
            compute,
            collective: None,
            output_bytes: 0,
        }
    }

    /// Adds a collective phase (builder style).
    #[must_use]
    pub fn with_collective(mut self, op: CollectiveOp) -> Self {
        self.collective = Some(op);
        self
    }

    /// Sets declared output bytes (builder style).
    #[must_use]
    pub fn with_output_bytes(mut self, bytes: u64) -> Self {
        self.output_bytes = bytes;
        self
    }

    /// Lower bound on device occupancy (compute + collective wire time);
    /// actual occupancy can be longer if the gang has to wait for
    /// stragglers.
    pub fn min_duration(&self) -> SimDuration {
        self.compute
            + self
                .collective
                .as_ref()
                .map_or(SimDuration::ZERO, |c| c.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let k = Kernel::compute("fwd", SimDuration::from_micros(100))
            .with_collective(CollectiveOp {
                kind: CollectiveKind::AllReduce,
                tag: GangTag(7),
                participants: 8,
                duration: SimDuration::from_micros(20),
                devices: [].into(),
            })
            .with_output_bytes(1024);
        assert_eq!(k.min_duration(), SimDuration::from_micros(120));
        assert_eq!(k.output_bytes, 1024);
        assert_eq!(k.collective.as_ref().unwrap().tag, GangTag(7));
    }

    #[test]
    fn pure_compute_min_duration() {
        let k = Kernel::compute("x", SimDuration::from_millis(1));
        assert_eq!(k.min_duration(), SimDuration::from_millis(1));
        assert!(k.collective.is_none());
    }
}
