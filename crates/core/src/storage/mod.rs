//! The storage engine: a layered replacement for the old monolithic
//! `store.rs` / `tier.rs` / `recover.rs` trio.
//!
//! Layers, bottom-up:
//!
//! - [`index`] — the **object index**: refcounted logical buffers keyed
//!   by [`ObjectId`], per-shard readiness events, owner-tagged GC,
//!   failure records, and the ordered residency sets, one per `Place`
//!   (a device's HBM, a host's DRAM), that victim selection reads and
//!   the fault injector's loss walk reads when that place dies. Owns
//!   the [`ObjectStore`] facade every other layer hangs methods off.
//! - [`tiers`] — one byte ledger per tier: HBM (device-resident,
//!   lease-backed), host DRAM (per-host ledgers), and disk modeled as an
//!   **append-only segment store** with extent accounting (live/dead
//!   bytes per segment, sealed segments reclaimed when their last live
//!   extent dies). Also the spill/demote machinery, which spills into
//!   the pressured device's own host, and the conservation auditor
//!   `tiers_conserved`.
//! - [`checkpoint`] — the **checkpoint engine**: incremental *delta*
//!   checkpoints (only shards dirtied since the last durable epoch are
//!   persisted, one disk extent per epoch), the restore-set computation
//!   (newest durable copy per shard), and keep-last-K GC that never
//!   collects an epoch a live restore could need.
//! - [`recovery`] — **chain recovery**, always on for a tiered store:
//!   the `RecoveryManager` absorbs loss of whole *sets* of objects
//!   through one gate (shards lost in a `Place`, or an in-flight
//!   production), dedupes shared upstream producers, walks the lineage
//!   DAG in topological order, tries restore and recompute per node in
//!   modeled-cost order, and installs either result into DRAM through
//!   one loop (restores into the first live host's DRAM).
//!
//! Everything below the `ObjectStore` facade is crate-private; the
//! public surface re-exported here is what `lib.rs` exposes.

pub(crate) mod checkpoint;
pub(crate) mod index;
pub(crate) mod recovery;
pub(crate) mod tiers;

pub use index::{FailureReason, ObjectError, ObjectId, ObjectStore, StoreError, StoredShard};
pub use recovery::RecoveryStats;
pub use tiers::{SegmentStats, SpillEvent, Tier, TierConfig, TierStats};

pub(crate) use index::Place;
pub(crate) use recovery::{LineageRecord, RecoveryManager};

/// Shared constructors for the storage-layer unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::Arc;

    use pathways_device::{CollectiveRendezvous, DeviceConfig, DeviceHandle};
    use pathways_net::{ClusterSpec, DeviceId};
    use pathways_sim::Sim;

    use pathways_plaque::RunId;

    use crate::program::CompId;

    use super::index::{ObjectId, ObjectStore};
    use super::tiers::TierConfig;

    pub(crate) fn obj(run: u64, comp: u32) -> ObjectId {
        ObjectId {
            run: RunId(run),
            comp: CompId(comp),
        }
    }

    pub(crate) fn device(sim: &Sim, id: u32, hbm: u64) -> DeviceHandle {
        DeviceHandle::spawn(
            &sim.handle(),
            DeviceId(id),
            CollectiveRendezvous::new(sim.handle()),
            DeviceConfig { hbm_capacity: hbm },
        )
    }

    pub(crate) fn tiered_with(sim: &Sim, cfg: TierConfig) -> ObjectStore {
        let topo = Arc::new(ClusterSpec::single_island(2, 4).build());
        ObjectStore::with_tiers(sim.handle(), topo, cfg)
    }

    pub(crate) fn tiered(sim: &Sim) -> ObjectStore {
        tiered_with(sim, TierConfig::default())
    }
}
