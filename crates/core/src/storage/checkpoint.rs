//! The checkpoint engine: incremental (delta) checkpoints with a
//! keep-last-K GC policy.
//!
//! A checkpoint of an object is not one monolithic disk copy but a
//! *chain* of epochs. Each epoch persists exactly the shards dirty
//! since the previous durable epoch — fresh productions and recomputes
//! dirty their shards, restores and commits clean them — so steady
//! state pays delta-sized disk writes instead of whole-object copies.
//! A restore reads the **restore set**: the newest durable copy of
//! every shard, drawn from however many epochs that takes (each touched
//! epoch costs one disk latency; the bytes stream at DRAM↔disk
//! bandwidth).
//!
//! Epochs are garbage-collected with a keep-last-K policy
//! ([`TierConfig::checkpoint_keep`](super::tiers::TierConfig)): after
//! every commit, epochs older than the last K are reclaimed **unless**
//! they still contribute a shard to the restore set. Retaining the
//! union of {last K} ∪ {restore set} makes the policy restore-safe *by
//! construction* — the epochs a restore walks are precisely the restore
//! set's, and those are never collected (property-tested below against
//! a shadow model). Reclaimed epochs uncharge their disk extents, which
//! is what lets sealed segments of the append-only disk be reclaimed
//! whole.

use pathways_net::FxHashSet;
use pathways_sim::{SimDuration, SimTime};

use super::index::{ObjectId, ObjectStore};
use super::tiers::{
    transfer_time, xfer_time, DiskBackend, ExtentRef, Tier, DISK_LATENCY, DRAM_DISK_BW,
};

/// One durable checkpoint epoch: the dirty shards it persisted, and the
/// disk extent holding their bytes.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointEpoch {
    /// Monotonic epoch number within the object's chain.
    pub(crate) epoch: u64,
    /// `(shard, bytes)` persisted by this epoch, ascending shard order.
    pub(crate) shards: Vec<(u32, u64)>,
    /// Total bytes of the epoch's extent.
    pub(crate) total: u64,
    /// Where the bytes live in the segmented disk.
    pub(crate) extent: ExtentRef,
}

/// An object's delta-checkpoint chain, oldest epoch first.
#[derive(Debug, Clone, Default)]
pub(crate) struct CheckpointChain {
    pub(crate) epochs: Vec<CheckpointEpoch>,
    pub(crate) next_epoch: u64,
}

impl CheckpointChain {
    pub(crate) fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Total disk bytes the chain currently charges.
    pub(crate) fn total(&self) -> u64 {
        self.epochs.iter().map(|e| e.total).sum()
    }

    /// Commits a new epoch persisting `shards` (already sorted), charging
    /// its extent on `disk`. Returns the epoch's byte total.
    pub(crate) fn commit(&mut self, shards: Vec<(u32, u64)>, disk: &mut DiskBackend) -> u64 {
        let total: u64 = shards.iter().map(|(_, b)| *b).sum();
        let extent = disk.charge(total);
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.epochs.push(CheckpointEpoch {
            epoch,
            shards,
            total,
            extent,
        });
        total
    }

    /// The restore set: the newest durable copy of every checkpointed
    /// shard, ascending shard order.
    pub(crate) fn restore_set(&self) -> Vec<(u32, u64)> {
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut set: Vec<(u32, u64)> = Vec::new();
        for epoch in self.epochs.iter().rev() {
            for (shard, bytes) in &epoch.shards {
                if seen.insert(*shard) {
                    set.push((*shard, *bytes));
                }
            }
        }
        set.sort_unstable();
        set
    }

    /// Epoch numbers that contribute at least one shard to the restore
    /// set — the epochs a restore must read, and the epochs GC must
    /// never collect.
    pub(crate) fn reachable_epochs(&self) -> FxHashSet<u64> {
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut reachable: FxHashSet<u64> = FxHashSet::default();
        for epoch in self.epochs.iter().rev() {
            for (shard, _) in &epoch.shards {
                if seen.insert(*shard) {
                    reachable.insert(epoch.epoch);
                }
            }
        }
        reachable
    }

    /// Keep-last-K GC: reclaims epochs older than the last `keep`
    /// unless they are restore-reachable, uncharging their extents.
    /// Restore-safe by construction: the retained set is
    /// {last K} ∪ {restore set}.
    pub(crate) fn gc(&mut self, keep: u32, disk: &mut DiskBackend) {
        let n = self.epochs.len();
        let keep = keep as usize;
        if n <= keep {
            return;
        }
        let reachable = self.reachable_epochs();
        let cutoff = n - keep;
        let mut kept = Vec::with_capacity(keep + 1);
        for (i, e) in std::mem::take(&mut self.epochs).into_iter().enumerate() {
            if i >= cutoff || reachable.contains(&e.epoch) {
                kept.push(e);
            } else {
                disk.uncharge(e.extent);
            }
        }
        self.epochs = kept;
    }
}

// ---------------------------------------------------------------------
// ObjectStore: checkpoint scheduling, commit, and restore planning
// ---------------------------------------------------------------------

impl ObjectStore {
    /// Schedules the disk checkpoint of `id` at the next multiple of the
    /// configured interval — scripted on the timer wheel, so checkpoint
    /// instants are part of the deterministic schedule. One-shot: the
    /// task validates, copies, commits and exits (no perpetual timer, so
    /// the simulation still quiesces).
    pub(crate) fn spawn_checkpoint(&self, id: ObjectId) {
        let Some(env) = self.env.clone() else {
            return;
        };
        let Some(interval) = env.cfg.checkpoint_interval else {
            return;
        };
        let iv = interval.as_nanos().max(1);
        let store = self.clone();
        let handle = env.handle.clone();
        handle.spawn(format!("ckpt-{id}"), async move {
            let h = &env.handle;
            let next = (h.now().as_nanos() / iv + 1).saturating_mul(iv);
            h.sleep_until(SimTime::from_nanos(next)).await;
            let Some(dirty) = store.checkpoint_dirty_bytes(id) else {
                return;
            };
            let t0 = h.now();
            h.sleep(transfer_time(Tier::Disk, dirty)).await;
            if store.commit_checkpoint(id).is_some() {
                env.trace(format_args!("ckpt {id}"), t0);
            }
        });
    }

    /// Re-checks candidacy of `id` and schedules a (delta) checkpoint if
    /// it qualifies — the hook the recovery manager calls after a
    /// recompute re-dirtied an object's shards.
    pub(crate) fn maybe_schedule_checkpoint(&self, id: ObjectId) {
        let schedule = {
            let inner = self.inner.lock();
            let Some(entry) = inner.objects.get(&id) else {
                return;
            };
            self.checkpoints_scheduled() && entry.checkpoint_candidate()
        };
        if schedule {
            self.spawn_checkpoint(id);
        }
    }

    /// Bytes the next delta epoch of `id` would persist, if it is
    /// (still) a scheduled-checkpoint candidate.
    pub(crate) fn checkpoint_dirty_bytes(&self, id: ObjectId) -> Option<u64> {
        let inner = self.inner.lock();
        let entry = inner.objects.get(&id)?;
        if !entry.checkpoint_candidate() {
            return None;
        }
        Some(
            entry
                .shards
                .values()
                .filter(|s| s.dirty)
                .map(|s| s.bytes)
                .sum(),
        )
    }

    /// Commits a delta epoch for `id`'s dirty shards and runs keep-last-K
    /// GC on the chain. Revalidates candidacy (the copy took virtual
    /// time; the object may have failed, been released, or drained its
    /// dirty set to a racing task meanwhile). Scheduled-checkpoint path:
    /// requires lineage.
    pub(crate) fn commit_checkpoint(&self, id: ObjectId) -> Option<u64> {
        self.commit_epoch(id, true)
    }

    /// Immediately commits a delta epoch for `id` if it is complete,
    /// healthy, and has dirty shards — without requiring lineage and
    /// without modeling the disk-copy time. A forced-checkpoint knob for
    /// tests and storage-level benchmarks; the runtime path goes through
    /// the scheduled [`ObjectStore::mark_ready`] cadence instead.
    /// Returns the epoch's byte total.
    pub fn checkpoint_now(&self, id: ObjectId) -> Option<u64> {
        self.commit_epoch(id, false)
    }

    fn commit_epoch(&self, id: ObjectId, require_lineage: bool) -> Option<u64> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let entry = inner.objects.get_mut(&id)?;
        let candidate = if require_lineage {
            entry.checkpoint_candidate()
        } else {
            entry.checkpoint_complete_and_dirty()
        };
        if !candidate {
            return None;
        }
        let ts = inner.tier.as_mut()?;
        let mut shards: Vec<(u32, u64)> = entry
            .shards
            .iter()
            .filter(|(_, sh)| sh.dirty)
            .map(|(s, sh)| (*s, sh.bytes))
            .collect();
        shards.sort_unstable();
        let total = entry.checkpoints.commit(shards, &mut ts.disk);
        for sh in entry.shards.values_mut() {
            sh.dirty = false;
        }
        ts.stats.checkpoints += 1;
        entry
            .checkpoints
            .gc(ts.env.cfg.checkpoint_keep, &mut ts.disk);
        Some(total)
    }

    /// Marks shard `shard` of `id` modified since the last durable
    /// epoch, so the next delta checkpoint persists it again. Returns
    /// false if the object or shard is absent. (Recompute paths dirty
    /// shards implicitly; this is the explicit knob for storage-level
    /// tests and benchmarks modeling in-place updates.)
    pub fn dirty_shard(&self, id: ObjectId, shard: u32) -> bool {
        let mut inner = self.inner.lock();
        let Some(entry) = inner.objects.get_mut(&id) else {
            return false;
        };
        match entry.shards.get_mut(&shard) {
            Some(sh) => {
                sh.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Number of durable epochs in `id`'s checkpoint chain (after GC).
    pub fn checkpoint_epochs(&self, id: ObjectId) -> usize {
        self.inner
            .lock()
            .objects
            .get(&id)
            .map(|e| e.checkpoints.epochs.len())
            .unwrap_or(0)
    }

    /// Bytes a restore of `id` would rematerialize (the restore set:
    /// newest durable copy of every checkpointed shard), if the entry is
    /// alive, unfailed, and checkpointed.
    pub fn checkpoint_restorable_bytes(&self, id: ObjectId) -> Option<u64> {
        let inner = self.inner.lock();
        let entry = inner.objects.get(&id)?;
        if entry.error.is_some() || entry.checkpoints.is_empty() {
            return None;
        }
        Some(
            entry
                .checkpoints
                .restore_set()
                .iter()
                .map(|(_, b)| *b)
                .sum(),
        )
    }

    /// Cost plan of restoring `id` from its checkpoint chain: the bytes
    /// to rematerialize and the modeled disk time (one disk latency per
    /// epoch the restore set touches, plus the bytes at DRAM↔disk
    /// bandwidth). `None` if the entry is gone, failed, or has no
    /// durable epoch.
    pub(crate) fn checkpoint_restore_plan(&self, id: ObjectId) -> Option<(u64, SimDuration)> {
        let inner = self.inner.lock();
        let entry = inner.objects.get(&id)?;
        if entry.error.is_some() || entry.checkpoints.is_empty() {
            return None;
        }
        let bytes: u64 = entry
            .checkpoints
            .restore_set()
            .iter()
            .map(|(_, b)| *b)
            .sum();
        let epochs = entry.checkpoints.reachable_epochs().len() as u64;
        let latency = SimDuration::from_nanos(DISK_LATENCY.as_nanos().saturating_mul(epochs));
        Some((bytes, latency + xfer_time(bytes, DRAM_DISK_BW)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathways_net::FxHashMap;
    use proptest::prelude::*;

    /// Shadow model of a delta-checkpoint chain: the newest durable copy
    /// of each shard, tracked independently of the chain structure.
    #[derive(Default)]
    struct Shadow {
        newest: FxHashMap<u32, (u64, u64)>, // shard -> (epoch, bytes)
    }

    impl Shadow {
        fn commit(&mut self, epoch: u64, shards: &[(u32, u64)]) {
            for (s, b) in shards {
                self.newest.insert(*s, (epoch, *b));
            }
        }

        fn restore_set(&self) -> Vec<(u32, u64)> {
            let mut v: Vec<(u32, u64)> = self.newest.iter().map(|(s, (_, b))| (*s, *b)).collect();
            v.sort_unstable();
            v
        }

        fn reachable(&self) -> std::collections::BTreeSet<u64> {
            self.newest.values().map(|(e, _)| *e).collect()
        }
    }

    proptest! {
        /// Restore from base+deltas is byte-identical to what a full
        /// checkpoint of the current shard state would hold, GC never
        /// collects a restore-reachable epoch, and disk live bytes track
        /// the chain exactly (draining to zero when it drops).
        #[test]
        fn delta_chain_matches_shadow_model(
            schedule in proptest::collection::vec(
                (proptest::collection::vec(0u32..6, 1..7), 1u64..512),
                1..24,
            ),
            keep in 0u32..5,
            segment_bytes in 64u64..2048,
        ) {
            let mut disk = DiskBackend::new(segment_bytes);
            let mut chain = CheckpointChain::default();
            let mut shadow = Shadow::default();
            // Current logical contents of each shard (what a *full*
            // checkpoint taken now would persist).
            let mut current: FxHashMap<u32, u64> = FxHashMap::default();
            for (dirty_shards, bytes) in &schedule {
                // "Dirty" a random subset of shards with new contents,
                // then commit exactly those as a delta epoch.
                let dirty: std::collections::BTreeSet<u32> =
                    dirty_shards.iter().copied().collect();
                let delta: Vec<(u32, u64)> = dirty
                    .iter()
                    .map(|s| (*s, *bytes + u64::from(*s)))
                    .collect();
                for (s, b) in &delta {
                    current.insert(*s, *b);
                }
                let epoch = chain.next_epoch;
                chain.commit(delta.clone(), &mut disk);
                shadow.commit(epoch, &delta);
                chain.gc(keep, &mut disk);

                // (1) The restore set equals the newest-copy shadow and
                // matches what a full checkpoint of current state holds.
                let set = chain.restore_set();
                prop_assert_eq!(&set, &shadow.restore_set());
                let mut full: Vec<(u32, u64)> =
                    current.iter().map(|(s, b)| (*s, *b)).collect();
                full.sort_unstable();
                prop_assert_eq!(&set, &full, "restore base+deltas == full checkpoint");

                // (2) GC retained every restore-reachable epoch.
                let live: std::collections::BTreeSet<u64> =
                    chain.epochs.iter().map(|e| e.epoch).collect();
                for needed in shadow.reachable() {
                    prop_assert!(
                        live.contains(&needed),
                        "GC collected restore-reachable epoch {} (live: {:?})",
                        needed,
                        live
                    );
                }

                // (3) Disk live bytes == chain total; segments consistent.
                prop_assert_eq!(disk.used(), chain.total());
                prop_assert!(disk.segments_consistent());
                prop_assert!(disk.occupied() >= disk.used());
            }
            // (4) Dropping the chain drains disk live bytes to zero.
            for e in std::mem::take(&mut chain.epochs) {
                disk.uncharge(e.extent);
            }
            prop_assert_eq!(disk.used(), 0);
            prop_assert!(disk.segments_consistent());
        }
    }

    #[test]
    fn gc_respects_keep_and_reachability() {
        let mut disk = DiskBackend::new(1 << 20);
        let mut chain = CheckpointChain::default();
        // Epoch 0: shards {0,1}; epoch 1: shard 1; epoch 2: shard 1.
        chain.commit(vec![(0, 100), (1, 100)], &mut disk);
        chain.commit(vec![(1, 120)], &mut disk);
        chain.commit(vec![(1, 130)], &mut disk);
        // keep=1 would collect epochs 0 and 1 — but epoch 0 holds the
        // only durable copy of shard 0, so it must survive.
        chain.gc(1, &mut disk);
        let live: Vec<u64> = chain.epochs.iter().map(|e| e.epoch).collect();
        assert_eq!(live, vec![0, 2]);
        assert_eq!(chain.restore_set(), vec![(0, 100), (1, 130)]);
        assert_eq!(disk.used(), 200 + 130);
    }
}
