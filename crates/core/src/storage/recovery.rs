//! Object recovery: making `ProducerFailed` a last resort — now with
//! *chain* recovery over the lineage DAG.
//!
//! PR 4's healing recovers *capacity* — live slices remap off dead
//! hardware and the next submit re-lowers — but every byte already
//! produced onto that hardware was lost, and
//! [`ObjectError::ProducerFailed`](crate::ObjectError) was terminal. The
//! [`RecoveryManager`] closes that gap with the two mechanisms real
//! deployments use (Ray-style lineage per `crates/baselines`' Ray model,
//! durable checkpoints per the storage engine's checkpoint chains):
//!
//! 1. **Restore from checkpoint** — copy the restore set of the object's
//!    delta-checkpoint chain back into a live host's DRAM (one disk
//!    latency per epoch touched, bytes at disk bandwidth) and fire the
//!    readiness events.
//! 2. **Recompute via lineage** — re-submit the producing program with
//!    its recorded bindings through the client's normal path. Because
//!    the fault injector heals slices *before* recovery tasks run, the
//!    re-submission re-lowers onto the healed mapping (PR 4's
//!    re-lowering path) and lands on live devices. The fresh output is
//!    then staged into DRAM under the original object id.
//! 3. **Surface the error** — only when neither works (no checkpoint, no
//!    lineage, inputs themselves dead, attempts exhausted) does the
//!    object fail terminally and the failure cascade to consumers.
//!
//! A fault that wipes out *several* objects at once (a host death, a
//! cascading client failure) is absorbed as one **batch**: the fault
//! injector's synchronous walk enqueues every absorbed object and
//! launches a single chain-recovery task when the walk completes. The
//! task dedupes the batch — a shared upstream producer lost together
//! with its consumers is rebuilt **exactly once** — walks the lineage
//! DAG restricted to the batch in topological order (upstream first,
//! ascending-id tie-break, so replay is deterministic), and picks
//! per-node between checkpoint restore and lineage recompute by modeled
//! cost, falling back to the other path if the cheap one fails.
//!
//! While a recovery is in flight the store entry carries a `recovering`
//! event; consumers ([`ObjectRef::ready`](crate::ObjectRef::ready), the
//! input-transfer drivers) wait through it transparently, so the client
//! of a consuming run never observes the loss at all.

use pathways_sim::Lock;
use std::fmt;
use std::sync::{Arc, Weak};

use pathways_net::{DeviceId, FxHashMap, FxHashSet, HostId};

use crate::client::Client;
use crate::context::CoreCtx;
use crate::fault::FaultInjector;
use crate::objref::ObjectRef;
use crate::program::{CompId, Program};

use super::index::{FailureReason, ObjectId, ObjectStore, Place, StoredShard};
use super::tiers::{Tier, TierConfig};

/// How to reproduce one object: the producing program plus the exact
/// input bindings of the original submission. The bindings hold
/// [`ObjectRef`] clones, so lineage *retains its inputs* — an input
/// cannot be garbage-collected while something downstream might need it
/// for recompute (this retention is what drives tier spill pressure in
/// long chains, and it is released with the object's last reference).
pub(crate) struct LineageRecord {
    pub(crate) client: Client,
    pub(crate) program: Program,
    pub(crate) bindings: Vec<(CompId, ObjectRef)>,
}

impl fmt::Debug for LineageRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LineageRecord")
            .field("client", &self.client.id())
            .field("inputs", &self.bindings.len())
            .finish()
    }
}

/// Counters over recovery outcomes (monotonic).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Objects rematerialized from a disk checkpoint.
    pub restored: u64,
    /// Objects rematerialized by re-running their producing program.
    pub recomputed: u64,
    /// Recoveries that failed terminally (`ProducerFailed` surfaced).
    pub abandoned: u64,
}

/// Absorbs hardware loss of store objects into asynchronous recovery
/// instead of terminal failure. Owned by the [`FaultInjector`], which
/// consults it during the synchronous blast-radius walk: an *absorbed*
/// object is dropped from the walk's doomed set (no error recorded, no
/// cascade) and enqueued; the injector launches one chain-recovery task
/// per walk via [`RecoveryManager::launch_pending`].
pub(crate) struct RecoveryManager {
    core: Arc<CoreCtx>,
    cfg: TierConfig,
    /// Back-reference for the terminal path: an abandoned recovery must
    /// cascade the failure to consumers exactly as the injector would
    /// have, just later in virtual time.
    injector: Weak<FaultInjector>,
    /// Recovery attempts per object, against
    /// [`TierConfig::max_recovery_attempts`].
    attempts: Lock<FxHashMap<ObjectId, u32>>,
    stats: Lock<RecoveryStats>,
    /// Objects absorbed by the current blast-radius walk, awaiting the
    /// walk's single [`RecoveryManager::launch_pending`].
    pending: Lock<Vec<(ObjectId, FailureReason)>>,
}

impl fmt::Debug for RecoveryManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveryManager")
            .field("stats", &*self.stats.lock())
            .finish()
    }
}

impl RecoveryManager {
    pub(crate) fn new(core: Arc<CoreCtx>, cfg: TierConfig, injector: Weak<FaultInjector>) -> Self {
        RecoveryManager {
            core,
            cfg,
            injector,
            attempts: Lock::new(FxHashMap::default()),
            stats: Lock::new(RecoveryStats::default()),
            pending: Lock::new(Vec::new()),
        }
    }

    /// Outcome counters so far.
    pub(crate) fn stats(&self) -> RecoveryStats {
        *self.stats.lock()
    }

    /// Tries to absorb the loss of `id`'s HBM shards on dead `device`.
    /// True means the object is (already or now) recovering and must not
    /// be failed or cascaded; false means the loss is terminal and the
    /// caller proceeds with `fail_object`.
    pub(crate) fn absorb_device_loss(
        self: &Arc<Self>,
        id: ObjectId,
        device: DeviceId,
        reason: FailureReason,
    ) -> bool {
        let store = &self.core.store;
        if store.recovering(id).is_some() {
            // An earlier fault already opened the window; this fault
            // just killed another replica of the same object.
            store.drop_shards_on_device(id, device);
            return true;
        }
        if !self.budget_and_lineage_allow(id) {
            return false;
        }
        store.drop_shards_on_device(id, device);
        if store.begin_recovery(id).is_none() {
            return false;
        }
        self.note_attempt(id);
        self.pending.lock().push((id, reason));
        true
    }

    /// Tries to absorb the loss of `id`'s DRAM shards spilled to dead
    /// `host`. Same contract as
    /// [`RecoveryManager::absorb_device_loss`].
    pub(crate) fn absorb_dram_loss(
        self: &Arc<Self>,
        id: ObjectId,
        host: HostId,
        reason: FailureReason,
    ) -> bool {
        let store = &self.core.store;
        if store.recovering(id).is_some() {
            store.drop_dram_on_host(id, host);
            return true;
        }
        if !self.budget_and_lineage_allow(id) {
            return false;
        }
        store.drop_dram_on_host(id, host);
        if store.begin_recovery(id).is_none() {
            return false;
        }
        self.note_attempt(id);
        self.pending.lock().push((id, reason));
        true
    }

    /// Tries to absorb the failure of a run whose sink `id` is — the
    /// in-flight production died with its hardware. No shards to drop up
    /// front (partial output is swept by the recompute commit); the
    /// object recovers by lineage re-submission (a checkpoint can only
    /// exist for a *completed* production, i.e. an earlier incarnation).
    pub(crate) fn absorb_run_loss(self: &Arc<Self>, id: ObjectId, reason: FailureReason) -> bool {
        let store = &self.core.store;
        if store.recovering(id).is_some() {
            return true;
        }
        if !self.budget_and_lineage_allow(id) {
            return false;
        }
        if store.begin_recovery(id).is_none() {
            return false;
        }
        self.note_attempt(id);
        self.pending.lock().push((id, reason));
        true
    }

    /// Common absorb gate: the object must be recoverable (checkpoint or
    /// healthy lineage) *and* within its attempt budget. Exhausting the
    /// budget on an otherwise-recoverable object counts as an
    /// abandonment — the loss was in principle survivable.
    fn budget_and_lineage_allow(&self, id: ObjectId) -> bool {
        if !self.core.store.recoverable(id) {
            return false;
        }
        if self.attempts.lock().get(&id).copied().unwrap_or(0) >= self.cfg.max_recovery_attempts {
            self.stats.lock().abandoned += 1;
            return false;
        }
        true
    }

    fn note_attempt(&self, id: ObjectId) {
        *self.attempts.lock().entry(id).or_insert(0) += 1;
    }

    /// Launches one chain-recovery task for everything the walk that
    /// just finished absorbed. Called by the fault injector at the end
    /// of each blast-radius walk (`inject`, client failure, cascade) —
    /// after slice healing, so lineage re-submissions re-lower onto
    /// healed devices. No-op when nothing was absorbed.
    pub(crate) fn launch_pending(self: &Arc<Self>) {
        let mut batch: Vec<(ObjectId, FailureReason)> = std::mem::take(&mut *self.pending.lock());
        if batch.is_empty() {
            return;
        }
        // Dedup by object (first reason wins): a shared upstream lost
        // through several consumers is rebuilt exactly once.
        batch.sort_by_key(|(id, _)| *id);
        batch.dedup_by_key(|(id, _)| *id);
        let this = Arc::clone(self);
        let name = format!("recover-chain-{}", batch[0].0);
        self.core.handle.spawn(name, async move {
            this.recover_chain(batch).await;
        });
    }

    /// Orders the batch by the lineage DAG restricted to the batch's
    /// ids: upstream producers before their consumers, ascending object
    /// id among peers — deterministic Kahn's algorithm.
    fn chain_order(&self, batch: &[(ObjectId, FailureReason)]) -> Vec<(ObjectId, FailureReason)> {
        let store = &self.core.store;
        let ids: FxHashSet<ObjectId> = batch.iter().map(|(id, _)| *id).collect();
        let reasons: FxHashMap<ObjectId, FailureReason> = batch.iter().copied().collect();
        let mut preds: FxHashMap<ObjectId, Vec<ObjectId>> = FxHashMap::default();
        let mut succs: FxHashMap<ObjectId, Vec<ObjectId>> = FxHashMap::default();
        for (id, _) in batch {
            if let Some(lineage) = store.lineage_of(*id) {
                let mut ups: Vec<ObjectId> = lineage
                    .bindings
                    .iter()
                    .map(|(_, r)| r.id())
                    .filter(|up| *up != *id && ids.contains(up))
                    .collect();
                ups.sort_unstable();
                ups.dedup();
                for up in ups {
                    preds.entry(*id).or_default().push(up);
                    succs.entry(up).or_default().push(*id);
                }
            }
        }
        let mut indeg: FxHashMap<ObjectId, usize> = batch
            .iter()
            .map(|(id, _)| (*id, preds.get(id).map(Vec::len).unwrap_or(0)))
            .collect();
        let mut ready: Vec<ObjectId> = batch
            .iter()
            .map(|(id, _)| *id)
            .filter(|id| indeg[id] == 0)
            .collect();
        let mut order: Vec<ObjectId> = Vec::with_capacity(batch.len());
        while !ready.is_empty() {
            // Pop the smallest id (descending sort, pop from the back).
            ready.sort_unstable_by(|a, b| b.cmp(a));
            let id = ready.pop().expect("non-empty");
            order.push(id);
            if let Some(downs) = succs.get(&id) {
                for down in downs {
                    let d = indeg.get_mut(down).expect("batch member");
                    *d -= 1;
                    if *d == 0 {
                        ready.push(*down);
                    }
                }
            }
        }
        if order.len() < batch.len() {
            // Defensive: a cycle cannot arise from producer lineage, but
            // if it ever did, recover the remainder in id order rather
            // than dropping it.
            let seen: FxHashSet<ObjectId> = order.iter().copied().collect();
            let mut rest: Vec<ObjectId> = ids.difference(&seen).copied().collect();
            rest.sort_unstable();
            order.extend(rest);
        }
        order.into_iter().map(|id| (id, reasons[&id])).collect()
    }

    /// Rebuilds a batch of lost objects: topological order over the
    /// lineage DAG, per-node restore-vs-recompute by modeled cost,
    /// fallback to the other path on failure, one terminal cascade at
    /// the end for everything unrecoverable.
    async fn recover_chain(self: Arc<Self>, batch: Vec<(ObjectId, FailureReason)>) {
        let order = self.chain_order(&batch);
        let mut terminal: Vec<ObjectId> = Vec::new();
        for (id, reason) in order {
            if !self.recover_node(id, reason).await {
                terminal.push(id);
            }
        }
        if !terminal.is_empty() {
            if let Some(inj) = self.injector.upgrade() {
                inj.cascade_failure(&terminal);
            }
        }
    }

    /// Rebuilds one object. Returns true if the object was recovered (or
    /// became moot: released / settled elsewhere); false if the failure
    /// is terminal (the object has been failed; the caller cascades).
    async fn recover_node(self: &Arc<Self>, id: ObjectId, reason: FailureReason) -> bool {
        let store = self.core.store.clone();
        if !store.contains(id) {
            return true; // released while the batch was queued
        }
        // Per-node cost choice: modeled restore time (epochs touched ×
        // disk latency + bytes at disk bandwidth) vs the producing
        // program's estimated device time. Restore wins ties.
        let restore_cost = store.checkpoint_restore_plan(id).map(|(_, t)| t);
        let recompute_cost = store
            .lineage_of(id)
            .filter(|l| l.bindings.iter().all(|(_, r)| r.error().is_none()))
            .map(|l| l.program.estimated_device_time());
        let restore_first = match (restore_cost, recompute_cost) {
            (Some(rt), Some(ct)) => rt <= ct,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if restore_first {
            if self.try_restore(id).await {
                return true;
            }
            if !store.contains(id) {
                return true;
            }
            if self.try_recompute(id).await {
                return true;
            }
        } else {
            if self.try_recompute(id).await {
                return true;
            }
            if !store.contains(id) {
                return true;
            }
            if self.try_restore(id).await {
                return true;
            }
        }
        // Terminal: surface ProducerFailed; the chain driver cascades.
        if !store.contains(id) {
            return true;
        }
        self.stats.lock().abandoned += 1;
        store.fail_object(id, reason);
        false
    }

    /// Restore from the checkpoint chain: the restore set streams into a
    /// live host's DRAM, then every shard is servable again.
    async fn try_restore(&self, id: ObjectId) -> bool {
        let h = self.core.handle.clone();
        let store = self.core.store.clone();
        let Some((_bytes, time)) = store.checkpoint_restore_plan(id) else {
            return false;
        };
        let Some((device, host)) = self.restore_target() else {
            return false;
        };
        let t0 = h.now();
        h.sleep(time).await;
        if store.complete_restore(id, device, host) {
            store.trace_tiers(format!("restore {id}"), t0);
            self.stats.lock().restored += 1;
            return true;
        }
        false
    }

    /// Recompute via lineage: re-submit the producing program with its
    /// original bindings. Stale preparations re-lower against the healed
    /// mapping inside submit_with (PR 4's path), so the recompute lands
    /// on live devices without any special casing.
    async fn try_recompute(&self, id: ObjectId) -> bool {
        let h = self.core.handle.clone();
        let store = self.core.store.clone();
        let Some(lineage) = store.lineage_of(id) else {
            return false;
        };
        if !lineage.bindings.iter().all(|(_, r)| r.error().is_none()) {
            return false;
        }
        let t0 = h.now();
        let prepared = lineage.client.prepare(&lineage.program);
        let Ok(run) = lineage
            .client
            .submit_with(&prepared, &lineage.bindings)
            .await
        else {
            return false;
        };
        let out = run.object_ref(id.comp);
        let result = run.finish().await;
        let mut done = false;
        if let Some(out) = out {
            if out.ready().await.is_ok() {
                // Stage the fresh output into DRAM under the original id
                // (one HBM->DRAM copy).
                h.sleep(self.cfg.hbm_dram_time(out.total_bytes())).await;
                let topo = Arc::clone(self.core.fabric.topology());
                let shards: Vec<(u32, u64, DeviceId, HostId)> = out
                    .devices()
                    .iter()
                    .enumerate()
                    .map(|(s, d)| (s as u32, out.bytes_per_shard(), *d, topo.host_of_device(*d)))
                    .collect();
                if store.complete_recompute(id, &shards) {
                    store.trace_tiers(format!("recompute {id}"), t0);
                    self.stats.lock().recomputed += 1;
                    done = true;
                }
            }
        }
        drop(result); // releases the recompute copy
        if done {
            // The recompute re-dirtied the shards: cut a delta epoch at
            // the next checkpoint boundary.
            store.maybe_schedule_checkpoint(id);
        }
        done
    }

    /// Live `(device, host)` restore candidates in host order — where
    /// checkpoint restores stage their data. The placement policy picks
    /// among them (`LocalFirst` keeps the seed choice: the first).
    fn restore_target(&self) -> Option<(DeviceId, HostId)> {
        let topo = Arc::clone(self.core.fabric.topology());
        let failures = &self.core.failures;
        let mut hosts: Vec<HostId> = topo.hosts().collect();
        hosts.sort();
        let mut candidates: Vec<(DeviceId, HostId)> = Vec::new();
        for h in hosts {
            if failures.host_dead(h) {
                continue;
            }
            let mut devs: Vec<DeviceId> = topo.devices_of_host(h).collect();
            devs.sort();
            if let Some(d) = devs.into_iter().find(|d| !failures.device_dead(*d)) {
                candidates.push((d, h));
            }
        }
        self.core.store.choose_restore_target(&candidates)
    }
}

// ---------------------------------------------------------------------
// ObjectStore: recovery surfaces (driven by the RecoveryManager and the
// fault injector)
// ---------------------------------------------------------------------

impl ObjectStore {
    /// The in-flight recovery gate of `id`, if a restore/recompute is
    /// rebuilding it. Consumers loop-wait on this before trusting
    /// [`ObjectStore::object_error`]; it fires when recovery completes
    /// (shards back, no error) or fails terminally (error recorded).
    pub fn recovering(&self, id: ObjectId) -> Option<pathways_sim::sync::Event> {
        self.inner
            .lock()
            .objects
            .get(&id)
            .and_then(|e| e.recovering.clone())
    }

    /// Records how to recompute `id` (first writer wins; repeat submits
    /// of an already-declared sink keep the original lineage).
    pub(crate) fn set_lineage(&self, id: ObjectId, lineage: Arc<LineageRecord>) {
        if let Some(entry) = self.inner.lock().objects.get_mut(&id) {
            if entry.lineage.is_none() {
                entry.lineage = Some(lineage);
            }
        }
    }

    /// The lineage record of `id`, if one was registered.
    pub(crate) fn lineage_of(&self, id: ObjectId) -> Option<Arc<LineageRecord>> {
        self.inner
            .lock()
            .objects
            .get(&id)
            .and_then(|e| e.lineage.clone())
    }

    /// True if `id` exists, is not failed, and could be recovered:
    /// checkpoint chain on disk, or lineage whose inputs are themselves
    /// error-free.
    pub(crate) fn recoverable(&self, id: ObjectId) -> bool {
        let (ckpt, lineage) = {
            let inner = self.inner.lock();
            let Some(entry) = inner.objects.get(&id) else {
                return false;
            };
            if entry.error.is_some() {
                return false;
            }
            (!entry.checkpoints.is_empty(), entry.lineage.clone())
        };
        // The input probes re-borrow the store; they must run outside.
        ckpt || lineage.is_some_and(|l| l.bindings.iter().all(|(_, r)| r.error().is_none()))
    }

    /// Opens the recovery window on `id`: consumers wait on the returned
    /// event instead of observing the transient shard gap. `None` if the
    /// object is gone, failed, or already recovering (the first recovery
    /// owns the window).
    pub(crate) fn begin_recovery(&self, id: ObjectId) -> Option<pathways_sim::sync::Event> {
        let mut inner = self.inner.lock();
        let entry = inner.objects.get_mut(&id)?;
        if entry.error.is_some() || entry.recovering.is_some() {
            return None;
        }
        let ev = pathways_sim::sync::Event::new();
        entry.recovering = Some(ev.clone());
        Some(ev)
    }

    /// Drops the HBM shards of `id` held on `device` (lost with the
    /// hardware) *without* failing the object — the recovery-absorb
    /// path. Returns the bytes dropped.
    pub(crate) fn drop_shards_on_device(&self, id: ObjectId, device: DeviceId) -> u64 {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let taken: Vec<(u32, StoredShard)> = {
            let Some(entry) = inner.objects.get_mut(&id) else {
                return 0;
            };
            let keys: Vec<u32> = entry
                .shards
                .iter()
                .filter(|(_, s)| s.tier == Tier::Hbm && s.device == device)
                .map(|(k, _)| *k)
                .collect();
            keys.into_iter()
                .filter_map(|k| Some((k, entry.shards.remove(&k)?)))
                .collect()
        };
        let mut bytes = 0;
        for (no, sh) in &taken {
            inner.untier_shard(id, *no, sh);
            bytes += sh.bytes;
        }
        bytes
    }

    /// Drops the DRAM shards of `id` spilled to `host` (lost with the
    /// host) without failing the object. Returns the bytes dropped.
    pub(crate) fn drop_dram_on_host(&self, id: ObjectId, host: HostId) -> u64 {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let taken: Vec<(u32, StoredShard)> = {
            let Some(entry) = inner.objects.get_mut(&id) else {
                return 0;
            };
            let keys: Vec<u32> = entry
                .shards
                .iter()
                .filter(|(_, s)| s.tier == Tier::Dram && s.host == Some(host))
                .map(|(k, _)| *k)
                .collect();
            keys.into_iter()
                .filter_map(|k| Some((k, entry.shards.remove(&k)?)))
                .collect()
        };
        let mut bytes = 0;
        for (no, sh) in &taken {
            inner.untier_shard(id, *no, sh);
            bytes += sh.bytes;
        }
        bytes
    }

    /// Rematerializes the missing shards of `id` from its checkpoint
    /// chain's restore set into `host`'s DRAM (reads staged through
    /// `device`), fires every readiness event, and closes the recovery
    /// window. The chain itself stays on disk — it remains restorable;
    /// restored shards are *clean* (a delta checkpoint after a pure
    /// restore persists nothing). Returns false if the entry is gone or
    /// terminally failed (the window, if any, is closed regardless).
    pub(crate) fn complete_restore(&self, id: ObjectId, device: DeviceId, host: HostId) -> bool {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let Some(entry) = inner.objects.get_mut(&id) else {
            return false;
        };
        if entry.error.is_some() {
            if let Some(rec) = entry.recovering.take() {
                rec.set();
            }
            return false;
        }
        if entry.checkpoints.is_empty() {
            return false;
        }
        let set = entry.checkpoints.restore_set();
        let Some(ts) = inner.tier.as_mut() else {
            return false;
        };
        let at = ts.env.handle.now();
        for (shard, bytes) in &set {
            if entry.shards.contains_key(shard) {
                continue;
            }
            ts.clock += 1;
            let ready = entry.ready.entry(*shard).or_default().clone();
            entry.shards.insert(
                *shard,
                StoredShard {
                    device,
                    bytes: *bytes,
                    lease: None,
                    ready,
                    tier: Tier::Dram,
                    host: Some(host),
                    last_access: ts.clock,
                    dirty: false,
                    extent: None,
                },
            );
            ts.dram.charge(host, *bytes);
            inner
                .resident
                .insert(Place::Dram(host), (ts.clock, id, *shard));
            ts.log.push(super::tiers::SpillEvent {
                at,
                object: id,
                shard: *shard,
                bytes: *bytes,
                from: Tier::Disk,
                to: Tier::Dram,
                host,
            });
        }
        ts.stats.restores += 1;
        for ev in entry.ready.values() {
            ev.set();
        }
        if let Some(rec) = entry.recovering.take() {
            rec.set();
        }
        true
    }

    /// Replaces the shards of `id` with freshly recomputed copies
    /// staged into DRAM (one `(shard, bytes, device, host)` per shard of
    /// the recompute run's output), fires every readiness event, and
    /// closes the recovery window. Leftover shards of the aborted
    /// original production are dropped first. Recomputed shards are
    /// *dirty* — the next delta checkpoint persists them.
    pub(crate) fn complete_recompute(
        &self,
        id: ObjectId,
        shards: &[(u32, u64, DeviceId, HostId)],
    ) -> bool {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let old: Vec<(u32, StoredShard)> = {
            let Some(entry) = inner.objects.get_mut(&id) else {
                return false;
            };
            if entry.error.is_some() {
                if let Some(rec) = entry.recovering.take() {
                    rec.set();
                }
                return false;
            }
            entry.shards.drain().collect()
        };
        for (no, sh) in &old {
            inner.untier_shard(id, *no, sh);
        }
        drop(old); // surviving leases return
        let Some(entry) = inner.objects.get_mut(&id) else {
            return false;
        };
        let Some(ts) = inner.tier.as_mut() else {
            return false;
        };
        let at = ts.env.handle.now();
        for (shard, bytes, device, host) in shards {
            ts.clock += 1;
            let ready = entry.ready.entry(*shard).or_default().clone();
            entry.shards.insert(
                *shard,
                StoredShard {
                    device: *device,
                    bytes: *bytes,
                    lease: None,
                    ready,
                    tier: Tier::Dram,
                    host: Some(*host),
                    last_access: ts.clock,
                    dirty: true,
                    extent: None,
                },
            );
            ts.dram.charge(*host, *bytes);
            inner
                .resident
                .insert(Place::Dram(*host), (ts.clock, id, *shard));
            ts.log.push(super::tiers::SpillEvent {
                at,
                object: id,
                shard: *shard,
                bytes: *bytes,
                from: Tier::Hbm,
                to: Tier::Dram,
                host: *host,
            });
        }
        ts.stats.recomputes += 1;
        for ev in entry.ready.values() {
            ev.set();
        }
        if let Some(rec) = entry.recovering.take() {
            rec.set();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{device, obj, tiered};
    use super::*;
    use pathways_net::ClientId;
    use pathways_sim::sync::Event;
    use pathways_sim::Sim;

    #[test]
    fn tiered_duplicate_put_during_recovery_is_discarded() {
        let mut sim = Sim::new(0);
        let store = tiered(&sim);
        let dev = device(&sim, 0, 1_000);
        let store2 = store.clone();
        sim.spawn("t", async move {
            store2.declare(obj(0, 0), ClientId(0), 1);
            store2.put_shard(obj(0, 0), 0, &dev, 100).await;
            // A recovery window turns the would-be "stored twice" panic
            // into a discard (the stale write raced the recovery).
            let win = store2.begin_recovery(obj(0, 0)).unwrap();
            let ev = store2.put_shard(obj(0, 0), 0, &dev, 100).await;
            assert!(!ev.is_set());
            assert_eq!(dev.hbm().used(), 100);
            assert!(!win.is_set());
            store2.release(obj(0, 0));
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn recompute_rematerializes_shards_in_dram() {
        let mut sim = Sim::new(0);
        let store = tiered(&sim);
        let dev = device(&sim, 0, 1_000);
        let store2 = store.clone();
        sim.spawn("t", async move {
            let events = store2.declare(obj(0, 0), ClientId(0), 2);
            store2.put_shard(obj(0, 0), 0, &dev, 100).await;
            store2.put_shard(obj(0, 0), 1, &dev, 100).await;
            store2.mark_ready(obj(0, 0), 0);
            store2.mark_ready(obj(0, 0), 1);
            // No lineage -> the scheduled-checkpoint path declines.
            assert!(store2.commit_checkpoint(obj(0, 0)).is_none());
            store2.drop_shards_on_device(obj(0, 0), pathways_net::DeviceId(0));
            assert_eq!(dev.hbm().used(), 0);
            assert_eq!(store2.object_bytes(obj(0, 0)), 0);
            // Recovery window + restore path (no checkpoint: restore is
            // a no-op returning false, window survives until recompute
            // or terminal failure closes it).
            let win = store2.begin_recovery(obj(0, 0)).unwrap();
            assert!(store2.checkpoint_restore_plan(obj(0, 0)).is_none());
            let ok = store2.complete_recompute(
                obj(0, 0),
                &[
                    (0, 100, pathways_net::DeviceId(0), HostId(0)),
                    (1, 100, pathways_net::DeviceId(1), HostId(0)),
                ],
            );
            assert!(ok);
            assert!(win.is_set(), "recovery window closes");
            assert!(store2.recovering(obj(0, 0)).is_none());
            assert_eq!(store2.object_bytes(obj(0, 0)), 200);
            assert_eq!(store2.shard_tier(obj(0, 0), 0), Some(Tier::Dram));
            assert_eq!(store2.dram_used(), 200);
            assert!(events.iter().all(Event::is_set));
            assert!(store2.tiers_conserved());
            store2.release(obj(0, 0));
            assert!(store2.tiers_conserved());
            assert_eq!(store2.dram_used(), 0);
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn restore_uses_the_delta_chain_restore_set() {
        let mut sim = Sim::new(0);
        let store = tiered(&sim);
        let dev = device(&sim, 0, 1_000);
        let store2 = store.clone();
        sim.spawn("t", async move {
            store2.declare(obj(0, 0), ClientId(0), 2);
            store2.put_shard(obj(0, 0), 0, &dev, 100).await;
            store2.put_shard(obj(0, 0), 1, &dev, 100).await;
            store2.mark_ready(obj(0, 0), 0);
            store2.mark_ready(obj(0, 0), 1);
            // Base epoch persists both shards; a delta persists shard 1.
            assert_eq!(store2.checkpoint_now(obj(0, 0)), Some(200));
            assert!(store2.dirty_shard(obj(0, 0), 1));
            assert_eq!(store2.checkpoint_now(obj(0, 0)), Some(100));
            assert_eq!(store2.checkpoint_epochs(obj(0, 0)), 2);
            assert_eq!(store2.checkpoint_restorable_bytes(obj(0, 0)), Some(200));
            assert_eq!(store2.disk_used(), 300, "base + delta live on disk");
            // Lose the live copies, restore from base+delta.
            store2.drop_shards_on_device(obj(0, 0), pathways_net::DeviceId(0));
            let win = store2.begin_recovery(obj(0, 0)).unwrap();
            let (bytes, _time) = store2.checkpoint_restore_plan(obj(0, 0)).unwrap();
            assert_eq!(bytes, 200, "restore set = newest copy of each shard");
            assert!(store2.complete_restore(obj(0, 0), pathways_net::DeviceId(0), HostId(0)));
            assert!(win.is_set());
            assert_eq!(store2.object_bytes(obj(0, 0)), 200);
            assert_eq!(store2.dram_used(), 200);
            // Restored shards are clean: no new epoch to cut.
            assert!(store2.checkpoint_now(obj(0, 0)).is_none());
            assert!(store2.tiers_conserved());
            store2.release(obj(0, 0));
            assert_eq!(store2.disk_used(), 0, "chain uncharges with the object");
            assert!(store2.tiers_conserved());
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn fail_object_closes_recovery_window_and_settles_ledgers() {
        let mut sim = Sim::new(0);
        let store = tiered(&sim);
        let dev = device(&sim, 0, 1_000);
        let store2 = store.clone();
        sim.spawn("t", async move {
            store2.declare(obj(0, 0), ClientId(0), 1);
            store2.put_shard(obj(0, 0), 0, &dev, 100).await;
            let win = store2.begin_recovery(obj(0, 0)).unwrap();
            // A second recovery cannot open a nested window.
            assert!(store2.begin_recovery(obj(0, 0)).is_none());
            store2.fail_object(obj(0, 0), FailureReason::Device(pathways_net::DeviceId(0)));
            assert!(win.is_set(), "terminal failure closes the window");
            assert!(store2.recovering(obj(0, 0)).is_none());
            assert!(store2.object_error(obj(0, 0)).is_some());
            assert!(store2.tiers_conserved());
            store2.release(obj(0, 0));
        });
        sim.run_to_quiescence();
    }
}
