//! The object index: the refcounted sharded object table (§4.2, §4.6)
//! plus the residency sets victim selection and failure fan-out read.
//!
//! Each host manages buffers held in the HBM of its attached devices
//! (and transient staging in host DRAM). Client code refers to *logical*
//! sharded buffers by opaque [`ObjectId`]s; reference counting happens at
//! logical-buffer granularity — one count per object, not per shard — so
//! client bookkeeping stays O(objects) at thousands of shards, the
//! scaling fix §4.2 describes. Objects are tagged with an owner so they
//! can be garbage-collected if a client or program fails, and HBM
//! reservations go through [`HbmPool`](pathways_device::HbmPool), whose
//! back-pressure stalls computations that cannot allocate (§4.6).
//!
//! Per-shard *readiness events* exist from the moment an object is
//! [`declared`](ObjectStore::declare) — before any kernel has been
//! granted, let alone produced data. This is what lets a dependent
//! program be dispatched while its inputs are still futures: everything
//! control-plane proceeds eagerly, and only the consuming kernel gates
//! on the producer's per-shard events (§4.5's parallel asynchronous
//! dispatch, extended across programs).
//!
//! The index is tier-agnostic: where a shard's bytes live, how they move
//! and what they cost is the business of
//! [`storage::tiers`](super::tiers); delta checkpoints live in
//! [`storage::checkpoint`](super::checkpoint); loss absorption in
//! [`storage::recovery`](super::recovery). The index owns the maps they
//! all mutate and the removal paths that keep every ledger honest.

use pathways_sim::Lock;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use pathways_device::{DeviceHandle, HbmLease};
use pathways_net::{ClientId, DeviceId, FxHashMap, HostId, IslandId, Topology};
use pathways_plaque::RunId;
use pathways_sim::sync::Event;
use pathways_sim::SimHandle;

use crate::program::CompId;

use super::checkpoint::CheckpointChain;
use super::recovery::LineageRecord;
use super::tiers::{ExtentRef, Tier, TierConfig, TierEnv, TierState};

/// Opaque handle to a logical (sharded) buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId {
    /// The run that produced the object.
    pub run: RunId,
    /// The computation that produced it.
    pub comp: CompId,
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj({},{})", self.run, self.comp)
    }
}

/// Typed store errors. Racing failure-GC means a client can hold a
/// handle to an object the store has already reclaimed; those paths
/// return errors instead of aborting the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The object is not (or no longer) in the store — typically it was
    /// garbage-collected after its owner failed, or its refcount already
    /// reached zero.
    UnknownObject(ObjectId),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownObject(id) => write!(f, "unknown object {id}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Why a producer failed (the failure-propagation vocabulary shared by
/// the store, the fault injector and client-visible [`ObjectError`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// The device holding (or assigned to produce) a shard died.
    Device(DeviceId),
    /// A host died — its devices, executor and any scheduler on it are
    /// gone.
    Host(HostId),
    /// The island's scheduler host died; nothing on the island can be
    /// granted anymore.
    Island(IslandId),
    /// A severed DCN link partitioned the run's control plane.
    Link(HostId, HostId),
    /// The owning client failed; its objects were garbage-collected.
    Client(ClientId),
    /// An upstream object this run consumed had itself failed.
    Upstream(ObjectId),
    /// The object was reclaimed (failure-GC) before the cause could be
    /// recorded — observed through a stale handle.
    OwnerGone,
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureReason::Device(d) => write!(f, "{d} failed"),
            FailureReason::Host(h) => write!(f, "{h} failed"),
            FailureReason::Island(i) => write!(f, "{i} lost its scheduler"),
            FailureReason::Link(a, b) => write!(f, "link {a}<->{b} severed"),
            FailureReason::Client(c) => write!(f, "{c} failed"),
            FailureReason::Upstream(o) => write!(f, "upstream {o} failed"),
            FailureReason::OwnerGone => write!(f, "owner was garbage-collected"),
        }
    }
}

/// Error delivered through an [`ObjectRef`](crate::ObjectRef) whose
/// producer can no longer supply the data: instead of blocking forever,
/// `ready`/`get` resolve to this (§4.3's "delivering errors on
/// failures"). With recovery enabled this is the *last* resort — the
/// error surfaces only after checkpoint restore and lineage recompute
/// both failed (or were exhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectError {
    /// The producing run (or the hardware its data lived on) failed.
    ProducerFailed {
        /// The object that will never (fully) materialize.
        object: ObjectId,
        /// What went wrong.
        reason: FailureReason,
    },
}

impl ObjectError {
    /// The object the error is about.
    pub fn object(&self) -> ObjectId {
        match self {
            ObjectError::ProducerFailed { object, .. } => *object,
        }
    }

    /// The underlying failure reason.
    pub fn reason(&self) -> FailureReason {
        match self {
            ObjectError::ProducerFailed { reason, .. } => *reason,
        }
    }
}

impl fmt::Display for ObjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectError::ProducerFailed { object, reason } => {
                write!(f, "producer of {object} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for ObjectError {}

/// One shard of a stored object. In the untiered store it is always
/// pinned in a device's HBM; with tiers it may have been spilled to its
/// host's DRAM or demoted to disk (the HBM lease is then gone).
pub struct StoredShard {
    pub(crate) device: DeviceId,
    pub(crate) bytes: u64,
    /// Held only while the shard occupies HBM.
    pub(crate) lease: Option<HbmLease>,
    pub(crate) ready: Event,
    pub(crate) tier: Tier,
    /// The host whose DRAM holds the shard (DRAM tier only).
    pub(crate) host: Option<HostId>,
    /// LRU clock tick of the last access (spill-victim ordering).
    pub(crate) last_access: u64,
    /// Modified since the last durable checkpoint epoch — what the next
    /// delta checkpoint must persist. Fresh productions and recomputes
    /// are dirty; restored shards are clean by construction.
    pub(crate) dirty: bool,
    /// Disk extent holding the shard's bytes (disk tier only).
    pub(crate) extent: Option<ExtentRef>,
}

impl fmt::Debug for StoredShard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoredShard")
            .field("device", &self.device)
            .field("bytes", &self.bytes)
            .field("tier", &self.tier)
            .field("ready", &self.ready.is_set())
            .field("dirty", &self.dirty)
            .finish()
    }
}

impl StoredShard {
    /// Device holding the shard (for non-HBM tiers: the device the
    /// shard's reads are staged through).
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Shard size.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Readiness event: set when the producing kernel finished.
    pub fn ready(&self) -> &Event {
        &self.ready
    }

    /// The storage tier the shard's bytes currently live in.
    pub fn tier(&self) -> Tier {
        self.tier
    }
}

pub(crate) struct ObjectEntry {
    pub(crate) owner: ClientId,
    /// Logical-buffer refcount (not per shard).
    pub(crate) refcount: u32,
    /// Per-shard readiness events. Populated eagerly by
    /// [`ObjectStore::declare`] (so consumers can gate on shards that do
    /// not exist yet) or lazily by [`ObjectStore::put_shard`].
    pub(crate) ready: FxHashMap<u32, Event>,
    pub(crate) shards: FxHashMap<u32, StoredShard>,
    /// Set when the producer failed terminally: shards are dropped (HBM
    /// freed), readiness events fire, and consumers observe the error
    /// instead of stale data. The entry itself lives until its refcount
    /// drains.
    pub(crate) error: Option<ObjectError>,
    /// Set while a restore/recompute is rebuilding the object's shards
    /// after hardware loss; consumers wait on it instead of observing a
    /// transient gap. Fired (and cleared) when recovery completes or
    /// fails terminally.
    pub(crate) recovering: Option<Event>,
    /// The object's delta-checkpoint chain: zero or more durable epochs,
    /// each persisting the shards dirty at its commit.
    pub(crate) checkpoints: CheckpointChain,
    /// How to recompute the object: the producing program and its bound
    /// inputs (which the record retains). Sink objects only.
    pub(crate) lineage: Option<Arc<LineageRecord>>,
}

impl ObjectEntry {
    fn new(owner: ClientId) -> Self {
        ObjectEntry {
            owner,
            refcount: 1,
            ready: FxHashMap::default(),
            shards: FxHashMap::default(),
            error: None,
            recovering: None,
            checkpoints: CheckpointChain::default(),
            lineage: None,
        }
    }

    /// Fully produced, healthy, lineage-bearing, with at least one shard
    /// dirty since the last durable epoch — the precondition for
    /// scheduling a (delta) disk checkpoint.
    pub(crate) fn checkpoint_candidate(&self) -> bool {
        self.lineage.is_some() && self.checkpoint_complete_and_dirty()
    }

    /// Like [`ObjectEntry::checkpoint_candidate`] but without the
    /// lineage requirement — the gate for *forced* checkpoints
    /// ([`ObjectStore::checkpoint_now`](super::index::ObjectStore)),
    /// which callers may cut on lineage-less objects.
    pub(crate) fn checkpoint_complete_and_dirty(&self) -> bool {
        self.error.is_none()
            && self.recovering.is_none()
            && !self.ready.is_empty()
            && self.ready.values().all(Event::is_set)
            && self.shards.len() == self.ready.len()
            && self.shards.values().any(|s| s.dirty)
    }
}

/// Where an HBM or DRAM shard resides — what one hardware death takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Place {
    Hbm(DeviceId),
    Dram(HostId),
}

impl StoredShard {
    /// Where the shard resides (disk shards reside nowhere).
    pub(crate) fn place(&self) -> Option<Place> {
        match (self.tier, self.host) {
            (Tier::Hbm, _) => Some(Place::Hbm(self.device)),
            (Tier::Dram, Some(host)) => Some(Place::Dram(host)),
            _ => None,
        }
    }
}

/// One resident shard in eviction order: `(last_access, object,
/// shard)` — least recently used first, ties (untiered stores never
/// tick the clock, so there every key ties) on `(object, shard)`.
pub(crate) type Resident = (u64, ObjectId, u32);

/// The ordered *residency sets*: per device its HBM shards, per host
/// the shards spilled to its DRAM, each set sorted in the order spill
/// and demotion pick victims — a victim is the front of a set instead of
/// a scan, and the blast-radius queries (hardware death) read the same
/// sets. Every site that creates, moves, bumps or drops a shard keeps
/// them in step, on tiered and untiered stores alike;
/// [`ObjectStore::tiers_conserved`] recounts them from the object table.
///
/// A set is a sorted deque: victims leave at the front and fresh or
/// freshly spilled shards arrive at or near the back, both O(1) once the
/// binary search has found the spot; only taking a shard out of the
/// middle (an LRU bump, a release) moves entries — at most half the set,
/// 32 bytes each. Drained sets stay in the map and keep their buffer, so
/// a steady-state step allocates nothing here. That matters more than
/// the tree it could have been: the first shard on a device is stored on
/// the put path of a wide gang, and `spmd_wide` (2048 devices) ran 8–16 %
/// slower with any variant that left more heap per device, or freed and
/// reallocated tree nodes per step, between the gang's own allocations —
/// the same −11 % shows on the previous `Vec` index if its buffers are
/// merely made 368 bytes instead of 64.
#[derive(Default)]
pub(crate) struct Residency(FxHashMap<Place, VecDeque<Resident>>);

impl Residency {
    /// Entries a set's first buffer holds (64 bytes): a device's current
    /// and previous output.
    const FIRST_BUFFER: usize = 2;

    pub(crate) fn insert(&mut self, place: Place, key: Resident) {
        let set = self.0.entry(place);
        let set = set.or_insert_with(|| VecDeque::with_capacity(Self::FIRST_BUFFER));
        let at = set.binary_search(&key);
        debug_assert!(at.is_err(), "{key:?} already resides in {place:?}");
        if let Err(at) = at {
            set.insert(at, key);
        }
    }

    pub(crate) fn remove(&mut self, place: Place, key: Resident) {
        let set = self.0.get_mut(&place);
        let at = set.as_ref().and_then(|set| set.binary_search(&key).ok());
        debug_assert!(at.is_some(), "{key:?} did not reside in {place:?}");
        if let (Some(set), Some(at)) = (set, at) {
            set.remove(at);
        }
    }

    /// The shards residing in `place`, in victim order.
    pub(crate) fn of(&self, place: Place) -> impl Iterator<Item = Resident> + '_ {
        self.0.get(&place).into_iter().flatten().copied()
    }
}

/// The object table plus the residency sets hardware-failure fan-out
/// and the tier machinery walk. Owner queries (failure-GC) filter the
/// table instead: they run once per failed client.
#[derive(Default)]
pub(crate) struct StoreInner {
    pub(crate) objects: FxHashMap<ObjectId, ObjectEntry>,
    pub(crate) resident: Residency,
    pub(crate) tier: Option<TierState>,
}

impl StoreInner {
    /// Ids of `client`'s objects in ascending order — the order
    /// deterministic fault replay relies on.
    fn owned_by(&self, client: ClientId) -> Vec<ObjectId> {
        let mut owned: Vec<ObjectId> = self
            .objects
            .iter()
            .filter(|(_, entry)| entry.owner == client)
            .map(|(id, _)| *id)
            .collect();
        owned.sort_unstable();
        owned
    }

    /// True if the residency sets hold exactly the HBM and DRAM shards
    /// of the object table, each under its current key (drained sets
    /// aside).
    pub(crate) fn residency_recounts(&self) -> bool {
        let mut want = Residency::default();
        for (id, entry) in &self.objects {
            for (no, sh) in &entry.shards {
                if let Some(place) = sh.place() {
                    want.insert(place, (sh.last_access, *id, *no));
                }
            }
        }
        let have = &self.resident.0;
        have.values().filter(|set| !set.is_empty()).count() == want.0.len()
            && want.0.iter().all(|(p, set)| have.get(p) == Some(set))
    }

    /// Unthreads shard `no` of `id` from the residency set and byte
    /// ledger of the tier it occupies (the shard is leaving the store).
    #[expect(clippy::expect_used, reason = "a spill to disk always sets the extent")]
    pub(crate) fn untier_shard(&mut self, id: ObjectId, no: u32, shard: &StoredShard) {
        if let Some(place) = shard.place() {
            self.resident.remove(place, (shard.last_access, id, no));
        }
        let Some(ts) = self.tier.as_mut() else {
            return;
        };
        match shard.tier {
            Tier::Hbm => ts.hbm.uncharge(shard.bytes),
            Tier::Dram => {
                if let Some(host) = shard.host {
                    ts.dram.uncharge(host, shard.bytes);
                }
            }
            Tier::Disk => {
                let ext = shard.extent.expect("disk shard without extent");
                ts.disk.uncharge(ext);
            }
        }
    }

    /// Removes an object and unthreads it from every index and ledger
    /// (shards *and* its checkpoint chain's disk extents). An in-flight
    /// recovery is released (its waiters unblock; the recovery task
    /// observes the missing entry and abandons).
    pub(crate) fn remove_object(&mut self, id: ObjectId) -> Option<ObjectEntry> {
        let entry = self.objects.remove(&id)?;
        for (no, shard) in &entry.shards {
            self.untier_shard(id, *no, shard);
        }
        if let Some(ts) = self.tier.as_mut() {
            ts.release_chain(&entry.checkpoints);
        }
        if let Some(rec) = &entry.recovering {
            rec.set();
        }
        Some(entry)
    }
}

/// The cluster-wide sharded object store.
///
/// One instance is shared by all host executors in the simulation (each
/// host only ever touches shards of its local devices; the shared map
/// models the per-host stores plus the client's logical handle table).
#[derive(Clone)]
pub struct ObjectStore {
    pub(crate) inner: Arc<Lock<StoreInner>>,
    /// What a tiered store was built with. Fixed at construction, so it
    /// is read without the lock (an untiered `ensure_room` returns
    /// without touching `inner`).
    pub(crate) env: Option<Arc<TierEnv>>,
}

impl Default for ObjectStore {
    fn default() -> Self {
        ObjectStore {
            // Named: the store is the controller's most shared structure
            // and the first suspect in any threaded contention profile.
            inner: Arc::new(Lock::named("core.store", StoreInner::default())),
            env: None,
        }
    }
}

impl fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectStore")
            .field("objects", &self.inner.lock().objects.len())
            .field("tiered", &self.env.is_some())
            .finish()
    }
}

impl ObjectStore {
    /// Creates an empty single-tier (HBM-only) store: no spill, no
    /// checkpoints, `ProducerFailed` terminal — the seed semantics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty *tiered* store: HBM pressure spills
    /// least-recently-used ready shards to host DRAM (cascading to disk
    /// under DRAM pressure), and completed lineage-bearing objects are
    /// periodically delta-checkpointed to disk on the timer wheel.
    pub fn with_tiers(handle: SimHandle, topo: Arc<Topology>, cfg: TierConfig) -> Self {
        let env = Arc::new(TierEnv::new(handle, topo, cfg));
        let store = ObjectStore {
            env: Some(Arc::clone(&env)),
            ..Self::default()
        };
        store.inner.lock().tier = Some(TierState::new(env));
        store
    }

    /// Registers an object owned by `owner` with refcount 1. Idempotent
    /// per object: shards are added with [`ObjectStore::put_shard`].
    pub fn create(&self, id: ObjectId, owner: ClientId) {
        let mut inner = self.inner.lock();
        inner
            .objects
            .entry(id)
            .or_insert_with(|| ObjectEntry::new(owner));
    }

    /// Declares an object with `shards` shards *before it is produced*,
    /// eagerly creating one readiness event per shard, and returns those
    /// events in shard order.
    ///
    /// Idempotent like [`ObjectStore::create`]: only the *first* call
    /// for an id installs the entry, and its initial refcount of 1
    /// belongs to that caller (the client's `ObjectRef`). A repeat call
    /// takes **no** additional reference — it merely fills in and
    /// returns the shard events — so a second independent handle must
    /// [`retain`](ObjectStore::retain) explicitly.
    pub fn declare(&self, id: ObjectId, owner: ClientId, shards: u32) -> Vec<Event> {
        let mut inner = self.inner.lock();
        let entry = inner
            .objects
            .entry(id)
            .or_insert_with(|| ObjectEntry::new(owner));
        // Sized once for every shard the producer will put: a 2048-shard
        // object otherwise regrows its table ten times on the put path.
        let unseen = (shards as usize).saturating_sub(entry.shards.len());
        entry.shards.reserve(unseen);
        (0..shards)
            .map(|s| entry.ready.entry(s).or_default().clone())
            .collect()
    }

    /// Reserves HBM on `device` for shard `shard` of `id` and records it.
    /// On a tiered store, HBM pressure first spills LRU ready shards to
    /// a host's DRAM; only if nothing is spillable does the put await
    /// classic back-pressure.
    ///
    /// If the object is unknown — its last reference was dropped or its
    /// owner was garbage-collected while the producing run was still in
    /// flight — the output is discarded: nothing is pinned and a fresh,
    /// never-set event is returned.
    ///
    /// # Panics
    ///
    /// Panics if the shard already exists (untiered store; a tiered
    /// store treats the duplicate as a stale write racing recovery and
    /// discards it).
    pub async fn put_shard(
        &self,
        id: ObjectId,
        shard: u32,
        device: &DeviceHandle,
        bytes: u64,
    ) -> Event {
        {
            let inner = self.inner.lock();
            match inner.objects.get(&id) {
                None => return Event::new(),
                // A failed object's output is discarded: its events are
                // already set, nothing gets pinned.
                Some(e) if e.error.is_some() => {
                    let ev = Event::new();
                    ev.set();
                    return ev;
                }
                Some(_) => {}
            }
        }
        // Tiered stores relieve HBM pressure by spilling before the
        // allocation can stall; both happen outside the store borrow.
        self.ensure_room(device, bytes).await;
        let lease = device.hbm().allocate(bytes).await;
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let Some(entry) = inner.objects.get_mut(&id) else {
            // Released while we waited on back-pressure: discard.
            return Event::new();
        };
        if entry.error.is_some() {
            // Failed while we waited on back-pressure: discard.
            let ev = Event::new();
            ev.set();
            return ev;
        }
        if inner.tier.is_some() && (entry.recovering.is_some() || entry.shards.contains_key(&shard))
        {
            // Recovery owns this object's shards now (or already
            // rematerialized this one): the late write from the aborted
            // production is discarded, the lease returns.
            return entry.ready.entry(shard).or_default().clone();
        }
        let ready = entry.ready.entry(shard).or_insert_with(Event::new).clone();
        let last_access = match inner.tier.as_mut() {
            Some(ts) => {
                ts.clock += 1;
                ts.hbm.charge(bytes);
                ts.clock
            }
            None => 0,
        };
        let prev = entry.shards.insert(
            shard,
            StoredShard {
                device: device.id(),
                bytes,
                lease: Some(lease),
                ready: ready.clone(),
                tier: Tier::Hbm,
                host: None,
                last_access,
                dirty: true,
                extent: None,
            },
        );
        assert!(prev.is_none(), "{id} shard {shard} stored twice");
        let key = (last_access, id, shard);
        inner.resident.insert(Place::Hbm(device.id()), key);
        ready
    }

    /// Marks shard `shard` of `id` ready (producing kernel finished).
    /// On a tiered store with checkpointing, the mark that completes the
    /// object schedules its disk checkpoint at the next interval
    /// boundary on the timer wheel.
    ///
    /// Late marks on released objects are ignored — the consumer is gone.
    pub fn mark_ready(&self, id: ObjectId, shard: u32) {
        let schedule_checkpoint = {
            let inner = self.inner.lock();
            let Some(entry) = inner.objects.get(&id) else {
                return;
            };
            if let Some(ev) = entry.ready.get(&shard) {
                ev.set();
            }
            self.checkpoints_scheduled() && entry.checkpoint_candidate()
        };
        if schedule_checkpoint {
            self.spawn_checkpoint(id);
        }
    }

    /// Readiness event of a shard, if the object (and its declared or
    /// stored shard) is present.
    pub fn shard_ready(&self, id: ObjectId, shard: u32) -> Option<Event> {
        self.inner
            .lock()
            .objects
            .get(&id)
            .and_then(|e| e.ready.get(&shard).cloned())
    }

    /// Increments the logical refcount.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownObject`] if the object is gone — e.g.
    /// an `ObjectRef` clone racing a client-failure GC. Callers that can
    /// tolerate the race (handle duplication) treat this as a no-op.
    pub fn retain(&self, id: ObjectId) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        match inner.objects.get_mut(&id) {
            Some(entry) => {
                entry.refcount += 1;
                Ok(())
            }
            None => Err(StoreError::UnknownObject(id)),
        }
    }

    /// Decrements the logical refcount, freeing all shards (their HBM
    /// leases drop, tier ledgers uncharge) when it reaches zero. A
    /// release of an unknown object is a no-op (the GC got there first).
    pub fn release(&self, id: ObjectId) {
        // The entry's lineage record (if any) holds ObjectRefs whose own
        // drops re-enter the store; it must outlive the borrow.
        let _deferred = {
            let mut inner = self.inner.lock();
            let Some(entry) = inner.objects.get_mut(&id) else {
                return;
            };
            entry.refcount -= 1;
            if entry.refcount == 0 {
                let mut removed = inner.remove_object(id);
                // HBM leases return inside the borrow (seed ordering);
                // only the re-entrant lineage drop is deferred.
                if let Some(entry) = removed.as_mut() {
                    entry.shards.clear();
                }
                removed
            } else {
                None
            }
        };
    }

    /// Frees every object owned by `client`, regardless of refcount —
    /// the failure-GC path: "objects are tagged with ownership labels so
    /// that they can be garbage collected if a program or client fails".
    ///
    /// Readiness events of reclaimed objects are fired so that consumers
    /// already gated on them unblock (they observe the producer as done;
    /// cross-client failure containment is the consumer's problem) and
    /// the simulation stays quiescent-able.
    pub fn gc_client(&self, client: ClientId) -> usize {
        // Lineage records drop after the borrow ends (their ObjectRefs
        // re-enter the store); leases and events keep the seed ordering.
        let deferred: Vec<ObjectEntry> = {
            let mut inner = self.inner.lock();
            inner
                .owned_by(client)
                .into_iter()
                .filter_map(|id| {
                    let mut entry = inner.remove_object(id)?;
                    for ev in entry.ready.values() {
                        ev.set();
                    }
                    entry.shards.clear();
                    Some(entry)
                })
                .collect()
        };
        deferred.len()
    }

    /// Marks `id` failed with `reason`: its shards are dropped (HBM
    /// leases return, tier ledgers uncharge), its checkpoint chain and
    /// lineage are discarded, its readiness events fire so gated
    /// consumers unblock, and [`ObjectStore::object_error`] reports the
    /// error from now on. The entry itself survives until its refcount
    /// drains, so live `ObjectRef`s resolve to the typed error rather
    /// than stale data. The first failure reason wins. Returns false for
    /// unknown objects.
    ///
    /// With recovery enabled this is the *terminal* verdict — the fault
    /// injector routes hardware loss through the recovery manager first
    /// and only calls this when recovery is impossible or exhausted.
    pub fn fail_object(&self, id: ObjectId, reason: FailureReason) -> bool {
        let _deferred = {
            let mut inner = self.inner.lock();
            let inner = &mut *inner;
            let (shards, chain, lineage) = {
                let Some(entry) = inner.objects.get_mut(&id) else {
                    return false;
                };
                if entry.error.is_none() {
                    entry.error = Some(ObjectError::ProducerFailed { object: id, reason });
                }
                let shards: Vec<(u32, StoredShard)> = entry.shards.drain().collect();
                let chain = std::mem::take(&mut entry.checkpoints);
                let lineage = entry.lineage.take();
                if let Some(rec) = entry.recovering.take() {
                    rec.set();
                }
                for ev in entry.ready.values() {
                    ev.set();
                }
                (shards, chain, lineage)
            };
            for (no, shard) in &shards {
                inner.untier_shard(id, *no, shard);
            }
            if let Some(ts) = inner.tier.as_mut() {
                ts.release_chain(&chain);
            }
            // Leases return here, inside the borrow (seed ordering);
            // the lineage's ObjectRefs drop after it ends.
            drop(shards);
            lineage
        };
        true
    }

    /// The recorded failure of `id`, if any. An object missing from the
    /// store while someone still holds a handle to it was reclaimed by a
    /// failure-GC; that is reported as [`FailureReason::OwnerGone`].
    pub fn object_error(&self, id: ObjectId) -> Option<ObjectError> {
        match self.inner.lock().objects.get(&id) {
            Some(entry) => entry.error,
            None => Some(ObjectError::ProducerFailed {
                object: id,
                reason: FailureReason::OwnerGone,
            }),
        }
    }

    /// True if the store still holds an entry for `id`.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.inner.lock().objects.contains_key(&id)
    }

    /// The owner of `id`, if it is still in the store.
    pub fn owner_of(&self, id: ObjectId) -> Option<ClientId> {
        self.inner.lock().objects.get(&id).map(|e| e.owner)
    }

    /// Ids of all objects with a shard residing in `place`, ascending
    /// and deduplicated (an object with several shards there appears
    /// once) — the deterministic snapshot the fault injector's loss walk
    /// absorbs or fails when the hardware behind `place` dies.
    pub(crate) fn objects_in(&self, place: Place) -> Vec<ObjectId> {
        let inner = self.inner.lock();
        let mut ids: Vec<ObjectId> = inner.resident.of(place).map(|key| key.1).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Ids of all live objects owned by `client`, in ascending order.
    pub fn objects_owned_by(&self, client: ClientId) -> Vec<ObjectId> {
        self.inner.lock().owned_by(client)
    }

    /// Number of live logical objects.
    pub fn len(&self) -> usize {
        self.inner.lock().objects.len()
    }

    /// True if the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().objects.is_empty()
    }

    /// Total bytes held across all shards of `id` (every tier).
    pub fn object_bytes(&self, id: ObjectId) -> u64 {
        self.inner
            .lock()
            .objects
            .get(&id)
            .map(|e| e.shards.values().map(|s| s.bytes).sum())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{device, obj};
    use super::*;
    use pathways_sim::sync::Event;
    use pathways_sim::Sim;

    #[test]
    fn refcount_is_per_logical_object() {
        let mut sim = Sim::new(0);
        let store = ObjectStore::new();
        let dev = device(&sim, 0, 1_000);
        let store2 = store.clone();
        let dev2 = dev.clone();
        sim.spawn("t", async move {
            store2.create(obj(0, 0), ClientId(0));
            for shard in 0..4 {
                store2.put_shard(obj(0, 0), shard, &dev2, 100).await;
            }
            assert_eq!(dev2.hbm().used(), 400);
            // One retain + one release leaves the object alive: the count
            // is logical, covering all 4 shards.
            store2.retain(obj(0, 0)).unwrap();
            store2.release(obj(0, 0));
            assert_eq!(store2.len(), 1);
            store2.release(obj(0, 0));
            assert_eq!(store2.len(), 0);
            assert_eq!(dev2.hbm().used(), 0);
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn retain_on_unknown_object_is_a_typed_error() {
        // Regression: a racing client-failure GC must not abort the
        // simulation when a stale handle is duplicated.
        let store = ObjectStore::new();
        assert_eq!(
            store.retain(obj(7, 7)),
            Err(StoreError::UnknownObject(obj(7, 7)))
        );
        // And after a GC reclaimed the object mid-flight:
        store.create(obj(1, 0), ClientId(3));
        store.retain(obj(1, 0)).unwrap();
        assert_eq!(store.gc_client(ClientId(3)), 1);
        assert_eq!(
            store.retain(obj(1, 0)),
            Err(StoreError::UnknownObject(obj(1, 0)))
        );
        // release mirrors this as a documented no-op.
        store.release(obj(1, 0));
        assert!(store.is_empty());
    }

    #[test]
    fn declare_creates_ready_events_before_production() {
        let store = ObjectStore::new();
        let events = store.declare(obj(0, 1), ClientId(0), 3);
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| !e.is_set()));
        // The declared events are the ones mark_ready fires.
        store.mark_ready(obj(0, 1), 2);
        assert!(events[2].is_set());
        assert!(!events[0].is_set());
        assert_eq!(
            store.shard_ready(obj(0, 1), 0).unwrap().is_set(),
            events[0].is_set()
        );
    }

    #[test]
    fn put_shard_on_released_object_discards_output() {
        // A sink whose ObjectRef was dropped (or GC'd) before the kernel
        // produced data: the late put pins nothing and panics nowhere.
        let mut sim = Sim::new(0);
        let store = ObjectStore::new();
        let dev = device(&sim, 0, 1_000);
        let store2 = store.clone();
        sim.spawn("t", async move {
            store2.declare(obj(0, 0), ClientId(0), 1);
            store2.release(obj(0, 0)); // refcount 1 -> 0, entry gone
            let ev = store2.put_shard(obj(0, 0), 0, &dev, 100).await;
            assert!(!ev.is_set());
            assert_eq!(dev.hbm().used(), 0);
            store2.mark_ready(obj(0, 0), 0); // no-op, no panic
            assert!(store2.is_empty());
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn gc_fires_ready_events_of_reclaimed_objects() {
        let store = ObjectStore::new();
        let events = store.declare(obj(0, 0), ClientId(0), 2);
        assert_eq!(store.gc_client(ClientId(0)), 1);
        assert!(events.iter().all(|e| e.is_set()), "consumers must unblock");
    }

    #[test]
    fn gc_client_frees_only_that_owner() {
        let mut sim = Sim::new(0);
        let store = ObjectStore::new();
        let dev = device(&sim, 0, 1_000);
        let store2 = store.clone();
        let dev2 = dev.clone();
        sim.spawn("t", async move {
            store2.create(obj(0, 0), ClientId(0));
            store2.put_shard(obj(0, 0), 0, &dev2, 100).await;
            store2.create(obj(1, 0), ClientId(1));
            store2.put_shard(obj(1, 0), 0, &dev2, 200).await;
            // Even with extra refs, failure-GC removes client 0's object.
            store2.retain(obj(0, 0)).unwrap();
            assert_eq!(store2.gc_client(ClientId(0)), 1);
            assert_eq!(store2.len(), 1);
            assert_eq!(dev2.hbm().used(), 200);
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn owner_queries_and_gc_answer_in_ascending_id_order() {
        // Two clients create and release objects interleaved and out of
        // id order; both owner queries still answer in ascending id
        // order, the order deterministic fault replay relies on.
        let store = ObjectStore::new();
        let mut live: Vec<(ObjectId, ClientId)> = Vec::new();
        for i in 0..30u64 {
            let (id, owner) = (obj((i * 7) % 30, (i % 3) as u32), ClientId((i % 2) as u32));
            store.declare(id, owner, 1);
            live.push((id, owner));
            if i % 4 == 3 {
                let (gone, _) = live.remove((i as usize * 5) % live.len());
                store.release(gone);
            }
        }
        let owned_by = |client: ClientId| {
            let mut ids: Vec<ObjectId> = live
                .iter()
                .filter(|(_, owner)| *owner == client)
                .map(|(id, _)| *id)
                .collect();
            ids.sort_unstable();
            ids
        };
        let (kept, doomed) = (owned_by(ClientId(0)), owned_by(ClientId(1)));
        assert_eq!(store.objects_owned_by(ClientId(0)), kept);
        assert_eq!(store.objects_owned_by(ClientId(1)), doomed);

        // The GC fires each object's ready event as it removes it, so
        // one waiter per object records the removal order.
        let mut sim = Sim::new(0);
        let order = Arc::new(Lock::new(Vec::new()));
        let h = sim.handle();
        let (store2, order2, ids) = (store.clone(), Arc::clone(&order), doomed.clone());
        sim.spawn("gc", async move {
            let n = ids.len();
            for id in ids {
                let ready = store2.shard_ready(id, 0).expect("declared");
                let order = Arc::clone(&order2);
                h.spawn("waiter", async move {
                    ready.wait().await;
                    order.lock().push(id);
                });
            }
            h.sleep(pathways_sim::SimDuration::from_micros(1)).await;
            assert_eq!(store2.gc_client(ClientId(1)), n);
        });
        sim.run_to_quiescence();
        assert_eq!(*order.lock(), doomed);
        assert!(store.objects_owned_by(ClientId(1)).is_empty());
        assert_eq!(store.objects_owned_by(ClientId(0)), kept);
    }

    #[test]
    fn back_pressure_delays_put_shard() {
        let mut sim = Sim::new(0);
        let store = ObjectStore::new();
        let dev = device(&sim, 0, 100);
        let store2 = store.clone();
        let dev2 = dev.clone();
        let h = sim.handle();
        sim.spawn("first", async move {
            store2.create(obj(0, 0), ClientId(0));
            store2.put_shard(obj(0, 0), 0, &dev2, 80).await;
            h.sleep(pathways_sim::SimDuration::from_micros(50)).await;
            store2.release(obj(0, 0));
        });
        let store3 = store.clone();
        let dev3 = dev.clone();
        let h2 = sim.handle();
        let second = sim.spawn("second", async move {
            h2.sleep(pathways_sim::SimDuration::from_micros(1)).await;
            store3.create(obj(1, 0), ClientId(0));
            store3.put_shard(obj(1, 0), 0, &dev3, 50).await;
            h2.now().as_nanos()
        });
        sim.run_to_quiescence();
        // Stalled until the first object released at t=50us.
        assert_eq!(second.try_take().unwrap(), 50_000);
    }

    #[test]
    fn readiness_events_fire_consumers() {
        let mut sim = Sim::new(0);
        let store = ObjectStore::new();
        let dev = device(&sim, 0, 1_000);
        let store2 = store.clone();
        let dev2 = dev.clone();
        let h = sim.handle();
        let consumer = sim.spawn("flow", async move {
            store2.create(obj(0, 0), ClientId(0));
            let ready = store2.put_shard(obj(0, 0), 0, &dev2, 10).await;
            let store3 = store2.clone();
            let h2 = h.clone();
            h.spawn("producer", async move {
                h2.sleep(pathways_sim::SimDuration::from_micros(7)).await;
                store3.mark_ready(obj(0, 0), 0);
            });
            ready.wait().await;
            h.now().as_nanos()
        });
        sim.run_to_quiescence();
        assert_eq!(consumer.try_take().unwrap(), 7_000);
    }

    #[test]
    fn object_bytes_sums_shards() {
        let mut sim = Sim::new(0);
        let store = ObjectStore::new();
        let dev = device(&sim, 0, 1_000);
        let store2 = store.clone();
        sim.spawn("t", async move {
            store2.create(obj(0, 0), ClientId(0));
            store2.put_shard(obj(0, 0), 0, &dev, 100).await;
            store2.put_shard(obj(0, 0), 1, &dev, 150).await;
            assert_eq!(store2.object_bytes(obj(0, 0)), 250);
            assert_eq!(store2.object_bytes(obj(9, 9)), 0);
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn fail_object_frees_hbm_fires_events_and_records_error() {
        let mut sim = Sim::new(0);
        let store = ObjectStore::new();
        let dev = device(&sim, 0, 1_000);
        let store2 = store.clone();
        let dev2 = dev.clone();
        sim.spawn("t", async move {
            let events = store2.declare(obj(0, 0), ClientId(0), 2);
            store2.put_shard(obj(0, 0), 0, &dev2, 100).await;
            assert_eq!(dev2.hbm().used(), 100);
            assert!(store2.fail_object(obj(0, 0), FailureReason::Device(DeviceId(0))));
            assert_eq!(dev2.hbm().used(), 0, "failed shards release HBM");
            assert!(events.iter().all(Event::is_set), "consumers unblock");
            let err = store2.object_error(obj(0, 0)).unwrap();
            assert_eq!(err.reason(), FailureReason::Device(DeviceId(0)));
            // A second failure does not overwrite the first reason.
            store2.fail_object(obj(0, 0), FailureReason::OwnerGone);
            assert_eq!(
                store2.object_error(obj(0, 0)).unwrap().reason(),
                FailureReason::Device(DeviceId(0))
            );
            // Late puts to a failed object are discarded but report ready.
            let ev = store2.put_shard(obj(0, 0), 1, &dev2, 100).await;
            assert!(ev.is_set());
            assert_eq!(dev2.hbm().used(), 0);
            // The entry drains through the normal refcount path.
            assert_eq!(store2.len(), 1);
            store2.release(obj(0, 0));
            assert!(store2.is_empty());
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn fail_objects_on_device_is_scoped_and_sorted() {
        let mut sim = Sim::new(0);
        let store = ObjectStore::new();
        let d0 = device(&sim, 0, 1_000);
        let d1 = device(&sim, 1, 1_000);
        let store2 = store.clone();
        sim.spawn("t", async move {
            store2.create(obj(2, 0), ClientId(0));
            store2.put_shard(obj(2, 0), 0, &d0, 10).await;
            store2.create(obj(1, 0), ClientId(0));
            store2.put_shard(obj(1, 0), 0, &d0, 10).await;
            store2.put_shard(obj(1, 0), 1, &d0, 10).await;
            store2.create(obj(3, 0), ClientId(0));
            store2.put_shard(obj(3, 0), 0, &d1, 10).await;
            // The walk a device death runs: once per object, ascending.
            let doomed = store2.objects_in(Place::Hbm(DeviceId(0)));
            assert_eq!(doomed, vec![obj(1, 0), obj(2, 0)]);
            for id in doomed {
                store2.fail_object(id, FailureReason::Device(DeviceId(0)));
            }
            assert!(store2.objects_in(Place::Hbm(DeviceId(0))).is_empty());
            assert_eq!(d0.hbm().used(), 0);
            assert!(
                store2.object_error(obj(3, 0)).is_none(),
                "other device intact"
            );
            assert_eq!(store2.objects_in(Place::Hbm(DeviceId(1))), [obj(3, 0)]);
            assert_eq!(d1.hbm().used(), 10);
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn missing_object_reports_owner_gone() {
        let store = ObjectStore::new();
        store.declare(obj(0, 0), ClientId(5), 1);
        assert!(store.object_error(obj(0, 0)).is_none());
        assert_eq!(store.owner_of(obj(0, 0)), Some(ClientId(5)));
        store.gc_client(ClientId(5));
        assert_eq!(
            store.object_error(obj(0, 0)).map(|e| e.reason()),
            Some(FailureReason::OwnerGone)
        );
        assert!(!store.fail_object(obj(0, 0), FailureReason::OwnerGone));
    }

    #[test]
    #[should_panic(expected = "stored twice")]
    fn duplicate_shard_panics() {
        let mut sim = Sim::new(0);
        let store = ObjectStore::new();
        let dev = device(&sim, 0, 1_000);
        sim.spawn("t", async move {
            store.create(obj(0, 0), ClientId(0));
            store.put_shard(obj(0, 0), 0, &dev, 10).await;
            store.put_shard(obj(0, 0), 0, &dev, 10).await;
        });
        sim.run_to_quiescence();
    }
}
