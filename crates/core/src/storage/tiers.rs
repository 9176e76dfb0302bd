//! Tier vocabulary and tier *backends*: HBM, host DRAM, and a
//! segmented append-only disk.
//!
//! The seed store modeled exactly one tier — device HBM — so every byte
//! of produced data died with its device and `ProducerFailed` was
//! terminal. [`TierConfig`] turns on the memory hierarchy the paper's
//! deployment sits on: under per-device HBM pressure the store spills
//! least-recently-used ready shards to host DRAM (and cascades DRAM
//! overflow to disk), periodic checkpoints copy completed sink objects
//! to disk, and the recovery manager restores or recomputes objects
//! lost to hardware death before surfacing an error. Every tier
//! transition is a virtual-time transfer cost on the simulation wheel
//! and is stamped onto the `tiers` trace track, so tiered runs replay
//! bit-identically.
//!
//! Each tier's byte accounting lives behind the [`TierBackend`] trait:
//!
//! * [`HbmBackend`] — a pure ledger; residency itself is owned by the
//!   per-device [`HbmPool`](pathways_device::HbmPool) leases, the
//!   backend just mirrors the bytes the *store* has pinned so
//!   conservation is checkable from one place.
//! * [`DramBackend`] — per-host spill ledgers (capacity decisions are
//!   per host).
//! * [`DiskBackend`] — an append-only segment format: every disk write
//!   (demoted shard, checkpoint epoch) allocates an [`ExtentRef`] in
//!   the active segment; a segment seals when full and is reclaimed
//!   once every extent in it has died. Live bytes ([`TierBackend::used`])
//!   drain to zero with the objects; *occupied* bytes (live + dead in
//!   unreclaimed segments) are what the disk durably holds — the metric
//!   checkpoint GC exists to bound.

use std::fmt;
use std::sync::Arc;

use pathways_net::{FxHashMap, FxHashSet, HostId, Topology};
use pathways_sim::{SimDuration, SimHandle, SimTime};

use super::index::{ObjectId, ObjectStore};
use super::placement::PlacementPolicy;

/// Where one shard's bytes currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    /// Pinned in a device's HBM (the only tier of the untiered store).
    Hbm,
    /// Spilled (or restored) to a host's DRAM; lost if that host dies.
    Dram,
    /// On cluster-durable disk; survives device and host death.
    Disk,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::Hbm => write!(f, "hbm"),
            Tier::Dram => write!(f, "dram"),
            Tier::Disk => write!(f, "disk"),
        }
    }
}

/// Configuration of the tiered store and its recovery machinery.
///
/// Installed through
/// [`PathwaysConfig::tiers`](crate::PathwaysConfig::tiers); `None`
/// (the default) keeps the seed behavior: HBM only, no spill, no
/// checkpoints, `ProducerFailed` terminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierConfig {
    /// Host-DRAM spill capacity per host.
    pub dram_per_host: u64,
    /// HBM↔DRAM staging bandwidth (PCIe class), bytes per second.
    pub hbm_dram_bw: u64,
    /// DRAM↔disk bandwidth, bytes per second.
    pub dram_disk_bw: u64,
    /// Cross-host staging bandwidth (DCN class) paid *on top of* the
    /// local leg when a placement policy spills or restores a shard
    /// into a remote host's DRAM.
    pub cross_host_bw: u64,
    /// Fixed per-operation disk access latency (seek + request).
    pub disk_latency: SimDuration,
    /// Capacity of one append-only disk segment: writes append into the
    /// active segment, a full segment seals, and a sealed segment whose
    /// extents have all died is reclaimed.
    pub disk_segment_bytes: u64,
    /// Periodic checkpoint cadence: completed sink objects are copied
    /// to disk at the next multiple of this interval. `None` disables
    /// checkpointing (recovery then relies on lineage alone).
    pub checkpoint_interval: Option<SimDuration>,
    /// Checkpoint-GC policy: keep the last K epochs of every object's
    /// checkpoint chain. Epochs older than K are reclaimed *unless*
    /// they still hold the newest durable copy of some shard (the
    /// restore set) — GC never collects an epoch a live restore could
    /// need.
    pub checkpoint_keep: u32,
    /// Which host's DRAM receives spilled and restored shards.
    pub placement: PlacementPolicy,
    /// Attempt restore-from-checkpoint, then recompute-via-lineage,
    /// before surfacing `ProducerFailed` for objects lost to hardware
    /// death.
    pub recovery: bool,
    /// Recovery attempts per object before the failure becomes terminal.
    pub max_recovery_attempts: u32,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            dram_per_host: 64 << 30,
            hbm_dram_bw: 16_000_000_000,
            dram_disk_bw: 2_000_000_000,
            cross_host_bw: 12_500_000_000,
            disk_latency: SimDuration::from_micros(200),
            disk_segment_bytes: 64 << 20,
            checkpoint_interval: Some(SimDuration::from_micros(500)),
            checkpoint_keep: 2,
            placement: PlacementPolicy::LocalFirst,
            recovery: true,
            max_recovery_attempts: 2,
        }
    }
}

impl TierConfig {
    /// Virtual time to move `bytes` between HBM and host DRAM.
    pub fn hbm_dram_time(&self, bytes: u64) -> SimDuration {
        xfer_time(bytes, self.hbm_dram_bw)
    }

    /// Virtual time to move `bytes` between DRAM and disk (one disk
    /// latency plus the bandwidth term).
    pub fn disk_time(&self, bytes: u64) -> SimDuration {
        self.disk_latency + xfer_time(bytes, self.dram_disk_bw)
    }

    /// Extra virtual time to stage `bytes` across hosts (remote spill
    /// or restore under a non-local placement policy).
    pub fn cross_host_time(&self, bytes: u64) -> SimDuration {
        xfer_time(bytes, self.cross_host_bw)
    }
}

/// One tier transition of one shard — spills, disk demotions, restores
/// and recompute materializations all log these (the store's
/// [`spill_events`](crate::ObjectStore::spill_events)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillEvent {
    /// Virtual time of the transition.
    pub at: SimTime,
    /// The logical object.
    pub object: ObjectId,
    /// The shard that moved.
    pub shard: u32,
    /// Shard size.
    pub bytes: u64,
    /// Tier the bytes left.
    pub from: Tier,
    /// Tier the bytes landed in.
    pub to: Tier,
    /// Host whose DRAM is involved (accounting key for DRAM legs).
    pub host: HostId,
}

impl fmt::Display for SpillEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{} {}B {}->{} ({})",
            self.object, self.shard, self.bytes, self.from, self.to, self.host
        )
    }
}

/// Duration of moving `bytes` at `bw` bytes/sec (u128 intermediate so
/// multi-GiB shards cannot overflow).
pub(crate) fn xfer_time(bytes: u64, bw: u64) -> SimDuration {
    let ns = (u128::from(bytes) * 1_000_000_000) / u128::from(bw.max(1));
    SimDuration::from_nanos(ns.min(u128::from(u64::MAX)) as u64)
}

/// Counters over all tier transitions so far (monotonic).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierStats {
    /// HBM → DRAM spills under HBM pressure.
    pub spills: u64,
    /// DRAM → disk demotions under DRAM pressure.
    pub demotions: u64,
    /// Disk checkpoint epochs committed.
    pub checkpoints: u64,
    /// Objects rematerialized from a checkpoint.
    pub restores: u64,
    /// Objects rematerialized by lineage recompute.
    pub recomputes: u64,
}

/// Subtracts from a tier byte ledger, treating underflow as a hard
/// invariant violation (the "no masking" accounting contract).
pub(crate) fn ledger_sub(ledger: &mut u64, bytes: u64, what: &str) {
    assert!(
        *ledger >= bytes,
        "{what} ledger underflow: accounting drift ({} < {bytes})",
        *ledger
    );
    *ledger -= bytes;
}

// ---------------------------------------------------------------------
// Tier backends
// ---------------------------------------------------------------------

/// Byte accounting of one storage tier. Charges and uncharges are
/// backend-specific (DRAM is keyed by host, disk by extent), so the
/// trait carries the tier-agnostic surface: identity, live bytes, and
/// the virtual-time transfer model the store's data path uses.
pub(crate) trait TierBackend {
    /// Which tier this backend accounts for.
    fn tier(&self) -> Tier;
    /// Live bytes currently charged to the tier.
    fn used(&self) -> u64;
    /// Virtual time to write `bytes` into this tier (from the tier
    /// above it).
    fn write_time(&self, cfg: &TierConfig, bytes: u64) -> SimDuration;
    /// Virtual time to stage `bytes` back out for a consuming read.
    fn read_time(&self, cfg: &TierConfig, bytes: u64) -> SimDuration;
}

/// HBM ledger: mirrors the bytes the store has pinned across all
/// devices (the leases themselves live in the per-device pools). Lets
/// [`ObjectStore::tiers_conserved`] recompute *every* tier from the
/// object table.
#[derive(Default)]
pub(crate) struct HbmBackend {
    used: u64,
}

impl HbmBackend {
    pub(crate) fn charge(&mut self, bytes: u64) {
        self.used += bytes;
    }

    pub(crate) fn uncharge(&mut self, bytes: u64) {
        ledger_sub(&mut self.used, bytes, "HBM");
    }
}

impl TierBackend for HbmBackend {
    fn tier(&self) -> Tier {
        Tier::Hbm
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn write_time(&self, _cfg: &TierConfig, _bytes: u64) -> SimDuration {
        SimDuration::ZERO
    }

    fn read_time(&self, _cfg: &TierConfig, _bytes: u64) -> SimDuration {
        SimDuration::ZERO
    }
}

/// Host-DRAM spill ledgers, one per host (capacity decisions are per
/// host; see [`TierConfig::dram_per_host`]).
#[derive(Default)]
pub(crate) struct DramBackend {
    per_host: FxHashMap<HostId, u64>,
}

impl DramBackend {
    pub(crate) fn charge(&mut self, host: HostId, bytes: u64) {
        *self.per_host.entry(host).or_default() += bytes;
    }

    pub(crate) fn uncharge(&mut self, host: HostId, bytes: u64) {
        let used = self.per_host.entry(host).or_default();
        ledger_sub(used, bytes, "host-DRAM");
    }

    pub(crate) fn used_on(&self, host: HostId) -> u64 {
        self.per_host.get(&host).copied().unwrap_or(0)
    }

    pub(crate) fn per_host(&self) -> &FxHashMap<HostId, u64> {
        &self.per_host
    }
}

impl TierBackend for DramBackend {
    fn tier(&self) -> Tier {
        Tier::Dram
    }

    fn used(&self) -> u64 {
        self.per_host.values().sum()
    }

    fn write_time(&self, cfg: &TierConfig, bytes: u64) -> SimDuration {
        cfg.hbm_dram_time(bytes)
    }

    fn read_time(&self, cfg: &TierConfig, bytes: u64) -> SimDuration {
        cfg.hbm_dram_time(bytes)
    }
}

/// One allocation in the segmented disk: which segment holds the bytes.
/// Held by disk-tier shards and checkpoint epochs; uncharging the
/// extent is what lets its segment eventually be reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExtentRef {
    pub(crate) segment: u32,
    pub(crate) bytes: u64,
}

/// One append-only disk segment.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Segment {
    /// Bytes appended so far (append cursor; never decreases).
    pub(crate) alloc: u64,
    /// Bytes of extents still alive.
    pub(crate) live: u64,
    /// Bytes of extents that died (await reclaim with the segment).
    pub(crate) dead: u64,
    /// Full (or force-sealed): no further appends.
    pub(crate) sealed: bool,
    /// Sealed and fully dead: space returned to the cluster.
    pub(crate) reclaimed: bool,
}

/// Observability snapshot of the disk backend's segment accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segments ever created.
    pub segments: u64,
    /// Segments sealed (full).
    pub sealed: u64,
    /// Sealed segments whose extents all died and were reclaimed.
    pub reclaimed: u64,
    /// Live bytes across all segments (drains to zero with the objects).
    pub live_bytes: u64,
    /// Live + dead bytes in unreclaimed segments — what the disk
    /// durably holds; checkpoint GC exists to bound this.
    pub occupied_bytes: u64,
}

/// Append-only segmented disk. Demoted shards and checkpoint epochs
/// charge extents in the active segment; a full segment seals; a sealed
/// segment whose live bytes drain to zero is reclaimed whole (the
/// log-structured reclaim unit).
pub(crate) struct DiskBackend {
    segment_bytes: u64,
    segments: Vec<Segment>,
    live: u64,
}

impl DiskBackend {
    pub(crate) fn new(segment_bytes: u64) -> Self {
        DiskBackend {
            segment_bytes: segment_bytes.max(1),
            segments: Vec::new(),
            live: 0,
        }
    }

    /// Appends `bytes` into the active segment (sealing and opening
    /// segments as needed) and returns the extent.
    pub(crate) fn charge(&mut self, bytes: u64) -> ExtentRef {
        let needs_new = match self.segments.last() {
            None => true,
            Some(seg) => seg.sealed || (seg.alloc > 0 && seg.alloc + bytes > self.segment_bytes),
        };
        if needs_new {
            if let Some(seg) = self.segments.last_mut() {
                if !seg.sealed {
                    seg.sealed = true;
                    Self::maybe_reclaim(seg);
                }
            }
            self.segments.push(Segment::default());
        }
        let idx = self.segments.len() - 1;
        let seg = &mut self.segments[idx];
        seg.alloc += bytes;
        seg.live += bytes;
        self.live += bytes;
        if seg.alloc >= self.segment_bytes {
            seg.sealed = true;
        }
        ExtentRef {
            segment: idx as u32,
            bytes,
        }
    }

    /// Kills one extent: its bytes flip live → dead, and a sealed
    /// segment whose last live extent died is reclaimed whole.
    pub(crate) fn uncharge(&mut self, ext: ExtentRef) {
        ledger_sub(&mut self.live, ext.bytes, "disk");
        let seg = &mut self.segments[ext.segment as usize];
        ledger_sub(&mut seg.live, ext.bytes, "disk segment");
        seg.dead += ext.bytes;
        Self::maybe_reclaim(seg);
    }

    fn maybe_reclaim(seg: &mut Segment) {
        if seg.sealed && seg.live == 0 && !seg.reclaimed {
            seg.reclaimed = true;
            seg.dead = 0;
        }
    }

    /// Live + dead bytes in unreclaimed segments.
    pub(crate) fn occupied(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| !s.reclaimed)
            .map(|s| s.live + s.dead)
            .sum()
    }

    pub(crate) fn stats(&self) -> SegmentStats {
        SegmentStats {
            segments: self.segments.len() as u64,
            sealed: self.segments.iter().filter(|s| s.sealed).count() as u64,
            reclaimed: self.segments.iter().filter(|s| s.reclaimed).count() as u64,
            live_bytes: self.live,
            occupied_bytes: self.occupied(),
        }
    }

    /// Internal consistency: the total ledger equals the per-segment
    /// live sums (checked by [`ObjectStore::tiers_conserved`]).
    pub(crate) fn segments_consistent(&self) -> bool {
        self.live == self.segments.iter().map(|s| s.live).sum::<u64>()
            && self
                .segments
                .iter()
                .all(|s| !s.reclaimed || (s.sealed && s.live == 0 && s.dead == 0))
    }
}

impl TierBackend for DiskBackend {
    fn tier(&self) -> Tier {
        Tier::Disk
    }

    fn used(&self) -> u64 {
        self.live
    }

    fn write_time(&self, cfg: &TierConfig, bytes: u64) -> SimDuration {
        cfg.disk_time(bytes)
    }

    fn read_time(&self, cfg: &TierConfig, bytes: u64) -> SimDuration {
        cfg.disk_time(bytes)
    }
}

// ---------------------------------------------------------------------
// Tier machinery state
// ---------------------------------------------------------------------

/// What a tiered store was built with: nothing here changes after
/// [`ObjectStore::with_tiers`], so one `Arc` of it sits beside the
/// store's lock and is read without it.
pub(crate) struct TierEnv {
    pub(crate) cfg: TierConfig,
    pub(crate) handle: SimHandle,
    pub(crate) topo: Arc<Topology>,
    /// The `tiers` trace track, interned: a span costs its label only.
    track: Arc<str>,
}

impl TierEnv {
    pub(crate) fn new(handle: SimHandle, topo: Arc<Topology>, cfg: TierConfig) -> Self {
        TierEnv {
            cfg,
            handle,
            topo,
            track: "tiers".into(),
        }
    }

    /// Stamps `label` on the `tiers` trace track from `t0` to now.
    pub(crate) fn trace(&self, label: String, t0: SimTime) {
        self.handle
            .trace_span(Arc::clone(&self.track), label, t0, self.handle.now());
    }
}

/// Tier machinery state, present only on tiered stores.
pub(crate) struct TierState {
    pub(crate) env: Arc<TierEnv>,
    /// LRU clock: bumped on every shard store/read.
    pub(crate) clock: u64,
    pub(crate) hbm: HbmBackend,
    pub(crate) dram: DramBackend,
    pub(crate) disk: DiskBackend,
    pub(crate) log: Vec<SpillEvent>,
    pub(crate) stats: TierStats,
    /// Round-robin cursor of the `Spread` placement policy.
    pub(crate) placement_cursor: u64,
    /// Hosts the fault injector declared dead — non-local placement
    /// policies never target them.
    pub(crate) down_hosts: FxHashSet<HostId>,
}

impl TierState {
    pub(crate) fn new(env: Arc<TierEnv>) -> Self {
        let disk = DiskBackend::new(env.cfg.disk_segment_bytes);
        TierState {
            env,
            clock: 0,
            hbm: HbmBackend::default(),
            dram: DramBackend::default(),
            disk,
            log: Vec::new(),
            stats: TierStats::default(),
            placement_cursor: 0,
            down_hosts: FxHashSet::default(),
        }
    }

    /// Uncharges every epoch of a dropped checkpoint chain.
    pub(crate) fn release_chain(&mut self, chain: &super::checkpoint::CheckpointChain) {
        for epoch in &chain.epochs {
            self.disk.uncharge(epoch.extent);
        }
    }
}

// ---------------------------------------------------------------------
// ObjectStore: tier data path (spill, demote, read penalties) and tier
// observability
// ---------------------------------------------------------------------

use pathways_device::DeviceHandle;
use pathways_net::DeviceId;

use super::index::{Place, StoreInner, StoredShard};

/// A spill or demotion victim: `(object, shard, bytes)`.
type Victim = (ObjectId, u32, u64);

impl StoreInner {
    fn shard(&self, id: ObjectId, no: u32) -> Option<&StoredShard> {
        self.objects.get(&id)?.shards.get(&no)
    }

    /// The spill victim on `device`: its least-recently-used *ready* HBM
    /// shard (unready shards are pinned), ties on `(object, shard)`.
    fn hbm_victim(&self, device: DeviceId) -> Option<Victim> {
        let victim = self
            .resident
            .of(Place::Hbm(device))
            .find_map(|(_, id, no)| {
                let sh = self.shard(id, no)?;
                sh.ready.is_set().then_some((id, no, sh.bytes))
            });
        #[cfg(debug_assertions)]
        assert_eq!(victim, self.hbm_victim_by_scan(device), "HBM index drift");
        victim
    }

    /// The demotion victim on `host`: its least-recently-used DRAM shard.
    fn dram_victim(&self, host: HostId) -> Option<Victim> {
        let first = self.resident.of(Place::Dram(host)).next();
        let victim = first.and_then(|(_, id, no)| Some((id, no, self.shard(id, no)?.bytes)));
        #[cfg(debug_assertions)]
        assert_eq!(victim, self.dram_victim_by_scan(host), "DRAM index drift");
        victim
    }

    /// Reference model of [`StoreInner::hbm_victim`]: the scan over the
    /// object table the residency sets replaced.
    #[cfg(any(test, debug_assertions))]
    fn hbm_victim_by_scan(&self, device: DeviceId) -> Option<Victim> {
        self.victim_by_scan(|sh| sh.tier == Tier::Hbm && sh.device == device && sh.ready.is_set())
    }

    /// Reference model of [`StoreInner::dram_victim`].
    #[cfg(any(test, debug_assertions))]
    fn dram_victim_by_scan(&self, host: HostId) -> Option<Victim> {
        self.victim_by_scan(|sh| sh.tier == Tier::Dram && sh.host == Some(host))
    }

    #[cfg(any(test, debug_assertions))]
    fn victim_by_scan(&self, eligible: impl Fn(&StoredShard) -> bool) -> Option<Victim> {
        self.objects
            .iter()
            .flat_map(|(id, entry)| entry.shards.iter().map(move |(no, sh)| (*id, *no, sh)))
            .filter(|(_, _, sh)| eligible(sh))
            .min_by_key(|&(id, no, sh)| (sh.last_access, id, no))
            .map(|(id, no, sh)| (id, no, sh.bytes))
    }
}

impl ObjectStore {
    /// The tier config, sim handle and topology, if this store is
    /// tiered.
    pub(crate) fn tier_env(&self) -> Option<&TierEnv> {
        self.env.as_deref()
    }

    /// Stamps `label` on the `tiers` trace track from `t0` to now
    /// (nothing on an untiered store).
    pub(crate) fn trace_tiers(&self, label: String, t0: SimTime) {
        if let Some(env) = self.tier_env() {
            env.trace(label, t0);
        }
    }

    /// True if this store records lineage and recovers lost objects
    /// (tiered with `recovery` on). Gates the client's lineage
    /// registration so untiered runs keep seed-identical refcounts.
    pub fn lineage_enabled(&self) -> bool {
        self.tier_env().is_some_and(|env| env.cfg.recovery)
    }

    /// True if completed objects are checkpointed on the timer wheel
    /// (tiered, with a checkpoint interval).
    pub(crate) fn checkpoints_scheduled(&self) -> bool {
        self.tier_env()
            .is_some_and(|env| env.cfg.checkpoint_interval.is_some())
    }

    /// Frees HBM on `device` until `bytes` fit (or nothing ready is
    /// left to spill), by moving least-recently-used ready shards to a
    /// host's DRAM at the configured staging bandwidth — cascading to
    /// disk when the DRAM budget overflows. The receiving host is the
    /// device's own under [`PlacementPolicy::LocalFirst`]; other
    /// policies may pick a remote host and pay the cross-host leg.
    /// No-op on untiered stores; callers then rely on classic HBM
    /// back-pressure.
    pub async fn ensure_room(&self, device: &DeviceHandle, bytes: u64) {
        let Some(env) = self.tier_env() else {
            return;
        };
        let d = device.id();
        let local = env.topo.host_of_device(d);
        loop {
            if device.hbm().free() >= bytes {
                return;
            }
            // The receiving host is chosen with the victim (placement
            // policy over live hosts).
            let victim = {
                let mut inner = self.inner.lock();
                let inner = &mut *inner;
                inner.hbm_victim(d).map(|(vid, vshard, vbytes)| {
                    let ts = inner.tier.as_mut().expect("tiered");
                    let host = ts.spill_host(local);
                    let mut cost = ts.dram.write_time(&env.cfg, vbytes);
                    if host != local {
                        cost += env.cfg.cross_host_time(vbytes);
                    }
                    (vid, vshard, vbytes, host, cost)
                })
            };
            let Some((vid, vshard, vbytes, host, cost)) = victim else {
                // Nothing spillable (all HBM residents are unready or
                // transient staging): fall back to back-pressure.
                return;
            };
            let t0 = env.handle.now();
            env.handle.sleep(cost).await;
            // Revalidate after the staging copy: the shard may have been
            // freed, failed, or spilled by a concurrent caller.
            let spilled = {
                let mut inner = self.inner.lock();
                let inner = &mut *inner;
                let sh = inner
                    .objects
                    .get_mut(&vid)
                    .and_then(|entry| entry.shards.get_mut(&vshard))
                    .filter(|sh| sh.tier == Tier::Hbm && sh.device == d && sh.ready.is_set());
                if let (Some(sh), Some(ts)) = (sh, inner.tier.as_mut()) {
                    let key = (sh.last_access, vid, vshard);
                    inner.resident.remove(Place::Hbm(d), key);
                    inner.resident.insert(Place::Dram(host), key);
                    sh.tier = Tier::Dram;
                    sh.host = Some(host);
                    ts.hbm.uncharge(vbytes);
                    ts.dram.charge(host, vbytes);
                    ts.stats.spills += 1;
                    ts.log.push(SpillEvent {
                        at: env.handle.now(),
                        object: vid,
                        shard: vshard,
                        bytes: vbytes,
                        from: ts.hbm.tier(),
                        to: ts.dram.tier(),
                        host,
                    });
                    Some(sh.lease.take())
                } else {
                    None
                }
            };
            if let Some(lease) = spilled {
                drop(lease); // HBM returns outside the store borrow
                env.trace(format!("spill {vid}#{vshard}"), t0);
                self.drain_dram(host).await;
            }
        }
    }

    /// Demotes oldest DRAM shards on `host` to disk until the host is
    /// back under its DRAM budget. Each demotion appends an extent into
    /// the disk backend's active segment.
    pub(crate) async fn drain_dram(&self, host: HostId) {
        let Some(env) = self.tier_env() else {
            return;
        };
        loop {
            let victim = {
                let inner = self.inner.lock();
                let Some(ts) = inner.tier.as_ref() else {
                    return;
                };
                if ts.dram.used_on(host) <= env.cfg.dram_per_host {
                    return;
                }
                inner.dram_victim(host).map(|(vid, vshard, vbytes)| {
                    (vid, vshard, vbytes, ts.disk.write_time(&env.cfg, vbytes))
                })
            };
            let Some((vid, vshard, vbytes, cost)) = victim else {
                return;
            };
            let t0 = env.handle.now();
            env.handle.sleep(cost).await;
            let committed = {
                let mut inner = self.inner.lock();
                let inner = &mut *inner;
                let sh = inner
                    .objects
                    .get_mut(&vid)
                    .and_then(|entry| entry.shards.get_mut(&vshard))
                    .filter(|sh| sh.tier == Tier::Dram && sh.host == Some(host));
                if let (Some(sh), Some(ts)) = (sh, inner.tier.as_mut()) {
                    let key = (sh.last_access, vid, vshard);
                    inner.resident.remove(Place::Dram(host), key);
                    sh.tier = Tier::Disk;
                    sh.host = None;
                    sh.extent = Some(ts.disk.charge(vbytes));
                    ts.dram.uncharge(host, vbytes);
                    ts.stats.demotions += 1;
                    ts.log.push(SpillEvent {
                        at: env.handle.now(),
                        object: vid,
                        shard: vshard,
                        bytes: vbytes,
                        from: ts.dram.tier(),
                        to: ts.disk.tier(),
                        host,
                    });
                    true
                } else {
                    false
                }
            };
            if committed {
                env.trace(format!("demote {vid}#{vshard}"), t0);
            }
        }
    }

    /// Resolves shard `shard` of `id` for a consuming transfer: bumps
    /// the LRU clock and returns the device the read stages through plus
    /// the staging penalty for non-HBM tiers (the backend's
    /// `TierBackend::read_time`). `None` on untiered stores (the seed
    /// data path is then byte-identical) and for absent shards.
    pub fn read_shard(
        &self,
        id: ObjectId,
        shard: u32,
    ) -> Option<(DeviceId, pathways_sim::SimDuration)> {
        let cfg = &self.tier_env()?.cfg;
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let ts = inner.tier.as_mut()?;
        let entry = inner.objects.get_mut(&id)?;
        let sh = entry.shards.get_mut(&shard)?;
        ts.clock += 1;
        // The bump moves the shard behind its peers in its residency set.
        if let Some(place) = sh.place() {
            let (old, new) = ((sh.last_access, id, shard), (ts.clock, id, shard));
            inner.resident.remove(place, old);
            inner.resident.insert(place, new);
        }
        sh.last_access = ts.clock;
        let penalty = match sh.tier {
            Tier::Hbm => ts.hbm.read_time(cfg, sh.bytes),
            Tier::Dram => ts.dram.read_time(cfg, sh.bytes),
            Tier::Disk => ts.disk.read_time(cfg, sh.bytes),
        };
        Some((sh.device, penalty))
    }

    // -----------------------------------------------------------------
    // Tier observability (benches, chaos invariants, tests)
    // -----------------------------------------------------------------

    /// Monotonic tier-transition counters (all zero on untiered stores).
    pub fn tier_stats(&self) -> TierStats {
        self.inner
            .lock()
            .tier
            .as_ref()
            .map(|ts| ts.stats)
            .unwrap_or_default()
    }

    /// Every tier transition so far, in event order.
    pub fn spill_events(&self) -> Vec<SpillEvent> {
        self.inner
            .lock()
            .tier
            .as_ref()
            .map(|ts| ts.log.clone())
            .unwrap_or_default()
    }

    /// Total bytes currently in host DRAM across all hosts.
    pub fn dram_used(&self) -> u64 {
        self.inner
            .lock()
            .tier
            .as_ref()
            .map(|ts| ts.dram.used())
            .unwrap_or(0)
    }

    /// Total *live* bytes currently on disk (demoted shards +
    /// checkpoint epochs). Drains to zero with the objects.
    pub fn disk_used(&self) -> u64 {
        self.inner
            .lock()
            .tier
            .as_ref()
            .map(|ts| ts.disk.used())
            .unwrap_or(0)
    }

    /// Bytes the disk durably holds: live + dead bytes in unreclaimed
    /// segments. The gap to [`ObjectStore::disk_used`] is garbage
    /// awaiting segment reclaim — what checkpoint GC bounds.
    pub fn disk_occupied(&self) -> u64 {
        self.inner
            .lock()
            .tier
            .as_ref()
            .map(|ts| ts.disk.occupied())
            .unwrap_or(0)
    }

    /// Segment accounting snapshot of the disk backend.
    pub fn segment_stats(&self) -> SegmentStats {
        self.inner
            .lock()
            .tier
            .as_ref()
            .map(|ts| ts.disk.stats())
            .unwrap_or_default()
    }

    /// The tier shard `shard` of `id` currently lives in.
    pub fn shard_tier(&self, id: ObjectId, shard: u32) -> Option<Tier> {
        self.inner
            .lock()
            .objects
            .get(&id)
            .and_then(|e| e.shards.get(&shard))
            .map(|s| s.tier)
    }

    /// Conservation across tiers: recounts the HBM and DRAM residency
    /// sets (every shard in exactly the set of its tier and place, under
    /// its current `last_access`; no strays) and the per-host DRAM,
    /// disk, and HBM byte totals from the object table, and checks them
    /// against the incrementally maintained sets and ledgers (plus the
    /// disk backend's internal segment sums). Untiered stores have sets
    /// but no ledgers. A `false` here means a tier transition indexed or
    /// charged asymmetrically — the drift class of bug this subsystem
    /// makes un-maskable.
    pub fn tiers_conserved(&self) -> bool {
        let inner = self.inner.lock();
        if !inner.residency_recounts() {
            return false;
        }
        let Some(ts) = inner.tier.as_ref() else {
            return true;
        };
        let mut hbm = 0u64;
        let mut dram: FxHashMap<HostId, u64> = FxHashMap::default();
        let mut disk = 0u64;
        for entry in inner.objects.values() {
            for sh in entry.shards.values() {
                match sh.tier {
                    Tier::Hbm => hbm += sh.bytes,
                    Tier::Dram => {
                        if let Some(h) = sh.host {
                            *dram.entry(h).or_default() += sh.bytes;
                        }
                    }
                    Tier::Disk => disk += sh.bytes,
                }
            }
            disk += entry.checkpoints.total();
        }
        hbm == ts.hbm.used()
            && disk == ts.disk.used()
            && ts.disk.segments_consistent()
            && ts
                .dram
                .per_host()
                .iter()
                .all(|(h, b)| dram.get(h).copied().unwrap_or(0) == *b)
            && dram.iter().all(|(h, b)| ts.dram.used_on(*h) == *b)
    }
}

#[cfg(test)]
mod tests {
    use super::super::index::FailureReason;
    use super::super::testutil::{device, obj, tiered_with};
    use super::*;
    use pathways_net::ClientId;
    use pathways_sim::Sim;

    /// One-shard object `run`, stored on `dev` and (optionally) ready.
    async fn put(store: &ObjectStore, run: u64, dev: &DeviceHandle, bytes: u64, ready: bool) {
        store.declare(obj(run, 0), ClientId(0), 1);
        store.put_shard(obj(run, 0), 0, dev, bytes).await;
        if ready {
            store.mark_ready(obj(run, 0), 0);
        }
    }

    /// `(run, from, to)` of every tier transition so far.
    fn moves(store: &ObjectStore) -> Vec<(u64, Tier, Tier)> {
        store
            .spill_events()
            .iter()
            .map(|e| (e.object.run.0, e.from, e.to))
            .collect()
    }

    /// Both picks agree with the reference scans on `device`/`host`.
    fn picks_match_scan(store: &ObjectStore, device: u32, host: u32) -> bool {
        let inner = store.inner.lock();
        inner.hbm_victim(DeviceId(device)) == inner.hbm_victim_by_scan(DeviceId(device))
            && inner.dram_victim(HostId(host)) == inner.dram_victim_by_scan(HostId(host))
    }

    #[test]
    fn spill_takes_the_lru_ready_shard_and_skips_unready_ones() {
        let mut sim = Sim::new(0);
        let store = tiered_with(&sim, TierConfig::default());
        let dev = device(&sim, 0, 300);
        let store2 = store.clone();
        sim.spawn("t", async move {
            put(&store2, 0, &dev, 100, false).await; // oldest, but pinned
            put(&store2, 1, &dev, 100, true).await;
            put(&store2, 2, &dev, 100, true).await;
            put(&store2, 3, &dev, 100, true).await;
            assert_eq!(moves(&store2), vec![(1, Tier::Hbm, Tier::Dram)]);
            put(&store2, 4, &dev, 100, true).await;
            assert_eq!(moves(&store2)[1..], [(2, Tier::Hbm, Tier::Dram)]);
            assert_eq!(store2.shard_tier(obj(0, 0), 0), Some(Tier::Hbm));
            assert!(picks_match_scan(&store2, 0, 0));
            assert!(store2.tiers_conserved());
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn read_shard_moves_a_resident_behind_its_peers() {
        let mut sim = Sim::new(0);
        let store = tiered_with(
            &sim,
            TierConfig {
                dram_per_host: 250,
                ..TierConfig::default()
            },
        );
        let dev = device(&sim, 0, 300);
        let store2 = store.clone();
        sim.spawn("t", async move {
            for run in 0..3 {
                put(&store2, run, &dev, 100, true).await;
            }
            // HBM: reading 0 makes 1 the next spill victim.
            store2.read_shard(obj(0, 0), 0).unwrap();
            put(&store2, 3, &dev, 100, true).await;
            assert_eq!(moves(&store2), vec![(1, Tier::Hbm, Tier::Dram)]);
            put(&store2, 4, &dev, 100, true).await; // spills 2
                                                    // DRAM holds 1 then 2: reading 1 makes 2 the next demotion.
            store2.read_shard(obj(1, 0), 0).unwrap();
            put(&store2, 5, &dev, 100, true).await; // spills 0, DRAM over
            assert_eq!(
                moves(&store2)[1..],
                [
                    (2, Tier::Hbm, Tier::Dram),
                    (0, Tier::Hbm, Tier::Dram),
                    (2, Tier::Dram, Tier::Disk),
                ]
            );
            // A disk resident is in no set; its bump only restamps it.
            store2.read_shard(obj(2, 0), 0).unwrap();
            assert!(picks_match_scan(&store2, 0, 0));
            assert!(store2.tiers_conserved());
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn equal_age_residents_tie_on_object_then_shard() {
        // Only an untiered store has equal ages (its clock never ticks).
        let mut sim = Sim::new(0);
        let store = ObjectStore::new();
        let dev = device(&sim, 0, 1_000);
        let store2 = store.clone();
        sim.spawn("t", async move {
            for (run, shard) in [(2, 0), (1, 1), (1, 0)] {
                store2.create(obj(run, 0), ClientId(0));
                store2.put_shard(obj(run, 0), shard, &dev, 10).await;
            }
            let pick = |s: &ObjectStore| s.inner.lock().hbm_victim(DeviceId(0));
            assert_eq!(pick(&store2), None, "nothing ready yet");
            for (run, shard, victim) in [(2, 0, (2, 0)), (1, 1, (1, 1)), (1, 0, (1, 0))] {
                store2.mark_ready(obj(run, 0), shard);
                assert_eq!(pick(&store2), Some((obj(victim.0, 0), victim.1, 10)));
            }
            assert!(picks_match_scan(&store2, 0, 0));
            assert!(store2.tiers_conserved());
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn demotion_order_on_one_host_follows_spill_order() {
        let mut sim = Sim::new(0);
        let store = tiered_with(
            &sim,
            TierConfig {
                dram_per_host: 150,
                ..TierConfig::default()
            },
        );
        // Two devices of host 0 spill into the same DRAM.
        let devs = [device(&sim, 0, 100), device(&sim, 1, 100)];
        let store2 = store.clone();
        sim.spawn("t", async move {
            for run in 0..6 {
                put(&store2, run, &devs[(run % 2) as usize], 100, true).await;
            }
            let spills: Vec<u64> = moves(&store2)
                .iter()
                .filter(|m| m.2 == Tier::Dram)
                .map(|m| m.0)
                .collect();
            let demotions: Vec<u64> = moves(&store2)
                .iter()
                .filter(|m| m.2 == Tier::Disk)
                .map(|m| m.0)
                .collect();
            assert_eq!(spills, vec![0, 1, 2, 3]);
            assert_eq!(demotions, vec![0, 1, 2]);
            assert!(store2.tiers_conserved());
        });
        sim.run_to_quiescence();
    }

    /// A victim that leaves its tier during the staging sleep is skipped
    /// by the revalidation, and whatever removed it also unthreaded it
    /// from its residency set.
    #[test]
    fn a_victim_gone_during_the_staging_sleep_is_skipped() {
        const MB: u64 = 1_000_000; // 62.5 us of staging, 700 us of disk
        type Removal = fn(&ObjectStore);
        let hbm_cases: [Removal; 3] = [
            |s| s.release(obj(0, 0)),
            |s| {
                s.fail_object(obj(0, 0), FailureReason::OwnerGone);
            },
            |s| {
                s.drop_shards_on_device(obj(0, 0), DeviceId(0));
            },
        ];
        for remove in hbm_cases {
            let mut sim = Sim::new(0);
            let store = tiered_with(&sim, TierConfig::default());
            let dev = device(&sim, 0, 2 * MB);
            let (store2, dev2) = (store.clone(), dev.clone());
            sim.spawn("writer", async move {
                for run in 0..3 {
                    put(&store2, run, &dev2, MB, true).await; // 2 picks 0
                }
            });
            let (store3, h) = (store.clone(), sim.handle());
            sim.spawn("remover", async move {
                h.sleep(SimDuration::from_micros(10)).await;
                assert_eq!(store3.shard_tier(obj(0, 0), 0), Some(Tier::Hbm));
                remove(&store3);
            });
            sim.run_to_quiescence();
            assert_eq!(moves(&store), vec![], "the freed HBM was room enough");
            assert_eq!(store.shard_tier(obj(2, 0), 0), Some(Tier::Hbm));
            assert_eq!(store.objects_on_device(DeviceId(0)), [obj(1, 0), obj(2, 0)]);
            assert!(picks_match_scan(&store, 0, 0));
            assert!(store.tiers_conserved());
        }

        // The same for a demotion victim dropped with its host's DRAM.
        let mut sim = Sim::new(0);
        let store = tiered_with(
            &sim,
            TierConfig {
                dram_per_host: MB + MB / 2,
                ..TierConfig::default()
            },
        );
        let dev = device(&sim, 0, MB);
        let (store2, dev2) = (store.clone(), dev.clone());
        sim.spawn("writer", async move {
            for run in 0..3 {
                put(&store2, run, &dev2, MB, true).await; // 2 demotes 0
            }
        });
        let (store3, h) = (store.clone(), sim.handle());
        sim.spawn("remover", async move {
            h.sleep(SimDuration::from_micros(200)).await;
            assert_eq!(store3.dram_used(), 2 * MB, "0 and 1 spilled, 0 staging");
            store3.drop_dram_on_host(obj(0, 0), HostId(0));
        });
        sim.run_to_quiescence();
        let spills = [(0, Tier::Hbm, Tier::Dram), (1, Tier::Hbm, Tier::Dram)];
        assert_eq!(moves(&store), spills, "no demotion: the drop was room");
        assert_eq!(store.objects_with_dram_on(HostId(0)), [obj(1, 0)]);
        assert!(picks_match_scan(&store, 0, 0));
        assert!(store.tiers_conserved());
    }

    /// Spills, demotions, an LRU bump, a kill and a restore: the whole
    /// log, instants included, as the scan-based store produced it.
    #[test]
    fn spill_event_log_of_a_fixed_scenario_is_pinned() {
        let mut sim = Sim::new(0);
        let store = tiered_with(
            &sim,
            TierConfig {
                dram_per_host: 500,
                ..TierConfig::default()
            },
        );
        // Two-shard objects, shard s on device s; two fit per device.
        let devs = [device(&sim, 0, 250), device(&sim, 1, 250)];
        let store2 = store.clone();
        sim.spawn("t", async move {
            let put_pair = |run: u64| {
                let (store, devs) = (store2.clone(), devs.clone());
                async move {
                    store.declare(obj(run, 0), ClientId(0), 2);
                    for s in 0..2 {
                        store
                            .put_shard(obj(run, 0), s, &devs[s as usize], 100)
                            .await;
                        store.mark_ready(obj(run, 0), s);
                    }
                }
            };
            for run in 0..4 {
                put_pair(run).await;
            }
            store2.read_shard(obj(0, 0), 1).unwrap();
            assert_eq!(store2.checkpoint_now(obj(3, 0)), Some(200));
            put_pair(4).await;
            // Device 1 dies under object 3; its checkpoint restores it.
            assert_eq!(store2.drop_shards_on_device(obj(3, 0), DeviceId(1)), 100);
            store2.begin_recovery(obj(3, 0)).unwrap();
            assert!(store2.complete_restore(obj(3, 0), DeviceId(0), HostId(0)));
            put_pair(5).await;
            put_pair(6).await;
            assert!(store2.tiers_conserved());
        });
        sim.run_to_quiescence();
        let log: Vec<String> = store
            .spill_events()
            .iter()
            .map(|e| format!("{} {e}", e.at.as_nanos()))
            .collect();
        assert_eq!(log, PINNED_LOG, "{log:#?}");
    }

    /// Produced by the commit before the residency sets (the `Vec`
    /// indexes and per-pick scans), `<virtual ns> <event>`.
    const PINNED_LOG: [&str; 15] = [
        "6 obj(run0,comp0)#0 100B hbm->dram (host0)",
        "12 obj(run0,comp0)#1 100B hbm->dram (host0)",
        "18 obj(run1,comp0)#0 100B hbm->dram (host0)",
        "24 obj(run1,comp0)#1 100B hbm->dram (host0)",
        "30 obj(run2,comp0)#0 100B hbm->dram (host0)",
        "36 obj(run2,comp0)#1 100B hbm->dram (host0)",
        "200086 obj(run0,comp0)#0 100B dram->disk (host0)",
        "200086 obj(run3,comp0)#1 100B disk->dram (host0)",
        "200092 obj(run3,comp0)#0 100B hbm->dram (host0)",
        "400142 obj(run1,comp0)#0 100B dram->disk (host0)",
        "600192 obj(run1,comp0)#1 100B dram->disk (host0)",
        "600198 obj(run4,comp0)#0 100B hbm->dram (host0)",
        "800248 obj(run2,comp0)#0 100B dram->disk (host0)",
        "800254 obj(run4,comp0)#1 100B hbm->dram (host0)",
        "1000304 obj(run2,comp0)#1 100B dram->disk (host0)",
    ];

    #[test]
    fn defaults_are_sane() {
        let c = TierConfig::default();
        assert!(c.dram_per_host > 0 && c.hbm_dram_bw > c.dram_disk_bw);
        assert!(c.recovery && c.max_recovery_attempts >= 1);
        assert!(c.disk_segment_bytes > 0 && c.checkpoint_keep >= 1);
        assert_eq!(c.placement, PlacementPolicy::LocalFirst);
    }

    #[test]
    fn transfer_times_scale_with_bytes() {
        let c = TierConfig::default();
        assert_eq!(xfer_time(0, c.hbm_dram_bw), SimDuration::ZERO);
        assert_eq!(
            xfer_time(c.hbm_dram_bw, c.hbm_dram_bw),
            SimDuration::from_nanos(1_000_000_000)
        );
        // Disk ops always pay the fixed latency.
        assert!(c.disk_time(0) >= c.disk_latency);
        // No overflow at warehouse sizes.
        let big = xfer_time(u64::MAX, 1);
        assert!(big > SimDuration::ZERO);
    }

    #[test]
    fn disk_segments_seal_and_reclaim() {
        let mut disk = DiskBackend::new(100);
        let a = disk.charge(60);
        let b = disk.charge(60); // does not fit segment 0: seals it
        assert_eq!((a.segment, b.segment), (0, 1));
        let stats = disk.stats();
        assert_eq!(stats.segments, 2);
        assert_eq!(stats.sealed, 1);
        assert_eq!(stats.live_bytes, 120);
        assert_eq!(stats.occupied_bytes, 120);
        // Killing extent a drains segment 0 -> reclaimed whole.
        disk.uncharge(a);
        let stats = disk.stats();
        assert_eq!(stats.reclaimed, 1);
        assert_eq!(stats.live_bytes, 60);
        assert_eq!(stats.occupied_bytes, 60, "reclaimed space is returned");
        // Killing extent b leaves segment 1 unsealed: dead bytes occupy
        // it until a later seal.
        disk.uncharge(b);
        let stats = disk.stats();
        assert_eq!(stats.live_bytes, 0);
        assert_eq!(stats.occupied_bytes, 60, "unsealed garbage lingers");
        // The next charge that overflows segment 1 seals it -> reclaim.
        let c = disk.charge(80);
        assert_eq!(c.segment, 2);
        assert_eq!(disk.stats().reclaimed, 2);
        assert!(disk.segments_consistent());
    }

    #[test]
    fn oversized_extents_get_their_own_segment() {
        let mut disk = DiskBackend::new(100);
        let big = disk.charge(1000); // larger than a segment: sealed at once
        assert_eq!(big.segment, 0);
        assert_eq!(disk.stats().sealed, 1);
        disk.uncharge(big);
        assert_eq!(disk.stats().reclaimed, 1);
        assert_eq!(disk.occupied(), 0);
    }
}
