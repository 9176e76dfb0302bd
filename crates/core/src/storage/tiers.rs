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

/// Tier machinery state, present only on tiered stores.
pub(crate) struct TierState {
    pub(crate) cfg: TierConfig,
    pub(crate) handle: SimHandle,
    pub(crate) topo: Arc<Topology>,
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
    pub(crate) fn new(handle: SimHandle, topo: Arc<Topology>, cfg: TierConfig) -> Self {
        let disk = DiskBackend::new(cfg.disk_segment_bytes);
        TierState {
            cfg,
            handle,
            topo,
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

use super::index::unindex;

impl ObjectStore {
    /// The tier config, sim handle and topology, if this store is
    /// tiered.
    pub(crate) fn tier_env(&self) -> Option<(SimHandle, Arc<Topology>, TierConfig)> {
        self.inner
            .lock()
            .tier
            .as_ref()
            .map(|ts| (ts.handle.clone(), Arc::clone(&ts.topo), ts.cfg.clone()))
    }

    /// True if this store records lineage and recovers lost objects
    /// (tiered with `recovery` on). Gates the client's lineage
    /// registration so untiered runs keep seed-identical refcounts.
    pub fn lineage_enabled(&self) -> bool {
        self.inner
            .lock()
            .tier
            .as_ref()
            .is_some_and(|ts| ts.cfg.recovery)
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
        let Some((handle, topo, _cfg)) = self.tier_env() else {
            return;
        };
        let d = device.id();
        let local = topo.host_of_device(d);
        loop {
            if device.hbm().free() >= bytes {
                return;
            }
            // LRU victim among ready HBM shards on this device; ties
            // break on (object, shard) so replay is order-independent.
            // The receiving host is chosen with the victim (placement
            // policy over live hosts).
            let victim = {
                let mut inner = self.inner.lock();
                let inner = &mut *inner;
                let mut best: Option<(u64, ObjectId, u32, u64)> = None;
                if let Some(ids) = inner.by_device.get(&d) {
                    for &oid in ids {
                        let Some(entry) = inner.objects.get(&oid) else {
                            continue;
                        };
                        for (s, sh) in &entry.shards {
                            if sh.tier == Tier::Hbm && sh.device == d && sh.ready.is_set() {
                                let key = (sh.last_access, oid, *s, sh.bytes);
                                if best.is_none_or(|b| (key.0, key.1, key.2) < (b.0, b.1, b.2)) {
                                    best = Some(key);
                                }
                            }
                        }
                    }
                }
                best.map(|(_, vid, vshard, vbytes)| {
                    let ts = inner.tier.as_mut().expect("tiered");
                    let host = ts.spill_host(local);
                    let mut cost = ts.dram.write_time(&ts.cfg, vbytes);
                    if host != local {
                        cost += ts.cfg.cross_host_time(vbytes);
                    }
                    (vid, vshard, vbytes, host, cost)
                })
            };
            let Some((vid, vshard, vbytes, host, cost)) = victim else {
                // Nothing spillable (all HBM residents are unready or
                // transient staging): fall back to back-pressure.
                return;
            };
            let t0 = handle.now();
            handle.sleep(cost).await;
            // Revalidate after the staging copy: the shard may have been
            // freed, failed, or spilled by a concurrent caller.
            let (committed, lease) = {
                let mut inner = self.inner.lock();
                let inner = &mut *inner;
                let mut lease = None;
                let mut ok = false;
                if let Some(entry) = inner.objects.get_mut(&vid) {
                    if let Some(sh) = entry.shards.get_mut(&vshard) {
                        if sh.tier == Tier::Hbm && sh.device == d && sh.ready.is_set() {
                            sh.tier = Tier::Dram;
                            sh.host = Some(host);
                            lease = sh.lease.take();
                            ok = true;
                        }
                    }
                }
                if ok {
                    if let Some(objs) = inner.by_device.get_mut(&d) {
                        unindex(objs, vid);
                    }
                    inner.by_dram_host.entry(host).or_default().push(vid);
                    if let Some(ts) = inner.tier.as_mut() {
                        ts.hbm.uncharge(vbytes);
                        ts.dram.charge(host, vbytes);
                        ts.stats.spills += 1;
                        ts.log.push(SpillEvent {
                            at: ts.handle.now(),
                            object: vid,
                            shard: vshard,
                            bytes: vbytes,
                            from: ts.hbm.tier(),
                            to: ts.dram.tier(),
                            host,
                        });
                    }
                }
                (ok, lease)
            };
            drop(lease); // HBM returns outside the store borrow
            if committed {
                handle.trace_span("tiers", format!("spill {vid}#{vshard}"), t0, handle.now());
                self.drain_dram(host).await;
            }
        }
    }

    /// Demotes oldest DRAM shards on `host` to disk until the host is
    /// back under its DRAM budget. Each demotion appends an extent into
    /// the disk backend's active segment.
    pub(crate) async fn drain_dram(&self, host: HostId) {
        let Some((handle, _topo, _cfg)) = self.tier_env() else {
            return;
        };
        loop {
            let victim = {
                let inner = self.inner.lock();
                let Some(ts) = inner.tier.as_ref() else {
                    return;
                };
                if ts.dram.used_on(host) <= ts.cfg.dram_per_host {
                    return;
                }
                let mut best: Option<(u64, ObjectId, u32, u64)> = None;
                if let Some(ids) = inner.by_dram_host.get(&host) {
                    for &oid in ids {
                        let Some(entry) = inner.objects.get(&oid) else {
                            continue;
                        };
                        for (s, sh) in &entry.shards {
                            if sh.tier == Tier::Dram && sh.host == Some(host) {
                                let key = (sh.last_access, oid, *s, sh.bytes);
                                if best.is_none_or(|b| (key.0, key.1, key.2) < (b.0, b.1, b.2)) {
                                    best = Some(key);
                                }
                            }
                        }
                    }
                }
                best.map(|(_, vid, vshard, vbytes)| {
                    (vid, vshard, vbytes, ts.disk.write_time(&ts.cfg, vbytes))
                })
            };
            let Some((vid, vshard, vbytes, cost)) = victim else {
                return;
            };
            let t0 = handle.now();
            handle.sleep(cost).await;
            let committed = {
                let mut inner = self.inner.lock();
                let inner = &mut *inner;
                let mut ok = false;
                if let Some(entry) = inner.objects.get_mut(&vid) {
                    if let Some(sh) = entry.shards.get_mut(&vshard) {
                        if sh.tier == Tier::Dram && sh.host == Some(host) {
                            sh.tier = Tier::Disk;
                            sh.host = None;
                            if let Some(ts) = inner.tier.as_mut() {
                                sh.extent = Some(ts.disk.charge(vbytes));
                            }
                            ok = true;
                        }
                    }
                }
                if ok {
                    if let Some(objs) = inner.by_dram_host.get_mut(&host) {
                        unindex(objs, vid);
                    }
                    if let Some(ts) = inner.tier.as_mut() {
                        ts.dram.uncharge(host, vbytes);
                        ts.stats.demotions += 1;
                        ts.log.push(SpillEvent {
                            at: ts.handle.now(),
                            object: vid,
                            shard: vshard,
                            bytes: vbytes,
                            from: ts.dram.tier(),
                            to: ts.disk.tier(),
                            host,
                        });
                    }
                }
                ok
            };
            if committed {
                handle.trace_span("tiers", format!("demote {vid}#{vshard}"), t0, handle.now());
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
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let ts = inner.tier.as_mut()?;
        let entry = inner.objects.get_mut(&id)?;
        let sh = entry.shards.get_mut(&shard)?;
        ts.clock += 1;
        sh.last_access = ts.clock;
        let penalty = match sh.tier {
            Tier::Hbm => ts.hbm.read_time(&ts.cfg, sh.bytes),
            Tier::Dram => ts.dram.read_time(&ts.cfg, sh.bytes),
            Tier::Disk => ts.disk.read_time(&ts.cfg, sh.bytes),
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

    /// Byte conservation across tiers: recomputes the per-host DRAM,
    /// disk, and HBM totals from the object table and checks them
    /// against the backends' incremental ledgers (plus the disk
    /// backend's internal segment sums). True on untiered stores. A
    /// `false` here means a tier transition charged and uncharged
    /// asymmetrically — the accounting-drift class of bug this
    /// subsystem makes un-maskable.
    pub fn tiers_conserved(&self) -> bool {
        let inner = self.inner.lock();
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
    use super::*;

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
