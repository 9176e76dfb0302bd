//! Tier vocabulary and tier ledgers: HBM, host DRAM, and a segmented
//! append-only disk.
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
//! Each tier keeps its own byte ledger, and `transfer_time` prices
//! moving bytes in or out of it (PCIe for DRAM, a fixed latency plus a
//! bandwidth term for disk):
//!
//! * [`HbmBackend`] — a pure ledger; residency itself is owned by the
//!   per-device [`HbmPool`](pathways_device::HbmPool) leases, the
//!   backend just mirrors the bytes the *store* has pinned so
//!   conservation is checkable from one place.
//! * [`DramBackend`] — per-host spill ledgers (capacity decisions are
//!   per host). A spill always lands in the pressured device's own
//!   host.
//! * [`DiskBackend`] — an append-only segment format: every disk write
//!   (demoted shard, checkpoint epoch) allocates an [`ExtentRef`] in
//!   the active segment; a segment seals when full and is reclaimed
//!   once every extent in it has died. Live bytes
//!   ([`DiskBackend::used`]) drain to zero with the objects; *occupied*
//!   bytes (live + dead in unreclaimed segments) are what the disk
//!   durably holds — the metric checkpoint GC exists to bound. The
//!   segment table drops reclaimed segments off its front, so it spans
//!   the oldest unreclaimed segment to the active one, not the whole
//!   history of the log.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, LazyLock};

use pathways_net::{FxHashMap, HostId, NetworkParams, Topology};
use pathways_sim::{SimDuration, SimHandle, SimTime};

use super::index::{ObjectId, ObjectStore};

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
/// checkpoints, `ProducerFailed` terminal. `Some` always records
/// lineage and recovers lost objects (restore from checkpoint, then
/// recompute) before surfacing `ProducerFailed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierConfig {
    /// Host-DRAM spill capacity per host.
    pub dram_per_host: u64,
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
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            dram_per_host: 64 << 30,
            disk_segment_bytes: 64 << 20,
            checkpoint_interval: Some(SimDuration::from_micros(500)),
            checkpoint_keep: 2,
        }
    }
}

/// HBM↔DRAM staging bandwidth, bytes per second: the host's PCIe link,
/// [`NetworkParams::pcie_bandwidth`] of the cluster calibration.
static HBM_DRAM_BW: LazyLock<u64> =
    LazyLock::new(|| NetworkParams::tpu_cluster().pcie_bandwidth.bytes_per_sec() as u64);
/// DRAM↔disk bandwidth, bytes per second.
pub(crate) const DRAM_DISK_BW: u64 = 2_000_000_000;
/// Fixed per-operation disk access latency (seek + request).
pub(crate) const DISK_LATENCY: SimDuration = SimDuration::from_micros(200);

/// Virtual time to move `bytes` into `tier` from the tier above it, or
/// back out of it for a read: free for HBM, the PCIe staging leg for
/// DRAM, one disk latency plus the bandwidth term for disk.
pub(crate) fn transfer_time(tier: Tier, bytes: u64) -> SimDuration {
    match tier {
        Tier::Hbm => SimDuration::ZERO,
        Tier::Dram => xfer_time(bytes, *HBM_DRAM_BW),
        Tier::Disk => DISK_LATENCY + xfer_time(bytes, DRAM_DISK_BW),
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
    /// Bytes the HBM → DRAM spills moved. Recompute materializations
    /// (logged as `hbm -> dram` too) are not spills and are not counted.
    pub spilled_bytes: u64,
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
// Tier ledgers
// ---------------------------------------------------------------------

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

    pub(crate) fn used(&self) -> u64 {
        self.used
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

    pub(crate) fn used(&self) -> u64 {
        self.per_host.values().sum()
    }
}

/// One allocation in the segmented disk: which segment holds the bytes.
/// Held by disk-tier shards and checkpoint epochs; uncharging the
/// extent is what lets its segment eventually be reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExtentRef {
    /// Absolute segment number: segments are numbered in the order they
    /// opened, from 0, whether or not earlier ones were trimmed.
    pub(crate) segment: u64,
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
    /// Segments ever sealed (full).
    pub sealed: u64,
    /// Sealed segments whose extents all died and were reclaimed, ever.
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
///
/// The segment table holds the segments from the oldest unreclaimed one
/// to the active one: opening a segment trims reclaimed ones off the
/// front. A long-lived early extent holds the front, and every segment
/// after it, in place until it dies.
pub(crate) struct DiskBackend {
    segment_bytes: u64,
    /// Segments `base..base + segments.len()`.
    segments: VecDeque<Segment>,
    /// Absolute number of `segments`' front; every segment before it was
    /// sealed and reclaimed.
    base: u64,
    live: u64,
}

impl DiskBackend {
    pub(crate) fn new(segment_bytes: u64) -> Self {
        DiskBackend {
            segment_bytes: segment_bytes.max(1),
            segments: VecDeque::new(),
            base: 0,
            live: 0,
        }
    }

    /// Appends `bytes` into the active segment (sealing and opening
    /// segments as needed) and returns the extent.
    pub(crate) fn charge(&mut self, bytes: u64) -> ExtentRef {
        let needs_new = match self.segments.back() {
            None => true,
            Some(seg) => seg.sealed || (seg.alloc > 0 && seg.alloc + bytes > self.segment_bytes),
        };
        if needs_new {
            if let Some(seg) = self.segments.back_mut() {
                if !seg.sealed {
                    seg.sealed = true;
                    Self::maybe_reclaim(seg);
                }
            }
            while self.segments.front().is_some_and(|s| s.reclaimed) {
                self.segments.pop_front();
                self.base += 1;
            }
            self.segments.push_back(Segment::default());
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
            segment: self.base + idx as u64,
            bytes,
        }
    }

    /// Kills one extent: its bytes flip live → dead, and a sealed
    /// segment whose last live extent died is reclaimed whole.
    pub(crate) fn uncharge(&mut self, ext: ExtentRef) {
        ledger_sub(&mut self.live, ext.bytes, "disk");
        let seg = &mut self.segments[(ext.segment - self.base) as usize];
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

    /// Live bytes: every extent not yet uncharged.
    pub(crate) fn used(&self) -> u64 {
        self.live
    }

    /// Live + dead bytes in unreclaimed segments.
    pub(crate) fn occupied(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| !s.reclaimed)
            .map(|s| s.live + s.dead)
            .sum()
    }

    /// Cumulative counts: the `base` trimmed segments were each sealed
    /// and reclaimed.
    pub(crate) fn stats(&self) -> SegmentStats {
        let count = |f: fn(&Segment) -> bool| {
            self.base + self.segments.iter().filter(|s| f(s)).count() as u64
        };
        SegmentStats {
            segments: self.base + self.segments.len() as u64,
            sealed: count(|s| s.sealed),
            reclaimed: count(|s| s.reclaimed),
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

    /// Stamps `label` on the `tiers` trace track from `t0` to now; the
    /// label is formatted only if spans are recorded.
    pub(crate) fn trace(&self, label: fmt::Arguments<'_>, t0: SimTime) {
        if self.handle.tracing() {
            let now = self.handle.now();
            self.handle
                .trace_span(Arc::clone(&self.track), label.to_string(), t0, now);
        }
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
    /// Shared with the snapshots [`ObjectStore::spill_events`] hands
    /// out; an append copies it only while a snapshot is alive.
    pub(crate) log: Arc<Vec<SpillEvent>>,
    pub(crate) stats: TierStats,
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
            log: Arc::default(),
            stats: TierStats::default(),
        }
    }

    /// Appends one tier transition to the log.
    pub(crate) fn record(&mut self, event: SpillEvent) {
        Arc::make_mut(&mut self.log).push(event);
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
    pub(crate) fn trace_tiers(&self, label: fmt::Arguments<'_>, t0: SimTime) {
        if let Some(env) = self.tier_env() {
            env.trace(label, t0);
        }
    }

    /// True if this store records lineage and recovers lost objects:
    /// every tiered store does. Gates the client's lineage registration
    /// so untiered runs keep seed-identical refcounts.
    pub fn lineage_enabled(&self) -> bool {
        self.tier_env().is_some()
    }

    /// True if completed objects are checkpointed on the timer wheel
    /// (tiered, with a checkpoint interval).
    pub(crate) fn checkpoints_scheduled(&self) -> bool {
        self.tier_env()
            .is_some_and(|env| env.cfg.checkpoint_interval.is_some())
    }

    /// Frees HBM on `device` until `bytes` fit (or nothing ready is
    /// left to spill), by moving least-recently-used ready shards to the
    /// device's own host's DRAM at the PCIe staging bandwidth —
    /// cascading to disk when the DRAM budget overflows. No-op on
    /// untiered stores; callers then rely on classic HBM back-pressure.
    pub async fn ensure_room(&self, device: &DeviceHandle, bytes: u64) {
        let Some(env) = self.tier_env() else {
            return;
        };
        let d = device.id();
        let host = env.topo.host_of_device(d);
        loop {
            if device.hbm().free() >= bytes {
                return;
            }
            let victim = self.inner.lock().hbm_victim(d);
            let Some((vid, vshard, vbytes)) = victim else {
                // Nothing spillable (all HBM residents are unready or
                // not the store's): fall back to back-pressure.
                return;
            };
            let t0 = env.handle.now();
            env.handle.sleep(transfer_time(Tier::Dram, vbytes)).await;
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
                    ts.stats.spilled_bytes += vbytes;
                    ts.record(SpillEvent {
                        at: env.handle.now(),
                        object: vid,
                        shard: vshard,
                        bytes: vbytes,
                        from: Tier::Hbm,
                        to: Tier::Dram,
                        host,
                    });
                    Some(sh.lease.take())
                } else {
                    None
                }
            };
            if let Some(lease) = spilled {
                drop(lease); // HBM returns outside the store borrow
                env.trace(format_args!("spill {vid}#{vshard}"), t0);
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
                inner.dram_victim(host)
            };
            let Some((vid, vshard, vbytes)) = victim else {
                return;
            };
            let t0 = env.handle.now();
            env.handle.sleep(transfer_time(Tier::Disk, vbytes)).await;
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
                    ts.record(SpillEvent {
                        at: env.handle.now(),
                        object: vid,
                        shard: vshard,
                        bytes: vbytes,
                        from: Tier::Dram,
                        to: Tier::Disk,
                        host,
                    });
                    true
                } else {
                    false
                }
            };
            if committed {
                env.trace(format_args!("demote {vid}#{vshard}"), t0);
            }
        }
    }

    /// Resolves shard `shard` of `id` for a consuming transfer: bumps
    /// the LRU clock and returns the device the read stages through plus
    /// the staging penalty for non-HBM tiers (`transfer_time`). `None`
    /// on untiered stores (the seed data path is then byte-identical)
    /// and for absent shards.
    pub fn read_shard(
        &self,
        id: ObjectId,
        shard: u32,
    ) -> Option<(DeviceId, pathways_sim::SimDuration)> {
        // An untiered store answers without taking the lock.
        self.tier_env()?;
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
        Some((sh.device, transfer_time(sh.tier, sh.bytes)))
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

    /// Every tier transition so far, in event order: a snapshot shared
    /// with the store, so taking one copies nothing. Transitions after
    /// the call do not show up in it.
    pub fn spill_events(&self) -> Arc<Vec<SpillEvent>> {
        self.inner
            .lock()
            .tier
            .as_ref()
            .map(|ts| Arc::clone(&ts.log))
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
    use super::super::index::{FailureReason, Place};
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
    fn spill_event_snapshots_share_storage_and_do_not_change() {
        let mut sim = Sim::new(0);
        let store = tiered_with(&sim, TierConfig::default());
        let dev = device(&sim, 0, 200);
        let store2 = store.clone();
        sim.spawn("t", async move {
            for run in 0..3 {
                put(&store2, run, &dev, 100, true).await; // the third spills 0
            }
            let (a, b) = (store2.spill_events(), store2.spill_events());
            assert!(Arc::ptr_eq(&a, &b), "no transition in between: one log");
            put(&store2, 3, &dev, 100, true).await; // spills 1
            let c = store2.spill_events();
            assert_eq!(a.len(), 1, "an earlier snapshot keeps its length");
            assert_eq!(a[0], c[0]);
            assert_eq!(c.len(), 2);
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

    /// Two hosts, tight HBM on a device of host 0: the spill lands in
    /// host 0's DRAM, never the other host's.
    #[test]
    fn local_first_spills_stay_on_the_local_host() {
        let mut sim = Sim::new(0);
        let store = tiered_with(&sim, TierConfig::default());
        let dev = device(&sim, 0, 100);
        let store2 = store.clone();
        sim.spawn("t", async move {
            for run in 0..2 {
                put(&store2, run, &dev, 80, true).await;
            }
            let spills: Vec<HostId> = store2.spill_events().iter().map(|e| e.host).collect();
            assert_eq!(spills, vec![HostId(0)]);
            for run in 0..2 {
                store2.release(obj(run, 0));
            }
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
                s.drop_shards_in(obj(0, 0), Place::Hbm(DeviceId(0)));
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
            assert_eq!(
                store.objects_in(Place::Hbm(DeviceId(0))),
                [obj(1, 0), obj(2, 0)]
            );
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
            store3.drop_shards_in(obj(0, 0), Place::Dram(HostId(0)));
        });
        sim.run_to_quiescence();
        let spills = [(0, Tier::Hbm, Tier::Dram), (1, Tier::Hbm, Tier::Dram)];
        assert_eq!(moves(&store), spills, "no demotion: the drop was room");
        assert_eq!(store.objects_in(Place::Dram(HostId(0))), [obj(1, 0)]);
        assert!(picks_match_scan(&store, 0, 0));
        assert!(store.tiers_conserved());
    }

    /// Spills, demotions, an LRU bump, a kill and a restore on two
    /// devices of one host, run to quiescence.
    fn fixed_scenario() -> ObjectStore {
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
            assert_eq!(
                store2.drop_shards_in(obj(3, 0), Place::Hbm(DeviceId(1))),
                100
            );
            store2.begin_recovery(obj(3, 0)).unwrap();
            assert!(store2.complete_restore(obj(3, 0), DeviceId(0), HostId(0)));
            put_pair(5).await;
            put_pair(6).await;
            assert!(store2.tiers_conserved());
        });
        sim.run_to_quiescence();
        store
    }

    /// The fixed scenario's whole log, instants included, as the
    /// scan-based store produced it.
    #[test]
    fn spill_event_log_of_a_fixed_scenario_is_pinned() {
        let store = fixed_scenario();
        let log: Vec<String> = store
            .spill_events()
            .iter()
            .map(|e| format!("{} {e}", e.at.as_nanos()))
            .collect();
        assert_eq!(log, PINNED_LOG, "{log:#?}");
    }

    #[test]
    fn spilled_bytes_sums_the_logged_spills() {
        let store = fixed_scenario();
        let logged: u64 = store
            .spill_events()
            .iter()
            .filter(|e| e.from == Tier::Hbm)
            .map(|e| e.bytes)
            .sum();
        let stats = store.tier_stats();
        assert_eq!(stats.spills, 9);
        assert_eq!(stats.spilled_bytes, logged);
        assert_eq!(logged, 900);
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
        assert!(c.dram_per_host > 0 && *HBM_DRAM_BW > DRAM_DISK_BW);
        assert!(c.disk_segment_bytes > 0 && c.checkpoint_keep >= 1);
    }

    #[test]
    fn transfer_times_scale_with_bytes() {
        assert_eq!(xfer_time(0, *HBM_DRAM_BW), SimDuration::ZERO);
        // The DRAM leg is the PCIe link: 16 GB/s.
        assert_eq!(*HBM_DRAM_BW, 16_000_000_000);
        assert_eq!(
            transfer_time(Tier::Dram, *HBM_DRAM_BW),
            SimDuration::from_nanos(1_000_000_000)
        );
        assert_eq!(transfer_time(Tier::Hbm, 1 << 30), SimDuration::ZERO);
        // Disk ops always pay the fixed latency.
        assert_eq!(transfer_time(Tier::Disk, 0), DISK_LATENCY);
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
    fn reclaimed_segments_leave_the_table() {
        let mut disk = DiskBackend::new(100);
        for n in 0..10_000 {
            let ext = disk.charge(100); // fills its segment: sealed at once
            assert_eq!(ext.segment, n);
            disk.uncharge(ext);
            assert!(disk.segments.len() <= 2, "{} segments", disk.segments.len());
        }
        let stats = disk.stats();
        assert_eq!(
            (stats.segments, stats.sealed, stats.reclaimed),
            (10_000, 10_000, 10_000)
        );
        assert_eq!((stats.live_bytes, stats.occupied_bytes), (0, 0));
        assert!(disk.segments_consistent());
        assert_eq!(std::mem::size_of::<ExtentRef>(), 16);
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
