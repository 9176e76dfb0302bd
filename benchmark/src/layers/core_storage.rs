//! Layer `core.storage`: the object index, the HBM/DRAM/disk tiers,
//! delta checkpoints, and recovery of objects lost to hardware death
//! (driven through the fault injector, which owns the recovery
//! manager).

use std::sync::Arc;

use pathways::core::{
    CompId, FaultInjector, FaultSpec, ObjectId, ObjectStore, PathwaysConfig, Tier, TierConfig,
};
use pathways::device::{CollectiveRendezvous, DeviceConfig, DeviceHandle};
use pathways::net::{ClientId, ClusterSpec, DeviceId};
use pathways::plaque::RunId;
use pathways::sim::{Sim, SimDuration, SimHandle};

use super::core_client::{Env, Prog};
use super::sim::{enter, leave};
use super::{Named, Shape, STORAGE};
use crate::clock::{ns_per_op, Stopwatch};
use crate::span;

/// The storage knobs the two store workloads set; everything else keeps
/// `TierConfig::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiers {
    pub hbm_per_device: u64,
    pub dram_per_host: u64,
    pub checkpoint_interval_us: Option<u64>,
    pub checkpoint_keep: u32,
}

pub fn with_tiers(mut cfg: PathwaysConfig, t: Tiers) -> PathwaysConfig {
    cfg.hbm_per_device = t.hbm_per_device;
    cfg.tiers = Some(TierConfig {
        dram_per_host: t.dram_per_host,
        checkpoint_interval: t.checkpoint_interval_us.map(SimDuration::from_micros),
        checkpoint_keep: t.checkpoint_keep,
        ..TierConfig::default()
    });
    cfg
}

/// A shareable handle to the runtime's fault injector (which owns the
/// recovery manager).
pub type Faults = Arc<FaultInjector>;

pub fn faults(env: &Env) -> Faults {
    Arc::clone(env.rt.faults())
}

/// Kills `device` now: the injector fails what the device held, heals
/// the slices that touched it (`ResourceManager::heal`) and launches
/// recovery of the absorbed objects.
pub fn kill_device(faults: &Faults, h: &SimHandle, device: DeviceId, prog: Prog) {
    let t = enter(h, STORAGE, "inject(kill)+heal", 1, false, prog);
    faults.inject(&FaultSpec::Device(device));
    leave(h, t);
}

pub fn store_is_empty(env: &Env) -> bool {
    env.rt.core().store.is_empty()
}

/// True on an untiered store (nothing to conserve).
pub fn tiers_conserved(env: &Env) -> bool {
    env.rt.core().store.tiers_conserved()
}

/// Monotonic storage counters (all zero on an untiered store).
pub fn counters(env: &Env) -> Vec<Named> {
    let store = &env.rt.core().store;
    let t = store.tier_stats();
    let seg = store.segment_stats();
    let rec = env.rt.faults().recovery_stats();
    let spilled_bytes: u64 = store
        .spill_events()
        .iter()
        .filter(|e| e.from == Tier::Hbm)
        .map(|e| e.bytes)
        .sum();
    vec![
        ("core.storage.spills", t.spills as f64),
        ("core.storage.demotions", t.demotions as f64),
        ("core.storage.spilled_bytes", spilled_bytes as f64),
        ("core.storage.checkpoints", t.checkpoints as f64),
        ("core.storage.segments_reclaimed", seg.reclaimed as f64),
        ("core.storage.restored", rec.restored as f64),
        ("core.storage.recomputed", rec.recomputed as f64),
        ("core.storage.abandoned", rec.abandoned as f64),
    ]
}

/// Point-in-time readings (not differenced).
pub fn gauges(env: &Env) -> Vec<Named> {
    let store = &env.rt.core().store;
    vec![(
        "core.storage.disk_occupied_bytes",
        store.disk_occupied() as f64,
    )]
}

fn oid(run: u64) -> ObjectId {
    ObjectId {
        run: RunId(run),
        comp: CompId(0),
    }
}

/// Host ns (µs where named so) per store operation on a fresh tiered
/// store, objects sharded `min(gang, 64)` ways at the workload's shard
/// size.
pub fn probe(shape: &Shape) -> Vec<Named> {
    let shards = shape.gang.clamp(1, 64);
    let owner = ClientId(0);
    const OBJECTS: u64 = 2_000;

    let (declare_ns, ready_ns, retain_release_ns, gc_client_us) =
        span::sync("probe.index", STORAGE, || {
            let store = ObjectStore::new();
            let sw = Stopwatch::start();
            for o in 0..OBJECTS {
                std::hint::black_box(store.declare(oid(o), owner, shards));
            }
            let declare_ns = sw.nanos() / OBJECTS as f64;

            let sw = Stopwatch::start();
            for o in 0..OBJECTS {
                for s in 0..shards {
                    store.mark_ready(oid(o), s);
                }
            }
            let ready_ns = sw.nanos() / (OBJECTS * u64::from(shards)) as f64;

            let retain_release_ns = ns_per_op(200_000, |i| {
                let id = oid(i % OBJECTS);
                let kept = store.retain(id).is_ok();
                store.release(id);
                kept
            });

            let sw = Stopwatch::start();
            let freed = store.gc_client(owner);
            assert_eq!(freed as u64, OBJECTS, "gc frees every declared object");
            (declare_ns, ready_ns, retain_release_ns, sw.nanos() / 1e3)
        });

    // Tier-side operations need resident shards: produce a few objects
    // onto four devices of a fresh tiered store, inside a simulation.
    let (read_shard_ns, checkpoint_now_us) = span::sync("probe.tiers", STORAGE, || {
        let mut sim = Sim::new(0);
        let topo = Arc::new(ClusterSpec::single_island(2, 2).build());
        let store = ObjectStore::with_tiers(
            sim.handle(),
            topo,
            TierConfig {
                checkpoint_interval: None,
                ..TierConfig::default()
            },
        );
        let rz = CollectiveRendezvous::new(sim.handle());
        let devices: Vec<DeviceHandle> = (0..4)
            .map(|d| {
                DeviceHandle::spawn(
                    &sim.handle(),
                    DeviceId(d),
                    rz.clone(),
                    DeviceConfig::default(),
                )
            })
            .collect();
        const RESIDENT: u64 = 64;
        let bytes = shape.shard_bytes.clamp(64, 1 << 20);
        let filler = store.clone();
        sim.spawn("fill", async move {
            for o in 0..RESIDENT {
                filler.declare(oid(o), owner, 4);
                for (s, dev) in devices.iter().enumerate() {
                    filler.put_shard(oid(o), s as u32, dev, bytes).await;
                    filler.mark_ready(oid(o), s as u32);
                }
            }
        });
        let _ = sim.run();

        let read_shard_ns = ns_per_op(400_000, |i| {
            store.read_shard(oid(i % RESIDENT), (i % 4) as u32)
        });
        // One delta epoch per call: re-dirty a shard, commit, GC.
        let checkpoint_now_us = ns_per_op(20_000, |i| {
            let id = oid(i % RESIDENT);
            store.dirty_shard(id, (i % 4) as u32);
            store.checkpoint_now(id)
        }) / 1e3;
        store.gc_client(owner);
        (read_shard_ns, checkpoint_now_us)
    });

    vec![
        ("core.storage.declare_ns", declare_ns),
        ("core.storage.ready_ns", ready_ns),
        ("core.storage.retain_release_ns", retain_release_ns),
        ("core.storage.gc_client_us", gc_client_us),
        ("core.storage.read_shard_ns", read_shard_ns),
        ("core.storage.checkpoint_now_us", checkpoint_now_us),
    ]
}
