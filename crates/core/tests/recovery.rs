//! Tiered-store recovery acceptance tests.
//!
//! The bar: under a seeded fault plan, an object lost to a device kill
//! is restored from its disk checkpoint or recomputed via lineage, and
//! the consuming run completes successfully — no `ProducerFailed`
//! reaches the client. Only an exhausted attempt budget surfaces the
//! error.

use pathways_sim::Lock;
use std::sync::Arc;

use pathways_core::{
    FaultSpec, FnSpec, InputSpec, ObjectError, PathwaysConfig, PathwaysRuntime, SliceRequest, Tier,
    TierConfig,
};
use pathways_net::{ClusterSpec, DeviceId, HostId, IslandId, NetworkParams};
use pathways_sim::{FaultPlan, Sim, SimDuration, SimTime};

fn t(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

fn tiered_cfg(checkpoint_us: Option<u64>) -> PathwaysConfig {
    PathwaysConfig {
        tiers: Some(TierConfig {
            checkpoint_interval: checkpoint_us.map(SimDuration::from_micros),
            ..TierConfig::default()
        }),
        ..PathwaysConfig::default()
    }
}

fn tiered_rt(sim: &Sim, cfg: PathwaysConfig) -> PathwaysRuntime {
    PathwaysRuntime::new(
        sim,
        ClusterSpec::islands_of(2, 2, 4),
        NetworkParams::tpu_cluster(),
        cfg,
    )
}

/// The core scenario, shared by the lineage and checkpoint variants: a
/// producer completes on island 0, a scripted fault kills one of the
/// devices holding its output, and a consumer submitted *after* the
/// kill binds the producer's `ObjectRef`. Returns (producer result
/// re-checked after recovery, consumer result, trace).
fn kill_and_consume(
    seed: u64,
    cfg: PathwaysConfig,
) -> (
    Result<(), ObjectError>,
    Result<(), ObjectError>,
    PathwaysRuntime,
    pathways_sim::trace::TraceLog,
) {
    let mut sim = Sim::new(seed);
    sim.handle().record_trace(true);
    let rt = tiered_rt(&sim, cfg);
    rt.install_fault_plan(FaultPlan::new().at(t(1500), FaultSpec::Device(DeviceId(1))));
    // Client on island 1's host: its agent outlives the island-0 fault.
    let client = rt.client(HostId(2));
    let results = Arc::new(Lock::new(None));
    let results2 = Arc::clone(&results);
    sim.spawn("client", async move {
        let h = client.handle().clone();
        let slice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(0)))
            .unwrap();
        let mut b = client.trace("producer");
        let k = b.computation(
            FnSpec::compute_only("p", SimDuration::from_micros(100)).with_output_bytes(1 << 12),
            &slice,
        );
        let run = client.submit(&client.prepare(&b.build().unwrap())).await;
        let out = run.object_ref(k).unwrap();
        run.finish().await;
        assert_eq!(out.ready().await, Ok(()), "producer itself must succeed");

        // The fault lands at t=1.5ms (after any checkpoint the config
        // schedules has committed). Submit the consumer after it.
        h.sleep_until(t(2000)).await;
        let cslice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(0)))
            .unwrap();
        let mut b = client.trace("consumer");
        let x = b.input(InputSpec::new("x", out.shards()));
        let c = b.computation(
            FnSpec::compute_only("c", SimDuration::from_micros(100)),
            &cslice,
        );
        b.reshard_edge(x, c, 1 << 12);
        let crun = client
            .submit_with(&client.prepare(&b.build().unwrap()), &[(x, out.clone())])
            .await
            .unwrap();
        let cout = crun.object_ref(c).unwrap();
        crun.finish().await;
        let consumer_result = cout.ready().await;
        // Re-check the producer's handle after everything settled: no
        // ProducerFailed may ever have surfaced on it.
        let producer_result = out.ready().await;
        *results2.lock() = Some((producer_result, consumer_result));
    });
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    let (producer_result, consumer_result) = results.lock().take().unwrap();
    // Refcounts drained and tier ledgers conserved after recovery.
    let store = &rt.core().store;
    assert!(store.is_empty(), "store leaked {}", store.len());
    assert!(store.tiers_conserved(), "tier byte ledgers drifted");
    assert_eq!(
        store.dram_used() + store.disk_used(),
        0,
        "tier bytes leaked"
    );
    for dev in rt.core().devices.values() {
        assert_eq!(dev.hbm().used(), 0, "HBM leaked on {:?}", dev.id());
    }
    let trace = sim.take_trace();
    (producer_result, consumer_result, rt, trace)
}

/// No checkpointing configured: the lost object recomputes via lineage
/// (re-submission through the re-lowering path), and the consumer never
/// observes the loss. Replays bit-identically.
#[test]
fn device_kill_recomputes_lost_object_via_lineage() {
    let run = || kill_and_consume(11, tiered_cfg(None));
    let (producer, consumer, rt, trace_a) = run();
    assert_eq!(producer, Ok(()), "no ProducerFailed may reach the client");
    assert_eq!(consumer, Ok(()), "consumer must complete on recovered data");
    let stats = rt.faults().recovery_stats();
    assert_eq!(
        stats.recomputed, 1,
        "exactly one lineage recompute: {stats:?}"
    );
    assert_eq!(stats.restored, 0, "no checkpoint exists to restore from");
    assert_eq!(stats.abandoned, 0, "recovery must not fall through");
    // The device loss was healed AND the data recovered.
    assert!(rt.faults().heal_events().iter().any(|e| e.healed()));

    let (_, _, _, trace_b) = run();
    assert_eq!(trace_a, trace_b, "recovery must replay bit-identically");
}

/// With periodic checkpoints, the same kill restores from disk instead
/// of recomputing — and the restore is cheaper than a recompute in
/// virtual time (that delta is what `fig_tier` sweeps).
#[test]
fn device_kill_restores_object_from_checkpoint() {
    let (producer, consumer, rt, trace_a) = kill_and_consume(11, tiered_cfg(Some(200)));
    assert_eq!(producer, Ok(()), "no ProducerFailed may reach the client");
    assert_eq!(consumer, Ok(()), "consumer must complete on restored data");
    let stats = rt.faults().recovery_stats();
    assert_eq!(stats.restored, 1, "checkpoint restore must win: {stats:?}");
    assert_eq!(stats.recomputed, 0, "restore preempts recompute");
    assert!(
        rt.core().store.tier_stats().checkpoints >= 1,
        "a checkpoint must have committed before the kill"
    );
    let (_, _, _, trace_b) = kill_and_consume(11, tiered_cfg(Some(200)));
    assert_eq!(trace_a, trace_b, "restore must replay bit-identically");
}

/// Where recovered and spilled bytes land. After a checkpoint commits,
/// host 0 dies under the producer's output: the restore stages into the
/// lowest-numbered live host's DRAM (host 1, via its lowest device), and
/// a later spill under HBM pressure on island 1 stays on the pressured
/// device's own host.
#[test]
fn restores_land_on_the_first_live_host_and_spills_stay_local() {
    let mut sim = Sim::new(5);
    let cfg = PathwaysConfig {
        hbm_per_device: 16 << 10,
        ..tiered_cfg(Some(200))
    };
    let rt = tiered_rt(&sim, cfg);
    rt.install_fault_plan(FaultPlan::new().at(t(1500), FaultSpec::Host(HostId(0))));
    let client = rt.client(HostId(2));
    let results = Arc::new(Lock::new(None));
    let results2 = Arc::clone(&results);
    sim.spawn("client", async move {
        let h = client.handle().clone();
        let slice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(0)))
            .unwrap();
        let mut b = client.trace("producer");
        let k = b.computation(
            FnSpec::compute_only("p", SimDuration::from_micros(100)).with_output_bytes(1 << 12),
            &slice,
        );
        let run = client.submit(&client.prepare(&b.build().unwrap())).await;
        let out = run.object_ref(k).unwrap();
        run.finish().await;
        assert_eq!(out.ready().await, Ok(()));
        // Host 0 dies at 1.5 ms; the restore runs behind the recovery
        // window this waits through.
        h.sleep_until(t(2000)).await;
        let restored = out.ready().await;

        // Two 12 KiB outputs cannot share a 16 KiB device: the second
        // spills the first (still held) to DRAM.
        let slice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(1)))
            .unwrap();
        let mut b = client.trace("pressure");
        let k = b.computation(
            FnSpec::compute_only("q", SimDuration::from_micros(100)).with_output_bytes(12 << 10),
            &slice,
        );
        let prepared = client.prepare(&b.build().unwrap());
        let first = client.run(&prepared).await;
        let second = client.run(&prepared).await;
        let spilled = first.object_ref(k).unwrap();
        *results2.lock() = Some((out, restored, spilled));
        drop(second);
    });
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    let (out, restored, spilled) = results.lock().take().unwrap();
    assert_eq!(restored, Ok(()), "the loss must be absorbed");
    assert_eq!(rt.faults().recovery_stats().restored, 1);
    let topo = rt.topology();
    assert!(
        out.devices()
            .iter()
            .any(|d| topo.host_of_device(*d) == HostId(0)),
        "the producer must have lost shards with host 0"
    );
    let events = rt.core().store.spill_events();
    let restores: Vec<HostId> = events
        .iter()
        .filter(|e| e.object == out.id() && (e.from, e.to) == (Tier::Disk, Tier::Dram))
        .map(|e| e.host)
        .collect();
    assert!(!restores.is_empty(), "no restore event: {events:?}");
    assert!(
        restores.iter().all(|h| *h == HostId(1)),
        "restores must land on the lowest live host: {restores:?}"
    );
    let spills: Vec<(u32, HostId)> = events
        .iter()
        .filter(|e| e.object == spilled.id() && (e.from, e.to) == (Tier::Hbm, Tier::Dram))
        .map(|e| (e.shard, e.host))
        .collect();
    assert!(!spills.is_empty(), "no spill on island 1: {events:?}");
    for (shard, host) in spills {
        let device = spilled.devices()[shard as usize];
        assert_ne!(host, HostId(0));
        assert_eq!(
            host,
            topo.host_of_device(device),
            "shard {shard} spilled off its own host"
        );
    }
}

/// A device kill *mid-production* fails the producing run, but its sink
/// has lineage: the run loss is absorbed, the program re-submits, and a
/// consumer bound before the kill completes on the recomputed object.
#[test]
fn in_flight_production_loss_recomputes_and_unblocks_consumer() {
    let mut sim = Sim::new(3);
    let rt = tiered_rt(&sim, tiered_cfg(None));
    // Mid-flight of a 2ms producer kernel.
    rt.install_fault_plan(FaultPlan::new().at(t(500), FaultSpec::Device(DeviceId(2))));
    let client = rt.client(HostId(2));
    let results = Arc::new(Lock::new(None));
    let results2 = Arc::clone(&results);
    sim.spawn("client", async move {
        let slice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(0)))
            .unwrap();
        let mut b = client.trace("producer");
        let k = b.computation(
            FnSpec::compute_only("p", SimDuration::from_millis(2)).with_output_bytes(1 << 12),
            &slice,
        );
        let run = client.submit(&client.prepare(&b.build().unwrap())).await;
        let out = run.object_ref(k).unwrap();
        // Consumer bound BEFORE the fault, on the other island so the
        // kill does not touch its own footprint.
        let cslice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(1)))
            .unwrap();
        let mut b = client.trace("consumer");
        let x = b.input(InputSpec::new("x", out.shards()));
        let c = b.computation(
            FnSpec::compute_only("c", SimDuration::from_micros(100)),
            &cslice,
        );
        b.reshard_edge(x, c, 1 << 12);
        let crun = client
            .submit_with(&client.prepare(&b.build().unwrap()), &[(x, out.clone())])
            .await
            .unwrap();
        let cout = crun.object_ref(c).unwrap();
        run.finish().await;
        crun.finish().await;
        let pair = (out.ready().await, cout.ready().await);
        *results2.lock() = Some(pair);
    });
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    let (producer, consumer) = results.lock().take().unwrap();
    assert_eq!(
        producer,
        Ok(()),
        "in-flight loss must recover: {producer:?}"
    );
    assert_eq!(consumer, Ok(()), "consumer must complete: {consumer:?}");
    let stats = rt.faults().recovery_stats();
    assert_eq!(stats.recomputed, 1, "{stats:?}");
    assert_eq!(stats.abandoned, 0, "{stats:?}");
    let store = &rt.core().store;
    assert!(store.is_empty(), "store leaked {}", store.len());
    assert!(store.tiers_conserved());
    for dev in rt.core().devices.values() {
        assert_eq!(dev.hbm().used(), 0, "HBM leaked on {:?}", dev.id());
    }
}

/// Attempt exhaustion: killing the recovered object's hardware more
/// times than `max_recovery_attempts` eventually surfaces the error —
/// recovery is bounded, never an infinite resubmit loop.
#[test]
fn recovery_attempts_are_bounded() {
    let mut sim = Sim::new(9);
    let cfg = PathwaysConfig {
        tiers: Some(TierConfig {
            checkpoint_interval: None,
            max_recovery_attempts: 1,
            ..TierConfig::default()
        }),
        ..PathwaysConfig::default()
    };
    let rt = tiered_rt(&sim, cfg);
    // First kill: recovered (one attempt). Second kill targets the
    // healed replacement hardware later; the budget (1) is spent, so the
    // second loss is terminal.
    let client = rt.client(HostId(2));
    let core = Arc::clone(rt.core());
    let results = Arc::new(Lock::new(None));
    let results2 = Arc::clone(&results);
    sim.spawn("client", async move {
        let h = client.handle().clone();
        let slice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(0)))
            .unwrap();
        let mut b = client.trace("producer");
        let k = b.computation(
            FnSpec::compute_only("p", SimDuration::from_micros(100)).with_output_bytes(1 << 12),
            &slice,
        );
        let run = client.submit(&client.prepare(&b.build().unwrap())).await;
        let out = run.object_ref(k).unwrap();
        run.finish().await;
        assert_eq!(out.ready().await, Ok(()));
        h.sleep_until(t(10_000)).await;
        let after_first = out.ready().await;
        h.sleep_until(t(20_000)).await;
        let after_second = out.ready().await;
        *results2.lock() = Some((after_first, after_second));
    });
    // The recomputed copy lands in island-0 host DRAM; a second wave of
    // *host* kills loses it again with the attempt budget already spent.
    let faults = Arc::clone(rt.faults());
    let h = sim.handle();
    h.clone().spawn("killer", async move {
        h.sleep_until(t(1500)).await;
        faults.inject(&FaultSpec::Device(DeviceId(1)));
        h.sleep_until(t(12_000)).await;
        faults.inject(&FaultSpec::Host(HostId(0)));
        faults.inject(&FaultSpec::Host(HostId(1)));
    });
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    let (after_first, after_second) = results.lock().take().unwrap();
    assert_eq!(after_first, Ok(()), "first loss recovers");
    assert!(
        matches!(after_second, Err(ObjectError::ProducerFailed { .. })),
        "exhausted budget must surface the error: {after_second:?}"
    );
    let stats = rt.faults().recovery_stats();
    assert_eq!(stats.recomputed, 1, "{stats:?}");
    assert!(stats.abandoned >= 1, "{stats:?}");
    assert!(core.store.tiers_conserved());
}
