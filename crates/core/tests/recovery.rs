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

/// Attempt exhaustion: losing the recovered object's hardware one more
/// time than the per-object budget (two recoveries) allows surfaces the
/// error — recovery is bounded, never an infinite resubmit loop.
#[test]
fn recovery_attempts_are_bounded() {
    let mut sim = Sim::new(9);
    // Island 0 has four hosts of four devices: room to heal the slice
    // after every kill, so only the budget can end recovery.
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(2, 4, 4),
        NetworkParams::tpu_cluster(),
        tiered_cfg(None),
    );
    let client = rt.client(HostId(4));
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
        let mut after = Vec::new();
        for until in [10_000, 20_000, 30_000] {
            h.sleep_until(t(until)).await;
            after.push(out.ready().await);
        }
        *results2.lock() = Some(after);
    });
    // The object starts in HBM on devices 0-3 (host 0). Killing device 1
    // heals the slice onto devices 0, 2, 3 and 4, and the recomputed
    // copy lands in the DRAM of their hosts, 0 and 1. Killing host 1
    // loses shard 3 again: the slice heals onto devices 0, 2, 3 and 8,
    // and the copy lands in hosts 0 and 2. Killing host 2 loses it a
    // third time, with both attempts spent.
    let faults = Arc::clone(rt.faults());
    let h = sim.handle();
    h.clone().spawn("killer", async move {
        h.sleep_until(t(1500)).await;
        faults.inject(&FaultSpec::Device(DeviceId(1)));
        h.sleep_until(t(12_000)).await;
        faults.inject(&FaultSpec::Host(HostId(1)));
        h.sleep_until(t(22_000)).await;
        faults.inject(&FaultSpec::Host(HostId(2)));
    });
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    let after = results.lock().take().unwrap();
    assert_eq!(after[0], Ok(()), "first loss recovers");
    assert_eq!(after[1], Ok(()), "second loss recovers");
    assert!(
        matches!(after[2], Err(ObjectError::ProducerFailed { .. })),
        "exhausted budget must surface the error: {:?}",
        after[2]
    );
    let stats = rt.faults().recovery_stats();
    assert_eq!(stats.recomputed, 2, "{stats:?}");
    assert!(stats.abandoned >= 1, "{stats:?}");
    let heals = rt.faults().heal_events();
    assert!(
        heals.last().is_some_and(|e| e.healed()),
        "the slice still had room after the last kill: {heals:?}"
    );
    assert!(core.store.tiers_conserved());
}

/// What [`one_host_kill_on_a_tiered_store`] leaves behind.
#[derive(Debug)]
struct HostKillOutcome {
    /// `<virtual ns> <event>` per tier transition.
    spill_log: Vec<String>,
    stats: pathways_core::RecoveryStats,
    /// Per host, its error notices then its heal notices, each
    /// `"<key> <detail>"`.
    notices: Vec<(Vec<String>, Vec<String>)>,
    /// Per consumer, in name order: `"<name> <virtual µs> <result>
    /// <input errors>"` once its output resolved.
    ready: Vec<String>,
}

/// One host kill on a tiered store (2 islands of 3 hosts × 2 devices,
/// 16 KiB HBM per device, 4 KiB shards) with every shape of loss at
/// once. The client sits on host 3; everything below lives on one
/// 4-device slice of island 0 (hosts 0 and 1), produced in this order:
///
/// * `q` then `p` fed by `q`; `q` is then failed by hand, so `p` cannot
///   be recomputed;
/// * `r`, checkpointed on the spot: it can be restored (its kernel is
///   slower than its restore) or recomputed;
/// * `a`, then `b` and `c` fed by it, none checkpointed: a shared
///   upstream only lineage brings back;
/// * `e`, released at once. `c` and `e` overflow HBM: `p` spills whole,
///   half to host 1's DRAM; then `r` spills on devices 0–2 and `b` on
///   device 3 (where `r`'s shard was read last), so `r` and `b` lose
///   HBM *and* DRAM shards with host 1;
/// * `w` fed by `p` and `d` fed by `c`, both still computing when host
///   1 dies: in-flight sinks. `w`'s sink is absorbed by the HBM walk
///   (its input has not failed yet), and then abandoned once the DRAM
///   walk fails `p`.
///
/// Consumers on island 1 bind the lost objects after the kill: `x`
/// binds `b` and `c`, `y` binds `r`, `z` binds `d`, `v` binds `w`.
/// `v` resolves `Ok` on its failed input: the chain cascades its
/// terminal failures only once its last node is rebuilt, and by then
/// `v` has run on the poisoned input and dropped its binding.
fn one_host_kill_on_a_tiered_store() -> HostKillOutcome {
    let mut sim = Sim::new(7);
    let cfg = PathwaysConfig {
        hbm_per_device: 16 << 10,
        ..tiered_cfg(None)
    };
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(2, 3, 2),
        NetworkParams::tpu_cluster(),
        cfg,
    );
    let client = rt.client(HostId(3));
    let faults = Arc::clone(rt.faults());
    let store = rt.core().store.clone();
    let ready = Arc::new(Lock::new(Vec::new()));
    let ready2 = Arc::clone(&ready);
    let job = sim.spawn("client", async move {
        let h = client.handle().clone();
        // A one-kernel program on `slice` with 4 KiB per output shard,
        // each input resharded into it.
        let submit = |name: &'static str,
                      us: u64,
                      slice: &pathways_core::VirtualSlice,
                      inputs: Vec<pathways_core::ObjectRef>| {
            let (client, slice) = (client.clone(), slice.clone());
            async move {
                let mut b = client.trace(name);
                let k = b.computation(
                    FnSpec::compute_only(name, SimDuration::from_micros(us))
                        .with_output_bytes(4 << 10),
                    &slice,
                );
                let mut bindings = Vec::new();
                for (i, input) in inputs.into_iter().enumerate() {
                    let x = b.input(InputSpec::new(format!("in{i}"), input.shards()));
                    b.reshard_edge(x, k, 4 << 10);
                    bindings.push((x, input));
                }
                let prepared = client.prepare(&b.build().unwrap());
                let run = client.submit_with(&prepared, &bindings).await.unwrap();
                let out = run.object_ref(k).unwrap();
                (run, out, bindings)
            }
        };
        let slice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(0)))
            .unwrap();
        let produce = |name, us, inputs| {
            let run = submit(name, us, &slice, inputs);
            async move {
                let (run, out, _) = run.await;
                run.finish().await;
                out
            }
        };
        let q = produce("q", 100, vec![]).await;
        let p = produce("p", 100, vec![q.clone()]).await;
        store.fail_object(q.id(), pathways_core::FailureReason::OwnerGone);
        let r = produce("r", 2_000, vec![]).await;
        assert_eq!(store.checkpoint_now(r.id()), Some(16 << 10));
        let a = produce("a", 1_000, vec![]).await;
        let b = produce("b", 100, vec![a.clone()]).await;
        let c = produce("c", 100, vec![a.clone()]).await;
        store.read_shard(r.id(), 3).unwrap();
        drop(produce("e", 100, vec![]).await);
        let (w_run, w, _) = submit("w", 2_000, &slice, vec![p.clone()]).await;
        let (d_run, d, _) = submit("d", 2_000, &slice, vec![c.clone()]).await;
        h.sleep(SimDuration::from_micros(500)).await;
        faults.inject(&FaultSpec::Host(HostId(1)));
        drop((w_run, d_run));

        let cslice = client
            .virtual_slice(SliceRequest::devices(2).in_island(IslandId(1)))
            .unwrap();
        let consume = |name: &'static str, inputs: Vec<pathways_core::ObjectRef>| {
            let (run, ready, h) = (
                submit(name, 100, &cslice, inputs),
                Arc::clone(&ready2),
                h.clone(),
            );
            h.clone().spawn(name, async move {
                let (run, out, bindings) = run.await;
                run.finish().await;
                let result = out.ready().await;
                let at = (h.now() - SimTime::ZERO).as_micros();
                let inputs: Vec<_> = bindings.iter().map(|(_, r)| r.error()).collect();
                ready
                    .lock()
                    .push(format!("{name} {at} {result:?} {inputs:?}"));
            })
        };
        let consumers = [
            consume("x", vec![b, c]),
            consume("y", vec![r]),
            consume("z", vec![d]),
            consume("v", vec![w]),
        ];
        for consumer in consumers {
            consumer.await;
        }
        drop((a, p, q));
    });
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    job.try_take().unwrap();
    let store = &rt.core().store;
    assert!(store.is_empty(), "store leaked {}", store.len());
    assert!(store.tiers_conserved(), "tier byte ledgers drifted");
    let spill_log = store
        .spill_events()
        .iter()
        .map(|e| format!("{} {e}", e.at.as_nanos()))
        .collect();
    let faults = rt.faults();
    fn lines<K: std::fmt::Display>(notices: Vec<(K, String)>) -> Vec<String> {
        notices.iter().map(|(k, s)| format!("{k} {s}")).collect()
    }
    let notices = rt
        .topology()
        .hosts()
        .map(|host| {
            let errors = lines(faults.error_log().notices(host));
            (errors, lines(faults.heal_log().notices(host)))
        })
        .collect();
    let mut ready = ready.lock().clone();
    ready.sort();
    HostKillOutcome {
        spill_log,
        stats: faults.recovery_stats(),
        notices,
        ready,
    }
}

/// The fault path's every step at once, pinned as the commit before
/// the loss walk was keyed by `Place` produced it: the absorb order
/// (HBM per device, then DRAM), restore-vs-recompute per object,
/// the shared upstream rebuilt once, the in-flight sinks, and what
/// each live host was told.
#[test]
fn one_host_kill_on_a_tiered_store_is_pinned() {
    let got = one_host_kill_on_a_tiered_store();
    assert_eq!(got.spill_log, PINNED_HOST_KILL_LOG, "{got:#?}");
    let stats = pathways_core::RecoveryStats {
        restored: 1,
        recomputed: 4,
        abandoned: 1,
    };
    assert_eq!(got.stats, stats, "{got:#?}");
    let errors = ["run7 host1 failed", "run8 host1 failed"];
    let heals = [
        "slice0 remapped [DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(3)] \
         -> [DeviceId(0), DeviceId(1), DeviceId(4), DeviceId(5)]",
    ];
    for (host, (e, h)) in got.notices.iter().enumerate() {
        let (want_e, want_h): (&[&str], &[&str]) = match host {
            1 => (&[], &[]),
            _ => (&errors, &heals),
        };
        assert_eq!(e, want_e, "host {host}");
        assert_eq!(h, want_h, "host {host}");
    }
    assert_eq!(got.notices.len(), 6);
    assert_eq!(got.ready, PINNED_HOST_KILL_READY, "{got:#?}");
}

/// `<virtual ns> <event>`: `q` = run 0, `p` = 1, `r` = 2, `a` = 3,
/// `b` = 4, `c` = 5, `e` = 6, `w` = 7, `d` = 8.
const PINNED_HOST_KILL_LOG: [&str; 32] = [
    "4254607 obj(run1,comp0)#0 4096B hbm->dram (host0)",
    "4262863 obj(run1,comp0)#1 4096B hbm->dram (host0)",
    "4288615 obj(run1,comp0)#2 4096B hbm->dram (host1)",
    "4296871 obj(run1,comp0)#3 4096B hbm->dram (host1)",
    "4535167 obj(run2,comp0)#0 4096B hbm->dram (host0)",
    "4543423 obj(run2,comp0)#1 4096B hbm->dram (host0)",
    "4569175 obj(run2,comp0)#2 4096B hbm->dram (host1)",
    "4577431 obj(run4,comp0)#3 4096B hbm->dram (host1)",
    "4849834 obj(run4,comp0)#0 4096B hbm->dram (host0)",
    "4858090 obj(run4,comp0)#1 4096B hbm->dram (host0)",
    "4883842 obj(run4,comp0)#2 4096B hbm->dram (host1)",
    "4892098 obj(run5,comp0)#3 4096B hbm->dram (host1)",
    "5475624 obj(run2,comp0)#2 4096B disk->dram (host0)",
    "5475624 obj(run2,comp0)#3 4096B disk->dram (host0)",
    "5535889 obj(run3,comp0)#0 4096B hbm->dram (host0)",
    "5544145 obj(run3,comp0)#1 4096B hbm->dram (host0)",
    "9900811 obj(run3,comp0)#0 4096B hbm->dram (host0)",
    "9900811 obj(run3,comp0)#1 4096B hbm->dram (host0)",
    "9900811 obj(run3,comp0)#2 4096B hbm->dram (host2)",
    "9900811 obj(run3,comp0)#3 4096B hbm->dram (host2)",
    "10216203 obj(run4,comp0)#0 4096B hbm->dram (host0)",
    "10216203 obj(run4,comp0)#1 4096B hbm->dram (host0)",
    "10216203 obj(run4,comp0)#2 4096B hbm->dram (host2)",
    "10216203 obj(run4,comp0)#3 4096B hbm->dram (host2)",
    "10531595 obj(run5,comp0)#0 4096B hbm->dram (host0)",
    "10531595 obj(run5,comp0)#1 4096B hbm->dram (host0)",
    "10531595 obj(run5,comp0)#2 4096B hbm->dram (host2)",
    "10531595 obj(run5,comp0)#3 4096B hbm->dram (host2)",
    "12746987 obj(run8,comp0)#0 4096B hbm->dram (host0)",
    "12746987 obj(run8,comp0)#1 4096B hbm->dram (host0)",
    "12746987 obj(run8,comp0)#2 4096B hbm->dram (host2)",
    "12746987 obj(run8,comp0)#3 4096B hbm->dram (host2)",
];

const PINNED_HOST_KILL_READY: [&str; 4] = [
    "v 13033 Ok(()) [Some(ProducerFailed { object: ObjectId { run: RunId(7), comp: CompId(0) }, reason: Host(HostId(1)) })]",
    "x 13133 Ok(()) [None, None]",
    "y 5662 Ok(()) [None]",
    "z 12933 Ok(()) [None]",
];
