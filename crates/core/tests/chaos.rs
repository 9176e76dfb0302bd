//! Chaos suite: deterministic fault injection against chained-ObjectRef
//! workloads.
//!
//! Three invariants, checked across scripted scenarios and a seeded
//! random matrix:
//!
//! 1. no wedged future — every `ObjectRef` and `Run` resolves (to data
//!    or to `ObjectError::ProducerFailed`) in bounded *virtual* time;
//!    no test relies on timeouts;
//! 2. refcounts drain — once the client drops its handles the object
//!    store is empty and every HBM lease is returned;
//! 3. surviving islands keep making progress.
//!
//! Plus the determinism guarantee: the same seed and fault schedule
//! reproduce a bit-identical event trace.

use pathways_sim::Lock;
use std::sync::Arc;

use pathways_core::chaos::{run_chaos, ChaosSpec};
use pathways_core::{
    FailureReason, FaultSpec, FnSpec, InputSpec, ObjectError, ObjectRef, PathwaysConfig,
    PathwaysRuntime, SliceRequest,
};
use pathways_net::{ClusterSpec, DeviceId, HostId, IslandId, NetworkParams};
use pathways_sim::{ExecutorKind, FaultPlan, Sim, SimDuration, SimTime};

/// True when `PATHWAYS_EXECUTOR` selects the threaded backend; the
/// bit-identical-replay tests are skipped there (real threads do not
/// promise a reproducible interleaving — the invariant tests above
/// still run on both backends).
fn threaded_backend() -> bool {
    ExecutorKind::from_env() != ExecutorKind::Deterministic
}

fn two_island_rt(sim: &Sim) -> PathwaysRuntime {
    PathwaysRuntime::new(
        sim,
        ClusterSpec::islands_of(2, 2, 4),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    )
}

fn t(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

/// Acceptance scenario: a scripted device failure during a 3-program
/// chained run resolves every downstream `ObjectRef` to
/// `Err(ObjectError::ProducerFailed)`, while a control program on the
/// untouched island completes with data.
#[test]
fn scripted_device_failure_fails_three_program_chain() {
    let mut sim = Sim::new(7);
    let rt = two_island_rt(&sim);
    rt.install_fault_plan(FaultPlan::new().at(t(300), FaultSpec::Device(DeviceId(3))));
    // Client on the surviving island's host so its agent outlives the
    // fault.
    let client = rt.client(HostId(2));
    let core = Arc::clone(rt.core());

    let job = sim.spawn("client", async move {
        let slice0 = client
            .virtual_slice(SliceRequest::devices(8).in_island(IslandId(0)))
            .unwrap();
        // Three chained programs, all gang-scheduled on island 0 (which
        // contains the doomed device 3).
        let mut chain = Vec::new();
        let mut prev: Option<ObjectRef> = None;
        let mut runs = Vec::new();
        for i in 0..3 {
            let mut b = client.trace(format!("c{i}"));
            let x = prev
                .as_ref()
                .map(|p| b.input(InputSpec::new("x", p.shards())));
            let k = b.computation(
                FnSpec::compute_only("k", SimDuration::from_micros(500))
                    .with_allreduce(4)
                    .with_output_bytes(1 << 12),
                &slice0,
            );
            if let Some(x) = x {
                b.reshard_edge(x, k, 1 << 12);
            }
            let prepared = client.prepare(&b.build().unwrap());
            let run = match (x, prev.take()) {
                (Some(x), Some(p)) => client.submit_with(&prepared, &[(x, p)]).await.unwrap(),
                _ => client.submit(&prepared).await,
            };
            let out = run.object_ref(k).unwrap();
            prev = Some(out.clone());
            chain.push(out);
            runs.push(run);
        }
        drop(prev);
        // Control program on island 1: must finish with data.
        let slice1 = client
            .virtual_slice(SliceRequest::devices(8).in_island(IslandId(1)))
            .unwrap();
        let mut b = client.trace("survivor");
        let k = b.computation(
            FnSpec::compute_only("s", SimDuration::from_micros(500)).with_allreduce(4),
            &slice1,
        );
        let survivor = client.submit(&client.prepare(&b.build().unwrap())).await;
        let survivor_out = survivor.object_ref(k).unwrap();

        // Every run completes (wound down by failure propagation) and
        // every future resolves — no timeouts anywhere.
        for run in runs {
            run.finish().await;
        }
        survivor.finish().await;
        let chain_results: Vec<Result<(), ObjectError>> = {
            let mut v = Vec::new();
            for out in &chain {
                v.push(out.ready().await);
            }
            v
        };
        let survivor_result = survivor_out.ready().await;
        (chain_results, survivor_result)
    });

    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    let (chain_results, survivor_result) = job.try_take().unwrap();
    for (i, r) in chain_results.iter().enumerate() {
        match r {
            Err(ObjectError::ProducerFailed { .. }) => {}
            other => panic!("chain program {i} resolved to {other:?}, want ProducerFailed"),
        }
    }
    assert_eq!(survivor_result, Ok(()), "surviving island must progress");
    // Refcounts drained: the client task dropped every handle.
    assert!(core.store.is_empty(), "store leaked {}", core.store.len());
    for dev in core.devices.values() {
        assert_eq!(dev.hbm().used(), 0, "HBM leaked on {:?}", dev.id());
    }
    // The failure was delivered to the surviving hosts via housekeeping.
    let log = rt.faults().error_log();
    assert!(
        !log.notices(HostId(2)).is_empty(),
        "error delivery must reach live hosts"
    );
}

/// Killing the host that runs an island's scheduler takes the island
/// down; submissions to it fail fast with a typed island error.
#[test]
fn scheduler_host_death_kills_island_but_spares_others() {
    let mut sim = Sim::new(0);
    let rt = two_island_rt(&sim);
    // Host 0 runs island 0's scheduler.
    rt.install_fault_plan(FaultPlan::new().at(t(100), FaultSpec::Host(HostId(0))));
    let client = rt.client(HostId(2));
    let h = sim.handle();
    let job = sim.spawn("client", async move {
        // Submitted after the fault: island 0 is already dead.
        h.sleep(SimDuration::from_micros(200)).await;
        let s0 = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(0)))
            .unwrap();
        let mut b = client.trace("doomed");
        let k = b.computation(
            FnSpec::compute_only("k", SimDuration::from_micros(100)),
            &s0,
        );
        let run = client.submit(&client.prepare(&b.build().unwrap())).await;
        let doomed = run.object_ref(k).unwrap();
        run.finish().await;
        let doomed_result = doomed.ready().await;

        let s1 = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(1)))
            .unwrap();
        let mut b = client.trace("alive");
        let k = b.computation(
            FnSpec::compute_only("k", SimDuration::from_micros(100)),
            &s1,
        );
        let run = client.submit(&client.prepare(&b.build().unwrap())).await;
        let alive = run.object_ref(k).unwrap();
        run.finish().await;
        (doomed_result, alive.ready().await)
    });
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    let (doomed, alive) = job.try_take().unwrap();
    match doomed {
        Err(err) => assert!(
            matches!(
                err.reason(),
                FailureReason::Island(_) | FailureReason::Host(_) | FailureReason::Device(_)
            ),
            "unexpected reason {:?}",
            err.reason()
        ),
        Ok(()) => panic!("run on a dead island must fail"),
    }
    assert_eq!(alive, Ok(()));
    assert!(rt.core().store.is_empty());
}

/// A severed DCN link between the client's host and the scheduler's
/// host partitions in-flight runs; both ends stay live for local work.
#[test]
fn severed_link_fails_spanning_runs() {
    let mut sim = Sim::new(0);
    let rt = two_island_rt(&sim);
    rt.install_fault_plan(FaultPlan::new().at(t(100), FaultSpec::Link(HostId(2), HostId(0))));
    let client = rt.client(HostId(2));
    let job = sim.spawn("client", async move {
        // In flight across the link when it is cut (compute far longer
        // than the cut time).
        let s0 = client
            .virtual_slice(SliceRequest::devices(8).in_island(IslandId(0)))
            .unwrap();
        let mut b = client.trace("spanning");
        let k = b.computation(
            FnSpec::compute_only("k", SimDuration::from_millis(5)).with_allreduce(4),
            &s0,
        );
        let run = client.submit(&client.prepare(&b.build().unwrap())).await;
        let out = run.object_ref(k).unwrap();
        run.finish().await;
        out.ready().await
    });
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    match job.try_take().unwrap() {
        Err(err) => assert!(
            matches!(err.reason(), FailureReason::Link(_, _)),
            "want link failure, got {:?}",
            err.reason()
        ),
        Ok(()) => panic!("partitioned run must fail"),
    }
    assert!(rt.core().store.is_empty());
}

/// Satellite: `fail_client` injected between submit and the first
/// kernel grant — downstream consumers (a different client) unblock
/// with a typed error, not stale data, and the producer's never-granted
/// run still winds down to completion.
#[test]
fn fail_client_between_submit_and_first_grant_unblocks_consumers() {
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::config_b(2),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    let blocker = rt.client(HostId(0));
    let producer = rt.client(HostId(0));
    let producer_id = producer.id();
    let consumer = rt.client(HostId(1));
    let consumer_result = Arc::new(Lock::new(None));
    let consumer_result2 = Arc::clone(&consumer_result);
    let queued = Arc::new(Lock::new(Vec::new()));
    let queued2 = Arc::clone(&queued);
    let job = sim.spawn("clients", async move {
        // A 10 ms gang kernel over the whole island, submitted on the
        // scheduler's own host so it is granted first, holds the
        // scheduler's estimate 7 ms past its 3 ms horizon: the two runs
        // below queue behind it without a grant.
        let all = blocker.virtual_slice(SliceRequest::devices(16)).unwrap();
        let mut b = blocker.trace("blocker");
        b.computation(
            FnSpec::compute_only("b", SimDuration::from_millis(10)),
            &all,
        );
        let blocker_run = blocker.submit(&blocker.prepare(&b.build().unwrap())).await;

        let slice = producer.virtual_slice(SliceRequest::devices(8)).unwrap();
        let mut b = producer.trace("prod");
        let k = b.computation(
            FnSpec::compute_only("p", SimDuration::from_micros(100)).with_output_bytes(1 << 12),
            &slice,
        );
        let prod_run = producer
            .submit(&producer.prepare(&b.build().unwrap()))
            .await;
        let fut = prod_run.object_ref(k).unwrap();

        let cslice = consumer.virtual_slice(SliceRequest::devices(8)).unwrap();
        let mut b = consumer.trace("cons");
        let x = b.input(InputSpec::new("x", fut.shards()));
        let c = b.computation(
            FnSpec::compute_only("c", SimDuration::from_micros(100)),
            &cslice,
        );
        b.reshard_edge(x, c, 1 << 12);
        let cons_run = consumer
            .submit_with(&consumer.prepare(&b.build().unwrap()), &[(x, fut)])
            .await
            .unwrap();
        *queued2.lock() = vec![prod_run.run(), cons_run.run()];
        let out = cons_run.object_ref(c).unwrap();
        // Both runs are queued at the scheduler; the failure lands
        // before their first grant.
        prod_run.finish().await;
        cons_run.finish().await;
        let ready = out.ready().await;
        *consumer_result2.lock() = Some(ready);
        blocker_run.finish().await;
        true
    });
    // Submissions take ~50us of client overhead; the first grant after
    // the blocker's cannot happen before 7ms. Kill the producer in
    // between.
    sim.run_until_time(t(500));
    assert!(!job.is_finished(), "nothing can have been granted yet");
    let sched = rt.scheduler(IslandId(0));
    let queued = queued.lock().clone();
    assert_eq!(queued.len(), 2, "both runs were submitted");
    assert_eq!(sched.granted_programs(), 1, "only the blocker was granted");
    rt.fail_client(producer_id);
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    assert_eq!(job.try_take(), Some(true));
    // Both runs reached the scheduler and were evicted there: no grant
    // of either ever went out.
    for run in &queued {
        assert!(sched.arrival_time(*run).is_some(), "{run:?} never arrived");
    }
    assert_eq!(sched.granted_programs(), 1, "a failed run was granted");
    match consumer_result.lock().as_ref().unwrap() {
        Err(err) => assert!(
            matches!(
                err.reason(),
                FailureReason::Upstream(_) | FailureReason::Client(_)
            ),
            "want upstream/client failure, got {:?}",
            err.reason()
        ),
        Ok(()) => panic!("consumer must observe an error, not stale data"),
    }
    assert!(rt.core().store.is_empty());
}

/// Acceptance scenario for elastic healing: a device is killed while a
/// program is in flight on its slice. The in-flight run fails with
/// `ProducerFailed`, the resource manager remaps the slice onto spare
/// capacity in the same island, and the *same prepared program* —
/// now stale — re-lowers transparently on the next submit and
/// completes. Surviving islands progress throughout, heal notices reach
/// live hosts, and after release the accounting ledger drains to zero.
/// Run twice to assert the healed schedule replays bit-identically.
#[test]
fn device_kill_heals_slice_and_next_submit_succeeds() {
    fn scenario() -> pathways_sim::trace::TraceLog {
        let mut sim = Sim::new(11);
        sim.handle().record_trace(true);
        let rt = two_island_rt(&sim); // 2 islands x 8 devices
        rt.install_fault_plan(FaultPlan::new().at(t(300), FaultSpec::Device(DeviceId(1))));
        let client = rt.client(HostId(2)); // lives on the surviving island
        let rm = Arc::clone(rt.resource_manager());
        let rm2 = Arc::clone(&rm);

        let job = sim.spawn("client", async move {
            let slice = client
                .virtual_slice(SliceRequest::devices(4).in_island(IslandId(0)))
                .unwrap();
            assert_eq!(
                slice.physical_devices(),
                vec![DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(3)]
            );
            let mut b = client.trace("step");
            let k = b.computation(
                FnSpec::compute_only("k", SimDuration::from_micros(800))
                    .with_allreduce(4)
                    .with_output_bytes(1 << 12),
                &slice,
            );
            let prepared = client.prepare(&b.build().unwrap());
            assert!(!prepared.is_stale());

            // In flight on devices 0-3 when device 1 dies at t=300us.
            let run1 = client.submit(&prepared).await;
            let out1 = run1.object_ref(k).unwrap();
            run1.finish().await;
            let r1 = out1.ready().await;
            drop(out1);

            // The fault injector healed the slice synchronously: the
            // mapping no longer contains the dead device, and the old
            // preparation is stale.
            let healed = slice.physical_devices();
            assert!(
                !healed.contains(&DeviceId(1)),
                "slice not healed: {healed:?}"
            );
            assert_eq!(healed.len(), 4);
            assert!(prepared.is_stale(), "remap must invalidate the lowering");

            // Same prepared program, no client-side changes: submit
            // re-lowers against the healed mapping and completes.
            let run2 = client.submit(&prepared).await;
            let out2 = run2.object_ref(k).unwrap();
            run2.finish().await;
            let r2 = out2.ready().await;
            drop(out2);

            rm2.release(&slice);
            (r1, r2)
        });

        let outcome = sim.run();
        assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
        let (r1, r2) = job.try_take().unwrap();
        match r1 {
            Err(ObjectError::ProducerFailed { .. }) => {}
            other => panic!("in-flight run must fail, got {other:?}"),
        }
        assert_eq!(r2, Ok(()), "submit on the healed slice must succeed");

        // Healing is observable: one heal event, the slice remapped.
        let events = rt.faults().heal_events();
        assert_eq!(events.len(), 1);
        assert!(events[0].healed(), "heal failed: {:?}", events[0]);
        assert!(events[0].from.contains(&DeviceId(1)));
        // The heal notice reached the client's (live) host.
        assert!(
            rt.faults()
                .heal_log()
                .knows_about(HostId(2), events[0].slice),
            "heal delivery must reach live hosts"
        );
        // Accounting drained to zero after release.
        assert_eq!(rt.resource_manager().total_load(), 0);
        assert_eq!(rt.resource_manager().live_slice_count(), 0);
        assert!(rt.core().store.is_empty());
        for dev in rt.core().devices.values() {
            assert_eq!(dev.hbm().used(), 0, "HBM leaked on {:?}", dev.id());
        }
        sim.take_trace()
    }

    let trace_a = scenario();
    let trace_b = scenario();
    assert_eq!(
        trace_a, trace_b,
        "healed schedule must replay bit-identically"
    );
}

/// Killing a host takes several devices at once; every slice touching
/// them is healed in one pass onto the island's surviving host (or
/// fails typed if the island's scheduler died with it). Here the dying
/// host is NOT the scheduler host, so healing lands in-island.
#[test]
fn host_kill_heals_all_touched_slices_in_one_pass() {
    let mut sim = Sim::new(5);
    let rt = two_island_rt(&sim); // hosts 0,1 -> island 0; 2,3 -> island 1
                                  // Host 1 holds devices 4-7; host 0 keeps the island-0 scheduler.
    rt.install_fault_plan(FaultPlan::new().at(t(200), FaultSpec::Host(HostId(1))));
    let client = rt.client(HostId(2));
    let rm = Arc::clone(rt.resource_manager());
    let rm2 = Arc::clone(&rm);
    let job = sim.spawn("client", async move {
        // Two 2-device slices placed across island 0; at least one
        // touches host 1's devices after load balancing spreads them.
        let s1 = client
            .virtual_slice(SliceRequest::devices(6).in_island(IslandId(0)))
            .unwrap();
        let s2 = client
            .virtual_slice(SliceRequest::devices(6).in_island(IslandId(0)))
            .unwrap();
        let h = client.handle().clone();
        h.sleep(SimDuration::from_micros(400)).await; // fault has landed
                                                      // Both slices must have been healed off devices 4-7... but the
                                                      // island only has 4 live devices left, so 6-wide slices are
                                                      // unplaceable — they stay broken and submits fail fast.
        let mut b = client.trace("post");
        let k = b.computation(FnSpec::compute_only("k", SimDuration::from_micros(50)), &s1);
        let run = client.submit(&client.prepare(&b.build().unwrap())).await;
        let out = run.object_ref(k).unwrap();
        run.finish().await;
        let r_broken = out.ready().await;

        // A fresh, smaller allocation fits the surviving capacity and
        // completes.
        let s3 = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(0)))
            .unwrap();
        let mut b = client.trace("fresh");
        let k = b.computation(FnSpec::compute_only("k", SimDuration::from_micros(50)), &s3);
        let run = client.submit(&client.prepare(&b.build().unwrap())).await;
        let out = run.object_ref(k).unwrap();
        run.finish().await;
        let r_fresh = out.ready().await;
        for s in [&s1, &s2, &s3] {
            rm2.release(s);
        }
        (r_broken, r_fresh)
    });
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    let (r_broken, r_fresh) = job.try_take().unwrap();
    assert!(r_broken.is_err(), "unplaceable slice must fail fast");
    assert_eq!(r_fresh, Ok(()), "right-sized reallocation must work");
    // Both oversized slices produced (failed) heal events.
    let events = rt.faults().heal_events();
    assert_eq!(events.len(), 2);
    assert!(events.iter().all(|e| !e.healed()));
    assert_eq!(rt.resource_manager().total_load(), 0);
    assert!(rt.core().store.is_empty());
}

/// Seeded chaos matrix: random fault schedules x random chained
/// workloads never wedge a future, never leak store objects or HBM,
/// and never stall the spare island.
#[test]
fn chaos_matrix_upholds_invariants() {
    // At least 8 seeds (the CI chaos job runs this suite in release).
    for seed in [1, 2, 3, 4, 5, 6, 7, 8, 0xC0FFEE, 0xBAD5EED] {
        let report = run_chaos(&ChaosSpec::seeded(seed));
        assert!(
            report.outcome.is_quiescent(),
            "seed {seed}: wedged with faults {:?}: {:?}",
            report.faults,
            report.outcome
        );
        assert!(
            report.resolved_ok + report.resolved_err >= 1,
            "seed {seed}: nothing resolved"
        );
        assert_eq!(
            report.store_len, 0,
            "seed {seed}: store leaked {} objects (faults {:?})",
            report.store_len, report.faults
        );
        assert_eq!(
            report.hbm_leaked, 0,
            "seed {seed}: leaked {} HBM bytes (faults {:?})",
            report.hbm_leaked, report.faults
        );
        assert!(
            report.survivor_kernels > 0,
            "seed {seed}: spare island made no progress (faults {:?})",
            report.faults
        );
        // Healing invariants: every heal-epoch resubmission resolves
        // (one per allocated slice), and the spare island's
        // resubmission always succeeds. Deterministically every program
        // launches before the first fault; threaded, a fault can race
        // setup and skip a program, so only the launched count is exact.
        assert_eq!(
            report.healed_ok + report.healed_err,
            report.launched,
            "seed {seed}: heal-epoch resubmission wedged (faults {:?})",
            report.faults
        );
        if !threaded_backend() {
            assert_eq!(
                report.launched,
                ChaosSpec::seeded(seed).programs + 1,
                "seed {seed}: allocation failed without faults in flight"
            );
        }
        assert!(
            report.spare_healed,
            "seed {seed}: spare island's resubmission failed (faults {:?})",
            report.faults
        );
        // Accounting drains: after the client released every slice, no
        // device carries residual load and no slice is still tracked.
        assert_eq!(
            report.rm_residual_load, 0,
            "seed {seed}: resource-manager ledger drifted by {} (faults {:?})",
            report.rm_residual_load, report.faults
        );
        assert_eq!(
            report.rm_live_slices, 0,
            "seed {seed}: {} slices leaked (faults {:?})",
            report.rm_live_slices, report.faults
        );
    }
}

/// Tiered chaos matrix: the same fault schedules with storage tiers and
/// recovery enabled. All the untiered invariants still hold, plus the
/// tier byte ledgers conserve and drain to zero, and across the matrix
/// the recovery machinery actually fires (checkpoints committed, losses
/// absorbed into restore/recompute instead of surfacing errors).
#[test]
fn tiered_chaos_matrix_upholds_invariants() {
    let mut checkpoints = 0u64;
    let mut recoveries = 0u64;
    for seed in [1, 2, 3, 4, 5, 6, 7, 8, 0xC0FFEE, 0xBAD5EED] {
        let report = run_chaos(&ChaosSpec::seeded_tiered(seed));
        assert!(
            report.outcome.is_quiescent(),
            "seed {seed}: wedged with faults {:?}: {:?}",
            report.faults,
            report.outcome
        );
        assert_eq!(
            report.store_len, 0,
            "seed {seed}: store leaked {} objects (faults {:?})",
            report.store_len, report.faults
        );
        assert_eq!(report.hbm_leaked, 0, "seed {seed}: leaked HBM bytes");
        assert_eq!(
            report.dram_leaked, 0,
            "seed {seed}: leaked {} DRAM-tier bytes (faults {:?})",
            report.dram_leaked, report.faults
        );
        assert_eq!(
            report.disk_leaked, 0,
            "seed {seed}: leaked {} disk-tier bytes (faults {:?})",
            report.disk_leaked, report.faults
        );
        assert!(
            report.tiers_conserved,
            "seed {seed}: tier byte ledgers drifted (faults {:?})",
            report.faults
        );
        assert_eq!(
            report.healed_ok + report.healed_err,
            report.launched,
            "seed {seed}: heal-epoch resubmission wedged"
        );
        if !threaded_backend() {
            assert_eq!(
                report.launched,
                ChaosSpec::seeded_tiered(seed).programs + 1,
                "seed {seed}: allocation failed without faults in flight"
            );
        }
        assert!(report.spare_healed, "seed {seed}: spare heal failed");
        assert!(report.survivor_kernels > 0, "seed {seed}: spare stalled");
        assert_eq!(report.rm_residual_load, 0, "seed {seed}: rm ledger drift");
        assert_eq!(report.rm_live_slices, 0, "seed {seed}: slices leaked");
        checkpoints += report.tier_stats.checkpoints;
        recoveries +=
            report.recovery.restored + report.recovery.recomputed + report.recovery.abandoned;
    }
    assert!(checkpoints > 0, "no seed ever committed a checkpoint");
    assert!(recoveries > 0, "no seed ever exercised object recovery");
}

/// Tiered chaos is as replayable as untiered chaos: spill, checkpoint,
/// and recovery scheduling are all on the deterministic wheel.
#[test]
fn tiered_chaos_runs_are_bit_identical_for_equal_seeds() {
    if threaded_backend() {
        eprintln!("skipping: replay is only bit-identical on the deterministic backend");
        return;
    }
    for seed in [3, 0xD15EA5E] {
        let a = run_chaos(&ChaosSpec::seeded_tiered(seed));
        let b = run_chaos(&ChaosSpec::seeded_tiered(seed));
        assert_eq!(a.faults, b.faults, "seed {seed}: fault schedules differ");
        assert_eq!(
            a.trace,
            b.trace,
            "seed {seed}: traces differ (fingerprints {:x} vs {:x})",
            a.trace_fingerprint(),
            b.trace_fingerprint()
        );
        assert_eq!(a.tier_stats, b.tier_stats, "tier activity must replay");
        assert_eq!(a.recovery, b.recovery, "recovery must replay");
        assert_eq!(a.resolved_ok, b.resolved_ok);
        assert_eq!(a.resolved_err, b.resolved_err);
    }
}

/// One scripted chain-loss run for the storage engine's DAG-chain
/// recovery: upstream producer `A` feeds `B` and `C` on the same
/// island-0 slice (all refs retained, lineage-only — no checkpoints),
/// a device kill at 300ms loses a shard of all three at once, and a
/// post-kill consumer on island 1 binds both downstream objects.
/// Returns the event trace, the trace-counted number of times `A` was
/// recomputed, and the recovery counters.
fn chain_loss_run(
    seed: u64,
) -> (
    pathways_sim::trace::TraceLog,
    u64,
    pathways_core::RecoveryStats,
) {
    use pathways_core::TierConfig;
    let mut sim = Sim::new(seed);
    sim.handle().record_trace(true);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(2, 2, 4),
        NetworkParams::tpu_cluster(),
        PathwaysConfig {
            tiers: Some(TierConfig {
                checkpoint_interval: None,
                ..TierConfig::default()
            }),
            ..PathwaysConfig::default()
        },
    );
    rt.install_fault_plan(FaultPlan::new().at(t(300_000), FaultSpec::Device(DeviceId(1))));
    let client = rt.client(HostId(2));
    let core = Arc::clone(rt.core());
    let job = sim.spawn("client", async move {
        let h = client.handle().clone();
        // One slice for the whole chain: every object shards over the
        // same 4 devices, so the kill loses a shard of each.
        let slice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(0)))
            .unwrap();
        let mut b = client.trace("upstream");
        let ka = b.computation(
            FnSpec::compute_only("a", SimDuration::from_millis(1)).with_output_bytes(1 << 12),
            &slice,
        );
        let arun = client.submit(&client.prepare(&b.build().unwrap())).await;
        let out_a = arun.object_ref(ka).unwrap();
        arun.finish().await;
        assert_eq!(out_a.ready().await, Ok(()), "upstream must succeed");
        let a_id = out_a.id();

        let mut downstream = Vec::new();
        for name in ["left", "right"] {
            let mut b = client.trace(name);
            let x = b.input(InputSpec::new("a", out_a.shards()));
            let k = b.computation(
                FnSpec::compute_only(name, SimDuration::from_micros(500))
                    .with_output_bytes(1 << 12),
                &slice,
            );
            b.reshard_edge(x, k, 1 << 12);
            let run = client
                .submit_with(&client.prepare(&b.build().unwrap()), &[(x, out_a.clone())])
                .await
                .unwrap();
            let out = run.object_ref(k).unwrap();
            run.finish().await;
            assert_eq!(out.ready().await, Ok(()), "downstream must succeed");
            downstream.push(out);
        }
        let out_c = downstream.pop().unwrap();
        let out_b = downstream.pop().unwrap();

        h.sleep_until(t(300_100)).await;
        // Consumer on island 1: it must not share device queues with
        // the recompute re-lowered onto healed island-0 devices.
        let dslice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(1)))
            .unwrap();
        let mut b = client.trace("consumer");
        let xb = b.input(InputSpec::new("b", out_b.shards()));
        let xc = b.input(InputSpec::new("c", out_c.shards()));
        let d = b.computation(
            FnSpec::compute_only("consume", SimDuration::from_micros(100)),
            &dslice,
        );
        b.reshard_edge(xb, d, 1 << 12);
        b.reshard_edge(xc, d, 1 << 12);
        let drun = client
            .submit_with(
                &client.prepare(&b.build().unwrap()),
                &[(xb, out_b), (xc, out_c)],
            )
            .await
            .unwrap();
        let dout = drun.object_ref(d).unwrap();
        drun.finish().await;
        assert_eq!(dout.ready().await, Ok(()), "chain must recover");
        a_id
    });
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    let a_id = job.try_take().unwrap();
    assert!(core.store.is_empty(), "store leaked {}", core.store.len());
    let stats = rt.faults().recovery_stats();
    let trace = sim.take_trace();
    let label = format!("recompute {a_id}");
    let upstream = trace
        .spans()
        .iter()
        .filter(|s| &*s.track == "tiers" && *s.label == *label)
        .count() as u64;
    (trace, upstream, stats)
}

/// Storage-engine satellite: losing a whole object *chain* to one
/// device kill recomputes the shared upstream producer exactly once —
/// the recovery manager dedupes it out of both downstream lineages and
/// rebuilds the batch in topological order. The invariant holds on
/// both executor backends; the bit-identical replay of the trace is
/// asserted on the deterministic one.
#[test]
fn scripted_chain_loss_recomputes_shared_upstream_once() {
    let (trace_a, upstream, stats) = chain_loss_run(11);
    assert_eq!(
        upstream, 1,
        "shared upstream must be recomputed exactly once"
    );
    assert_eq!(
        stats.restored + stats.recomputed,
        3,
        "the whole 3-object chain recovers: {stats:?}"
    );
    assert_eq!(stats.abandoned, 0, "nothing goes terminal: {stats:?}");
    if threaded_backend() {
        eprintln!("skipping replay check: only bit-identical on the deterministic backend");
        return;
    }
    let (trace_b, upstream_b, stats_b) = chain_loss_run(11);
    assert_eq!(upstream_b, 1);
    assert_eq!(stats, stats_b, "recovery must replay");
    assert_eq!(
        trace_a, trace_b,
        "chain recovery must replay bit-identically"
    );
}

/// The same seed reproduces a bit-identical event trace — fault
/// schedule included (it is stamped on the `faults` trace track).
#[test]
fn chaos_runs_are_bit_identical_for_equal_seeds() {
    if threaded_backend() {
        eprintln!("skipping: replay is only bit-identical on the deterministic backend");
        return;
    }
    for seed in [3, 0xD15EA5E] {
        let a = run_chaos(&ChaosSpec::seeded(seed));
        let b = run_chaos(&ChaosSpec::seeded(seed));
        assert_eq!(a.faults, b.faults, "seed {seed}: fault schedules differ");
        assert_eq!(
            a.trace,
            b.trace,
            "seed {seed}: traces differ (fingerprints {:x} vs {:x})",
            a.trace_fingerprint(),
            b.trace_fingerprint()
        );
        assert_eq!(a.resolved_ok, b.resolved_ok);
        assert_eq!(a.resolved_err, b.resolved_err);
        assert_eq!(a.survivor_kernels, b.survivor_kernels);
        assert_eq!(a.healed_ok, b.healed_ok);
        assert_eq!(a.healed_err, b.healed_err);
        assert_eq!(
            a.heal_events, b.heal_events,
            "healing must be deterministic"
        );
    }
}
