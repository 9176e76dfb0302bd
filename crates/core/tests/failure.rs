//! Failure-injection tests: abrupt client death, resource reclamation,
//! device detach and failed-run wind-down — the cluster-management
//! features §4.1/§4.6 attribute to the single-controller design.

use std::sync::Arc;

use pathways_core::{
    FailureReason, FaultSpec, FnSpec, PathwaysConfig, PathwaysRuntime, SliceRequest,
};
use pathways_net::{ClusterSpec, DeviceId, HostId, IslandId, NetworkParams};
use pathways_sim::{FaultPlan, Sim, SimDuration, SimTime};

fn rt(sim: &Sim, hosts: u32) -> PathwaysRuntime {
    PathwaysRuntime::new(
        sim,
        ClusterSpec::config_b(hosts),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    )
}

#[test]
fn killed_client_does_not_wedge_other_tenants() {
    let mut sim = Sim::new(0);
    let rt = rt(&sim, 2);
    // The victim holds results (pinning HBM) and then "dies".
    let victim = rt.client(HostId(0));
    let victim_id = victim.id();
    let slice = victim.virtual_slice(SliceRequest::devices(16)).unwrap();
    let mut b = victim.trace("victim");
    b.computation(
        FnSpec::compute_only("f", SimDuration::from_micros(100))
            .with_allreduce(4)
            .with_output_bytes(1 << 20),
        &slice,
    );
    let program = b.build().unwrap();
    let prepared = victim.prepare(&program);
    let victim_task = sim.spawn("victim", async move {
        let r = victim.run(&prepared).await;
        std::mem::forget(r); // hold the output forever
        loop {
            // Keep "running" so abort has something to kill.
            std::future::pending::<()>().await;
        }
    });
    // A survivor shares the same devices.
    let survivor = rt.client(HostId(1));
    let slice2 = survivor.virtual_slice(SliceRequest::devices(16)).unwrap();
    let mut b2 = survivor.trace("survivor");
    b2.computation(
        FnSpec::compute_only("g", SimDuration::from_micros(100)).with_allreduce(4),
        &slice2,
    );
    let program2 = b2.build().unwrap();
    let prepared2 = survivor.prepare(&program2);
    let survivor_task = sim.spawn("survivor", async move {
        for _ in 0..20 {
            survivor.run(&prepared2).await;
        }
        true
    });
    // Let both make progress, then kill the victim.
    sim.run_until_time(SimTime::ZERO + SimDuration::from_millis(1));
    victim_task.abort();
    let freed = rt.fail_client(victim_id);
    assert_eq!(freed, 1, "victim's pinned output must be GCed");
    // The survivor finishes normally.
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "{outcome:?}");
    assert_eq!(survivor_task.try_take(), Some(true));
    assert!(rt.core().store.is_empty());
}

#[test]
fn hbm_freed_by_gc_unblocks_backpressured_tenant() {
    let mut sim = Sim::new(0);
    let cfg = PathwaysConfig {
        hbm_per_device: 1 << 20, // 1 MiB/device
        ..PathwaysConfig::default()
    };
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::config_b(1),
        NetworkParams::tpu_cluster(),
        cfg,
    );
    // Hog pins nearly all HBM and dies.
    let hog = rt.client(HostId(0));
    let hog_id = hog.id();
    let slice = hog.virtual_slice(SliceRequest::devices(8)).unwrap();
    let mut b = hog.trace("hog");
    b.computation(
        FnSpec::compute_only("f", SimDuration::from_micros(10)).with_output_bytes(900 << 10),
        &slice,
    );
    let program = b.build().unwrap();
    let prepared = hog.prepare(&program);
    sim.spawn("hog", async move {
        let r = hog.run(&prepared).await;
        std::mem::forget(r);
    });
    sim.run_until_time(SimTime::ZERO + SimDuration::from_millis(1));
    // Needy cannot fit until the hog's objects are collected.
    let needy = rt.client(HostId(0));
    let slice2 = needy.virtual_slice(SliceRequest::devices(8)).unwrap();
    let mut b2 = needy.trace("needy");
    b2.computation(
        FnSpec::compute_only("g", SimDuration::from_micros(10)).with_output_bytes(800 << 10),
        &slice2,
    );
    let program2 = b2.build().unwrap();
    let prepared2 = needy.prepare(&program2);
    let needy_task = sim.spawn("needy", async move {
        drop(needy.run(&prepared2).await);
        true
    });
    // Without GC, the needy client is back-pressured indefinitely.
    sim.run_until_time(SimTime::ZERO + SimDuration::from_millis(5));
    assert!(!needy_task.is_finished(), "needy should be stalled on HBM");
    // Failure GC releases the hog's HBM; the needy client completes.
    rt.fail_client(hog_id);
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "{outcome:?}");
    assert_eq!(needy_task.try_take(), Some(true));
}

#[test]
fn detached_devices_are_avoided_by_new_slices() {
    let sim = Sim::new(0);
    let rt = rt(&sim, 2);
    let rm = Arc::clone(rt.resource_manager());
    for d in 0..8 {
        rm.detach_device(DeviceId(d));
    }
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
    assert!(
        slice.physical_devices().iter().all(|d| d.0 >= 8),
        "slice must avoid detached devices: {:?}",
        slice.physical_devices()
    );
    // The detached half is gone from placement for good.
    assert!(client.virtual_slice(SliceRequest::devices(9)).is_err());
}

#[test]
fn gc_is_idempotent_and_scoped() {
    let mut sim = Sim::new(0);
    let rt = rt(&sim, 1);
    let a = rt.client(HostId(0));
    let b_client = rt.client(HostId(0));
    let a_id = a.id();
    for (who, client) in [("a", a.clone()), ("b", b_client.clone())] {
        let slice = client.virtual_slice(SliceRequest::devices(4)).unwrap();
        let mut b = client.trace(who);
        b.computation(
            FnSpec::compute_only("f", SimDuration::from_micros(10)).with_output_bytes(1 << 10),
            &slice,
        );
        let program = b.build().unwrap();
        let prepared = client.prepare(&program);
        sim.spawn(format!("c-{who}"), async move {
            std::mem::forget(client.run(&prepared).await);
        });
    }
    sim.run_to_quiescence();
    assert_eq!(rt.core().store.len(), 2);
    assert_eq!(rt.fail_client(a_id), 1);
    assert_eq!(rt.fail_client(a_id), 0, "second GC finds nothing");
    assert_eq!(rt.core().store.len(), 1, "b's object untouched");
}

/// What a submission at t = 100 µs reports after `faults` applied at
/// t = 1 µs. The cluster is two islands of two hosts with four devices
/// each (island 0: hosts 0–1, devices 0–7; island 1: hosts 2–3, devices
/// 8–15; each island's scheduler sits on its first host). The client
/// runs on host 1. `hold` devices of island 1 are taken by another
/// client's slice first; the submitted program then takes `want` more
/// on island 1. `None` means the submission was launched and completed.
fn submit_verdict(hold: u32, want: u32, faults: &[FaultSpec]) -> Option<FailureReason> {
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(2, 2, 4),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    let island1 = |n| SliceRequest::devices(n).in_island(IslandId(1));
    let _held = (hold > 0).then(|| rt.client(HostId(0)).virtual_slice(island1(hold)).unwrap());
    let client = rt.client(HostId(1));
    let slice = client.virtual_slice(island1(want)).unwrap();
    let mut b = client.trace("verdict");
    b.computation(
        FnSpec::compute_only("f", SimDuration::from_micros(10)).with_output_bytes(1 << 10),
        &slice,
    );
    let prepared = client.prepare(&b.build().unwrap());
    let at = |us| SimTime::ZERO + SimDuration::from_micros(us);
    let plan = faults
        .iter()
        .fold(FaultPlan::new(), |plan, spec| plan.at(at(1), *spec));
    rt.install_fault_plan(plan);
    let h = sim.handle();
    let task = sim.spawn("client", async move {
        h.sleep_until(at(100)).await;
        let run = client.submit(&prepared).await;
        let error = run.refs()[0].1.error();
        run.finish().await;
        error.map(|e| e.reason())
    });
    assert!(sim.run().is_quiescent());
    task.try_take().expect("the client finished")
}

/// Fail-fast submission checks dead devices first, then dead islands,
/// then dead hosts, then severed links between involved hosts, and
/// names the first hit in that order.
#[test]
fn submission_verdicts_name_the_first_dead_component() {
    use FaultSpec::{Device, Host, Link};
    assert_eq!(submit_verdict(0, 8, &[]), None);
    // Island 1 is full, so the slice cannot heal off device 9.
    assert_eq!(
        submit_verdict(0, 8, &[Device(DeviceId(9))]),
        Some(FailureReason::Device(DeviceId(9)))
    );
    // The client's host: none of the program's devices are on it.
    assert_eq!(
        submit_verdict(0, 8, &[Host(HostId(1))]),
        Some(FailureReason::Host(HostId(1)))
    );
    // Devices are checked before hosts.
    assert_eq!(
        submit_verdict(0, 8, &[Host(HostId(1)), Device(DeviceId(12))]),
        Some(FailureReason::Device(DeviceId(12)))
    );
    // Island 1's scheduler host dies with the held slice's devices, not
    // the program's.
    assert_eq!(
        submit_verdict(4, 4, &[Host(HostId(2))]),
        Some(FailureReason::Island(IslandId(1)))
    );
    // Involved hosts are 1, 2 and 3: of two severed involved pairs the
    // first in host order is named, whatever order they were cut in.
    assert_eq!(
        submit_verdict(
            0,
            8,
            &[Link(HostId(3), HostId(2)), Link(HostId(3), HostId(1))]
        ),
        Some(FailureReason::Link(HostId(1), HostId(3)))
    );
    // Host 0 is not involved: cutting it off the client's host leaves the
    // submission alone.
    assert_eq!(submit_verdict(0, 8, &[Link(HostId(1), HostId(0))]), None);
}

/// A consumer shard aborts before its enqueue while its producer is
/// mid-handshake. The producer runs on the scheduler's host, so its
/// grant lands at once and its kernel (36–536 µs) is running when the
/// consumer's device, on another host, dies at 50 µs with the consumer's
/// grant still crossing the DCN. The fault injector starts the consumer
/// shard itself and sweeps its registration, so the shard's driver takes
/// the abort path, which still sends its input-buffer address (ADDR)
/// upstream. The run resolves with the consumer's error, no PLAQUE run is
/// left live, and the wind-down ends at a pinned instant: once its kernel
/// completes, the producer moves its 64 KiB to that address. Withholding
/// the ADDR tuple skips that move and ends the run 1 655 ns sooner.
#[test]
fn consumer_abort_before_enqueue_resolves_mid_handshake() {
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::single_island(3, 1),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    let client = rt.client(HostId(0));
    let slice = |n| client.virtual_slice(SliceRequest::devices(n)).unwrap();
    let (on_host0, _, on_host2) = (slice(1), slice(1), slice(1));
    let mut b = client.trace("handshake");
    let p = b.computation(
        FnSpec::compute_only("p", SimDuration::from_micros(500)).with_output_bytes(1 << 16),
        &on_host0,
    );
    let c = b.computation(
        FnSpec::compute_only("c", SimDuration::from_micros(100)).with_output_bytes(1 << 12),
        &on_host2,
    );
    b.edge(p, c, 1 << 16);
    let prepared = client.prepare(&b.build().unwrap());
    let devices = &prepared.info().devices;
    assert_eq!(devices[p.index()], [DeviceId(0)]);
    assert_eq!(devices[c.index()], [DeviceId(2)]);
    let at = |us| SimTime::ZERO + SimDuration::from_micros(us);
    rt.install_fault_plan(FaultPlan::new().at(at(50), FaultSpec::Device(DeviceId(2))));
    let h = sim.handle();
    let task = sim.spawn("client", async move {
        let run = client.submit(&prepared).await;
        let out = run.object_ref(c).unwrap();
        let ready = out.ready().await.map_err(|e| e.reason());
        run.finish().await;
        (ready, h.now().as_nanos())
    });
    assert!(sim.run().is_quiescent());
    let (ready, finished) = task.try_take().expect("the client finished");
    assert_eq!(ready, Err(FailureReason::Device(DeviceId(2))));
    assert_eq!(finished, 50_000, "the client sees the failure at the kill");
    assert_eq!(rt.core().plaque.live_runs(), 0);
    assert!(rt.core().store.is_empty());
    assert_eq!(sim.now().as_nanos(), 571_660, "the wind-down's last event");
}

/// A run failed by a device kill gives up its footprint once it winds
/// down; only its failure reason stays behind.
#[test]
fn failed_runs_drop_their_footprints_when_wound_down() {
    const RUNS: usize = 3;
    let mut sim = Sim::new(0);
    let rt = rt(&sim, 2);
    rt.install_fault_plan(FaultPlan::new().at(
        SimTime::ZERO + SimDuration::from_micros(200),
        FaultSpec::Device(DeviceId(0)),
    ));
    let client = rt.client(HostId(1));
    let slice = client.virtual_slice(SliceRequest::devices(4)).unwrap();
    assert!(slice.physical_devices().contains(&DeviceId(0)));
    let mut b = client.trace("long");
    b.computation(
        FnSpec::compute_only("f", SimDuration::from_millis(1)),
        &slice,
    );
    let prepared = client.prepare(&b.build().unwrap());
    let job = sim.spawn("runs", async move {
        let mut runs = Vec::new();
        for _ in 0..RUNS {
            runs.push(client.submit(&prepared).await);
        }
        for run in runs {
            run.finish().await;
        }
    });
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    assert!(job.is_finished());
    let failures = &rt.core().failures;
    assert_eq!(failures.failed_run_count(), RUNS, "every run died");
    assert_eq!(failures.registered_run_count(), 0, "footprints leaked");
}
