//! End-to-end integration tests of the Pathways runtime on the
//! simulated cluster.

use std::collections::BTreeMap;

use pathways_core::{
    DispatchMode, FailureReason, FaultSpec, FnSpec, InputSpec, PathwaysConfig, PathwaysRuntime,
    SchedPolicy, SliceRequest, SubmitError,
};
use pathways_net::{ClientId, ClusterSpec, HostId, IslandId, NetworkParams};
use pathways_sim::{contention_profile, FaultPlan, Sim, SimDuration, SimTime};

fn default_rt(sim: &Sim, spec: ClusterSpec) -> PathwaysRuntime {
    PathwaysRuntime::new(
        sim,
        spec,
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    )
}

#[test]
fn single_computation_round_trip() {
    let mut sim = Sim::new(0);
    let rt = default_rt(&sim, ClusterSpec::config_b(2));
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(16)).unwrap();
    let mut b = client.trace("one");
    let comp = b.computation(
        FnSpec::compute_only("f", SimDuration::from_millis(1)).with_allreduce(4),
        &slice,
    );
    let program = b.build().unwrap();
    let prepared = client.prepare(&program);
    let job = sim.spawn("client", async move {
        let r = client.run(&prepared).await;
        (r.objects().len(), r.object(comp).is_some())
    });
    sim.run_to_quiescence();
    let (n, has) = job.try_take().unwrap();
    assert_eq!(n, 1);
    assert!(has);
}

#[test]
fn chained_program_executes_in_dependency_order() {
    let mut sim = Sim::new(0);
    let rt = default_rt(&sim, ClusterSpec::config_b(2));
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
    let mut b = client.trace("chain");
    let f =
        |n: &str| FnSpec::compute_only(n, SimDuration::from_micros(500)).with_output_bytes(1 << 20);
    let c0 = b.computation(f("a"), &slice);
    let c1 = b.computation(f("b"), &slice);
    let c2 = b.computation(f("c"), &slice);
    b.edge(c0, c1, 1 << 20);
    b.edge(c1, c2, 1 << 20);
    let program = b.build().unwrap();
    let prepared = client.prepare(&program);
    // Compact representation: 3 comps + Result = 4 plaque nodes; 2 fwd +
    // 2 back + 1 result = 5 edges — independent of the 8-way sharding.
    assert_eq!(prepared.graph_size(), (4, 5));
    let h = sim.handle();
    let job = sim.spawn("client", async move {
        client.run(&prepared).await;
        h.now()
    });
    sim.run_to_quiescence();
    let end = job.try_take().unwrap();
    // At least 3 x 500us of dependent compute must have elapsed.
    assert!(end.as_nanos() >= 1_500_000, "finished too fast: {end}");
}

/// pwbench's per-layer op counts (`lock.<name>` acquires) and
/// `sim.lock_contended` read the named-lock profile, so a controller
/// run must show up in it under the names they look for.
#[test]
fn contention_profile_names_hot_locks() {
    // The profile is process-wide and only grows: compare before/after.
    let acquires = |name: &str| {
        contention_profile()
            .into_iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.acquires)
    };
    let before = acquires("core.store");
    let mut sim = Sim::new(0);
    let rt = default_rt(&sim, ClusterSpec::config_b(1));
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(4)).unwrap();
    let mut b = client.trace("profiled");
    let c0 = b.computation(
        FnSpec::compute_only("a", SimDuration::from_micros(10)),
        &slice,
    );
    let c1 = b.computation(
        FnSpec::compute_only("b", SimDuration::from_micros(10)),
        &slice,
    );
    b.edge(c0, c1, 8);
    let prepared = client.prepare(&b.build().unwrap());
    let job = sim.spawn("client", async move { client.run(&prepared).await });
    sim.run_to_quiescence();
    assert!(job.is_finished());
    let profile = contention_profile();
    for name in [
        "core.bindings",
        "core.input_slots",
        "core.rm.slices",
        "core.sched.state",
        "core.store",
        "device.rendezvous",
        "net.fabric.faults",
        "plaque.runs",
        "plaque.shard_map",
    ] {
        assert!(
            profile.iter().any(|p| p.name == name),
            "{name} missing from the profile: {profile:?}"
        );
    }
    assert!(
        acquires("core.store") > before,
        "core.store acquisitions not counted: {profile:?}"
    );
}

#[test]
fn concurrent_clients_with_collectives_do_not_deadlock() {
    // The centerpiece: many clients time-share the same devices with
    // gang collectives. Without the centralized scheduler this workload
    // deadlocks (see pathways-device tests); with it, it must complete.
    let mut sim = Sim::new(7);
    let rt = default_rt(&sim, ClusterSpec::config_b(2));
    for c in 0..4 {
        let client = rt.client(HostId(c % 2));
        let slice = client.virtual_slice(SliceRequest::devices(16)).unwrap();
        let mut b = client.trace(format!("p{c}"));
        let comp = FnSpec::compute_only("step", SimDuration::from_micros(100)).with_allreduce(4);
        b.computation(comp, &slice);
        let program = b.build().unwrap();
        let prepared = client.prepare(&program);
        sim.spawn(format!("client{c}"), async move {
            for _ in 0..10 {
                client.run(&prepared).await;
            }
        });
    }
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "deadlocked: {outcome:?}");
    // All 40 programs were granted by the island scheduler.
    assert_eq!(rt.scheduler(IslandId(0)).granted_programs(), 40);
}

#[test]
fn parallel_dispatch_beats_sequential_on_pipelines() {
    // A 8-stage pipeline of short computations on different hosts: the
    // host-side work dominates, so parallel async dispatch should win
    // clearly (Figure 7's effect).
    let run_mode = |mode: DispatchMode| {
        let mut sim = Sim::new(0);
        let cfg = PathwaysConfig {
            dispatch: mode,
            ..PathwaysConfig::default()
        };
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_a(8),
            NetworkParams::tpu_cluster(),
            cfg,
        );
        let client = rt.client(HostId(0));
        // One 4-device slice per host (stage), like the paper's setup.
        let topo = rt.topology();
        let mut b = client.trace("pipeline");
        let mut prev = None;
        for host in topo.hosts() {
            let island = topo.island_of_host(host);
            let _ = island;
            let slice = client.virtual_slice(SliceRequest::devices(4)).unwrap();
            let comp = b.computation(
                FnSpec::compute_only("stage", SimDuration::from_micros(50))
                    .with_output_bytes(1 << 10),
                &slice,
            );
            if let Some(p) = prev {
                b.reshard_edge(p, comp, 1 << 10);
            }
            prev = Some(comp);
        }
        let program = b.build().unwrap();
        let prepared = client.prepare(&program);
        let h = sim.handle();
        let job = sim.spawn("client", async move {
            for _ in 0..20 {
                client.run(&prepared).await;
            }
            h.now()
        });
        sim.run_to_quiescence();
        job.try_take().unwrap().as_nanos()
    };
    let par = run_mode(DispatchMode::Parallel);
    let seq = run_mode(DispatchMode::Sequential);
    assert!(
        par < seq,
        "parallel ({par} ns) should beat sequential ({seq} ns)"
    );
}

#[test]
fn chained_submissions_dispatch_before_producers_finish() {
    // The tentpole acceptance test: three programs chained through
    // ObjectRef external inputs, submitted back to back without awaiting
    // any intermediate run. Dispatch of the whole chain (client submits,
    // scheduler arrivals, grants) overlaps the first program's device
    // execution, while each consuming kernel still waits for its
    // producer's per-shard readiness events.
    let mut sim = Sim::new(0);
    let rt = default_rt(&sim, ClusterSpec::config_b(2));
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();

    let producer_us = 500;
    let consumer_us = 300;
    let mut b1 = client.trace("p1");
    let k1 = b1.computation(
        FnSpec::compute_only("k1", SimDuration::from_micros(producer_us))
            .with_output_bytes(1 << 16),
        &slice,
    );
    let p1 = client.prepare(&b1.build().unwrap());

    let chained = |name: &str| {
        let mut b = client.trace(name);
        let x = b.input(InputSpec::new("x", 8));
        let k = b.computation(
            FnSpec::compute_only("k", SimDuration::from_micros(consumer_us))
                .with_output_bytes(1 << 16),
            &slice,
        );
        b.edge(x, k, 1 << 16);
        (client.prepare(&b.build().unwrap()), x, k)
    };
    let (p2, x2, k2) = chained("p2");
    let (p3, x3, k3) = chained("p3");

    let h = sim.handle();
    let job = sim.spawn("client", async move {
        let r1 = client.submit(&p1).await;
        let o1 = r1.object_ref(k1).unwrap();
        assert!(!o1.is_ready(), "output future exists before any kernel");
        let r2 = client.submit_with(&p2, &[(x2, o1.clone())]).await.unwrap();
        let o2 = r2.object_ref(k2).unwrap();
        let r3 = client.submit_with(&p3, &[(x3, o2.clone())]).await.unwrap();
        let o3 = r3.object_ref(k3).unwrap();
        let runs = (r1.run(), r2.run(), r3.run());
        let t_submitted = h.now();
        // Only now await anything: record each program's completion time
        // via its output future (readiness is set at kernel completion).
        o1.ready().await.unwrap();
        let t1 = h.now();
        o2.ready().await.unwrap();
        let t2 = h.now();
        o3.ready().await.unwrap();
        let t3 = h.now();
        // Drain the runs so the store empties once refs drop.
        r1.finish().await;
        r2.finish().await;
        r3.finish().await;
        (runs, t_submitted, t1, t2, t3)
    });
    sim.run_to_quiescence();
    let ((run1, run2, run3), t_submitted, t1, t2, t3) = job.try_take().unwrap();

    // The entire chain was dispatched from the client before program 1's
    // kernels finished.
    assert!(
        t_submitted < t1,
        "chain submitted at {t_submitted}, first program finished at {t1}"
    );
    // Programs 2 and 3 reached the island scheduler before program 1's
    // kernels finished — the paper's sequential-vs-parallel dispatch gap.
    let sched = rt.scheduler(IslandId(0));
    let a1 = sched.arrival_time(run1).expect("run1 scheduled");
    let a2 = sched.arrival_time(run2).expect("run2 scheduled");
    let a3 = sched.arrival_time(run3).expect("run3 scheduled");
    assert!(
        a1 < t1 && a2 < t1 && a3 < t1,
        "arrivals {a1},{a2},{a3} vs kernel finish {t1}"
    );
    // ...but kernel starts still respect producer readiness: each stage
    // can only finish a full consumer-compute after its producer.
    assert!(
        t2 >= t1 + SimDuration::from_micros(consumer_us),
        "p2 finished at {t2}, p1 at {t1}: consumer ran before its input"
    );
    assert!(
        t3 >= t2 + SimDuration::from_micros(consumer_us),
        "p3 finished at {t3}, p2 at {t2}: consumer ran before its input"
    );
    // Everything dropped: no leaked objects.
    assert!(rt.core().store.is_empty());
}

#[test]
fn submit_with_validates_bindings() {
    let mut sim = Sim::new(0);
    let rt = default_rt(&sim, ClusterSpec::config_b(1));
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(4)).unwrap();

    let mut b = client.trace("producer");
    let k = b.computation(
        FnSpec::compute_only("k", SimDuration::from_micros(10)).with_output_bytes(64),
        &slice,
    );
    let producer = client.prepare(&b.build().unwrap());

    let mut b = client.trace("consumer");
    let x = b.input(InputSpec::new("x", 4));
    let c = b.computation(
        FnSpec::compute_only("c", SimDuration::from_micros(10)),
        &slice,
    );
    b.edge(x, c, 64);
    let consumer = client.prepare(&b.build().unwrap());

    let job = sim.spawn("client", async move {
        let run = client.submit(&producer).await;
        let oref = run.object_ref(k).unwrap();
        // Unbound input.
        let e1 = client.submit_with(&consumer, &[]).await.err().unwrap();
        assert_eq!(e1, SubmitError::UnboundInput { comp: x });
        // Binding a non-input computation.
        let e2 = client
            .submit_with(&consumer, &[(c, oref.clone())])
            .await
            .err()
            .unwrap();
        assert_eq!(e2, SubmitError::NotAnInput { comp: c });
        // Binding an id from some other program entirely.
        let stray = pathways_core::CompId(99);
        let e2b = client
            .submit_with(&consumer, &[(stray, oref.clone())])
            .await
            .err()
            .unwrap();
        assert_eq!(e2b, SubmitError::UnknownComputation { comp: stray });
        // Duplicate binding.
        let e3 = client
            .submit_with(&consumer, &[(x, oref.clone()), (x, oref.clone())])
            .await
            .err()
            .unwrap();
        assert_eq!(e3, SubmitError::DuplicateBinding { comp: x });
        // A correct binding works; drain everything.
        let ok = client.submit_with(&consumer, &[(x, oref)]).await.unwrap();
        ok.finish().await;
        run.finish().await;
        true
    });
    sim.run_to_quiescence();
    assert_eq!(job.try_take(), Some(true));
    assert!(rt.core().store.is_empty());
}

#[test]
fn abandoned_run_discards_outputs_without_leaks() {
    // Submit-and-forget: dropping the Run (and its ObjectRefs) before
    // the kernels execute discards the outputs — the late put_shard is
    // a no-op, nothing pins HBM, nothing panics.
    let mut sim = Sim::new(0);
    let rt = default_rt(&sim, ClusterSpec::config_b(1));
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
    let mut b = client.trace("fire-and-forget");
    b.computation(
        FnSpec::compute_only("k", SimDuration::from_micros(100)).with_output_bytes(1 << 20),
        &slice,
    );
    let prepared = client.prepare(&b.build().unwrap());
    let core = std::sync::Arc::clone(rt.core());
    sim.spawn("client", async move {
        let run = client.submit(&prepared).await;
        drop(run);
    });
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "wedged: {outcome:?}");
    assert!(core.store.is_empty(), "discarded output leaked");
    for dev in core.devices.values() {
        assert_eq!(dev.hbm().used(), 0, "HBM lease leaked on {:?}", dev.id());
    }
}

/// Device 0's busy nanoseconds for clients A, B, C and D at weights
/// 1:2:4:8, contending for one island under the gang-aware WFQ engine
/// for 50 ms, summed from its kernel spans (one per kernel, over the
/// kernel's busy time).
fn contended_1248_device0_busy_ns() -> [f64; 4] {
    let mut sim = Sim::new(0);
    sim.handle().record_trace(true);
    let weights: BTreeMap<ClientId, u32> = [
        (ClientId(0), 1),
        (ClientId(1), 2),
        (ClientId(2), 4),
        (ClientId(3), 8),
    ]
    .into_iter()
    .collect();
    let cfg = PathwaysConfig {
        policy: SchedPolicy::WeightedFair {
            weights,
            quantum: SimDuration::from_micros(500),
        },
        sched_horizon: SimDuration::from_micros(500),
        ..PathwaysConfig::default()
    };
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::config_b(1),
        NetworkParams::tpu_cluster(),
        cfg,
    );
    assert_eq!(rt.scheduler(IslandId(0)).policy_name(), "wfq");
    let labels = ["A", "B", "C", "D"];
    for (c, label) in labels.into_iter().enumerate() {
        let client = rt.client_labeled(HostId(0), label);
        let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
        let mut b = client.trace(format!("p{c}"));
        b.computation(
            FnSpec::compute_only("step", SimDuration::from_micros(330)).with_allreduce(4),
            &slice,
        );
        let program = b.build().unwrap();
        let prepared = std::sync::Arc::new(client.prepare(&program));
        // Keep 12 submissions genuinely concurrent (submit, then finish
        // in a spawned task): WFQ shares device time among *backlogged*
        // clients, so the scheduler must actually see a backlog.
        let window = pathways_sim::sync::Semaphore::new(12);
        let h = sim.handle();
        sim.spawn(format!("client{c}"), async move {
            loop {
                let permit = window.acquire(1).await;
                let pending = client.submit(&prepared).await;
                h.spawn("run", async move {
                    let _p = permit;
                    pending.finish().await;
                });
            }
        });
    }
    // Measure inside a fixed window while every client still has
    // backlog; totals would equalize if all streams ran to completion.
    sim.run_until_time(pathways_sim::SimTime::ZERO + SimDuration::from_millis(50));
    let busy = sim.take_trace().busy_by_label("d0000");
    labels.map(|l| busy[l].as_nanos() as f64)
}

#[test]
fn proportional_share_divides_device_time() {
    // Every client's device time rises with its weight, and D's share
    // is within 5 points of its ideal 8/15.
    let busy = contended_1248_device0_busy_ns();
    assert!(busy.windows(2).all(|w| w[0] < w[1]), "shares {busy:?}");
    let d_share = busy[3] / busy.iter().sum::<f64>();
    assert!(
        (d_share - 8.0 / 15.0).abs() < 0.05,
        "D's share {d_share:.3} (busy ns {busy:?})"
    );
}

#[test]
fn weighted_fair_divides_device_time() {
    // Weight-8 client D gets several times the device time of weight-1
    // client A under contention.
    let [a, _, _, d] = contended_1248_device0_busy_ns();
    assert!(
        d / a > 3.0,
        "expected weighted-fair shares, got A={a}ns D={d}ns"
    );
}

#[test]
fn cross_island_program_transfers_over_dcn() {
    let mut sim = Sim::new(0);
    let rt = default_rt(&sim, ClusterSpec::config_c());
    let client = rt.client(HostId(0));
    let s0 = client
        .virtual_slice(SliceRequest::devices(32).in_island(IslandId(0)))
        .unwrap();
    let s1 = client
        .virtual_slice(SliceRequest::devices(32).in_island(IslandId(1)))
        .unwrap();
    let mut b = client.trace("two-island");
    let c0 = b.computation(
        FnSpec::compute_only("stage0", SimDuration::from_micros(200)).with_output_bytes(1 << 20),
        &s0,
    );
    let c1 = b.computation(
        FnSpec::compute_only("stage1", SimDuration::from_micros(200)),
        &s1,
    );
    b.edge(c0, c1, 1 << 20);
    let program = b.build().unwrap();
    let prepared = client.prepare(&program);
    let h = sim.handle();
    let job = sim.spawn("client", async move {
        client.run(&prepared).await;
        h.now()
    });
    sim.run_to_quiescence();
    let end = job.try_take().unwrap();
    // Must include both stages' compute plus a DCN transfer of 1 MiB.
    let p = NetworkParams::tpu_cluster();
    let dcn_floor = p.dcn_bandwidth.transfer_time(1 << 20);
    assert!(
        end.as_nanos() > 400_000 + dcn_floor.as_nanos() / 2,
        "cross-island run too fast: {end}"
    );
}

#[test]
fn failed_client_objects_are_garbage_collected() {
    let mut sim = Sim::new(0);
    let rt = default_rt(&sim, ClusterSpec::config_b(1));
    let client = rt.client(HostId(0));
    let cid = client.id();
    let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
    let mut b = client.trace("leaky");
    b.computation(
        FnSpec::compute_only("f", SimDuration::from_micros(10)).with_output_bytes(1 << 20),
        &slice,
    );
    let program = b.build().unwrap();
    let prepared = client.prepare(&program);
    let core = std::sync::Arc::clone(rt.core());
    let job = sim.spawn("client", async move {
        let result = client.run(&prepared).await;
        // "Fail" while holding the result: leak it.
        std::mem::forget(result);
    });
    sim.run_to_quiescence();
    assert!(job.is_finished());
    assert_eq!(core.store.len(), 1, "output should still be pinned");
    let freed = rt.fail_client(cid);
    assert_eq!(freed, 1);
    assert!(core.store.is_empty());
}

#[test]
fn device_utilization_reaches_saturation_with_concurrency() {
    // With several clients submitting 1ms computations concurrently,
    // device busy time should approach wall-clock time (Figure 8/11's
    // ~100% utilization claim).
    let mut sim = Sim::new(0);
    let rt = default_rt(&sim, ClusterSpec::config_b(1));
    let device0 = rt.core().devices[&pathways_net::DeviceId(0)].clone();
    for c in 0..4 {
        let client = rt.client(HostId(0));
        let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
        let mut b = client.trace(format!("p{c}"));
        b.computation(
            FnSpec::compute_only("step", SimDuration::from_millis(1)).with_allreduce(4),
            &slice,
        );
        let program = b.build().unwrap();
        let prepared = client.prepare(&program);
        sim.spawn(format!("client{c}"), async move {
            let mut outstanding = Vec::new();
            for _ in 0..3 {
                outstanding.push(Box::pin(client.run(&prepared)));
            }
            for _ in 0..15 {
                let done = outstanding.remove(0);
                done.await;
                outstanding.push(Box::pin(client.run(&prepared)));
            }
            for f in outstanding {
                f.await;
            }
        });
    }
    let end = sim.run_to_quiescence();
    let busy = device0.stats().busy;
    let util = busy.as_nanos() as f64 / end.as_nanos() as f64;
    assert!(util > 0.85, "utilization only {util:.2}");
}

#[test]
fn runs_of_same_prepared_program_are_independent() {
    let mut sim = Sim::new(0);
    let rt = default_rt(&sim, ClusterSpec::config_b(1));
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(4)).unwrap();
    let mut b = client.trace("rerun");
    let comp = b.computation(
        FnSpec::compute_only("f", SimDuration::from_micros(10)).with_output_bytes(64),
        &slice,
    );
    let program = b.build().unwrap();
    let prepared = client.prepare(&program);
    let job = sim.spawn("client", async move {
        let r1 = client.run(&prepared).await;
        let r2 = client.run(&prepared).await;
        let o1 = r1.object(comp).unwrap();
        let o2 = r2.object(comp).unwrap();
        (o1, o2)
    });
    sim.run_to_quiescence();
    let (o1, o2) = job.try_take().unwrap();
    assert_ne!(o1, o2, "distinct runs must produce distinct objects");
}

#[test]
fn hbm_back_pressure_stalls_but_completes() {
    // Outputs are sized so that only one program's buffers fit at a
    // time; back-pressure must serialize the programs, not deadlock.
    let mut sim = Sim::new(0);
    let cfg = PathwaysConfig {
        hbm_per_device: 1 << 20, // 1 MiB per device
        ..PathwaysConfig::default()
    };
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::config_b(1),
        NetworkParams::tpu_cluster(),
        cfg,
    );
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
    let mut b = client.trace("big");
    b.computation(
        FnSpec::compute_only("f", SimDuration::from_micros(100)).with_output_bytes(700 << 10),
        &slice,
    );
    let program = b.build().unwrap();
    let prepared = client.prepare(&program);
    let job = sim.spawn("client", async move {
        // Run serially but hold each result until after the next run is
        // submitted... here simply: sequential runs, dropping results,
        // exercising allocate/free cycles under a tight budget.
        for _ in 0..5 {
            let r = client.run(&prepared).await;
            drop(r);
        }
        true
    });
    let outcome = sim.run();
    assert!(outcome.is_quiescent(), "stalled forever: {outcome:?}");
    assert_eq!(job.try_take(), Some(true));
}

/// Poll budget of the wire. A chain of eight one-kernel programs striped
/// over two islands, 1 MiB resharded over the DCN between stages, the
/// whole chain submitted up front through `ObjectRef` futures — pwbench's
/// `chain_islands` in miniature. Every stage crosses the DCN (scheduler
/// grants, PLAQUE tuples and punctuations, the shard transfers), so the
/// run's poll count is mostly wire bookkeeping.
///
/// With closed-form links, one egress actor per NIC, one flusher per
/// host, and the shard transfers and kernel-input waits run without
/// tasks of their own, the run takes exactly 883 polls. It took 995, to
/// the same virtual end time, with an `xfer-…` task per transfer and an
/// `input-adapter` task per kernel input; 1318 while the router also
/// spawned a task per DCN message and PLAQUE a task per flush, each
/// behind a link made of a semaphore and two timers. A change that moves
/// the count says why, here.
#[test]
fn two_island_chain_stays_within_its_poll_budget() {
    let mut sim = Sim::new(0);
    let rt = default_rt(&sim, ClusterSpec::islands_of(2, 2, 4));
    let client = rt.client(HostId(0));
    let slices: Vec<_> = (0..2)
        .map(|i| {
            client
                .virtual_slice(SliceRequest::devices(4).in_island(IslandId(i)))
                .unwrap()
        })
        .collect();
    let stage = |k: usize| {
        let mut b = client.trace(format!("stage{k}"));
        let kernel = b.computation(
            FnSpec::compute_only("k", SimDuration::from_micros(100)).with_output_bytes(1 << 18),
            &slices[k % 2],
        );
        let input = (k > 0).then(|| {
            let x = b.input(InputSpec::new("x", 4));
            b.edge(x, kernel, 1 << 18);
            x
        });
        (client.prepare(&b.build().unwrap()), input, kernel)
    };
    let stages: Vec<_> = (0..8).map(stage).collect();
    let job = sim.spawn("client", async move {
        let mut runs = Vec::new();
        let mut prev = None;
        for (prepared, input, kernel) in &stages {
            let bound: Vec<_> = input.iter().copied().zip(prev.take()).collect();
            let run = client.submit_with(prepared, &bound).await.unwrap();
            prev = Some(run.object_ref(*kernel).unwrap());
            runs.push(run);
        }
        prev.take().unwrap().ready().await.unwrap();
        for run in runs {
            run.finish().await;
        }
    });
    let end = sim.run_to_quiescence();
    assert!(job.is_finished());
    assert!(rt.core().store.is_empty());
    assert_eq!(end.as_nanos(), 1_710_191, "virtual time moved");
    assert_eq!(
        sim.poll_count(),
        883,
        "995 → 883: no task per transfer or kernel input (1318 with a task per message)"
    );
}

/// One 8-shard → 8-shard all-to-all program on two hosts: 64
/// (producer shard, consumer shard) pairs, each with its transfer, its
/// address handshake and its punctuations, and 8 consumer kernels each
/// waiting on one input. What the pair count costs in tasks and polls
/// is pinned here; a change that moves either says why, here.
///
/// The shard drivers run their transfers in place and the kernels' input
/// waits are wakers, not tasks: 633 polls and at most 36 live tasks. It
/// was 741 polls and 55 tasks, to the same virtual end time, with an
/// `xfer-…` task per pair and an `input-adapter` task per kernel input.
#[test]
fn all_to_all_fan_out_stays_within_its_task_and_poll_budget() {
    let mut sim = Sim::new(0);
    let rt = default_rt(&sim, ClusterSpec::config_a(2));
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
    let mut b = client.trace("fan-out");
    let f =
        |n: &str| FnSpec::compute_only(n, SimDuration::from_micros(100)).with_output_bytes(1 << 16);
    let src = b.computation(f("src"), &slice);
    let dst = b.computation(f("dst"), &slice);
    b.reshard_edge(src, dst, 1 << 16);
    let prepared = client.prepare(&b.build().unwrap());
    let job = sim.spawn("client", async move {
        client.run(&prepared).await;
    });
    // Step virtual time in 1 us slices and sample the live tasks at each
    // boundary: the per-pair tasks live across instants, so the peak
    // shows them.
    let mut peak = 0;
    let mut limit = SimTime::ZERO;
    while !job.is_finished() && limit < SimTime::ZERO + SimDuration::from_secs(1) {
        limit += SimDuration::from_micros(1);
        sim.run_until_time(limit);
        peak = peak.max(sim.live_tasks());
    }
    let end = sim.run_to_quiescence();
    assert!(job.is_finished());
    assert_eq!(end.as_nanos(), 341_366, "virtual time moved");
    assert_eq!(sim.poll_count(), 633, "polls: 741 → 633");
    assert_eq!(peak, 36, "peak live tasks: 55 → 36");
}

/// What [`handshake_chain`] observed, in ns of virtual time: each
/// output's ready instant (or its typed error), when each run finished,
/// and when the simulation went quiet (the failure wind-down included).
#[derive(Debug, PartialEq, Eq)]
struct ChainOutcome {
    producer: Result<u64, FailureReason>,
    reshard: Result<u64, FailureReason>,
    one_to_one: Result<u64, FailureReason>,
    finished: (u64, u64),
    quiet: u64,
}

/// A producer → consumer chain through an external input: the consumer
/// binds the producer's 4-shard sink as input `x`, which feeds a 4→2
/// reshard edge and a one-to-one edge, so each input shard replays into
/// buffers on hosts other than the client's. With `kill_at_us`, the
/// device holding producer shard 1 dies that long into the run.
fn handshake_chain(mode: DispatchMode, kill_at_us: Option<u64>) -> ChainOutcome {
    let mut sim = Sim::new(0);
    let cfg = PathwaysConfig {
        dispatch: mode,
        ..PathwaysConfig::default()
    };
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::single_island(8, 2),
        NetworkParams::tpu_cluster(),
        cfg,
    );
    let client = rt.client(HostId(0));
    let slice = |n| client.virtual_slice(SliceRequest::devices(n)).unwrap();
    let (upstream, wide, narrow) = (slice(4), slice(4), slice(2));

    let mut b = client.trace("producer");
    let k = b.computation(
        FnSpec::compute_only("k", SimDuration::from_micros(400)).with_output_bytes(1 << 16),
        &upstream,
    );
    let producer = client.prepare(&b.build().unwrap());

    let mut b = client.trace("consumer");
    let x = b.input(InputSpec::new("x", 4));
    let r = b.computation(
        FnSpec::compute_only("r", SimDuration::from_micros(100)).with_output_bytes(1 << 12),
        &narrow,
    );
    let o = b.computation(
        FnSpec::compute_only("o", SimDuration::from_micros(100)).with_output_bytes(1 << 12),
        &wide,
    );
    b.reshard_edge(x, r, 1 << 16);
    b.edge(x, o, 1 << 16);
    let consumer = client.prepare(&b.build().unwrap());

    if let Some(us) = kill_at_us {
        let victim = producer.info().devices[k.index()][1];
        let at = SimTime::ZERO + SimDuration::from_micros(us);
        rt.install_fault_plan(FaultPlan::new().at(at, FaultSpec::Device(victim)));
    }
    let h = sim.handle();
    let job = sim.spawn("client", async move {
        let p = client.submit(&producer).await;
        let pk = p.object_ref(k).unwrap();
        let c = client
            .submit_with(&consumer, &[(x, pk.clone())])
            .await
            .unwrap();
        let (cr, co) = (c.object_ref(r).unwrap(), c.object_ref(o).unwrap());
        let ready_at = |res: Result<(), pathways_core::ObjectError>| {
            res.map(|()| h.now().as_nanos()).map_err(|e| e.reason())
        };
        let producer = ready_at(pk.ready().await);
        p.finish().await;
        let p_done = h.now().as_nanos();
        let reshard = ready_at(cr.ready().await);
        let one_to_one = ready_at(co.ready().await);
        c.finish().await;
        (producer, reshard, one_to_one, (p_done, h.now().as_nanos()))
    });
    assert!(sim.run().is_quiescent());
    let (producer, reshard, one_to_one, finished) = job.try_take().expect("the client finished");
    assert!(rt.core().store.is_empty());
    ChainOutcome {
        producer,
        reshard,
        one_to_one,
        finished,
        quiet: sim.now().as_nanos(),
    }
}

/// The Figure 4 handshake across a program boundary, pinned to the
/// nanosecond. Sequential dispatch lands on the same instants: the input
/// shards announce their output futures at start, so the consumer's
/// kernels never wait on them.
#[test]
fn external_input_handshake_ready_instants_are_pinned() {
    let want = ChainOutcome {
        producer: Ok(476_008),
        reshard: Ok(581_319),
        one_to_one: Ok(581_319),
        finished: (510_009, 617_352),
        quiet: 617_352,
    };
    assert_eq!(handshake_chain(DispatchMode::Parallel, None), want);
    assert_eq!(handshake_chain(DispatchMode::Sequential, None), want);
}

/// The producer's device dies mid-kernel: both runs still complete, the
/// producer reports the dead device and both consumer outputs the
/// upstream object, and the aborted shards wind the dataflow down by the
/// time the surviving producer shards finish.
#[test]
fn external_input_handshake_survives_a_producer_device_kill() {
    let upstream = FailureReason::Upstream(pathways_core::ObjectId {
        run: pathways_plaque::RunId(0),
        comp: pathways_core::CompId(0),
    });
    let want = ChainOutcome {
        producer: Err(FailureReason::Device(pathways_net::DeviceId(1))),
        reshard: Err(upstream),
        one_to_one: Err(upstream),
        finished: (200_000, 200_000),
        quiet: 510_009,
    };
    for mode in [DispatchMode::Parallel, DispatchMode::Sequential] {
        assert_eq!(handshake_chain(mode, Some(200)), want, "{mode:?}");
    }
}
