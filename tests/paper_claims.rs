//! Cross-crate integration tests asserting the paper's central claims
//! hold in this reproduction, through the public facade API.

use pathways::core::{FnSpec, PathwaysConfig, PathwaysRuntime, SliceRequest};
use pathways::net::{ClusterSpec, HostId, NetworkParams};
use pathways::sim::{Sim, SimDuration};

/// §2: without a centralized scheduler, inconsistently-ordered gang
/// collectives deadlock the devices; with the Pathways scheduler the
/// same workload completes. Both halves demonstrated on the same
/// simulated hardware.
#[test]
fn gang_scheduling_prevents_the_deadlock_it_claims_to() {
    use pathways::device::{
        CollectiveOp, CollectiveRendezvous, DeviceConfig, DeviceHandle, GangTag, Kernel,
    };
    use pathways::net::{CollectiveKind, DeviceId};

    // Without: two programs enqueue collectives in opposite orders.
    let mut sim = Sim::new(0);
    let rz = CollectiveRendezvous::new(sim.handle());
    let d0 = DeviceHandle::spawn(
        &sim.handle(),
        DeviceId(0),
        rz.clone(),
        DeviceConfig::default(),
    );
    let d1 = DeviceHandle::spawn(&sim.handle(), DeviceId(1), rz, DeviceConfig::default());
    let coll = |tag| CollectiveOp {
        kind: CollectiveKind::AllReduce,
        tag: GangTag(tag),
        participants: 2,
        duration: SimDuration::ZERO,
        devices: [].into(),
    };
    let k = |tag| Kernel::compute("c", SimDuration::ZERO).with_collective(coll(tag));
    drop(d0.enqueue_simple(k(1), "p1"));
    drop(d0.enqueue_simple(k(2), "p2"));
    drop(d1.enqueue_simple(k(2), "p2"));
    drop(d1.enqueue_simple(k(1), "p1"));
    drop((d0, d1));
    assert!(sim.run().is_deadlock(), "inconsistent order must deadlock");

    // With: many concurrent clients over the full runtime.
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::config_b(2),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    for c in 0..8 {
        let client = rt.client(HostId(c % 2));
        let slice = client.virtual_slice(SliceRequest::devices(16)).unwrap();
        let mut b = client.trace(format!("p{c}"));
        b.computation(
            FnSpec::compute_only("step", SimDuration::from_micros(50)).with_allreduce(4),
            &slice,
        );
        let program = b.build().unwrap();
        let prepared = client.prepare(&program);
        sim.spawn(format!("client{c}"), async move {
            for _ in 0..5 {
                client.run(&prepared).await;
            }
        });
    }
    assert!(
        sim.run().is_quiescent(),
        "gang scheduling must prevent deadlock"
    );
}

/// §5 and this reproduction's own figures: every claim the figure
/// registry states — the same verdicts `bench all` prints — holds, and
/// every figure's numbers equal its checked-in baseline exactly.
#[test]
fn every_registry_claim_holds() {
    let mut failed = Vec::new();
    for figure in pathways_bench::figures::FIGURES {
        let report = (figure.report)();
        assert!(
            !report.claims().is_empty(),
            "{} states no claim",
            figure.name
        );
        for claim in report.claims().iter().filter(|c| !c.ok) {
            failed.push(format!("{} {}: {}", figure.name, claim.name, claim.detail));
        }
        if let Err(moved) = report.check_baseline(figure.name) {
            failed.push(moved);
        }
    }
    assert!(failed.is_empty(), "failed:\n{}", failed.join("\n"));
}

/// The entire distributed system is deterministic: two identical runs
/// produce byte-identical device traces.
#[test]
fn full_system_determinism() {
    let run_once = || {
        let mut sim = Sim::new(123);
        sim.handle().record_trace(true);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(2),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        for c in 0..3 {
            let client = rt.client(HostId(c % 2));
            let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
            let mut b = client.trace(format!("p{c}"));
            b.computation(
                FnSpec::compute_only("step", SimDuration::from_micros(100 + c as u64 * 37))
                    .with_allreduce(4),
                &slice,
            );
            let program = b.build().unwrap();
            let prepared = client.prepare(&program);
            sim.spawn(format!("client{c}"), async move {
                for _ in 0..4 {
                    client.run(&prepared).await;
                }
            });
        }
        sim.run_to_quiescence();
        format!("{:?}", sim.take_trace().spans())
    };
    assert_eq!(run_once(), run_once());
}

/// §4.1: virtual slices survive remapping; programs re-lower and run on
/// the new physical devices.
#[test]
fn remap_and_relower() {
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::config_b(2),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(4)).unwrap();
    let before = slice.physical_devices();
    let mut b = client.trace("remap");
    b.computation(
        FnSpec::compute_only("f", SimDuration::from_micros(10)),
        &slice,
    );
    let program = b.build().unwrap();
    // Run on the original mapping.
    let prepared = client.prepare(&program);
    let c2 = client.clone();
    sim.spawn("r1", async move {
        c2.run(&prepared).await;
    });
    sim.run_to_quiescence();
    // Remap to different physical devices and re-lower.
    let new: Vec<_> = (12..16).map(pathways::net::DeviceId).collect();
    rt.resource_manager().remap(&slice, new.clone());
    assert_ne!(before, slice.physical_devices());
    let prepared = client.prepare(&program);
    assert_eq!(prepared.info().devices[0], new);
    let c3 = client.clone();
    let job = sim.spawn("r2", async move { c3.run(&prepared).await.objects().len() });
    sim.run_to_quiescence();
    assert_eq!(job.try_take(), Some(1));
    // The new devices did the work.
    let dev = &rt.core().devices[&new[0]];
    assert_eq!(dev.stats().kernels, 1);
}
