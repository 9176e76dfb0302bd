//! Lock-order regression test for run completion against fault
//! injection.
//!
//! A run's last shard to halt updates PLAQUE's run table; the fault
//! injector reads the failure registry and asks PLAQUE which runs are
//! live. On the threaded executor the two overlap — a client's runs
//! finish on one worker while the injector walks a fault on another —
//! so neither path may hold one of those locks while it waits for the
//! other. Here one task runs programs back to back while another
//! injects faults that touch none of them. A lock cycle wedges both
//! workers mid-poll, which the pool reports as a deadlock after
//! `STALL_BOUND` instead of hanging the test.

use pathways_core::{FaultSpec, FnSpec, PathwaysConfig, PathwaysRuntime, SliceRequest};
use pathways_net::{ClusterSpec, DeviceId, HostId, IslandId, NetworkParams};
use pathways_sim::{Executor, ExecutorKind, SimDuration};

const RUNS: usize = 300;

#[test]
fn run_completions_and_fault_injection_never_deadlock() {
    let mut ex = Executor::new(ExecutorKind::Threaded { workers: 2 }, 0);
    // Island 0 (hosts 0-1) runs the programs; island 1 (hosts 2-3,
    // devices 8-15) only takes faults.
    let rt = PathwaysRuntime::new(
        &ex,
        ClusterSpec::islands_of(2, 2, 4),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    let client = rt.client(HostId(0));
    let slice = client
        .virtual_slice(SliceRequest::devices(8).in_island(IslandId(0)))
        .unwrap();
    let mut b = client.trace("step");
    b.computation(
        FnSpec::compute_only("f", SimDuration::from_micros(5)).with_output_bytes(1 << 10),
        &slice,
    );
    let prepared = client.prepare(&b.build().unwrap());
    let runner = ex.spawn("runner", async move {
        for _ in 0..RUNS {
            client.run(&prepared).await;
        }
    });
    let faults = std::sync::Arc::clone(rt.faults());
    let h = ex.handle();
    let injector = ex.spawn("injector", async move {
        for i in 0..RUNS {
            let spec = match i {
                0..8 => FaultSpec::Device(DeviceId(8 + i as u32)),
                _ => FaultSpec::Link(HostId(2), HostId(3)),
            };
            faults.inject(&spec);
            h.yield_now().await;
        }
    });
    let outcome = ex.run();
    assert!(outcome.is_quiescent(), "{outcome:?}");
    assert!(runner.is_finished() && injector.is_finished());
    assert_eq!(rt.core().failures.failed_run_count(), 0);
}
