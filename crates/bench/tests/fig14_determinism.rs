//! Determinism regression for the fig14 chained workload under fault
//! injection: the same seed and fault schedule must reproduce a
//! bit-identical `sim` event trace, and an active fault plan must not
//! wedge the chain (it completes in bounded virtual time through typed
//! error propagation, not timeouts).

use pathways_bench::chain::{chained_trace, ChainDispatch};
use pathways_core::FaultSpec;
use pathways_net::DeviceId;
use pathways_sim::{SimDuration, SimTime};

fn t(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

/// The scripted plan: kill a device of island 0 while the chain is in
/// flight; stage 2+ consumers resolve to errors and the workload still
/// drains.
fn fault_plan() -> Vec<(SimTime, FaultSpec)> {
    vec![(t(400), FaultSpec::Device(DeviceId(2)))]
}

#[test]
fn fig14_chained_workload_is_bit_identical_under_faults() {
    let run = || {
        chained_trace(
            42,
            2,
            6,
            SimDuration::from_micros(100),
            1 << 14,
            ChainDispatch::Parallel,
            2,
            &fault_plan(),
        )
        .1
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "workload must have produced trace spans");
    assert_eq!(
        a, b,
        "same seed + same fault plan must reproduce an identical trace"
    );
    // The fault itself is part of the replayable trace.
    assert_eq!(a.track("faults").len(), 1);
}

#[test]
fn fig14_sequential_dispatch_also_replays_identically() {
    let run = || {
        chained_trace(
            7,
            2,
            4,
            SimDuration::from_micros(80),
            1 << 12,
            ChainDispatch::Sequential,
            1,
            &fault_plan(),
        )
        .1
    };
    assert_eq!(run(), run());
}

#[test]
fn fault_free_and_faulted_traces_differ() {
    let faulted = chained_trace(
        42,
        2,
        6,
        SimDuration::from_micros(100),
        1 << 14,
        ChainDispatch::Parallel,
        2,
        &fault_plan(),
    )
    .1;
    let clean = chained_trace(
        42,
        2,
        6,
        SimDuration::from_micros(100),
        1 << 14,
        ChainDispatch::Parallel,
        2,
        &[],
    )
    .1;
    assert_ne!(
        faulted, clean,
        "the injected fault must be observable in the trace"
    );
}
