//! Figure 14 harness: cross-program chaining through `ObjectRef`
//! futures — sequential vs parallel asynchronous dispatch.
//!
//! A chain of `chain_len` dependent single-computation programs, each
//! consuming its predecessor's output through an external input
//! ([`pathways_core::ProgramBuilder::input`]); successive stages are
//! placed round-robin across islands, so inter-stage handoffs cross the
//! DCN when more than one island is used. The *sequential* client
//! awaits every run before submitting the next (the only thing the
//! pre-`ObjectRef` API could express); the *parallel* client submits
//! the entire chain up front and lets the per-shard readiness events in
//! the object store order the kernels.

use pathways_core::{
    Client, CompId, FaultSpec, FnSpec, InputSpec, ObjectRef, PathwaysConfig, PreparedProgram, Run,
    SliceRequest,
};
use pathways_net::{ClusterSpec, HostId, IslandId};
use pathways_sim::trace::TraceLog;
use pathways_sim::{FaultPlan, SimDuration, SimTime};

use crate::runtime;

/// How the client drives a chain of dependent programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainDispatch {
    /// Await each run's results before submitting its consumer — the
    /// dispatch latency of every stage lands on the critical path.
    Sequential,
    /// Submit every stage immediately, feeding output futures forward —
    /// dispatch of stage `k+1` overlaps execution of stage `k`.
    Parallel,
}

/// One chain stage: a prepared single-kernel program plus the ids of
/// its external input (absent for the chain head) and its sink.
struct Stage {
    prepared: PreparedProgram,
    input: Option<CompId>,
    sink: CompId,
}

/// Devices each stage gangs (2 hosts x 4 TPUs per island).
const STAGE_DEVICES: u32 = 4;

fn build_stage(
    client: &Client,
    name: &str,
    island: IslandId,
    stage_compute: SimDuration,
    payload: u64,
    head: bool,
) -> Stage {
    let slice = client
        .virtual_slice(SliceRequest::devices(STAGE_DEVICES).in_island(island))
        .expect("island has capacity for one stage slice");
    let shard_bytes = payload / u64::from(STAGE_DEVICES);
    let mut b = client.trace(name);
    let input = (!head).then(|| b.input(InputSpec::new("prev", STAGE_DEVICES)));
    let sink = b.computation(
        FnSpec::compute_only("stage", stage_compute).with_output_bytes(shard_bytes),
        &slice,
    );
    if let Some(x) = input {
        b.reshard_edge(x, sink, shard_bytes);
    }
    Stage {
        prepared: client.prepare(&b.build().expect("stage program is valid")),
        input,
        sink,
    }
}

/// Programs/second of `chains` back-to-back chains of `chain_len`
/// dependent programs, striped round-robin over `islands` islands.
pub fn chained_throughput(
    islands: u32,
    chain_len: u32,
    stage_compute: SimDuration,
    payload: u64,
    dispatch: ChainDispatch,
    chains: u64,
) -> f64 {
    let (elapsed, _) = chained_trace(
        0,
        islands,
        chain_len,
        stage_compute,
        payload,
        dispatch,
        chains,
        &[],
    );
    (chain_len as u64 * chains) as f64 / elapsed.as_secs_f64()
}

/// Runs the fig14 chained workload under `seed` and an optional fault
/// plan, returning its elapsed virtual time and full event trace. Two
/// calls with equal arguments produce bit-identical traces — the
/// determinism-regression surface for the fault-injection subsystem
/// (faulted runs resolve through typed errors instead of wedging, and
/// the wind-down is replayable).
#[allow(clippy::too_many_arguments)]
pub fn chained_trace(
    seed: u64,
    islands: u32,
    chain_len: u32,
    stage_compute: SimDuration,
    payload: u64,
    dispatch: ChainDispatch,
    chains: u64,
    faults: &[(SimTime, FaultSpec)],
) -> (SimDuration, TraceLog) {
    assert!(islands >= 1 && chain_len >= 1);
    // 2 hosts x 4 TPUs per island; each stage gangs 4 devices.
    let spec = ClusterSpec::islands_of(islands, 2, 4);
    let (mut sim, rt) = runtime(seed, spec, PathwaysConfig::default());
    sim.handle().record_trace(true);
    let mut plan: FaultPlan<FaultSpec> = FaultPlan::new();
    for (at, spec) in faults {
        plan.push(*at, *spec);
    }
    rt.install_fault_plan(plan);
    let client = rt.client(HostId(0));
    // One head program (island 0) plus one body program per island;
    // stage k of every chain reuses the body prepared for island
    // k % islands — re-running a lowered program is the cheap path.
    let head = build_stage(&client, "head", IslandId(0), stage_compute, payload, true);
    let bodies: Vec<Stage> = (0..islands)
        .map(|i| {
            let name = format!("body-i{i}");
            build_stage(&client, &name, IslandId(i), stage_compute, payload, false)
        })
        .collect();

    let h = sim.handle();
    let job = sim.spawn("client", async move {
        let start = h.now();
        for _ in 0..chains {
            let mut runs: Vec<Run> = Vec::with_capacity(chain_len as usize);
            let mut prev: Option<ObjectRef> = None;
            for k in 0..chain_len {
                let stage = match k {
                    0 => &head,
                    _ => &bodies[(k % islands) as usize],
                };
                let bindings: Vec<_> = stage.input.zip(prev.clone()).into_iter().collect();
                let run = client
                    .submit_with(&stage.prepared, &bindings)
                    .await
                    .expect("binding matches");
                drop(bindings);
                prev = match dispatch {
                    // Old-style: every stage waits for its producer's
                    // results before it is even submitted.
                    ChainDispatch::Sequential => run.finish().await.object_ref(stage.sink),
                    // Futures-style: the whole chain is dispatched
                    // before the first kernel finishes.
                    ChainDispatch::Parallel => {
                        let out = run.object_ref(stage.sink);
                        runs.push(run);
                        out
                    }
                };
            }
            drop(prev);
            for run in runs {
                run.finish().await;
            }
        }
        h.now().duration_since(start)
    });
    sim.run_to_quiescence();
    let elapsed = job.try_take().unwrap();
    (elapsed, sim.take_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_chaining_beats_sequential() {
        let par = chained_throughput(
            1,
            8,
            SimDuration::from_micros(50),
            1 << 12,
            ChainDispatch::Parallel,
            4,
        );
        let seq = chained_throughput(
            1,
            8,
            SimDuration::from_micros(50),
            1 << 12,
            ChainDispatch::Sequential,
            4,
        );
        assert!(
            par > seq,
            "parallel ({par:.0}/s) should beat sequential ({seq:.0}/s)"
        );
    }

    #[test]
    fn cross_island_chains_complete() {
        let tp = chained_throughput(
            2,
            6,
            SimDuration::from_micros(100),
            1 << 16,
            ChainDispatch::Parallel,
            2,
        );
        assert!(tp > 0.0);
    }
}
