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
    Client, CompId, FaultSpec, FnSpec, InputSpec, ObjectRef, PathwaysConfig, PathwaysRuntime,
    PreparedProgram, Run, SliceRequest,
};
use pathways_net::{ClusterSpec, HostId, IslandId, NetworkParams};
use pathways_sim::trace::TraceLog;
use pathways_sim::{FaultPlan, Sim, SimDuration, SimTime};

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

fn build_stage(
    client: &Client,
    island: IslandId,
    devices: u32,
    stage_compute: SimDuration,
    payload: u64,
    head: bool,
    name: &str,
) -> Stage {
    let slice = client
        .virtual_slice(SliceRequest::devices(devices).in_island(island))
        .expect("island has capacity for one stage slice");
    let mut b = client.trace(name);
    let input = (!head).then(|| b.input(InputSpec::new("prev", devices)));
    let sink = b.computation(
        FnSpec::compute_only("stage", stage_compute).with_output_bytes(payload / devices as u64),
        &slice,
    );
    if let Some(x) = input {
        b.reshard_edge(x, sink, payload / devices as u64);
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
    let (elapsed, _trace) = run_chain(
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
/// plan, returning the full event trace. Two calls with equal arguments
/// produce bit-identical traces — the determinism-regression surface
/// for the fault-injection subsystem (faulted runs resolve through
/// typed errors instead of wedging, and the wind-down is replayable).
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
) -> TraceLog {
    run_chain(
        seed,
        islands,
        chain_len,
        stage_compute,
        payload,
        dispatch,
        chains,
        faults,
    )
    .1
}

#[allow(clippy::too_many_arguments)]
fn run_chain(
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
    let mut sim = Sim::new(seed);
    sim.handle().record_trace(true);
    // 2 hosts x 4 TPUs per island; each stage gangs 4 devices.
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(islands, 2, 4),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    let mut plan: FaultPlan<FaultSpec> = FaultPlan::new();
    for (at, spec) in faults {
        plan.push(*at, *spec);
    }
    rt.install_fault_plan(plan);
    let client = rt.client(HostId(0));
    // One head program (island 0) plus one body program per island;
    // stage k of every chain reuses the body prepared for island
    // k % islands — re-running a lowered program is the cheap path.
    let head = build_stage(
        &client,
        IslandId(0),
        4,
        stage_compute,
        payload,
        true,
        "head",
    );
    let bodies: Vec<Stage> = (0..islands)
        .map(|i| {
            build_stage(
                &client,
                IslandId(i),
                4,
                stage_compute,
                payload,
                false,
                format!("body-i{i}").as_str(),
            )
        })
        .collect();

    let h = sim.handle();
    let job = sim.spawn("client", async move {
        let start = h.now();
        for _ in 0..chains {
            match dispatch {
                ChainDispatch::Sequential => {
                    // Old-style: every stage waits for its producer's
                    // results before it is even submitted.
                    let mut prev: Option<ObjectRef> = None;
                    for k in 0..chain_len {
                        let result = match (&prev, k) {
                            (None, _) => client.run(&head.prepared).await,
                            (Some(p), _) => {
                                let body = &bodies[(k % islands) as usize];
                                client
                                    .submit_with(
                                        &body.prepared,
                                        &[(body.input.unwrap(), p.clone())],
                                    )
                                    .await
                                    .expect("binding matches")
                                    .finish()
                                    .await
                            }
                        };
                        let sink = if k == 0 {
                            head.sink
                        } else {
                            bodies[(k % islands) as usize].sink
                        };
                        prev = result.object_ref(sink);
                    }
                }
                ChainDispatch::Parallel => {
                    // Futures-style: the whole chain is dispatched
                    // before the first kernel finishes.
                    let mut runs: Vec<Run> = Vec::with_capacity(chain_len as usize);
                    let mut prev: Option<ObjectRef> = None;
                    for k in 0..chain_len {
                        let run = match &prev {
                            None => client.submit(&head.prepared).await,
                            Some(p) => {
                                let body = &bodies[(k % islands) as usize];
                                client
                                    .submit_with(
                                        &body.prepared,
                                        &[(body.input.unwrap(), p.clone())],
                                    )
                                    .await
                                    .expect("binding matches")
                            }
                        };
                        let sink = if k == 0 {
                            head.sink
                        } else {
                            bodies[(k % islands) as usize].sink
                        };
                        prev = run.object_ref(sink);
                        runs.push(run);
                    }
                    drop(prev);
                    for run in runs {
                        run.finish().await;
                    }
                }
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
