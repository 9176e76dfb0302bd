//! Figure 7 harness: parallel vs sequential asynchronous dispatch on a
//! multi-stage pipeline, each stage on 4 TPU cores of a different host,
//! transferring data to the next stage over ICI.

use pathways_core::{DispatchMode, FnSpec, PathwaysConfig, SliceRequest};
use pathways_models::{chain_program, run_serial};
use pathways_net::{ClusterSpec, HostId};
use pathways_sim::SimDuration;

use crate::runtime;

/// Computations/second of `programs` serial runs of a `stages`-stage
/// pipeline under the given dispatch mode.
pub fn pipeline_throughput(
    stages: u32,
    mode: DispatchMode,
    stage_compute: SimDuration,
    programs: u64,
) -> f64 {
    let config = PathwaysConfig {
        dispatch: mode,
        ..PathwaysConfig::default()
    };
    // One host per stage, 4 TPUs each (the paper's setup).
    let (mut sim, rt) = runtime(0, ClusterSpec::single_island(stages, 4), config);
    let client = rt.client(HostId(stages - 1));
    // Contiguous 4-device slices land on successive hosts.
    let slices: Vec<_> = (0..stages)
        .map(|_| {
            client
                .virtual_slice(SliceRequest::devices(4).contiguous())
                .unwrap()
        })
        .collect();
    let stage =
        |s| FnSpec::compute_only(format!("stage{s}"), stage_compute).with_output_bytes(1 << 10);
    let kernels = slices
        .iter()
        .enumerate()
        .map(|(s, slice)| (stage(s), slice));
    let (prepared, _) = chain_program(&client, "pipeline", 1 << 10, kernels).unwrap();
    let job = sim.spawn("client", async move {
        run_serial(&client, &prepared, 0, programs).await
    });
    sim.run_to_quiescence();
    (stages as u64 * programs) as f64 / job.try_take().unwrap().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_dispatch_wins_at_depth() {
        // Short stages (the paper's "simple computations"): host-side
        // work dominates, which is exactly where parallel dispatch pays.
        let compute = SimDuration::from_micros(10);
        let par = pipeline_throughput(16, DispatchMode::Parallel, compute, 6);
        let seq = pipeline_throughput(16, DispatchMode::Sequential, compute, 6);
        assert!(
            par > seq * 1.2,
            "parallel {par:.0}/s should clearly beat sequential {seq:.0}/s"
        );
    }

    #[test]
    fn deep_pipelines_amortize_fixed_overheads() {
        let compute = SimDuration::from_micros(50);
        let shallow = pipeline_throughput(2, DispatchMode::Parallel, compute, 10);
        let deep = pipeline_throughput(32, DispatchMode::Parallel, compute, 10);
        assert!(
            deep > shallow,
            "deep {deep:.0}/s should beat shallow {shallow:.0}/s"
        );
    }
}
