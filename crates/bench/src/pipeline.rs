//! Figure 7 harness: parallel vs sequential asynchronous dispatch on a
//! multi-stage pipeline, each stage on 4 TPU cores of a different host,
//! transferring data to the next stage over ICI.

use pathways_core::{DispatchMode, FnSpec, PathwaysConfig, PathwaysRuntime, SliceRequest};
use pathways_net::{ClusterSpec, HostId, NetworkParams};
use pathways_sim::{Sim, SimDuration};

/// Computations/second of a `stages`-stage pipeline under the given
/// dispatch mode.
pub fn pipeline_throughput(
    stages: u32,
    mode: DispatchMode,
    stage_compute: SimDuration,
    programs: u64,
) -> f64 {
    let mut sim = Sim::new(0);
    let cfg = PathwaysConfig {
        dispatch: mode,
        ..PathwaysConfig::default()
    };
    // One host per stage, 4 TPUs each (the paper's setup).
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::single_island(stages, 4),
        NetworkParams::tpu_cluster(),
        cfg,
    );
    let client = rt.client(HostId(stages - 1));
    let mut b = client.trace("pipeline");
    let mut prev = None;
    for s in 0..stages {
        // Contiguous 4-device slices land on successive hosts.
        let slice = client
            .virtual_slice(SliceRequest::devices(4).contiguous())
            .unwrap();
        let comp = b.computation(
            FnSpec::compute_only(format!("stage{s}"), stage_compute).with_output_bytes(1 << 10),
            &slice,
        );
        if let Some(p) = prev {
            b.edge(p, comp, 1 << 10);
        }
        prev = Some(comp);
    }
    let program = b.build().unwrap();
    let prepared = client.prepare(&program);
    let h = sim.handle();
    let job = sim.spawn("client", async move {
        let start = h.now();
        for _ in 0..programs {
            client.run(&prepared).await;
        }
        h.now().duration_since(start)
    });
    sim.run_to_quiescence();
    let elapsed = job.try_take().unwrap();
    (stages as u64 * programs) as f64 / elapsed.as_secs_f64()
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
