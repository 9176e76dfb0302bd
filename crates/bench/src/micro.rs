//! Micro-benchmark harnesses for Figures 5, 6 and 8: the trivial
//! scalar-AllReduce computation under the OpByOp / Chained / Fused
//! submission modes, on Pathways and the three baselines.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pathways_baselines::{
    JaxConfig, JaxRuntime, RayConfig, RayRuntime, StepWorkload, SubmissionMode, Tf1Config,
    Tf1Runtime, Throughput,
};
use pathways_core::{FnSpec, PathwaysConfig, SliceRequest};
use pathways_models::{chain_program, gang_program, run_serial, spawn_windowed};
use pathways_net::{ClusterSpec, CollectiveKind, HostId, NetworkParams};
use pathways_sim::{Sim, SimDuration, SimTime};

use crate::runtime;

/// Measures Pathways throughput for the micro-benchmark under `config`.
///
/// `total` computations are executed serially; in Chained/Fused modes
/// they are grouped into programs of `workload.chain_len`.
pub fn pathways_throughput(
    hosts: u32,
    devices_per_host: u32,
    mode: SubmissionMode,
    workload: StepWorkload,
    total: u64,
    config: PathwaysConfig,
) -> Throughput {
    let (mut sim, rt) = runtime(
        0,
        ClusterSpec::single_island(hosts, devices_per_host),
        config,
    );
    // The client process lives on the island's last host (the scheduler
    // is on the first).
    let client = rt.client(HostId(hosts - 1));
    let slice = client
        .virtual_slice(SliceRequest::devices(hosts * devices_per_host))
        .unwrap();
    let step = |name: &str, compute| {
        FnSpec::compute_only(name, compute).with_allreduce(workload.allreduce_bytes)
    };
    let chain = u64::from(workload.chain_len);
    let (name, kernels, runs, comps_per_run) = match mode {
        SubmissionMode::OpByOp => ("micro-o", vec![step("step", workload.compute)], total, 1),
        SubmissionMode::Chained => {
            let steps =
                (0..workload.chain_len).map(|i| step(&format!("step{i}"), workload.compute));
            ("micro-c", steps.collect(), total / chain, chain)
        }
        SubmissionMode::Fused => {
            // One XLA kernel executing the whole chain on-device: the
            // first collective is explicit (gang semantics), the rest
            // fold into compute time.
            let coll = rt.core().fabric.ici_collective_time(
                CollectiveKind::AllReduce,
                &slice.physical_devices(),
                workload.allreduce_bytes,
            );
            let fused = (workload.compute + coll) * (chain - 1) + workload.compute;
            ("micro-f", vec![step("fused", fused)], total / chain, chain)
        }
    };
    let kernels = kernels.into_iter().map(|k| (k, &slice));
    let (prepared, _) = chain_program(&client, name, 8, kernels).unwrap();
    let job = sim.spawn("client", async move {
        run_serial(&client, &prepared, 0, runs).await
    });
    sim.run_to_quiescence();
    Throughput {
        computations: runs * comps_per_run,
        elapsed: job.try_take().unwrap(),
    }
}

/// Measures JAX multi-controller throughput for the micro-benchmark.
pub fn jax_throughput(
    hosts: u32,
    devices_per_host: u32,
    mode: SubmissionMode,
    workload: StepWorkload,
    total: u64,
) -> Throughput {
    let mut sim = Sim::new(0);
    let rt = JaxRuntime::new(
        &sim,
        ClusterSpec::single_island(hosts, devices_per_host),
        NetworkParams::tpu_cluster(),
        JaxConfig::default(),
    );
    let m = rt.spawn_benchmark(&mut sim, mode, workload, total);
    sim.run_to_quiescence();
    m.try_take().unwrap()
}

/// Measures TF1 single-controller throughput for the micro-benchmark
/// under `config`.
pub fn tf1_throughput(
    hosts: u32,
    devices_per_host: u32,
    mode: SubmissionMode,
    workload: StepWorkload,
    total: u64,
    config: Tf1Config,
) -> Throughput {
    let mut sim = Sim::new(0);
    let rt = Tf1Runtime::new(
        &sim,
        ClusterSpec::single_island(hosts, devices_per_host),
        NetworkParams::tpu_cluster(),
        config,
    );
    let m = rt.spawn_benchmark(&mut sim, mode, workload, total);
    sim.run_to_quiescence();
    m.try_take().unwrap()
}

/// Measures Ray throughput (one GPU per host) for the micro-benchmark
/// under `config`.
pub fn ray_throughput(
    hosts: u32,
    mode: SubmissionMode,
    workload: StepWorkload,
    total: u64,
    config: RayConfig,
) -> Throughput {
    let mut sim = Sim::new(0);
    let rt = RayRuntime::new(&sim, hosts, NetworkParams::tpu_cluster(), config);
    let m = rt.spawn_benchmark(&mut sim, mode, workload, total);
    sim.run_to_quiescence();
    m.try_take().unwrap()
}

/// One Figure 6 sweep point: JAX and Pathways throughput at a given
/// per-computation device time.
pub fn fig6_point(
    hosts: u32,
    devices_per_host: u32,
    compute: SimDuration,
    programs: u64,
) -> (f64, f64) {
    let w = StepWorkload::sized(compute);
    let jax = jax_throughput(hosts, devices_per_host, SubmissionMode::OpByOp, w, programs);
    let pw = pathways_throughput(
        hosts,
        devices_per_host,
        SubmissionMode::OpByOp,
        w,
        programs,
        PathwaysConfig::default(),
    );
    (jax.per_sec(), pw.per_sec())
}

/// Figure 8 point: aggregate Pathways throughput with `clients`
/// concurrent clients, each keeping `outstanding` runs of a
/// `compute`-sized single-computation program in flight, measured over
/// `window`.
pub fn pathways_multiclient_throughput(
    hosts: u32,
    devices_per_host: u32,
    clients: u32,
    compute: SimDuration,
    window: SimDuration,
    outstanding: u32,
) -> f64 {
    let (mut sim, rt) = runtime(
        0,
        ClusterSpec::single_island(hosts, devices_per_host),
        PathwaysConfig::default(),
    );
    let completed = Arc::new(AtomicU64::new(0));
    for c in 0..clients {
        let client = rt.client(HostId(c % hosts));
        let slice = client
            .virtual_slice(SliceRequest::devices(hosts * devices_per_host))
            .unwrap();
        let step = FnSpec::compute_only("step", compute).with_allreduce(4);
        let (prepared, _) = gang_program(&client, format!("t{c}"), step, &slice).unwrap();
        spawn_windowed(client, prepared, outstanding, Arc::clone(&completed));
    }
    sim.run_until_time(SimTime::ZERO + window);
    completed.load(Ordering::Relaxed) as f64 / window.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pathways_fused_matches_jax_fused_at_small_scale() {
        // The Figure 5 headline: with enough work per node, the
        // single-controller overhead is masked.
        let w = StepWorkload::trivial();
        let jax = jax_throughput(2, 8, SubmissionMode::Fused, w, 512).per_sec();
        let pw = pathways_throughput(
            2,
            8,
            SubmissionMode::Fused,
            w,
            512,
            PathwaysConfig::default(),
        )
        .per_sec();
        let ratio = pw / jax;
        assert!(
            ratio > 0.85,
            "PW-F should be within 15% of JAX-F, ratio {ratio:.2} (jax {jax:.0}/s pw {pw:.0}/s)"
        );
    }

    #[test]
    fn jax_wins_op_by_op() {
        // Multi-controller dispatch over PCIe beats the single
        // controller for unbatched tiny computations.
        let w = StepWorkload::trivial();
        let jax = jax_throughput(2, 8, SubmissionMode::OpByOp, w, 128).per_sec();
        let pw = pathways_throughput(
            2,
            8,
            SubmissionMode::OpByOp,
            w,
            128,
            PathwaysConfig::default(),
        )
        .per_sec();
        assert!(jax > pw, "jax {jax:.0}/s vs pw {pw:.0}/s");
    }

    #[test]
    fn pathways_chained_beats_its_op_by_op() {
        let w = StepWorkload::trivial();
        let o = pathways_throughput(
            2,
            8,
            SubmissionMode::OpByOp,
            w,
            128,
            PathwaysConfig::default(),
        )
        .per_sec();
        let c = pathways_throughput(
            2,
            8,
            SubmissionMode::Chained,
            w,
            256,
            PathwaysConfig::default(),
        )
        .per_sec();
        assert!(c > o, "chained {c:.0}/s vs op-by-op {o:.0}/s");
    }

    #[test]
    fn fig6_converges_with_larger_computations() {
        let (jax_small, pw_small) = fig6_point(4, 8, SimDuration::from_micros(100), 40);
        let (jax_big, pw_big) = fig6_point(4, 8, SimDuration::from_millis(10), 10);
        assert!(
            pw_small / jax_small < 0.95,
            "tiny computations should not reach parity"
        );
        assert!(
            pw_big / jax_big > 0.9,
            "10ms computations should reach parity"
        );
    }

    #[test]
    fn multiclient_aggregate_grows_until_saturation() {
        // Tiny computations: a single client's submission thread cannot
        // saturate the accelerators, more clients can (Figure 8).
        // outstanding = 1: like the paper's clients, each waits for the
        // previous program's handles before submitting the next.
        let one = pathways_multiclient_throughput(
            2,
            8,
            1,
            SimDuration::from_micros(40),
            SimDuration::from_millis(50),
            1,
        );
        let eight = pathways_multiclient_throughput(
            2,
            8,
            8,
            SimDuration::from_micros(40),
            SimDuration::from_millis(50),
            1,
        );
        assert!(
            eight > one * 1.3,
            "8 clients {eight:.0}/s vs 1 client {one:.0}/s"
        );
        // Saturation bound: devices can do at most 1/compute programs/s
        // (plus collective time, so strictly below this).
        let bound = 1.0 / SimDuration::from_micros(40).as_secs_f64();
        assert!(
            eight <= bound,
            "{eight:.0}/s exceeds device bound {bound:.0}/s"
        );
    }
}
