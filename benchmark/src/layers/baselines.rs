//! Layer `baselines`: the multi-controller JAX-like comparator, used
//! for one number — the paper's parity claim.

use pathways::baselines::{JaxConfig, JaxRuntime, StepWorkload, SubmissionMode};
use pathways::net::ClusterSpec;
use pathways::sim::{Sim, SimDuration};

use super::core_client::{self, KernelSpec, Prog};
use super::{core_resource, net, Named, Shape, BASELINES};
use crate::span;

/// Pathways ÷ JAX simulated throughput of an op-by-op gang step
/// (`compute_ns` compute + 4-byte all-reduce) over one island of the
/// workload's gang width. 1.0 is parity; the paper reaches it once
/// computations are long enough to hide single-controller dispatch.
pub fn jax_parity_ratio(shape: &Shape, compute_ns: u64, steps: u64) -> f64 {
    let hosts = shape.gang_hosts().max(2);
    let spec = || ClusterSpec::single_island(hosts, shape.devices_per_host);
    let devices = hosts * shape.devices_per_host;

    let jax = span::sync("probe.jax_step", BASELINES, || {
        let mut sim = Sim::new(0);
        let rt = JaxRuntime::new(&sim, spec(), net::params(), JaxConfig::default());
        let job = rt.spawn_benchmark(
            &mut sim,
            SubmissionMode::OpByOp,
            StepWorkload::sized(SimDuration::from_nanos(compute_ns)),
            steps,
        );
        let _ = sim.run();
        job.try_take().map_or(f64::NAN, |t| t.per_sec())
    });

    let pathways = span::sync("probe.pathways_step", BASELINES, || {
        let mut env = core_client::build_env(0, spec(), net::params(), core_client::config());
        let client = core_client::client(&env, net::last_host(&core_client::topology(&env.rt), 0));
        let slice = core_resource::slice(&client, devices, None, Prog::SETUP);
        let kernel = KernelSpec {
            compute_ns,
            allreduce_bytes: Some(4),
            output_bytes: 0,
        };
        let (program, _) =
            core_client::trace_chain(&client, "parity", &slice, &[kernel], 0, Prog::SETUP);
        let prepared = core_client::prepare(&client, &program, Prog::SETUP);
        let job = env.sim.spawn("parity", async move {
            let h = client.handle().clone();
            let t0 = super::sim::now_ns(&h);
            for _ in 0..steps {
                core_client::run_to_ready(&client, &prepared, &[], Prog::SETUP).await;
            }
            super::sim::now_ns(&h) - t0
        });
        let _ = env.sim.run();
        job.try_take()
            .map_or(f64::NAN, |ns| steps as f64 / (ns as f64 / 1e9))
    });

    pathways / jax
}

pub fn probe(shape: &Shape) -> Vec<Named> {
    vec![(
        "baselines.jax_parity_ratio",
        jax_parity_ratio(shape, 500_000, 4),
    )]
}
