//! `spmd_wide`: the paper's SPMD headline. One client steps a prepared
//! one-computation gang program (500 µs compute + 4-byte all-reduce)
//! over 2048 devices (512 hosts x 4). The device gang rendezvous, the
//! 512-host control fan-out in `net` and the executor's timers do the
//! work; lowering and scheduler policy do none.

use std::sync::Arc;

use super::{final_checks, settle_warm_up, step_loop, timed_window, Rep, Window, Workload};
use crate::clock::Stopwatch;
use crate::gen;
use crate::layers::core_client::{self, KernelSpec, Prog};
use crate::layers::{core_resource, core_sched, net, Shape};
use crate::span;

pub const SHAPE: Shape = Shape {
    islands: 1,
    hosts_per_island: 512,
    devices_per_host: 4,
    gang: 2048,
    comps: 1,
    reshard_edges: 0,
    queue_depth: 1,
    shard_bytes: 4,
};

pub fn workload() -> Workload {
    Workload {
        name: "spmd_wide",
        why: "one prepared gang step over 2048 devices: gang rendezvous, 512-host fan-out and timers, no lowering or policy",
        shape: SHAPE,
        frozen: &[
            ("steps_per_rep", gen::SPMD_STEPS as u64),
            ("program_variants", gen::SPMD_VARIANTS as u64),
        ],
        rep,
    }
}

fn rep(seed: u64) -> Rep {
    let mut rep = Rep::default();
    let sw = Stopwatch::start();
    let ops = gen::spmd_wide(seed);
    let mut env = core_client::build_env(
        seed,
        net::cluster(&SHAPE),
        net::params(),
        core_client::config(),
    );
    let client = core_client::client(&env, net::last_host(&core_client::topology(&env.rt), 0));
    let slice = core_resource::slice(&client, SHAPE.gang, None, Prog::SETUP);
    let prepared: Arc<Vec<_>> = Arc::new(
        ops.variant_compute_ns
            .iter()
            .enumerate()
            .map(|(v, &compute_ns)| {
                let kernel = KernelSpec {
                    compute_ns,
                    allreduce_bytes: Some(4),
                    output_bytes: 0,
                };
                let (program, _) = core_client::trace_chain(
                    &client,
                    &format!("spmd-v{v}"),
                    &slice,
                    &[kernel],
                    0,
                    Prog::SETUP,
                );
                core_client::prepare(&client, &program, Prog::SETUP)
            })
            .collect(),
    );

    // Warm-up: one step, so first-use allocation is not timed.
    let sched = core_sched::scheduler(&env, 0);
    env.sim.spawn("warm-up", {
        let (client, prepared) = (client.clone(), Arc::clone(&prepared));
        async move {
            core_client::run_to_ready(&client, &prepared[0], &[], Prog::SETUP).await;
        }
    });
    settle_warm_up(&mut env, &mut rep);
    rep.setup_s = sw.secs();

    let steps = Arc::new(ops.steps);
    timed_window(&mut env, &mut rep, |env| {
        vec![env.sim.spawn(
            "stepper",
            step_loop(client, prepared, steps, sched, Window::new(), 0),
        )]
    });
    final_checks(&env, &mut rep);
    rep.spans = span::take();
    rep
}
