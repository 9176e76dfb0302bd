//! `pipeline_deep`: the paper's 16-stage pipeline headline.
//! `models::gpipe_program`, 16 stages x 16 micro-batches on 128 cores
//! (16 hosts x 8), prepared once and stepped. The lowered dataflow has
//! 528 nodes of 8 shards joined by 64-way reshard edges, so `plaque`
//! and the `core` transfer adapters dominate; gangs are 8 wide, so the
//! rendezvous is idle.

use std::sync::Arc;

use super::{final_checks, settle_warm_up, step_loop, timed_window, Rep, Window, Workload};
use crate::clock::Stopwatch;
use crate::gen;
use crate::layers::core_client::{self, Prog};
use crate::layers::{core_resource, core_sched, models, net, Shape};
use crate::span;

pub const SHAPE: Shape = Shape {
    islands: 1,
    hosts_per_island: gen::PIPELINE_STAGES,
    devices_per_host: 8,
    gang: 8,
    // fwd + bwd per (stage, micro-batch), plus one apply per stage.
    comps: gen::PIPELINE_STAGES * (2 * gen::PIPELINE_MICROBATCHES + 1),
    reshard_edges: gen::PIPELINE_MICROBATCHES * (2 * gen::PIPELINE_STAGES - 1),
    queue_depth: 1,
    shard_bytes: 1 << 20,
};

pub fn workload() -> Workload {
    Workload {
        name: "pipeline_deep",
        why: "GPipe 16 stages x 16 micro-batches on 128 cores: 528-node dataflow with 64-way reshard edges, so plaque and transfers dominate",
        shape: SHAPE,
        frozen: &[
            ("steps_per_rep", gen::PIPELINE_STEPS as u64),
            ("program_variants", gen::PIPELINE_VARIANTS as u64),
            ("stages", gen::PIPELINE_STAGES as u64),
            ("microbatches", gen::PIPELINE_MICROBATCHES as u64),
        ],
        rep,
    }
}

fn rep(seed: u64) -> Rep {
    let mut rep = Rep::default();
    let sw = Stopwatch::start();
    let ops = gen::pipeline_deep(seed);
    let mut env = core_client::build_env(
        seed,
        net::cluster(&SHAPE),
        net::params(),
        core_client::config(),
    );
    let client = core_client::client(&env, net::last_host(&core_client::topology(&env.rt), 0));
    // Contiguous 8-device slices land on successive hosts: one stage
    // per host.
    let stages: Vec<_> = (0..gen::PIPELINE_STAGES)
        .map(|_| core_resource::contiguous_slice(&client, SHAPE.gang, Prog::SETUP))
        .collect();
    let prepared: Arc<Vec<_>> = Arc::new(
        ops.variant_tokens
            .iter()
            .map(|&tokens| {
                let program = models::gpipe(
                    &client,
                    &stages,
                    gen::PIPELINE_MICROBATCHES,
                    tokens,
                    Prog::SETUP,
                );
                core_client::prepare(&client, &program, Prog::SETUP)
            })
            .collect(),
    );

    // Warm-up: one step.
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
