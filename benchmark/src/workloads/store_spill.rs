//! `store_spill`: the write side of storage. One client steps a
//! 4-device gang producing 32 MiB shards under a 4-shard HBM budget and
//! keeps a sliding window of its last 256 outputs, with 10 ms delta
//! checkpoints and keep-2 GC. HBM→DRAM spills, DRAM→disk demotions,
//! checkpoint commits, releases and segment reclaim all run. Expected
//! to move `sim_programs_per_s`, barely host time.

use std::sync::Arc;

use super::{final_checks, settle_warm_up, step_loop, timed_window, Rep, Window, Workload};
use crate::clock::Stopwatch;
use crate::gen;
use crate::layers::core_client::{self, KernelSpec, Prog};
use crate::layers::core_storage::{self, Tiers};
use crate::layers::{core_resource, core_sched, net, Shape};
use crate::span;

pub const SHAPE: Shape = Shape {
    islands: 1,
    hosts_per_island: 2,
    devices_per_host: 4,
    gang: 4,
    comps: 1,
    reshard_edges: 0,
    queue_depth: 1,
    shard_bytes: gen::SPILL_SHARD_BYTES,
};

pub const TIERS: Tiers = Tiers {
    // Four shards fit in HBM; the fifth step spills the coldest.
    hbm_per_device: 4 * gen::SPILL_SHARD_BYTES,
    // A quarter of the window's bytes fit in one host's DRAM; the rest
    // demotes to disk.
    dram_per_host: (gen::SPILL_WINDOW as u64 / 4) * 4 * gen::SPILL_SHARD_BYTES,
    checkpoint_interval_us: Some(10_000),
    checkpoint_keep: 2,
};

/// Warm-up steps: twice the window, so the timed loop starts with the
/// window full, DRAM at its budget and the disk tier in use.
const WARM_UP_STEPS: usize = 2 * gen::SPILL_WINDOW;

pub fn workload() -> Workload {
    Workload {
        name: "store_spill",
        why: "a 4-device gang writes 32 MiB shards under a 4-shard HBM budget with a 256-output window and 10 ms checkpoints: spills, demotions, commits, segment reclaim",
        shape: SHAPE,
        frozen: &[
            ("steps_per_rep", gen::SPILL_STEPS as u64),
            ("window", gen::SPILL_WINDOW as u64),
            ("program_variants", gen::SPILL_VARIANTS as u64),
        ],
        rep,
    }
}

fn rep(seed: u64) -> Rep {
    let mut rep = Rep::default();
    let sw = Stopwatch::start();
    let ops = gen::store_spill(seed);
    let cfg = core_storage::with_tiers(core_client::config(), TIERS);
    let mut env = core_client::build_env(seed, net::cluster(&SHAPE), net::params(), cfg);
    let client = core_client::client(&env, net::first_host(&core_client::topology(&env.rt), 0));
    let slice = core_resource::slice(&client, SHAPE.gang, None, Prog::SETUP);
    let prepared: Arc<Vec<_>> = Arc::new(
        ops.variant_compute_ns
            .iter()
            .enumerate()
            .map(|(v, &compute_ns)| {
                let kernel = KernelSpec {
                    compute_ns,
                    allreduce_bytes: None,
                    output_bytes: gen::SPILL_SHARD_BYTES,
                };
                let (program, _) = core_client::trace_chain(
                    &client,
                    &format!("spill-v{v}"),
                    &slice,
                    &[kernel],
                    0,
                    Prog::SETUP,
                );
                core_client::prepare(&client, &program, Prog::SETUP)
            })
            .collect(),
    );

    // Warm-up fills the window; the timed loop inherits it.
    let sched = core_sched::scheduler(&env, 0);
    let warm = env.sim.spawn("warm-up", {
        let (client, prepared) = (client.clone(), Arc::clone(&prepared));
        async move {
            let mut window = Window::with_capacity(gen::SPILL_WINDOW + 1);
            for _ in 0..WARM_UP_STEPS {
                let done = core_client::run_to_ready(&client, &prepared[0], &[], Prog::SETUP).await;
                window.push_back(done.result);
                if window.len() > gen::SPILL_WINDOW {
                    window.pop_front();
                }
            }
            window
        }
    });
    settle_warm_up(&mut env, &mut rep);
    let window = warm.try_take().unwrap_or_default();
    rep.setup_s = sw.secs();

    let steps = Arc::new(ops.steps);
    timed_window(&mut env, &mut rep, |env| {
        vec![env.sim.spawn(
            "stepper",
            step_loop(client, prepared, steps, sched, window, gen::SPILL_WINDOW),
        )]
    });
    for (what, least) in [
        ("core.storage.spills", 1.0),
        ("core.storage.demotions", 1.0),
        ("core.storage.checkpoints", 1.0),
        ("core.storage.segments_reclaimed", 1.0),
    ] {
        if rep.counts[what] < least {
            rep.failures.push(format!(
                "{what} is {}: the workload no longer exercises it",
                rep.counts[what]
            ));
        }
    }
    final_checks(&env, &mut rep);
    rep.spans = span::take();
    rep
}
