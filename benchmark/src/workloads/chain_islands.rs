//! `chain_islands`: the paper's two-island headline. Chains of eight
//! single-kernel programs striped over two islands, 1 MiB resharded
//! over the DCN between stages; the whole chain is submitted up front
//! through `submit_with` and `ObjectRef` futures and the refs are
//! dropped at the tail. The object index (declare / retain / release /
//! readiness), the input adapters and the DCN path dominate.

use std::sync::Arc;

use super::{final_checks, settle_warm_up, timed_window, Rep, Tally, Workload};
use crate::clock::Stopwatch;
use crate::gen;
use crate::layers::core_client::{self, Client, CompId, Inputs, KernelSpec, PreparedProgram, Prog};
use crate::layers::core_sched::{self, SchedulerHandle};
use crate::layers::{core_resource, net, sim, Shape};
use crate::span;

pub const SHAPE: Shape = Shape {
    islands: 2,
    hosts_per_island: 2,
    devices_per_host: 4,
    gang: 4,
    comps: 2,
    reshard_edges: 1,
    queue_depth: 4,
    shard_bytes: gen::CHAIN_PAYLOAD_BYTES / 4,
};

const WARM_UP_CHAINS: usize = 4;

pub fn workload() -> Workload {
    Workload {
        name: "chain_islands",
        why: "chains of 8 programs striped over 2 islands, 1 MiB resharded over DCN per stage, submitted up front via ObjectRef futures: object index, input adapters and DCN",
        shape: SHAPE,
        frozen: &[
            ("chains_per_rep", gen::CHAIN_CHAINS as u64),
            ("chain_len", gen::CHAIN_LEN as u64),
            ("stage_variants", gen::CHAIN_VARIANTS as u64),
        ],
        rep,
    }
}

/// One prepared stage: the head of a chain has no input.
struct Stage {
    prepared: PreparedProgram,
    input: Option<CompId>,
    sink: CompId,
}

/// `stages[island][variant]`, plus the head variants on island 0.
struct Stages {
    heads: Vec<Stage>,
    bodies: Vec<Vec<Stage>>,
    /// The scheduler of each island (for the traced run's look-ups).
    scheds: Vec<SchedulerHandle>,
}

fn build_stages(client: &Client, computes: &[u64], scheds: Vec<SchedulerHandle>) -> Stages {
    let per_shard = gen::CHAIN_PAYLOAD_BYTES / u64::from(SHAPE.gang);
    let kernel = |compute_ns| KernelSpec {
        compute_ns,
        allreduce_bytes: None,
        output_bytes: per_shard,
    };
    let slices: Vec<_> = (0..SHAPE.islands)
        .map(|i| core_resource::slice(client, SHAPE.gang, Some(i), Prog::SETUP))
        .collect();
    let heads = computes
        .iter()
        .enumerate()
        .map(|(v, &ns)| {
            let (program, sink) = core_client::trace_chain(
                client,
                &format!("head-v{v}"),
                &slices[0],
                &[kernel(ns)],
                0,
                Prog::SETUP,
            );
            Stage {
                prepared: core_client::prepare(client, &program, Prog::SETUP),
                input: None,
                sink,
            }
        })
        .collect();
    let bodies = slices
        .iter()
        .enumerate()
        .map(|(i, slice)| {
            computes
                .iter()
                .enumerate()
                .map(|(v, &ns)| {
                    let (program, inputs, sink) = core_client::trace_consumer(
                        client,
                        &format!("body-i{i}-v{v}"),
                        slice,
                        &kernel(ns),
                        Inputs {
                            count: 1,
                            shards: SHAPE.gang,
                            edge_bytes: per_shard,
                        },
                        Prog::SETUP,
                    );
                    Stage {
                        prepared: core_client::prepare(client, &program, Prog::SETUP),
                        input: Some(inputs[0]),
                        sink,
                    }
                })
                .collect()
        })
        .collect();
    Stages {
        heads,
        bodies,
        scheds,
    }
}

/// Submits one whole chain up front, then awaits it. Returns whether
/// every stage's sink resolved `Ok`.
async fn run_chain(
    client: &Client,
    stages: &Stages,
    picks: &[u8; gen::CHAIN_LEN],
    tally: &mut Tally,
    prog: Prog,
) {
    let t0 = sim::now_ns(client.handle());
    let mut runs = Vec::with_capacity(gen::CHAIN_LEN);
    let mut submitted = Vec::with_capacity(gen::CHAIN_LEN);
    let mut prev = None;
    let mut refused = 0;
    for (k, &v) in picks.iter().enumerate() {
        let island = k % stages.bodies.len();
        let stage = match k {
            0 => &stages.heads[v as usize],
            _ => &stages.bodies[island][v as usize],
        };
        let bindings: Vec<_> = stage.input.zip(prev.take()).into_iter().collect();
        let at = sim::now_ns(client.handle());
        match core_client::submit(client, &stage.prepared, &bindings, prog).await {
            Ok(run) => {
                prev = core_client::output_of(&run, stage.sink);
                tally.plaque_shards += core_client::plaque_shards(&stage.prepared);
                submitted.push((island, core_client::run_id(&run), at));
                runs.push(run);
            }
            Err(_) => refused += 1,
        }
    }
    // Only the tail's future is kept; upstream objects live on through
    // the bindings of the runs that consume them.
    let tail = prev;
    let mut ok_stages = 0u64;
    for run in runs {
        let result = core_client::finish(client, run, prog).await;
        if core_client::resolved_ok(&result) {
            ok_stages += 1;
        }
    }
    let tail_ok = match &tail {
        Some(obj) => core_client::ready(client, obj, prog).await,
        None => false,
    };
    let end = sim::now_ns(client.handle());
    let latency = end - t0;
    for (island, run_id, at) in submitted {
        tally.note_arrival(&stages.scheds[island], run_id, at, end);
    }
    // A chain is eight programs; its latency is first submit → tail ready.
    let len = gen::CHAIN_LEN as u64;
    if !tail_ok || refused != 0 {
        // A broken tail fails the stages that fed it, however many of
        // the earlier ones finished.
        ok_stages = ok_stages.min(len - 1);
    }
    tally.ok += ok_stages;
    tally.failed += len - ok_stages;
    tally.latencies_ns.push(latency);
}

fn rep(seed: u64) -> Rep {
    let mut rep = Rep::default();
    let sw = Stopwatch::start();
    let ops = gen::chain_islands(seed);
    let mut env = core_client::build_env(
        seed,
        net::cluster(&SHAPE),
        net::params(),
        core_client::config(),
    );
    let client = core_client::client(&env, net::first_host(&core_client::topology(&env.rt), 0));
    let scheds = (0..SHAPE.islands)
        .map(|i| core_sched::scheduler(&env, i))
        .collect();
    let stages = Arc::new(build_stages(&client, &ops.variant_compute_ns, scheds));
    let chains = Arc::new(ops.chains);

    {
        let (client, stages, chains) = (client.clone(), Arc::clone(&stages), Arc::clone(&chains));
        env.sim.spawn("warm-up", async move {
            let mut scratch = Tally::default();
            for picks in chains.iter().take(WARM_UP_CHAINS) {
                run_chain(&client, &stages, picks, &mut scratch, Prog::SETUP).await;
            }
        });
        settle_warm_up(&mut env, &mut rep);
    }
    rep.setup_s = sw.secs();

    timed_window(&mut env, &mut rep, |env| {
        let (client, stages, chains) = (client.clone(), Arc::clone(&stages), Arc::clone(&chains));
        vec![env.sim.spawn("chainer", async move {
            let mut tally = Tally::default();
            for (c, picks) in chains.iter().enumerate() {
                let prog = core_client::begin_program(&client, c as u64 + 1);
                run_chain(&client, &stages, picks, &mut tally, prog).await;
                core_client::end_program(&client, prog);
            }
            tally.end_ns = sim::now_ns(client.handle());
            tally
        })]
    });
    final_checks(&env, &mut rep);
    rep.spans = span::take();
    rep
}
