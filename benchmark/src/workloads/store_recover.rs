//! `store_recover`: the read side of storage. Seeded scenarios, dealt
//! round-robin over 64 producer islands, in which a consumer binds an object that has
//! been spilled (paying `read_shard` penalties) or lost to a scripted
//! device kill (`ResourceManager::heal`, then restore-from-checkpoint
//! or lineage recompute, including a shared-upstream chain). A change
//! that speeds spilling by making restores dearer shows here and not in
//! `store_spill`.
//!
//! One "program" of this workload is one scenario; its latency is kill
//! → consumer ready (submit → consumer ready for the spilled reads).

use std::sync::Arc;

use super::{final_checks, settle_warm_up, timed_window, Rep, Tally, Workload};
use crate::clock::Stopwatch;
use crate::gen::{self, Scenario};
use crate::layers::core_client::{
    self, Client, CompId, Done, Inputs, KernelSpec, ObjectRef, PreparedProgram, Prog,
};
use crate::layers::core_resource::{self, Manager};
use crate::layers::core_sched::{self, SchedulerHandle};
use crate::layers::core_storage::{self, Faults, Tiers};
use crate::layers::{net, sim, Shape};
use crate::span;

/// Scenarios played before the timed window.
const WARM_UP: usize = 16;
/// Producer islands. A kill costs its island one device for good, so
/// the cluster is sized once, independent of the scenario count (the
/// housekeeping fan-out of every heal reaches every live host, which
/// makes cluster size part of what is measured): each island sees at
/// most `ceil((WARM_UP + scenarios) / PRODUCER_ISLANDS)` kills and has
/// 24 devices to lose them from.
const PRODUCER_ISLANDS: usize = 64;

pub const SHAPE: Shape = Shape {
    // Island 0 hosts the consumers.
    islands: 1 + PRODUCER_ISLANDS as u32,
    hosts_per_island: 3,
    devices_per_host: 8,
    gang: 4,
    comps: 2,
    reshard_edges: 1,
    queue_depth: 1,
    shard_bytes: gen::RECOVER_KILL_SHARD_BYTES,
};

pub const TIERS: Tiers = Tiers {
    hbm_per_device: 4 * gen::SPILL_SHARD_BYTES,
    dram_per_host: 64 << 30,
    checkpoint_interval_us: Some(10_000),
    checkpoint_keep: 2,
};

/// Bytes per source shard on the consumers' reshard edges.
const CONSUME_EDGE_BYTES: u64 = 1 << 16;
/// Virtual wait after a producer finishes, long enough for its 10 ms
/// checkpoint to become durable.
const DURABLE_WAIT_NS: u64 = 25_000_000;

pub fn workload() -> Workload {
    Workload {
        name: "store_recover",
        why: "seeded scenarios bind spilled or killed objects: read penalties, device kill, heal, restore-from-checkpoint vs lineage recompute incl. a shared-upstream chain",
        shape: SHAPE,
        frozen: &[("scenarios_per_rep", gen::RECOVER_SCENARIOS as u64)],
        rep,
    }
}

/// A prepared consumer on island 0 with `inputs.len()` external inputs.
struct Consumer {
    prepared: PreparedProgram,
    inputs: Vec<CompId>,
}

struct Ctx {
    client: Client,
    rm: Manager,
    faults: Faults,
    consume_one: Consumer,
    consume_two: Consumer,
    /// Island 0's scheduler, where every consumer is submitted.
    sched: SchedulerHandle,
}

fn producer(compute_ns: u64, shard_bytes: u64) -> KernelSpec {
    KernelSpec {
        compute_ns,
        allreduce_bytes: None,
        output_bytes: shard_bytes,
    }
}

/// `run_to_ready`, with the run's dataflow shards added to `tally`.
async fn run(
    client: &Client,
    prepared: &PreparedProgram,
    bindings: &[(CompId, ObjectRef)],
    tally: &mut Tally,
    prog: Prog,
) -> Done {
    tally.plaque_shards += core_client::plaque_shards(prepared);
    core_client::run_to_ready(client, prepared, bindings, prog).await
}

/// Plays one scenario on `island`; returns (ok, latency_ns). The
/// consumer's scheduler timing goes to `tally` on traced runs.
async fn play(
    ctx: &Ctx,
    island: u32,
    scenario: &Scenario,
    tally: &mut Tally,
    prog: Prog,
) -> (bool, u64) {
    let client = &ctx.client;
    let h = client.handle();
    let slice = core_resource::slice(client, SHAPE.gang, Some(island), prog);
    let mut ok = true;
    let latency;
    let consumed;
    match *scenario {
        Scenario::SpilledRead {
            objects,
            bind,
            compute_ns,
            shard_bytes,
        } => {
            let (program, sink) = core_client::trace_chain(
                client,
                "spiller",
                &slice,
                &[producer(compute_ns, shard_bytes)],
                0,
                prog,
            );
            let prepared = core_client::prepare(client, &program, prog);
            let mut kept = Vec::with_capacity(objects as usize);
            for _ in 0..objects {
                let done = run(client, &prepared, &[], tally, prog).await;
                ok &= done.ok;
                kept.push(done.result);
            }
            let old = kept[bind as usize]
                .as_ref()
                .and_then(|r| core_client::result_output(r, sink));
            let Some(old) = old else { return (false, 0) };
            let c = &ctx.consume_one;
            let done = run(client, &c.prepared, &[(c.inputs[0], old)], tally, prog).await;
            ok &= done.ok;
            latency = done.latency_ns;
            consumed = done;
        }
        Scenario::Kill {
            victim,
            compute_ns,
            shard_bytes,
        } => {
            let (program, sink) = core_client::trace_chain(
                client,
                "producer",
                &slice,
                &[producer(compute_ns, shard_bytes)],
                0,
                prog,
            );
            let prepared = core_client::prepare(client, &program, prog);
            let made = run(client, &prepared, &[], tally, prog).await;
            ok &= made.ok;
            let out = made
                .result
                .as_ref()
                .and_then(|r| core_client::result_output(r, sink));
            let Some(out) = out else { return (false, 0) };
            sim::sleep_ns(h, DURABLE_WAIT_NS).await;

            let t0 = sim::now_ns(h);
            let dead = core_resource::devices_of(&slice)[victim as usize];
            core_storage::kill_device(&ctx.faults, h, dead, prog);
            let c = &ctx.consume_one;
            let done = run(client, &c.prepared, &[(c.inputs[0], out)], tally, prog).await;
            ok &= done.ok;
            latency = sim::now_ns(h) - t0;
            consumed = done;
        }
        Scenario::KillChain {
            victim,
            compute_ns,
            shard_bytes,
        } => {
            let (program, sink) = core_client::trace_chain(
                client,
                "upstream",
                &slice,
                &[producer(compute_ns, shard_bytes)],
                0,
                prog,
            );
            let prepared = core_client::prepare(client, &program, prog);
            let up = run(client, &prepared, &[], tally, prog).await;
            ok &= up.ok;
            let a = up
                .result
                .as_ref()
                .and_then(|r| core_client::result_output(r, sink));
            let Some(a) = a else { return (false, 0) };

            let mut downstream = Vec::with_capacity(2);
            let mut kept = Vec::with_capacity(2);
            for name in ["left", "right"] {
                let (program, xs, sink) = core_client::trace_consumer(
                    client,
                    name,
                    &slice,
                    &producer(compute_ns, shard_bytes),
                    Inputs {
                        count: 1,
                        shards: SHAPE.gang,
                        edge_bytes: CONSUME_EDGE_BYTES,
                    },
                    prog,
                );
                let prepared = core_client::prepare(client, &program, prog);
                let done = run(client, &prepared, &[(xs[0], a.clone())], tally, prog).await;
                ok &= done.ok;
                let out = done
                    .result
                    .as_ref()
                    .and_then(|r| core_client::result_output(r, sink));
                let Some(out) = out else { return (false, 0) };
                downstream.push(out);
                kept.push(done.result);
            }

            let t0 = sim::now_ns(h);
            let dead = core_resource::devices_of(&slice)[victim as usize];
            core_storage::kill_device(&ctx.faults, h, dead, prog);
            let c = &ctx.consume_two;
            let bindings: Vec<_> = c.inputs.iter().copied().zip(downstream).collect();
            let done = run(client, &c.prepared, &bindings, tally, prog).await;
            ok &= done.ok;
            latency = sim::now_ns(h) - t0;
            consumed = done;
        }
    }
    if let Some(run_id) = consumed.run_id {
        tally.note_arrival(
            &ctx.sched,
            run_id,
            consumed.submitted_ns,
            consumed.submitted_ns + consumed.latency_ns,
        );
    }
    core_resource::release(&ctx.rm, client, &slice, prog);
    (ok, latency)
}

/// The producer island the `n`-th scenario of a rep plays on.
fn island_of(n: usize) -> u32 {
    (1 + n % PRODUCER_ISLANDS) as u32
}

fn rep(seed: u64) -> Rep {
    let mut rep = Rep::default();
    let sw = Stopwatch::start();
    let ops = gen::store_recover(seed);
    // Warm-up scenarios come from a stream of their own, so they never
    // shift the timed list.
    let warm = gen::store_recover_sized(seed ^ 0x5eed, WARM_UP);
    let cfg = core_storage::with_tiers(core_client::config(), TIERS);
    let mut env = core_client::build_env(seed, net::cluster(&SHAPE), net::params(), cfg);
    let client = core_client::client(&env, net::last_host(&core_client::topology(&env.rt), 0));
    let consumers = core_resource::slice(&client, SHAPE.gang, Some(0), Prog::SETUP);
    let consumer = |inputs: u32| {
        let (program, inputs, _) = core_client::trace_consumer(
            &client,
            "consumer",
            &consumers,
            &KernelSpec::compute(100_000),
            Inputs {
                count: inputs,
                shards: SHAPE.gang,
                edge_bytes: CONSUME_EDGE_BYTES,
            },
            Prog::SETUP,
        );
        Consumer {
            prepared: core_client::prepare(&client, &program, Prog::SETUP),
            inputs,
        }
    };
    let ctx = Arc::new(Ctx {
        consume_one: consumer(1),
        consume_two: consumer(2),
        rm: core_resource::manager(&env),
        faults: core_storage::faults(&env),
        sched: core_sched::scheduler(&env, 0),
        client: client.clone(),
    });

    {
        let ctx = Arc::clone(&ctx);
        env.sim.spawn("warm-up", async move {
            let mut scratch = Tally::default();
            for (i, sc) in warm.scenarios.iter().enumerate() {
                play(&ctx, island_of(i), sc, &mut scratch, Prog::SETUP).await;
            }
        });
        settle_warm_up(&mut env, &mut rep);
    }
    rep.setup_s = sw.secs();

    let expected: u64 = ops
        .scenarios
        .iter()
        .map(Scenario::expected_recoveries)
        .sum();
    let scenarios = Arc::new(ops.scenarios);
    timed_window(&mut env, &mut rep, |env| {
        let (ctx, scenarios) = (Arc::clone(&ctx), Arc::clone(&scenarios));
        vec![env.sim.spawn("recoverer", async move {
            let mut tally = Tally::default();
            for (i, sc) in scenarios.iter().enumerate() {
                let prog = core_client::begin_program(&ctx.client, i as u64 + 1);
                let (ok, latency) = play(&ctx, island_of(WARM_UP + i), sc, &mut tally, prog).await;
                tally.record(ok, latency);
                core_client::end_program(&ctx.client, prog);
            }
            tally.end_ns = sim::now_ns(ctx.client.handle());
            tally
        })]
    });
    let recovered = rep.counts["core.storage.restored"] + rep.counts["core.storage.recomputed"];
    if recovered != expected as f64 || rep.counts["core.storage.abandoned"] != 0.0 {
        rep.failures.push(format!(
            "recovery counts: restored {} + recomputed {} (abandoned {}), the scenarios call for {expected}",
            rep.counts["core.storage.restored"],
            rep.counts["core.storage.recomputed"],
            rep.counts["core.storage.abandoned"]
        ));
    }
    for what in ["core.storage.restored", "core.storage.recomputed"] {
        if rep.counts[what] == 0.0 {
            rep.failures.push(format!(
                "{what} is 0: one recovery path is no longer exercised"
            ));
        }
    }
    // The consumers' prepared programs hold no objects; releasing the
    // context drops the last client-side state before the final checks.
    core_resource::release(&ctx.rm, &client, &consumers, Prog::SETUP);
    drop(ctx);
    final_checks(&env, &mut rep);
    rep.spans = span::take();
    rep
}
