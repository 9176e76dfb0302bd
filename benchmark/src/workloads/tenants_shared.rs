//! `tenants_shared`: the paper's multi-tenancy case. Sixteen clients
//! share one 32-device island under weighted-fair queueing with seeded
//! weights, each cycling through four prepared one-kernel gang programs
//! with four runs outstanding (four closed-loop lanes per client), so a
//! backlog forms and the weights decide who waits. A client of weight
//! `w` runs `68 w` programs, which keeps every client backlogged until
//! about the same time. The one workload where programs queue at a
//! single scheduler, so policy cost and queue wait show.

use std::sync::Arc;

use super::{final_checks, settle_warm_up, timed_window, Rep, Tally, Workload};
use crate::clock::Stopwatch;
use crate::gen;
use crate::layers::core_client::{self, KernelSpec, Prog};
use crate::layers::{core_resource, core_sched, net, sim, Shape};
use crate::span;

pub const SHAPE: Shape = Shape {
    islands: 1,
    hosts_per_island: 4,
    devices_per_host: 8,
    gang: 32,
    comps: 1,
    reshard_edges: 0,
    queue_depth: gen::TENANTS_CLIENTS as u32,
    shard_bytes: 4,
};

/// Warm-up programs per client (one of each variant).
const WARM_UP: usize = 4;

pub fn workload() -> Workload {
    Workload {
        name: "tenants_shared",
        why: "16 clients with seeded WFQ weights keep 4 runs of a prepared gang program outstanding on one 32-device island: the only workload that queues at a scheduler",
        shape: SHAPE,
        frozen: &[
            ("clients", gen::TENANTS_CLIENTS as u64),
            ("programs_per_unit_weight", gen::TENANTS_PROGRAMS_PER_WEIGHT as u64),
            ("outstanding_per_client", gen::TENANTS_OUTSTANDING as u64),
        ],
        rep,
    }
}

fn rep(seed: u64) -> Rep {
    let mut rep = Rep::default();
    let sw = Stopwatch::start();
    let ops = gen::tenants_shared(seed);
    let cfg = core_sched::with_weighted_fair(core_client::config(), &ops.weights);
    let mut env = core_client::build_env(seed, net::cluster(&SHAPE), net::params(), cfg);
    let topo = core_client::topology(&env.rt);
    let hosts: Vec<_> = (0..SHAPE.hosts_per_island)
        .map(|h| net::host(&topo, 0, h))
        .collect();
    // Clients are created in order, so client i carries weights[i].
    let tenants: Vec<_> = ops
        .programs
        .into_iter()
        .enumerate()
        .map(|(i, picks)| {
            let client = core_client::client(&env, hosts[i % hosts.len()]);
            let slice = core_resource::slice(&client, SHAPE.gang, None, Prog::SETUP);
            let prepared: Vec<_> = ops
                .variant_compute_ns
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
                        &format!("tenant{i}-v{v}"),
                        &slice,
                        &[kernel],
                        0,
                        Prog::SETUP,
                    );
                    core_client::prepare(&client, &program, Prog::SETUP)
                })
                .collect();
            (client, Arc::new(prepared), Arc::new(picks))
        })
        .collect();

    for (client, prepared, _) in &tenants {
        let (client, prepared) = (client.clone(), Arc::clone(prepared));
        env.sim.spawn("warm-up", async move {
            for v in 0..WARM_UP {
                core_client::run_to_ready(&client, &prepared[v % prepared.len()], &[], Prog::SETUP)
                    .await;
            }
        });
    }
    settle_warm_up(&mut env, &mut rep);
    rep.setup_s = sw.secs();

    let lanes = gen::TENANTS_OUTSTANDING;
    let submitted: usize = tenants.iter().map(|(_, _, picks)| picks.len()).sum();
    let sched = core_sched::scheduler(&env, 0);
    timed_window(&mut env, &mut rep, |env| {
        let mut jobs = Vec::with_capacity(tenants.len() * lanes);
        for (i, (client, prepared, picks)) in tenants.iter().enumerate() {
            for lane in 0..lanes {
                let (client, prepared, picks, sched) = (
                    client.clone(),
                    Arc::clone(prepared),
                    Arc::clone(picks),
                    sched.clone(),
                );
                jobs.push(env.sim.spawn(format!("tenant-{i}.{lane}"), async move {
                    let mut tally = Tally::default();
                    for p in (lane..picks.len()).step_by(lanes) {
                        // Ids are unique per (client, program): a client
                        // never has more than 2^16 programs.
                        let prog =
                            core_client::begin_program(&client, ((i as u64) << 16) + p as u64 + 1);
                        let prepared = &prepared[picks[p] as usize];
                        let done = core_client::run_to_ready(&client, prepared, &[], prog).await;
                        tally.plaque_shards += core_client::plaque_shards(prepared);
                        tally.record_done(&done, &sched);
                        core_client::end_program(&client, prog);
                    }
                    tally.end_ns = sim::now_ns(client.handle());
                    tally
                }));
            }
        }
        jobs
    });
    let granted = rep.counts["core.sched.granted_programs"];
    if granted != submitted as f64 {
        rep.failures.push(format!(
            "scheduler granted {granted} programs, {submitted} were submitted"
        ));
    }
    final_checks(&env, &mut rep);
    rep.spans = span::take();
    rep
}
