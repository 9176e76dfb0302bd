//! `dispatch_fresh`: the only workload where lowering and slice churn
//! run in the loop. Eight tenants on eight disjoint 4-device islands
//! each trace, `prepare` and run a fresh seeded 4–12-kernel chain every
//! iteration, and release and re-allocate their slice every 32
//! programs, under the default modelled latencies.

use std::sync::Arc;

use super::{final_checks, settle_warm_up, timed_window, Rep, Tally, Workload};
use crate::clock::Stopwatch;
use crate::gen;
use crate::layers::core_client::{self, Client, KernelSpec, Prog};
use crate::layers::core_resource::{self, Manager};
use crate::layers::core_sched::{self, SchedulerHandle};
use crate::layers::{net, sim, Shape};
use crate::span;

pub const SHAPE: Shape = Shape {
    islands: gen::DISPATCH_TENANTS as u32,
    hosts_per_island: 1,
    devices_per_host: 4,
    gang: 4,
    comps: 8,
    reshard_edges: 0,
    queue_depth: 1,
    shard_bytes: 8,
};

/// Warm-up programs per tenant (taken from the head of its list).
const WARM_UP: usize = 4;
/// Programs per tenant in the threaded replay.
const REPLAY_PROGRAMS: usize = 96;

pub fn workload() -> Workload {
    Workload {
        name: "dispatch_fresh",
        why: "8 tenants trace, prepare and run a fresh 4-12-kernel chain each iteration and churn their slices: the only loop with lowering and allocate/release in it",
        shape: SHAPE,
        frozen: &[
            ("tenants", gen::DISPATCH_TENANTS as u64),
            ("programs_per_tenant", gen::DISPATCH_PROGRAMS_PER_TENANT as u64),
            ("realloc_every", gen::DISPATCH_REALLOC_EVERY as u64),
        ],
        rep,
    }
}

/// One tenant's closed loop over `programs` (kernel compute times per
/// program). Program ids start at `first_id`.
async fn tenant(
    client: Client,
    rm: Manager,
    sched: SchedulerHandle,
    island: u32,
    programs: Arc<Vec<Vec<u64>>>,
    range: std::ops::Range<usize>,
    first_id: u64,
) -> Tally {
    let mut tally = Tally::default();
    let mut slice = core_resource::slice(&client, SHAPE.gang, Some(island), Prog::SETUP);
    for (n, p) in range.enumerate() {
        let prog = core_client::begin_program(&client, first_id + n as u64);
        if n > 0 && n % gen::DISPATCH_REALLOC_EVERY == 0 {
            core_resource::release(&rm, &client, &slice, prog);
            slice = core_resource::slice(&client, SHAPE.gang, Some(island), prog);
        }
        let kernels: Vec<KernelSpec> = programs[p]
            .iter()
            .map(|&ns| KernelSpec::compute(ns))
            .collect();
        let (program, _) = core_client::trace_chain(
            &client,
            &format!("d{island}-{p}"),
            &slice,
            &kernels,
            8,
            prog,
        );
        let prepared = core_client::prepare(&client, &program, prog);
        let done = core_client::run_to_ready(&client, &prepared, &[], prog).await;
        tally.plaque_shards += core_client::plaque_shards(&prepared);
        tally.record_done(&done, &sched);
        core_client::end_program(&client, prog);
    }
    core_resource::release(&rm, &client, &slice, Prog::SETUP);
    tally.end_ns = sim::now_ns(client.handle());
    tally
}

fn rep(seed: u64) -> Rep {
    let mut rep = Rep::default();
    let sw = Stopwatch::start();
    let ops = gen::dispatch_fresh(seed);
    let mut env = core_client::build_env(
        seed,
        net::cluster(&SHAPE),
        net::params(),
        core_client::config(),
    );
    let rm = core_resource::manager(&env);
    let topo = core_client::topology(&env.rt);
    let tenants: Vec<_> = ops
        .tenants
        .into_iter()
        .enumerate()
        .map(|(i, programs)| {
            let island = i as u32;
            (
                core_client::client(&env, net::first_host(&topo, island)),
                core_sched::scheduler(&env, island),
                island,
                Arc::new(programs),
            )
        })
        .collect();

    for (client, sched, island, programs) in &tenants {
        env.sim.spawn(
            "warm-up",
            tenant(
                client.clone(),
                Arc::clone(&rm),
                sched.clone(),
                *island,
                Arc::clone(programs),
                0..WARM_UP,
                0,
            ),
        );
    }
    settle_warm_up(&mut env, &mut rep);
    rep.setup_s = sw.secs();

    timed_window(&mut env, &mut rep, |env| {
        tenants
            .iter()
            .map(|(client, sched, island, programs)| {
                let first_id = 1 + u64::from(*island) * programs.len() as u64;
                env.sim.spawn(
                    format!("tenant-{island}"),
                    tenant(
                        client.clone(),
                        Arc::clone(&rm),
                        sched.clone(),
                        *island,
                        Arc::clone(programs),
                        0..programs.len(),
                        first_id,
                    ),
                )
            })
            .collect()
    });
    let (slices, load) = core_resource::residue(&env);
    if slices != 0 || load != 0 {
        rep.failures.push(format!(
            "{slices} slices (load {load}) still allocated after every tenant released"
        ));
    }
    final_checks(&env, &mut rep);
    rep.spans = span::take();
    rep
}

/// Result of replaying a short `dispatch_fresh` list on both backends.
pub struct Replay {
    pub deterministic_pps: f64,
    pub threaded_pps: f64,
    pub programs: u64,
    /// Named-lock acquisitions that blocked during the threaded run.
    pub contended: u64,
    pub completed: bool,
}

impl Replay {
    /// The one line the `threaded-replay` child prints.
    pub fn to_line(&self) -> String {
        format!(
            "replay {} {} {} {} {}",
            self.deterministic_pps,
            self.threaded_pps,
            self.programs,
            self.contended,
            u8::from(self.completed)
        )
    }

    pub fn from_line(line: &str) -> Option<Replay> {
        let mut it = line.split_whitespace();
        if it.next() != Some("replay") {
            return None;
        }
        Some(Replay {
            deterministic_pps: it.next()?.parse().ok()?,
            threaded_pps: it.next()?.parse().ok()?,
            programs: it.next()?.parse().ok()?,
            contended: it.next()?.parse().ok()?,
            completed: it.next()? == "1",
        })
    }
}

/// How long the replay's child process may take (it needs 1–3 s).
const REPLAY_DEADLINE_S: f64 = 20.0;

/// Runs [`threaded_replay`] in a child process (`pwbench
/// threaded-replay`) under a deadline. The threaded backend runs real
/// worker threads and can stall on a busy host for longer than a run
/// may last (seen: one run in thirty with six runs sharing two cores),
/// and a stalled pool cannot be abandoned from inside its own process;
/// a child can be killed. `None` = killed at the deadline or no result.
// The wait is on a real process in real time; no simulator is running.
#[allow(clippy::disallowed_methods)]
pub fn threaded_replay_guarded(seed: u64) -> Option<Replay> {
    let exe = std::env::current_exe().ok()?;
    let mut child = std::process::Command::new(exe)
        .args(["threaded-replay", "--seed", &seed.to_string()])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .ok()?;
    let sw = Stopwatch::start();
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if sw.secs() < REPLAY_DEADLINE_S => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            _ => {
                // SIGKILL, then reap: no process outlives the run.
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
        }
    }
    // The child has exited and its one line fits the pipe's buffer.
    let mut stdout = String::new();
    std::io::Read::read_to_string(child.stdout.as_mut()?, &mut stdout).ok()?;
    stdout.lines().rev().find_map(Replay::from_line)
}

/// Replays the first programs of the `dispatch_fresh` inputs once on
/// the deterministic executor and once on `Threaded { workers: 2 }`.
/// The threaded backend's timers are wall-clock, so it yields no sim
/// metrics; only its host throughput relative to the deterministic
/// backend is reported.
pub fn threaded_replay(seed: u64) -> Replay {
    let run = |threaded: bool| -> (f64, u64, bool) {
        let ops = gen::dispatch_fresh_sized(seed, REPLAY_PROGRAMS);
        let mut exec = if threaded {
            sim::threaded_executor(2, seed)
        } else {
            sim::deterministic_executor(seed)
        };
        let rt = core_client::build_runtime_on(
            &exec,
            net::cluster(&SHAPE),
            net::params(),
            core_client::config(),
        );
        let rm = core_resource::manager_of(&rt);
        let topo = core_client::topology(&rt);
        let sw = Stopwatch::start();
        let jobs: Vec<_> = ops
            .tenants
            .into_iter()
            .enumerate()
            .map(|(i, programs)| {
                let island = i as u32;
                let n = programs.len();
                exec.spawn(
                    format!("tenant-{island}"),
                    tenant(
                        core_client::client_of(&rt, net::first_host(&topo, island)),
                        Arc::clone(&rm),
                        core_sched::scheduler_of(&rt, island),
                        island,
                        Arc::new(programs),
                        0..n,
                        0,
                    ),
                )
            })
            .collect();
        let completed = sim::run_executor(&mut exec);
        let secs = sw.secs();
        let ok: u64 = jobs
            .into_iter()
            .map(|j| j.try_take().map_or(0, |t| t.ok))
            .sum();
        (ok as f64 / secs, ok, completed)
    };
    let (deterministic_pps, programs, det_done) = run(false);
    let before = sim::lock_contended();
    let (threaded_pps, threaded_programs, thr_done) = run(true);
    Replay {
        deterministic_pps,
        threaded_pps,
        programs,
        contended: sim::lock_contended() - before,
        completed: det_done && thr_done && programs == threaded_programs,
    }
}

#[cfg(test)]
mod tests {
    use super::Replay;

    #[test]
    fn replay_line_round_trips_and_rejects_other_lines() {
        let r = Replay {
            deterministic_pps: 2421.625,
            threaded_pps: 852.5,
            programs: 768,
            contended: 131,
            completed: true,
        };
        let back = Replay::from_line(&r.to_line()).expect("parses its own line");
        assert_eq!(back.deterministic_pps, r.deterministic_pps);
        assert_eq!(back.threaded_pps, r.threaded_pps);
        assert_eq!(
            (back.programs, back.contended, back.completed),
            (768, 131, true)
        );
        assert!(Replay::from_line("# pwbench dispatch_fresh").is_none());
        assert!(Replay::from_line("replay 1 2 3").is_none());
    }
}
