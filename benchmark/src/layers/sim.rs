//! Layer `sim`: the executor (tasks, timers, events, channels, trace
//! log, named-lock profile).

use std::collections::BTreeMap;

use pathways::sim::sync::Event;
use pathways::sim::{channel, contention_profile, ExecutorKind, RunOutcome, SimDuration, SimTime};
pub use pathways::sim::{Executor, JoinHandle, Sim, SimHandle};

use super::{Named, Shape, SIM};
use crate::clock::Stopwatch;
use crate::span::{self, Parent, Prog, Token};

pub fn new_sim(seed: u64) -> Sim {
    span::sync("Sim::new", SIM, || Sim::new(seed))
}

/// Virtual nanoseconds now.
pub fn now_ns(h: &SimHandle) -> u64 {
    (h.now() - SimTime::ZERO).as_nanos()
}

pub fn sim_now_ns(sim: &Sim) -> u64 {
    (sim.now() - SimTime::ZERO).as_nanos()
}

pub async fn sleep_ns(h: &SimHandle, ns: u64) {
    h.sleep(SimDuration::from_nanos(ns)).await;
}

/// Opens the boundary span of a driver call into `layer` made on
/// behalf of `prog`, stamped with both clocks. `awaits` marks calls
/// that cover an `await`; `units` is how many items the call handles.
pub fn enter(
    h: &SimHandle,
    layer: &'static str,
    name: &'static str,
    units: u32,
    awaits: bool,
    prog: Prog,
) -> Token {
    span::open(
        name,
        layer,
        Parent::Of(prog.root),
        prog.id,
        units,
        awaits,
        || now_ns(h),
    )
}

/// Closes a span opened by [`enter`].
pub fn leave(h: &SimHandle, token: Token) {
    span::close(token, || now_ns(h));
}

/// Runs to quiescence; `Err` names the stuck tasks of a deadlock.
pub fn run(sim: &mut Sim) -> Result<(), String> {
    let handle = sim.handle();
    // Parent::Enclosing, not a program: the run is the driver's own.
    let t = span::open(
        "run_to_quiescence",
        SIM,
        Parent::Enclosing,
        0,
        1,
        false,
        || now_ns(&handle),
    );
    let outcome = sim.run();
    leave(&handle, t);
    match outcome {
        RunOutcome::Quiescent { .. } => Ok(()),
        RunOutcome::Deadlock { time, stuck_tasks } => {
            Err(format!("deadlock at {time}: stuck tasks {stuck_tasks:?}"))
        }
    }
}

/// Drains the executor's trace log (one `String` pair per kernel, so it
/// must not be left to grow) and returns how many spans it held.
pub fn drain_trace(sim: &Sim) -> usize {
    sim.take_trace().len()
}

/// Acquire counts of every named lock, process-wide and monotonic.
pub fn lock_acquires() -> BTreeMap<String, u64> {
    contention_profile()
        .into_iter()
        .map(|p| (p.name, p.acquires))
        .collect()
}

/// Blocked acquisitions summed over all named locks.
pub fn lock_contended() -> u64 {
    contention_profile().iter().map(|p| p.contended).sum()
}

pub fn counters(sim: &Sim) -> Vec<Named> {
    vec![("sim.polls", sim.poll_count() as f64)]
}

/// Host ns per executor operation, on fresh simulations.
pub fn probe(shape: &Shape) -> Vec<Named> {
    let devices = u64::from(shape.devices()).max(1);

    // Spawn + first poll + retire of a trivial task.
    const TASKS: u64 = 20_000;
    let spawn_ns = span::sync("probe.spawn", SIM, || {
        let mut sim = Sim::new(0);
        let sw = Stopwatch::start();
        for i in 0..TASKS {
            sim.spawn("t", async move { std::hint::black_box(i) });
        }
        let _ = sim.run();
        sw.nanos() / TASKS as f64
    });

    // One timer armed per device at once (a gang step arms that many),
    // each task re-arming `ROUNDS` times; per timer armed and fired.
    let rounds = (200_000 / devices).clamp(4, 256);
    let timer_ns = span::sync("probe.timer", SIM, || {
        let mut sim = Sim::new(0);
        for d in 0..devices {
            let h = sim.handle();
            sim.spawn("timer", async move {
                for r in 0..rounds {
                    h.sleep(SimDuration::from_nanos(500_000 + d % 7 + r)).await;
                }
            });
        }
        let sw = Stopwatch::start();
        let _ = sim.run();
        sw.nanos() / (devices * rounds) as f64
    });

    // Event ping-pong between two tasks: one wake + one poll per hop.
    const HOPS: u64 = 50_000;
    let wake_ns = span::sync("probe.wake", SIM, || {
        let mut sim = Sim::new(0);
        let ping: Vec<Event> = (0..HOPS).map(|_| Event::new()).collect();
        let pong: Vec<Event> = (0..HOPS).map(|_| Event::new()).collect();
        let (ping2, pong2) = (ping.clone(), pong.clone());
        sim.spawn("a", async move {
            for i in 0..HOPS as usize {
                ping[i].set();
                pong[i].wait().await;
            }
        });
        sim.spawn("b", async move {
            for i in 0..HOPS as usize {
                ping2[i].wait().await;
                pong2[i].set();
            }
        });
        let sw = Stopwatch::start();
        let _ = sim.run();
        sw.nanos() / (2 * HOPS) as f64
    });

    // Channel send + receive across two tasks.
    const MSGS: u64 = 100_000;
    let channel_msg_ns = span::sync("probe.channel", SIM, || {
        let mut sim = Sim::new(0);
        let (tx, mut rx) = channel::channel::<u64>();
        let h = sim.handle();
        sim.spawn("tx", async move {
            for i in 0..MSGS {
                let _ = tx.send(i);
                if i % 64 == 63 {
                    h.yield_now().await;
                }
            }
        });
        sim.spawn("rx", async move {
            let mut sum = 0u64;
            while let Some(v) = rx.recv().await {
                sum = sum.wrapping_add(v);
            }
            std::hint::black_box(sum)
        });
        let sw = Stopwatch::start();
        let _ = sim.run();
        sw.nanos() / MSGS as f64
    });

    vec![
        ("sim.spawn_ns", spawn_ns),
        ("sim.timer_ns", timer_ns),
        ("sim.wake_ns", wake_ns),
        ("sim.channel_msg_ns", channel_msg_ns),
    ]
}

/// A backend-erased executor on the threaded backend, for the one
/// layer metric that leaves the deterministic executor.
pub fn threaded_executor(workers: usize, seed: u64) -> Executor {
    Executor::new(ExecutorKind::Threaded { workers }, seed)
}

/// The deterministic backend behind the same erased type, so one piece
/// of code can drive both.
pub fn deterministic_executor(seed: u64) -> Executor {
    Executor::new(ExecutorKind::Deterministic, seed)
}

/// Runs a backend-erased executor to completion; true if it went
/// quiescent.
pub fn run_executor(exec: &mut Executor) -> bool {
    exec.run().is_quiescent()
}
