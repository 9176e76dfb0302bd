//! Executor-conformance suite: the contract both backends must honor.
//!
//! Every test runs against the deterministic virtual-time backend and
//! the work-stealing threaded backend. The deterministic leg may pin
//! exact orders (FIFO ready queue, registration-order timer firing,
//! bit-identical replay); the threaded leg asserts only the invariants
//! the `Executor` surface promises regardless of scheduling: every
//! spawned task runs, timers never fire early, per-sender channel
//! order is preserved, and dropped/aborted tasks release their state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pathways_sim::channel::channel;
use pathways_sim::sync::Notify;
use pathways_sim::{Backend, Executor, ExecutorKind, JoinHandle, Lock, SimDuration, SimTime};

const BOTH: [ExecutorKind; 2] = [
    ExecutorKind::Deterministic,
    ExecutorKind::Threaded { workers: 2 },
];

// --------------------------------------------------------- spawn ordering

/// Every spawned task runs exactly once; on the deterministic backend
/// the ready queue is FIFO, so first-poll order equals spawn order.
#[test]
fn spawn_runs_every_task_fifo_when_deterministic() {
    for kind in BOTH {
        let mut ex = Executor::new(kind, 7);
        let order: Arc<Lock<Vec<usize>>> = Arc::new(Lock::new(Vec::new()));
        for i in 0..16 {
            let order = Arc::clone(&order);
            ex.spawn(format!("t{i}"), async move {
                order.lock().push(i);
            });
        }
        assert!(ex.run().is_quiescent(), "{kind:?}");
        let mut got = order.lock().clone();
        if kind.backend() == Backend::Deterministic {
            assert_eq!(got, (0..16).collect::<Vec<_>>(), "{kind:?}");
        } else {
            got.sort_unstable();
            assert_eq!(got, (0..16).collect::<Vec<_>>(), "{kind:?}");
        }
    }
}

/// Tasks spawned from inside tasks also run to completion.
#[test]
fn nested_spawns_complete() {
    for kind in BOTH {
        let mut ex = Executor::new(kind, 7);
        let count = Arc::new(Lock::new(0u32));
        let h = ex.handle();
        let count2 = Arc::clone(&count);
        ex.spawn("outer", async move {
            let mut inner = Vec::new();
            for i in 0..8 {
                let count = Arc::clone(&count2);
                inner.push(h.spawn(format!("inner{i}"), async move {
                    *count.lock() += 1;
                }));
            }
            pathways_sim::join_all(inner).await;
            *count2.lock() += 100;
        });
        assert!(ex.run().is_quiescent(), "{kind:?}");
        assert_eq!(*count.lock(), 108, "{kind:?}");
    }
}

// -------------------------------------------------------- timer behavior

/// Timers sharing one deadline all fire, never early; on the
/// deterministic backend they fire at exactly the deadline, in
/// registration order, and the run ends at that instant.
#[test]
fn timer_coalescing_shared_deadline() {
    for kind in BOTH {
        let mut ex = Executor::new(kind, 7);
        let deadline = SimDuration::from_millis(1);
        let woke: Arc<Lock<Vec<(usize, SimTime)>>> = Arc::new(Lock::new(Vec::new()));
        for i in 0..8 {
            let h = ex.handle();
            let woke = Arc::clone(&woke);
            ex.spawn(format!("timer{i}"), async move {
                h.sleep(deadline).await;
                woke.lock().push((i, h.now()));
            });
        }
        let outcome = ex.run();
        assert!(outcome.is_quiescent(), "{kind:?}: {outcome:?}");
        let woke = woke.lock().clone();
        assert_eq!(woke.len(), 8, "{kind:?}");
        let exact = SimTime::ZERO + deadline;
        for &(i, at) in &woke {
            assert!(at >= exact, "{kind:?}: timer {i} fired early at {at:?}");
        }
        if kind.backend() == Backend::Deterministic {
            let order: Vec<usize> = woke.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, (0..8).collect::<Vec<_>>(), "registration order");
            assert!(woke.iter().all(|&(_, at)| at == exact), "{woke:?}");
            assert_eq!(outcome.time(), exact);
        }
    }
}

/// Distinct deadlines fire in deadline order on the deterministic
/// backend; on both backends each sleeper observes `now >= deadline`.
#[test]
fn timers_fire_in_deadline_order() {
    for kind in BOTH {
        let mut ex = Executor::new(kind, 7);
        let woke: Arc<Lock<Vec<u64>>> = Arc::new(Lock::new(Vec::new()));
        // Spawn in reverse-deadline order to rule out spawn-order luck.
        for ms in [8u64, 4, 2, 1] {
            let h = ex.handle();
            let woke = Arc::clone(&woke);
            ex.spawn(format!("sleep{ms}ms"), async move {
                h.sleep(SimDuration::from_millis(ms)).await;
                woke.lock().push(ms);
            });
        }
        assert!(ex.run().is_quiescent(), "{kind:?}");
        let woke = woke.lock().clone();
        if kind.backend() == Backend::Deterministic {
            assert_eq!(woke, vec![1, 2, 4, 8], "{kind:?}");
        } else {
            let mut sorted = woke.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![1, 2, 4, 8], "{kind:?}: {woke:?}");
        }
    }
}

/// A `sleep_until` a deadline already in the past resolves without
/// arming a timer, and time never runs backward across it.
#[test]
fn past_deadline_sleep_resolves_immediately() {
    for kind in BOTH {
        let mut ex = Executor::new(kind, 7);
        let h = ex.handle();
        let done = ex.spawn("past", async move {
            h.sleep(SimDuration::from_millis(1)).await;
            let before = h.now();
            h.sleep_until(SimTime::ZERO).await;
            let after = h.now();
            assert!(
                after >= before,
                "time ran backward: {before:?} -> {after:?}"
            );
            true
        });
        assert!(ex.run().is_quiescent(), "{kind:?}");
        assert_eq!(done.try_take(), Some(true), "{kind:?}");
    }
}

// ------------------------------------------------------- channel fairness

/// With several senders racing one receiver: nothing is lost or
/// duplicated, and each sender's messages arrive in its send order. On
/// the deterministic backend the full interleaving replays
/// bit-identically across runs.
#[test]
fn channel_fairness_and_per_sender_order() {
    const SENDERS: usize = 4;
    const PER_SENDER: usize = 16;

    let run = |kind: ExecutorKind| -> Vec<(usize, usize)> {
        let mut ex = Executor::new(kind, 7);
        let (tx, mut rx) = channel::<(usize, usize)>();
        for s in 0..SENDERS {
            let h = ex.handle();
            let tx = tx.clone();
            ex.spawn(format!("sender{s}"), async move {
                for k in 0..PER_SENDER {
                    tx.send((s, k)).expect("receiver alive");
                    // Yield between sends so senders interleave.
                    h.yield_now().await;
                }
            });
        }
        drop(tx);
        let received = ex.spawn("receiver", async move {
            let mut got = Vec::new();
            while let Some(msg) = rx.recv().await {
                got.push(msg);
            }
            got
        });
        assert!(ex.run().is_quiescent(), "{kind:?}");
        received.try_take().expect("receiver finished")
    };

    for kind in BOTH {
        let got = run(kind);
        assert_eq!(got.len(), SENDERS * PER_SENDER, "{kind:?}");
        // Per-sender FIFO: each sender's k values form 0..PER_SENDER in
        // order within the merged stream.
        for s in 0..SENDERS {
            let ks: Vec<usize> = got
                .iter()
                .filter(|(fs, _)| *fs == s)
                .map(|&(_, k)| k)
                .collect();
            assert_eq!(
                ks,
                (0..PER_SENDER).collect::<Vec<_>>(),
                "{kind:?} sender {s}"
            );
        }
        if kind.backend() == Backend::Deterministic {
            assert_eq!(got, run(kind), "deterministic interleaving must replay");
        }
    }
}

// ------------------------------------------------------- drop-on-shutdown

/// Sets its flag when dropped — stands in for any resource a task owns.
struct DropFlag(Arc<AtomicBool>);

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A task parked forever is reported as stuck, and dropping the
/// executor drops the task's future (its owned state is released, not
/// leaked) on both backends.
#[test]
fn shutdown_drops_pending_tasks() {
    for kind in BOTH {
        let mut ex = Executor::new(kind, 7);
        let dropped = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(Notify::new());
        let flag = DropFlag(Arc::clone(&dropped));
        let gate2 = Arc::clone(&gate);
        ex.spawn("parked-forever", async move {
            let _flag = flag;
            gate2.notified().await;
        });
        let outcome = ex.run();
        assert!(outcome.is_deadlock(), "{kind:?}: {outcome:?}");
        assert!(
            !dropped.load(Ordering::SeqCst),
            "{kind:?}: future dropped while executor still owns it"
        );
        drop(ex);
        assert!(
            dropped.load(Ordering::SeqCst),
            "{kind:?}: shutdown leaked the pending task's state"
        );
    }
}

/// `JoinHandle::abort` removes the task: it never runs again and its
/// owned state is dropped, on both backends.
#[test]
fn abort_drops_task_state() {
    for kind in BOTH {
        let mut ex = Executor::new(kind, 7);
        let dropped = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(Notify::new());
        let flag = DropFlag(Arc::clone(&dropped));
        let (gate2, ran2) = (Arc::clone(&gate), Arc::clone(&ran));
        let victim = ex.spawn("victim", async move {
            let _flag = flag;
            gate2.notified().await;
            ran2.store(true, Ordering::SeqCst);
        });
        victim.abort();
        gate.notify_one();
        let outcome = ex.run();
        assert!(outcome.is_quiescent(), "{kind:?}: {outcome:?}");
        assert!(
            dropped.load(Ordering::SeqCst),
            "{kind:?}: aborted task's state not dropped"
        );
        assert!(
            !ran.load(Ordering::SeqCst),
            "{kind:?}: aborted task ran past its park point"
        );
    }
}

/// A task that aborts itself through its own `JoinHandle` stops at its
/// next suspension point: the poll in progress returns, the future is
/// dropped (its owned state released), and the task never resumes — on
/// both backends.
#[test]
fn abort_from_inside_the_running_task() {
    for kind in BOTH {
        let mut ex = Executor::new(kind, 7);
        let dropped = Arc::new(AtomicBool::new(false));
        let resumed = Arc::new(AtomicBool::new(false));
        let own_handle: Arc<Lock<Option<JoinHandle<()>>>> = Arc::new(Lock::new(None));
        // Holds the task back until its handle has been stored.
        let gate = Arc::new(Notify::new());
        let flag = DropFlag(Arc::clone(&dropped));
        let (own2, gate2, resumed2) = (
            Arc::clone(&own_handle),
            Arc::clone(&gate),
            Arc::clone(&resumed),
        );
        let h = ex.handle();
        let task = ex.spawn("self-abort", async move {
            let _flag = flag;
            gate2.notified().await;
            own2.lock().as_ref().expect("handle stored").abort();
            h.sleep(SimDuration::from_millis(1)).await;
            resumed2.store(true, Ordering::SeqCst);
        });
        *own_handle.lock() = Some(task);
        gate.notify_one();
        let outcome = ex.run();
        assert!(outcome.is_quiescent(), "{kind:?}: {outcome:?}");
        assert!(
            dropped.load(Ordering::SeqCst),
            "{kind:?}: self-aborted task's state not dropped"
        );
        assert!(
            !resumed.load(Ordering::SeqCst),
            "{kind:?}: self-aborted task resumed after its abort"
        );
    }
}
