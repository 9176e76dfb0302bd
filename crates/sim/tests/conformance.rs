//! Executor-conformance suite: the contract both backends must honor.
//!
//! Every test but the last runs against the deterministic virtual-time
//! backend and the shared-queue threaded backend. The deterministic leg
//! may pin exact orders (FIFO ready queue, registration-order timer
//! firing, bit-identical replay); the threaded leg asserts only the
//! invariants the `Executor` surface promises regardless of scheduling:
//! every spawned task runs, timers never fire early, per-sender channel
//! order is preserved, and dropped/aborted tasks release their state.
//! The last test is threaded only: a deadlock inside polls is reported,
//! not hung.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use pathways_sim::channel::{channel, RecvError};
use pathways_sim::exec::threaded::STALL_BOUND;
use pathways_sim::sync::{first_set, Event};
use pathways_sim::{
    join_each, Executor, ExecutorKind, JoinHandle, Lock, RunOutcome, SimDuration, SimTime,
    ThreadedExecutor, TraceLog,
};

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
        if kind == ExecutorKind::Deterministic {
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
        if kind == ExecutorKind::Deterministic {
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
        if kind == ExecutorKind::Deterministic {
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
        if kind == ExecutorKind::Deterministic {
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
        let gate = Event::new();
        let flag = DropFlag(Arc::clone(&dropped));
        let gate2 = gate.clone();
        ex.spawn("parked-forever", async move {
            let _flag = flag;
            gate2.wait().await;
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
        let gate = Event::new();
        let flag = DropFlag(Arc::clone(&dropped));
        let (gate2, ran2) = (gate.clone(), Arc::clone(&ran));
        let victim = ex.spawn("victim", async move {
            let _flag = flag;
            gate2.wait().await;
            ran2.store(true, Ordering::SeqCst);
        });
        victim.abort();
        gate.set();
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
        let gate = Event::new();
        let flag = DropFlag(Arc::clone(&dropped));
        let (own2, gate2, resumed2) = (Arc::clone(&own_handle), gate.clone(), Arc::clone(&resumed));
        let h = ex.handle();
        let task = ex.spawn("self-abort", async move {
            let _flag = flag;
            gate2.wait().await;
            own2.lock().as_ref().expect("handle stored").abort();
            h.sleep(SimDuration::from_millis(1)).await;
            resumed2.store(true, Ordering::SeqCst);
        });
        *own_handle.lock() = Some(task);
        gate.set();
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

// ------------------------------------------------------ in-task helpers

/// Appends `id` to the shared log each time the wrapped future is
/// polled.
struct Logged<F> {
    id: usize,
    log: Arc<Lock<Vec<usize>>>,
    inner: Pin<Box<F>>,
}

impl<F: Future> Future for Logged<F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.log.lock().push(self.id);
        self.inner.as_mut().poll(cx)
    }
}

fn logged<F: Future>(id: usize, log: &Arc<Lock<Vec<usize>>>, inner: F) -> Logged<F> {
    Logged {
        id,
        log: Arc::clone(log),
        inner: Box::pin(inner),
    }
}

/// `join_each` first-polls every child once, in index order, then polls
/// only the children whose wakers fired, in wake order — never one
/// nobody woke.
#[test]
fn join_each_polls_only_woken_children_in_wake_order() {
    const N: usize = 5;
    for kind in BOTH {
        let mut ex = Executor::new(kind, 7);
        let log: Arc<Lock<Vec<usize>>> = Arc::new(Lock::new(Vec::new()));
        let events: Vec<Event> = (0..N).map(|_| Event::new()).collect();
        let started = Event::new();
        let mut children: Vec<Pin<Box<dyn Future<Output = ()> + Send>>> = events
            .iter()
            .enumerate()
            .map(|(i, ev)| Box::pin(logged(i, &log, ev.wait())) as Pin<Box<_>>)
            .collect();
        // Polled last on the first pass: every other child has been too.
        let started2 = started.clone();
        children.push(Box::pin(logged(N, &log, async move { started2.set() })));
        ex.spawn("join", join_each(children));
        let order = [3, 1, 4, 0, 2];
        ex.spawn("setter", async move {
            started.wait().await;
            for i in order {
                events[i].set();
            }
        });
        assert!(ex.run().is_quiescent(), "{kind:?}");
        let first_pass: Vec<usize> = (0..=N).collect();
        let expected: Vec<usize> = first_pass.into_iter().chain(order).collect();
        assert_eq!(*log.lock(), expected, "{kind:?}");
    }
}

/// A sleeping child arms exactly one timer: the join re-polls it only
/// when that timer fires, however often its siblings wake the join.
#[test]
fn join_each_child_sleep_arms_one_timer() {
    for kind in BOTH {
        let mut ex = Executor::new(kind, 7);
        let log: Arc<Lock<Vec<usize>>> = Arc::new(Lock::new(Vec::new()));
        let h = ex.handle();
        let sleeper = {
            let h = h.clone();
            async move { h.sleep(SimDuration::from_millis(1)).await }
        };
        let yielder = async move {
            for _ in 0..8 {
                h.yield_now().await;
            }
        };
        let children: Vec<Pin<Box<dyn Future<Output = ()> + Send>>> = vec![
            Box::pin(logged(0, &log, sleeper)),
            Box::pin(logged(1, &log, yielder)),
        ];
        ex.spawn("join", join_each(children));
        let outcome = ex.run();
        assert!(outcome.is_quiescent(), "{kind:?}");
        let log = log.lock().clone();
        let polls = |i| log.iter().filter(|&&c| c == i).count();
        assert_eq!((polls(0), polls(1)), (2, 9), "{kind:?}: {log:?}");
        if kind == ExecutorKind::Deterministic {
            assert_eq!(outcome.time(), SimTime::ZERO + SimDuration::from_millis(1));
        }
    }
}

/// `first_set` completes its receiver once, from whichever event is set
/// first, without a task; at once if an event already is; and with an
/// error if both events die unset.
#[test]
fn first_set_fires_once_on_the_first_event() {
    for kind in BOTH {
        for cancel_first in [false, true] {
            let mut ex = Executor::new(kind, 7);
            let (event, cancel, ack) = (Event::new(), Event::new(), Event::new());
            let rx = first_set(&event, Some(&cancel));
            let log: Arc<Lock<Vec<usize>>> = Arc::new(Lock::new(Vec::new()));
            let (e2, c2, ack2) = (event.clone(), cancel.clone(), ack.clone());
            let waiter = ex.spawn("waiter", async move {
                let got = logged(0, &log, rx).await;
                let seen = (e2.is_set(), c2.is_set());
                ack2.set();
                (got, seen, log.lock().len())
            });
            let (first, second) = if cancel_first {
                (cancel.clone(), event.clone())
            } else {
                (event.clone(), cancel.clone())
            };
            ex.spawn("setter", async move {
                first.set();
                ack.wait().await;
                second.set();
            });
            assert!(ex.run().is_quiescent(), "{kind:?}");
            let (got, seen, polls) = waiter.try_take().expect("waiter finished");
            assert_eq!(got, Ok(()), "{kind:?}");
            assert_eq!(seen, (!cancel_first, cancel_first), "{kind:?}");
            assert!(polls <= 2, "{kind:?}: woken {polls} times");
        }
    }
    // Already set: ready on the first poll. Neither ever set: `Err` once
    // both events are gone.
    let mut cx = Context::from_waker(Waker::noop());
    for (event, cancel) in [(true, false), (false, true)] {
        let (e, c) = (Event::new(), Event::new());
        for (ev, set) in [(&e, event), (&c, cancel)] {
            if set {
                ev.set();
            }
        }
        let mut rx = first_set(&e, Some(&c));
        assert_eq!(Pin::new(&mut rx).poll(&mut cx), Poll::Ready(Ok(())));
    }
    let (e, c) = (Event::new(), Event::new());
    let mut rx = first_set(&e, Some(&c));
    assert!(Pin::new(&mut rx).poll(&mut cx).is_pending());
    drop((e, c));
    assert_eq!(Pin::new(&mut rx).poll(&mut cx), Poll::Ready(Err(RecvError)));
}

// ------------------------------------------------- deadlock inside a poll

// ------------------------------------------------------------ trace spans

/// A span label that counts how often it is turned into a string.
struct CountedLabel(Arc<AtomicUsize>);

impl From<CountedLabel> for Arc<str> {
    fn from(label: CountedLabel) -> Arc<str> {
        label.0.fetch_add(1, Ordering::Relaxed);
        "k".into()
    }
}

/// Spans are recorded only when asked. Off (the default), `trace_span`
/// builds no label, `with_trace` does not run, and `take_trace` is
/// empty; on, every span lands in recording order.
#[test]
fn spans_are_recorded_only_when_asked() {
    let at = SimTime::from_nanos;
    for kind in BOTH {
        for on in [false, true] {
            let mut ex = Executor::new(kind, 7);
            let h = ex.handle();
            if on {
                h.record_trace(true);
            }
            assert_eq!(h.tracing(), on, "{kind:?}");
            let built = Arc::new(AtomicUsize::new(0));
            let built_task = Arc::clone(&built);
            ex.spawn("tracer", async move {
                for i in 0..3 {
                    let label = CountedLabel(Arc::clone(&built_task));
                    h.trace_span("dev", label, at(10 * i), at(10 * i + 5));
                    h.sleep(SimDuration::from_micros(1)).await;
                }
                h.with_trace(|t| t.record("dev", "end", at(30), at(30)));
            });
            assert!(ex.run().is_quiescent(), "{kind:?}");
            let mut want = TraceLog::new();
            if on {
                for i in 0..3 {
                    want.record("dev", "k", at(10 * i), at(10 * i + 5));
                }
                want.record("dev", "end", at(30), at(30));
            }
            assert_eq!(ex.take_trace(), want, "{kind:?} recording={on}");
            let labels = if on { 3 } else { 0 };
            assert_eq!(built.load(Ordering::Relaxed), labels, "{kind:?}");
        }
    }
}

/// Two tasks that deadlock *inside* their polls — each holds one `Lock`
/// and blocks on the other's — can never be woken, and the pool cannot
/// tell a blocked poll from a slow one. Once polls have been in progress
/// for `STALL_BOUND` with none finishing, `run` reports `Deadlock`
/// naming both tasks, and dropping the executor detaches the two stuck
/// workers instead of joining them. Threaded only: on the deterministic
/// backend the second `lock()` would panic as re-entrant.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "drops the executor off the test thread"
)]
fn threaded_deadlock_inside_polls_is_reported_not_hung() {
    let mut ex = ThreadedExecutor::new(2, 7);
    let (a, b) = (Arc::new(Lock::new(())), Arc::new(Lock::new(())));
    let meet = Arc::new(Barrier::new(2));
    for (name, first, second) in [("a-then-b", &a, &b), ("b-then-a", &b, &a)] {
        let (first, second, meet) = (Arc::clone(first), Arc::clone(second), Arc::clone(&meet));
        ex.spawn(name, async move {
            let _held = first.lock();
            meet.wait();
            drop(second.lock());
        });
    }
    let outcome = ex.run();
    let RunOutcome::Deadlock { time, stuck_tasks } = outcome else {
        panic!("expected a deadlock, got {outcome:?}");
    };
    assert_eq!(stuck_tasks, ["a-then-b", "b-then-a"]);
    // Threaded time is real time since the executor started.
    let after = Duration::from_nanos(time.as_nanos());
    assert!(
        after >= STALL_BOUND && after < STALL_BOUND + Duration::from_secs(5),
        "reported after {after:?}"
    );
    let (dropped_tx, dropped_rx) = mpsc::channel();
    std::thread::spawn(move || {
        drop(ex);
        let _ = dropped_tx.send(());
    });
    dropped_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("dropping the deadlocked executor hung");
}
