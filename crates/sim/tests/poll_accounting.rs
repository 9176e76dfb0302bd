//! Poll-accounting pin for the deterministic backend.
//!
//! One fixed small program — nested spawns, sleeps sharing a deadline,
//! an event ping-pong, a task woken twice before it runs, and finished
//! tasks woken late — whose exact `poll_count()` and poll order were
//! recorded on the executor as it stood before the cheap-task rework
//! (hash-map task table, one fresh waker per poll). Hot-path work on the
//! executor must not add, drop or reorder polls: every wake queues
//! exactly one poll, FIFO; a wake for a finished task is dropped without
//! counting; timers fire in `(deadline, registration)` order.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use pathways_sim::sync::{Event, EventWait};
use pathways_sim::{Lock, Sim, SimDuration};

type PollLog = Arc<Lock<Vec<&'static str>>>;

/// Records `name` in the shared log every time the wrapped future is
/// polled.
struct Logged<F> {
    name: &'static str,
    log: PollLog,
    inner: Pin<Box<F>>,
}

impl<F: Future> Future for Logged<F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.log.lock().push(self.name);
        self.inner.as_mut().poll(cx)
    }
}

fn logged<F: Future>(name: &'static str, log: &PollLog, inner: F) -> Logged<F> {
    Logged {
        name,
        log: Arc::clone(log),
        inner: Box::pin(inner),
    }
}

/// Resolves when either event fires; registers the task's waker with
/// both, so the loser keeps a stale registration.
struct Either(EventWait, EventWait);

impl Future for Either {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let a = Pin::new(&mut self.0).poll(cx).is_ready();
        let b = Pin::new(&mut self.1).poll(cx).is_ready();
        if a || b {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

#[test]
fn fixed_program_polls_exactly_as_recorded() {
    let mut sim = Sim::new(3);
    let log: PollLog = Arc::new(Lock::new(Vec::new()));
    let us = SimDuration::from_micros;

    // Nested spawn + join: `parent` spawns `child`, awaits it.
    let h = sim.handle();
    let log2 = Arc::clone(&log);
    sim.spawn(
        "parent",
        logged("parent", &log, async move {
            let child = h.spawn(
                "child",
                logged("child", &log2, {
                    let h = h.clone();
                    async move { h.sleep(us(5)).await }
                }),
            );
            child.await;
        }),
    );

    // Three sleepers sharing one deadline, plus one earlier one armed
    // later: fires in (deadline, registration) order.
    for name in ["sleep-a", "sleep-b", "sleep-c"] {
        let h = sim.handle();
        sim.spawn(
            name,
            logged(name, &log, async move { h.sleep(us(10)).await }),
        );
    }
    let h = sim.handle();
    sim.spawn(
        "sleep-early",
        logged("sleep-early", &log, async move {
            h.yield_now().await;
            h.sleep(us(7)).await;
        }),
    );

    // Event ping-pong, three hops each way.
    let ping: Vec<Event> = (0..3).map(|_| Event::new()).collect();
    let pong: Vec<Event> = (0..3).map(|_| Event::new()).collect();
    let (ping2, pong2) = (ping.clone(), pong.clone());
    sim.spawn(
        "ping",
        logged("ping", &log, async move {
            for i in 0..3 {
                ping[i].set();
                pong[i].wait().await;
            }
        }),
    );
    sim.spawn(
        "pong",
        logged("pong", &log, async move {
            for i in 0..3 {
                ping2[i].wait().await;
                pong2[i].set();
            }
        }),
    );

    // `twice` is woken by two events set back to back before it runs
    // again: two queued polls. The first resolves the `Either` and arms
    // a sleep; the second is a spurious poll that re-arms the same
    // deadline, so the timer later fires twice — once to finish the
    // task, once stale (dropped, not counted).
    let (x, y) = (Event::new(), Event::new());
    let (x2, y2) = (x.clone(), y.clone());
    let h = sim.handle();
    sim.spawn(
        "twice",
        logged("twice", &log, async move {
            Either(x2.wait(), y2.wait()).await;
            h.sleep(us(3)).await;
        }),
    );
    let h = sim.handle();
    sim.spawn(
        "setter",
        logged("setter", &log, async move {
            h.sleep(us(1)).await;
            x.set();
            y.set();
        }),
    );

    // `loser` finishes on its first event; the second fires long after
    // and wakes a task that no longer exists.
    let (first, late) = (Event::new(), Event::new());
    let (first2, late2) = (first.clone(), late.clone());
    sim.spawn(
        "loser",
        logged("loser", &log, async move {
            Either(first2.wait(), late2.wait()).await
        }),
    );
    let h = sim.handle();
    sim.spawn(
        "late-waker",
        logged("late-waker", &log, async move {
            h.sleep(us(2)).await;
            first.set();
            h.sleep(us(18)).await;
            late.set();
        }),
    );

    let end = sim.run_to_quiescence();
    assert_eq!(end.as_nanos(), 20_000);

    let got = log.lock().clone();
    assert_eq!(got, EXPECTED_ORDER, "poll order moved");
    assert_eq!(sim.poll_count(), EXPECTED_POLLS, "poll count moved");
    assert_eq!(
        got.len() as u64,
        EXPECTED_POLLS,
        "every counted poll ran a future"
    );
}

/// Recorded at the parent of the cheap-task rework (31 polls).
const EXPECTED_POLLS: u64 = 31;
const EXPECTED_ORDER: &[&str] = &[
    // t = 0: spawn order, then FIFO wakes.
    "parent",
    "sleep-a",
    "sleep-b",
    "sleep-c",
    "sleep-early",
    "ping",
    "pong",
    "twice",
    "setter",
    "loser",
    "late-waker",
    "child",
    "sleep-early",
    "ping",
    "pong",
    "ping",
    "pong",
    "ping",
    // t = 1 us: both events wake `twice`; the second poll is spurious.
    "setter",
    "twice",
    "twice",
    // t = 2 us.
    "late-waker",
    "loser",
    // t = 4 us: two timers for `twice`; the second finds it finished.
    "twice",
    // t = 5 us, 7 us.
    "child",
    "parent",
    "sleep-early",
    // t = 10 us: shared deadline, registration order.
    "sleep-a",
    "sleep-b",
    "sleep-c",
    // t = 20 us: `late` wakes the finished `loser` (not polled).
    "late-waker",
];
