//! The work-stealing multi-threaded backend.
//!
//! [`ThreadedExecutor`] runs the same task surface as the deterministic
//! backend on a pool of OS threads: per-worker deques with steal, a
//! real monotonic clock behind the same timer-wheel API, and `Send`-safe
//! wakers. Time reads as nanoseconds since executor start, so latencies
//! the deterministic backend *models* are here *real* (`sleep` arms a
//! real timer).
//!
//! Scheduling structure (mirroring gpui's `Production` executor and the
//! classic Chase–Lev layout, with mutexed deques instead of lock-free
//! ones — correctness first, the deques are not the hot path):
//!
//! * Each worker owns a deque. Tasks woken *by* a worker (the common
//!   A-wakes-B case) land on that worker's own deque; spawns and wakes
//!   from outside the pool land on a shared injector.
//! * A worker takes from the front of its own deque, then the injector,
//!   then steals from the *back* of a sibling's deque.
//! * A dedicated timer thread sleeps until the wheel's next deadline
//!   and fires due batches, exactly like the deterministic run loop —
//!   but against the wall clock.
//!
//! There is deliberately no fairness or ordering guarantee beyond
//! "woken tasks eventually run": code that needs determinism runs on
//! the deterministic backend; this backend exists so the controller's
//! locking is exercised under genuine parallelism.
//!
//! Task panics are caught on the worker, recorded, and re-raised from
//! [`ThreadedExecutor::run`] on the driving thread — the same
//! "panic propagates to the runner" behavior the deterministic backend
//! has by construction.

// Real wall-clock time and raw std sync primitives are the whole point
// of this module; the clippy and pathlint bans apply everywhere else.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::VecDeque;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::hash::FxHashMap;
use crate::time::SimTime;
use crate::trace::TraceLog;
use crate::wheel::TimerWheel;

use super::{
    Backend, ExecutorBackend, ExecutorRef, IdleToken, RunOutcome, SimHandle, TaskFuture, TaskId,
    TaskName,
};

/// Locks a std mutex, shrugging off poisoning (a worker that panicked
/// mid-poll never holds these locks across the panic point; state stays
/// consistent).
fn lock_std<T>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Pending; not queued anywhere; will be queued by the next wake.
    Idle,
    /// Sitting in a deque (or the injector) awaiting a worker.
    Queued,
    /// Being polled by a worker right now.
    Running,
    /// Finished (or aborted); the future is gone.
    Complete,
}

struct SlotInner {
    state: SlotState,
    /// Present iff state is `Idle` or `Queued`; a `Running` worker owns
    /// the future outside the lock so polls never block wakes.
    future: Option<TaskFuture>,
    /// A wake arrived while the task was `Running`; re-queue on return.
    woken: bool,
    /// Task was aborted; complete it at the next transition.
    aborted: bool,
}

/// One spawned task: its state machine plus identity.
struct TaskSlot {
    id: TaskId,
    name: TaskName,
    idle: Option<IdleToken>,
    inner: Mutex<SlotInner>,
}

struct SlotWaker {
    slot: Arc<TaskSlot>,
    core: Weak<ThreadedCore>,
}

impl Wake for SlotWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let Some(core) = self.core.upgrade() else {
            return;
        };
        let enqueue = {
            let mut inner = self.slot.inner.lock();
            match inner.state {
                SlotState::Idle => {
                    inner.state = SlotState::Queued;
                    true
                }
                SlotState::Running => {
                    inner.woken = true;
                    false
                }
                // Already queued or gone: the wake is subsumed.
                SlotState::Queued | SlotState::Complete => false,
            }
        };
        if enqueue {
            core.enqueue(Arc::clone(&self.slot));
        }
    }
}

struct TimerState {
    wheel: TimerWheel<Waker>,
    next_seq: u64,
}

/// Shared core of the threaded executor; handles hold a `Weak` to it.
struct ThreadedCore {
    start: Instant,
    rng: Mutex<StdRng>,
    trace: Mutex<TraceLog>,
    timers: StdMutex<TimerState>,
    timer_cv: Condvar,
    /// Spawns and wakes from outside the pool land here.
    injector: Mutex<VecDeque<Arc<TaskSlot>>>,
    /// Per-worker deques; workers pop their own front, steal others' backs.
    locals: Vec<Mutex<VecDeque<Arc<TaskSlot>>>>,
    park: StdMutex<()>,
    work_cv: Condvar,
    /// Every live task by id (for abort, shutdown, and stuck reporting).
    registry: Mutex<FxHashMap<TaskId, Arc<TaskSlot>>>,
    next_task: AtomicU64,
    /// Spawned minus completed/aborted.
    live: AtomicUsize,
    /// Tasks currently sitting in the injector or a local deque.
    queued: AtomicUsize,
    /// Workers currently inside a poll (or its requeue epilogue).
    in_flight: AtomicUsize,
    polls: AtomicU64,
    shutdown: AtomicBool,
    /// First task panic, re-raised from `run` on the driving thread.
    panic: StdMutex<Option<Box<dyn std::any::Any + Send>>>,
}

thread_local! {
    /// `(core pointer, worker index)` of the pool thread we are on, so
    /// wakes issued from a worker go to that worker's own deque.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> = const { std::cell::Cell::new(None) };
}

impl ThreadedCore {
    fn elapsed(&self) -> SimTime {
        SimTime::from_nanos(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Queues a runnable slot (state already set to `Queued`) and wakes
    /// a parked worker.
    fn enqueue(&self, slot: Arc<TaskSlot>) {
        self.queued.fetch_add(1, Ordering::SeqCst);
        let me = std::ptr::from_ref(self) as usize;
        let local = WORKER.with(|w| match w.get() {
            Some((core, idx)) if core == me => Some(idx),
            _ => None,
        });
        match local {
            Some(idx) => self.locals[idx].lock().push_back(slot),
            None => self.injector.lock().push_back(slot),
        }
        drop(lock_std(&self.park));
        self.work_cv.notify_one();
    }

    /// Next runnable slot for worker `idx`: own front, injector, then
    /// steal a sibling's back.
    ///
    /// Each source is tried in its own statement so its lock guard drops
    /// before the next acquisition. Chaining them with `or_else` keeps
    /// the earlier guards alive for the whole expression (temporaries
    /// live to the end of the statement), and two workers stealing from
    /// each other then deadlock: A holds `locals[a]` + `injector` and
    /// wants `locals[b]` while B holds `locals[b]` and wants `injector`.
    fn find_work(&self, idx: usize) -> Option<Arc<TaskSlot>> {
        let mut slot = self.locals[idx].lock().pop_front();
        if slot.is_none() {
            slot = self.injector.lock().pop_front();
        }
        if slot.is_none() {
            let n = self.locals.len();
            slot = (1..n)
                .map(|off| (idx + off) % n)
                .find_map(|victim| self.locals[victim].lock().pop_back());
        }
        let slot = slot?;
        self.queued.fetch_sub(1, Ordering::SeqCst);
        Some(slot)
    }

    /// Marks a slot complete and drops bookkeeping. The future (if any)
    /// is returned to the caller to drop outside all locks.
    fn finish(&self, slot: &Arc<TaskSlot>) {
        self.registry.lock().remove(&slot.id);
        self.live.fetch_sub(1, Ordering::SeqCst);
    }

    /// Runs one slot: claim, poll outside locks, then retire or requeue.
    fn run_slot(self: &Arc<Self>, slot: Arc<TaskSlot>) {
        let mut future = {
            let mut inner = slot.inner.lock();
            if inner.aborted {
                inner.state = SlotState::Complete;
                let dropped = inner.future.take();
                drop(inner);
                drop(dropped);
                self.finish(&slot);
                return;
            }
            debug_assert_eq!(inner.state, SlotState::Queued, "dequeued a non-queued slot");
            inner.state = SlotState::Running;
            inner.woken = false;
            match inner.future.take() {
                Some(f) => f,
                None => {
                    inner.state = SlotState::Complete;
                    drop(inner);
                    self.finish(&slot);
                    return;
                }
            }
        };
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let waker = Waker::from(Arc::new(SlotWaker {
            slot: Arc::clone(&slot),
            core: Arc::downgrade(self),
        }));
        let mut cx = Context::from_waker(&waker);
        let polled = std::panic::catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx)));
        self.polls.fetch_add(1, Ordering::Relaxed);
        match polled {
            Err(payload) => {
                lock_std(&self.panic).get_or_insert(payload);
                slot.inner.lock().state = SlotState::Complete;
                drop(future);
                self.finish(&slot);
            }
            Ok(Poll::Ready(())) => {
                slot.inner.lock().state = SlotState::Complete;
                drop(future);
                self.finish(&slot);
            }
            Ok(Poll::Pending) => {
                let (requeue, dropped) = {
                    let mut inner = slot.inner.lock();
                    if inner.aborted {
                        inner.state = SlotState::Complete;
                        (false, Some(future))
                    } else if inner.woken {
                        inner.woken = false;
                        inner.state = SlotState::Queued;
                        inner.future = Some(future);
                        (true, None)
                    } else {
                        inner.state = SlotState::Idle;
                        inner.future = Some(future);
                        (false, None)
                    }
                };
                if let Some(f) = dropped {
                    drop(f);
                    self.finish(&slot);
                } else if requeue {
                    self.enqueue(Arc::clone(&slot));
                }
            }
        }
        // Decrement only after any requeue so quiescence detection never
        // observes queued == 0 && in_flight == 0 with a wake imminent.
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    fn worker_loop(self: Arc<Self>, idx: usize) {
        WORKER.with(|w| w.set(Some((Arc::as_ptr(&self) as usize, idx))));
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            match self.find_work(idx) {
                Some(slot) => self.run_slot(slot),
                None => {
                    let guard = lock_std(&self.park);
                    if self.queued.load(Ordering::SeqCst) == 0
                        && !self.shutdown.load(Ordering::Acquire)
                    {
                        let _ = self.work_cv.wait_timeout(guard, Duration::from_millis(2));
                    }
                }
            }
        }
        WORKER.with(|w| w.set(None));
    }

    /// Fires due timer batches and sleeps until the next deadline (or a
    /// `register_timer` that becomes the new earliest).
    fn timer_loop(self: Arc<Self>) {
        let mut fired: Vec<Waker> = Vec::new();
        let mut guard = lock_std(&self.timers);
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let now = self.elapsed();
            if guard.wheel.pop_batch_into(now, &mut fired).is_some() {
                // Wake outside the timer lock: wakes take slot and deque
                // locks and may themselves register timers.
                drop(guard);
                for w in fired.drain(..) {
                    w.wake();
                }
                guard = lock_std(&self.timers);
                continue;
            }
            let wait = match guard.wheel.next_deadline() {
                Some(d) => {
                    let now = self.elapsed();
                    if d <= now {
                        continue;
                    }
                    Duration::from_nanos(d.duration_since(now).as_nanos())
                        .min(Duration::from_millis(50))
                }
                None => Duration::from_millis(50),
            };
            // No insert can slip between this check and the wait: both
            // hold the timer mutex.
            guard = self
                .timer_cv
                .wait_timeout(guard, wait)
                .map_or_else(|e| e.into_inner().0, |(g, _)| g);
        }
    }
}

impl ExecutorBackend for ThreadedCore {
    fn backend(&self) -> Backend {
        Backend::Threaded
    }

    fn now(&self) -> SimTime {
        self.elapsed()
    }

    fn spawn_task(&self, name: TaskName, idle: Option<IdleToken>, future: TaskFuture) -> TaskId {
        let id = TaskId(self.next_task.fetch_add(1, Ordering::SeqCst));
        let slot = Arc::new(TaskSlot {
            id,
            name,
            idle,
            inner: Mutex::new(SlotInner {
                state: SlotState::Queued,
                future: Some(future),
                woken: false,
                aborted: false,
            }),
        });
        self.registry.lock().insert(id, Arc::clone(&slot));
        self.live.fetch_add(1, Ordering::SeqCst);
        self.enqueue(slot);
        id
    }

    fn abort_task(&self, id: TaskId) {
        let slot = self.registry.lock().get(&id).cloned();
        let Some(slot) = slot else { return };
        let (dropped, finished) = {
            let mut inner = slot.inner.lock();
            match inner.state {
                SlotState::Idle => {
                    inner.state = SlotState::Complete;
                    (inner.future.take(), true)
                }
                SlotState::Queued | SlotState::Running => {
                    inner.aborted = true;
                    (None, false)
                }
                SlotState::Complete => (None, false),
            }
        };
        drop(dropped);
        if finished {
            self.finish(&slot);
        }
    }

    fn register_timer(&self, deadline: SimTime, waker: Waker) {
        let mut st = lock_std(&self.timers);
        // Real time keeps moving between a task computing `now + dt`
        // and this insert: the timer thread may have advanced the wheel
        // cursor past `deadline` already. The wheel refuses timers in
        // the past, so clamp to fresh `now` (>= cursor, since the
        // cursor only advances to deadlines the timer thread has
        // already observed as elapsed) — the timer fires on the next
        // tick, which is the soonest an elapsed deadline can fire
        // anyway.
        let deadline = deadline.max(self.now());
        let was_earliest = st.wheel.next_deadline();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.wheel.insert(deadline, seq, waker);
        let now_earliest = was_earliest.is_none_or(|e| deadline < e);
        drop(st);
        if now_earliest {
            self.timer_cv.notify_one();
        }
    }

    fn rng_u64(&self) -> u64 {
        self.rng.lock().random()
    }

    fn rng_range(&self, bound: u64) -> u64 {
        self.rng.lock().random_range(0..bound)
    }

    fn with_trace_log(&self, f: &mut dyn FnMut(&mut TraceLog)) {
        f(&mut self.trace.lock())
    }

    fn poll_count(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }
}

/// A work-stealing multi-threaded executor over real monotonic time.
///
/// See the module documentation for the scheduling structure. Dropping
/// the executor shuts the pool down and drops any still-pending task
/// futures.
pub struct ThreadedExecutor {
    core: Arc<ThreadedCore>,
    /// The one handle every `handle()` call clones.
    handle: SimHandle,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for ThreadedExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadedExecutor")
            .field("workers", &self.core.locals.len())
            .field("now", &self.core.elapsed())
            .field("live_tasks", &self.core.live.load(Ordering::SeqCst))
            .finish()
    }
}

impl ThreadedExecutor {
    /// Creates a pool with `workers` threads (`0` = one per available
    /// core, capped at 8) plus one timer thread; `seed` seeds the RNG.
    pub fn new(workers: usize, seed: u64) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map_or(4, std::num::NonZeroUsize::get)
                .min(8)
        } else {
            workers
        }
        .max(1);
        let core = Arc::new(ThreadedCore {
            start: Instant::now(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            trace: Mutex::new(TraceLog::new()),
            timers: StdMutex::new(TimerState {
                wheel: TimerWheel::new(),
                next_seq: 0,
            }),
            timer_cv: Condvar::new(),
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            park: StdMutex::new(()),
            work_cv: Condvar::new(),
            registry: Mutex::new(FxHashMap::default()),
            next_task: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            polls: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            panic: StdMutex::new(None),
        });
        let mut threads = Vec::with_capacity(workers + 1);
        for idx in 0..workers {
            let core = Arc::clone(&core);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pathways-worker-{idx}"))
                    .spawn(move || core.worker_loop(idx))
                    .expect("spawn worker thread"),
            );
        }
        let timer_core = Arc::clone(&core);
        threads.push(
            std::thread::Builder::new()
                .name("pathways-timer".into())
                .spawn(move || timer_core.timer_loop())
                .expect("spawn timer thread"),
        );
        let weak: Weak<ThreadedCore> = Arc::downgrade(&core);
        ThreadedExecutor {
            core,
            handle: SimHandle::new(weak, false),
            threads,
        }
    }

    /// Number of worker threads (excluding the timer thread).
    pub fn workers(&self) -> usize {
        self.core.locals.len()
    }

    /// Returns a cloneable handle for use inside tasks.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Spawns a task and returns a handle to its eventual output.
    pub fn spawn<T: Send + 'static>(
        &self,
        name: impl Into<TaskName>,
        future: impl std::future::Future<Output = T> + Send + 'static,
    ) -> super::JoinHandle<T> {
        self.handle.spawn(name, future)
    }

    /// Nanoseconds since the executor started, as a [`SimTime`].
    pub fn now(&self) -> SimTime {
        self.core.elapsed()
    }

    /// Number of task polls performed so far.
    pub fn poll_count(&self) -> u64 {
        self.core.polls.load(Ordering::Relaxed)
    }

    /// Takes the accumulated trace events, leaving the log empty.
    pub fn take_trace(&self) -> TraceLog {
        std::mem::take(&mut self.core.trace.lock())
    }

    /// Blocks until every task completes (or only idle-parked service
    /// tasks remain), re-raising the first task panic if one occurred.
    ///
    /// Unlike the deterministic backend this cannot *prove* a deadlock —
    /// it reports one when the pool has been provably wake-free (no
    /// queued work, no running poll, no pending timer) with non-idle
    /// tasks remaining across two consecutive samples, or after
    /// `PATHWAYS_THREADED_TIMEOUT_MS` (default 30000) without progress.
    pub fn run(&mut self) -> RunOutcome {
        let timeout = std::env::var("PATHWAYS_THREADED_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .map_or(Duration::from_secs(30), Duration::from_millis);
        let core = &self.core;
        let mut last = (u64::MAX, usize::MAX);
        let mut last_progress = Instant::now();
        let mut wakefree_since: Option<Instant> = None;
        loop {
            if let Some(payload) = lock_std(&core.panic).take() {
                std::panic::resume_unwind(payload);
            }
            let live = core.live.load(Ordering::SeqCst);
            if live == 0 {
                return RunOutcome::Quiescent {
                    time: core.elapsed(),
                };
            }
            let queued = core.queued.load(Ordering::SeqCst);
            let in_flight = core.in_flight.load(Ordering::SeqCst);
            let timers_empty = lock_std(&core.timers).wheel.is_empty();
            let wake_free = queued == 0 && in_flight == 0 && timers_empty;
            if wake_free {
                let (stuck, all_idle) = self.stuck_tasks();
                if all_idle {
                    // Only parked service tasks remain: quiescent.
                    return RunOutcome::Quiescent {
                        time: core.elapsed(),
                    };
                }
                // Require the wake-free state to persist across a gap:
                // a wake could have been mid-delivery on first sight.
                match wakefree_since {
                    Some(t) if t.elapsed() > Duration::from_millis(20) => {
                        return RunOutcome::Deadlock {
                            time: core.elapsed(),
                            stuck_tasks: stuck,
                        };
                    }
                    Some(_) => {}
                    None => wakefree_since = Some(Instant::now()),
                }
            } else {
                wakefree_since = None;
            }
            let progress = (core.polls.load(Ordering::Relaxed), live);
            if progress != last {
                last = progress;
                last_progress = Instant::now();
            } else if last_progress.elapsed() > timeout {
                let (stuck, _) = self.stuck_tasks();
                return RunOutcome::Deadlock {
                    time: core.elapsed(),
                    stuck_tasks: stuck,
                };
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Names of live non-idle tasks, and whether every live task is an
    /// idle-parked service task.
    fn stuck_tasks(&self) -> (Vec<String>, bool) {
        let registry = self.core.registry.lock();
        let mut stuck: Vec<String> = registry
            .values()
            .filter(|s| !s.idle.as_ref().is_some_and(IdleToken::is_idle))
            .map(|s| s.name.to_string())
            .collect();
        let all_idle = stuck.is_empty() && !registry.is_empty() || registry.is_empty();
        drop(registry);
        stuck.sort();
        (stuck, all_idle)
    }

    /// Runs and panics with the stuck-task list on deadlock.
    ///
    /// # Panics
    ///
    /// Panics if the run deadlocks (and re-raises task panics).
    pub fn run_to_quiescence(&mut self) -> SimTime {
        match self.run() {
            RunOutcome::Quiescent { time } => time,
            RunOutcome::Deadlock { time, stuck_tasks } => {
                panic!("threaded executor stalled at {time} with stuck tasks: {stuck_tasks:?}")
            }
        }
    }
}

impl ExecutorRef for ThreadedExecutor {
    fn executor_handle(&self) -> SimHandle {
        self.handle()
    }
}

impl Drop for ThreadedExecutor {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        {
            drop(lock_std(&self.core.park));
            self.core.work_cv.notify_all();
        }
        {
            drop(lock_std(&self.core.timers));
            self.core.timer_cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Drop remaining task futures deterministically, outside all
        // slot locks (drops can trigger wakes into the dead pool, which
        // are harmless but take locks).
        let slots: Vec<Arc<TaskSlot>> = self.core.registry.lock().values().cloned().collect();
        self.core.registry.lock().clear();
        for slot in slots {
            let f = slot.inner.lock().future.take();
            drop(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::join_all;
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn threaded_sleep_elapses_real_time() {
        let mut ex = ThreadedExecutor::new(2, 0);
        let h = ex.handle();
        let jh = ex.spawn("sleeper", async move {
            let t0 = h.now();
            h.sleep(SimDuration::from_millis(5)).await;
            h.now().duration_since(t0)
        });
        assert!(ex.run().is_quiescent());
        let elapsed = jh.try_take().unwrap();
        assert!(
            elapsed >= SimDuration::from_millis(5),
            "slept only {elapsed}"
        );
    }

    #[test]
    fn threaded_tasks_run_in_parallel() {
        // With 4 workers, 4 concurrent 20ms sleeps finish in far less
        // than the 80ms serial execution would take.
        let mut ex = ThreadedExecutor::new(4, 0);
        let mut handles = Vec::new();
        for i in 0..4 {
            let h = ex.handle();
            handles.push(ex.spawn(format!("p{i}"), async move {
                h.sleep(SimDuration::from_millis(20)).await;
            }));
        }
        let t0 = Instant::now();
        let joiner = ex.spawn("join", async move { join_all(handles).await.len() });
        assert!(ex.run().is_quiescent());
        assert_eq!(joiner.try_take(), Some(4));
        assert!(
            t0.elapsed() < Duration::from_millis(70),
            "parallel sleeps took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn threaded_join_and_channels_work() {
        let mut ex = ThreadedExecutor::new(2, 0);
        let (tx, mut rx) = crate::channel::channel::<u32>();
        let h = ex.handle();
        ex.spawn("producer", async move {
            for i in 0..100 {
                if i % 10 == 0 {
                    h.sleep(SimDuration::from_micros(100)).await;
                }
                tx.send(i).unwrap();
            }
        });
        let consumer = ex.spawn("consumer", async move {
            let mut sum = 0;
            while let Some(v) = rx.recv().await {
                sum += v;
            }
            sum
        });
        assert!(ex.run().is_quiescent());
        assert_eq!(consumer.try_take(), Some(4950));
    }

    #[test]
    fn threaded_abort_prevents_completion() {
        let ex = ThreadedExecutor::new(2, 0);
        let h = ex.handle();
        let flag = Arc::new(AtomicBool::new(false));
        let flag2 = Arc::clone(&flag);
        let jh = ex.spawn("doomed", async move {
            h.sleep(SimDuration::from_secs(300)).await;
            flag2.store(true, Ordering::SeqCst);
        });
        // Let the task reach its sleep, then abort it.
        std::thread::sleep(Duration::from_millis(10));
        jh.abort();
        // The timer is still armed but the task is gone; dropping the
        // wheel entry happens at executor drop. Live count must drain.
        let t0 = Instant::now();
        while ex.core.live.load(Ordering::SeqCst) > 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "abort did not drain");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!flag.load(Ordering::SeqCst));
        assert!(!jh.is_finished());
    }

    #[test]
    fn threaded_task_panic_propagates_to_run() {
        let mut ex = ThreadedExecutor::new(2, 0);
        ex.spawn("bomb", async move {
            panic!("boom from task");
        });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| ex.run())).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom"), "unexpected payload {msg:?}");
    }

    #[test]
    fn threaded_idle_service_tasks_are_quiescent() {
        let mut ex = ThreadedExecutor::new(2, 0);
        let token = IdleToken::new();
        let (tx, mut rx) = crate::channel::channel::<u32>();
        let t2 = token.clone();
        ex.handle().spawn_service("svc", &token, async move {
            loop {
                t2.set_idle();
                let Some(v) = rx.recv().await else { break };
                t2.set_busy();
                let _ = v;
            }
        });
        let h = ex.handle();
        ex.spawn("client", async move {
            for i in 0..10 {
                tx.send(i).unwrap();
                h.sleep(SimDuration::from_micros(50)).await;
            }
            // tx drops here; svc sees the close and exits.
        });
        assert!(ex.run().is_quiescent());
    }

    #[test]
    fn threaded_work_stealing_spreads_load() {
        // One task spawns many CPU-bound children from inside the pool
        // (they land on one worker's deque); siblings must steal them.
        let mut ex = ThreadedExecutor::new(4, 0);
        let h = ex.handle();
        let spawner = ex.spawn("spawner", async move {
            let mut handles = Vec::new();
            for i in 0..64u64 {
                handles.push(h.spawn(format!("c{i}"), async move {
                    // Small spin so children overlap.
                    let mut acc = i;
                    for _ in 0..10_000 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    std::hint::black_box(acc);
                    1u64
                }));
            }
            join_all(handles).await.iter().sum::<u64>()
        });
        assert!(ex.run().is_quiescent());
        assert_eq!(spawner.try_take(), Some(64));
    }
}
