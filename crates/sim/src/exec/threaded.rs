//! The threaded backend: N worker threads over one shared run queue.
//!
//! [`ThreadedExecutor`] runs the deterministic backend's task surface on
//! real threads, as thin as gpui's `Production` executor: workers pop
//! tasks from one FIFO queue, and a timer thread fires the timer wheel
//! against the monotonic clock (time is nanoseconds since start; `sleep`
//! arms a real timer). The queue, every task's state, the count of polls
//! in progress and the wheel share one mutex, so quiescence is exact:
//! nothing ready, nothing running and no timer armed means no wake can
//! come. The one case it cannot decide, a poll that never returns, is
//! bounded by [`STALL_BOUND`]: `run` reports `Deadlock` naming the tasks
//! mid-poll, and `Drop` detaches their workers instead of joining them.
//! No order is promised beyond "woken tasks eventually run"; task panics
//! are re-raised from `run`.

// Real time and raw std sync are this module's job; the bans hold elsewhere.
#![expect(clippy::disallowed_types)]

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{
    ExecutorBackend, IdleToken, JoinHandle, RunOutcome, SimHandle, TaskFuture, TaskId, TaskName,
};
use crate::hash::FxHashMap;
use crate::time::SimTime;
use crate::trace::TraceLog;
use crate::wheel::TimerWheel;

/// How long polls may be in progress with none finishing before `run`
/// reports a deadlock and `Drop` stops waiting for them. A poll in this
/// codebase takes microseconds to milliseconds.
pub const STALL_BOUND: Duration = Duration::from_secs(5);

/// A live task's state; `Complete` is removal from the registry, so a
/// finished or aborted task is never polled again.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Pending and not queued: the next wake queues it.
    Idle,
    Queued,
    Running,
    /// Woken while `Running`: requeued when the poll returns.
    Woken,
}

struct Task {
    name: TaskName,
    idle: Option<IdleToken>,
    state: SlotState,
    /// Absent while a worker polls it.
    future: Option<TaskFuture>,
}

struct TaskWaker {
    id: TaskId,
    core: Weak<Core>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let Some(core) = self.core.upgrade() else {
            return;
        };
        let st = &mut *core.lock();
        match st.tasks.get_mut(&self.id).map(|t| &mut t.state) {
            Some(state @ SlotState::Running) => *state = SlotState::Woken,
            Some(state @ SlotState::Idle) => {
                *state = SlotState::Queued;
                st.ready.push_back(self.id);
                core.work.notify_one();
            }
            _ => {}
        }
    }
}

/// Everything the workers, the timer thread and the runner share.
#[derive(Default)]
struct State {
    /// `Queued` tasks, oldest first.
    ready: VecDeque<TaskId>,
    tasks: FxHashMap<TaskId, Task>,
    next_task: u64,
    /// Polls in progress.
    running: usize,
    polls: u64,
    /// When the last poll finished, or this busy spell began.
    progress: Option<Instant>,
    /// The timer thread is delivering fired wakes outside the lock.
    firing: bool,
    timers: TimerWheel<Waker>,
    next_seq: u64,
    /// The first task panic, re-raised from `run`.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Core {
    start: Instant,
    state: StdMutex<State>,
    /// Workers wait here for the ready queue, the timer thread for its
    /// next deadline, and `run`/`Drop` for the pool to settle.
    work: Condvar,
    timer: Condvar,
    settled: Condvar,
    rng: Mutex<StdRng>,
    trace: Mutex<TraceLog>,
}

type Guard<'a> = MutexGuard<'a, State>;

impl Core {
    /// Task panics are caught outside this lock, so poison is harmless.
    fn lock(&self) -> Guard<'_> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn elapsed(&self) -> SimTime {
        SimTime::from_nanos(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Waits on `cv` for at most `timeout` (`Duration::MAX`: no limit).
    fn wait<'a>(cv: &Condvar, st: Guard<'a>, timeout: Duration) -> Guard<'a> {
        cv.wait_timeout(st, timeout)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    /// Wakes `run`/`Drop` when what they wait for may have come true.
    fn notify_settled(&self, st: &State) {
        if st.running == 0 && (st.ready.is_empty() || st.shutdown) || st.panic.is_some() {
            self.settled.notify_all();
        }
    }

    /// Waits until `done` holds (`false`), or until polls have been in
    /// progress for [`STALL_BOUND`] with none finishing (`true`).
    fn wait_until<'a>(
        &self,
        mut st: Guard<'a>,
        done: impl Fn(&State) -> bool,
    ) -> (Guard<'a>, bool) {
        while !done(&st) {
            let busy = st.progress.filter(|_| st.running > 0);
            let left = STALL_BOUND.saturating_sub(busy.map_or(Duration::ZERO, |t| t.elapsed()));
            if left.is_zero() {
                return (st, true);
            }
            st = Self::wait(&self.settled, st, left);
        }
        (st, false)
    }

    fn worker_loop(self: Arc<Self>) {
        let mut st = self.lock();
        while !st.shutdown {
            let Some(id) = st.ready.pop_front() else {
                st = Self::wait(&self.work, st, Duration::MAX);
                continue;
            };
            // Queued tasks are live (`abort_task` unqueues) and own a future.
            let Some(task) = st.tasks.get_mut(&id) else {
                continue;
            };
            let Some(mut future) = task.future.take() else {
                continue;
            };
            task.state = SlotState::Running;
            if st.running == 0 {
                st.progress = Some(Instant::now());
            }
            st.running += 1;
            drop(st);
            let core = Arc::downgrade(&self);
            let waker = Waker::from(Arc::new(TaskWaker { id, core }));
            let mut cx = Context::from_waker(&waker);
            let polled =
                std::panic::catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx)));
            // A finished future is dropped here, outside the lock (a drop
            // may wake tasks) and while its poll still counts as running.
            let mut future = Some(future).filter(|_| matches!(polled, Ok(Poll::Pending)));
            let finished_at = Instant::now();
            st = self.lock();
            if future.is_some() && !st.tasks.contains_key(&id) {
                // Aborted mid-poll: drop it outside the lock too.
                drop(st);
                future = None;
                st = self.lock();
            }
            match (future, st.tasks.get_mut(&id)) {
                (Some(future), Some(task)) if task.state == SlotState::Woken => {
                    (task.future, task.state) = (Some(future), SlotState::Queued);
                    st.ready.push_back(id);
                    self.work.notify_one();
                }
                (Some(future), Some(task)) => {
                    (task.future, task.state) = (Some(future), SlotState::Idle);
                }
                _ => {
                    st.tasks.remove(&id);
                    if let Err(payload) = polled {
                        st.panic.get_or_insert(payload);
                    }
                }
            }
            st.running -= 1;
            st.polls += 1;
            st.progress = Some(finished_at);
            self.notify_settled(&st);
        }
    }

    /// Fires due timers, then sleeps until the next deadline or until an
    /// earlier timer is armed.
    fn timer_loop(self: Arc<Self>) {
        let mut fired = Vec::new();
        let mut st = self.lock();
        while !st.shutdown {
            let now = self.elapsed();
            while st.timers.pop_batch_into(now, &mut fired).is_some() {}
            if fired.is_empty() {
                let next = st.timers.next_deadline();
                let wait = next.map_or(Duration::MAX, |d| {
                    Duration::from_nanos(d.duration_since(now).as_nanos())
                });
                st = Self::wait(&self.timer, st, wait);
                continue;
            }
            // A wake takes the state lock, so deliver them outside it,
            // flagged so `run` cannot see a settled pool meanwhile.
            st.firing = true;
            drop(st);
            fired.drain(..).for_each(Waker::wake);
            st = self.lock();
            st.firing = false;
            self.notify_settled(&st);
        }
    }
}

impl ExecutorBackend for Core {
    fn now(&self) -> SimTime {
        self.elapsed()
    }

    fn spawn_task(&self, name: TaskName, idle: Option<IdleToken>, future: TaskFuture) -> TaskId {
        let mut st = self.lock();
        let id = TaskId(st.next_task);
        st.next_task += 1;
        let task = Task {
            name,
            idle,
            state: SlotState::Queued,
            future: Some(future),
        };
        st.tasks.insert(id, task);
        st.ready.push_back(id);
        self.work.notify_one();
        id
    }

    /// Retires the task at once. A poll in progress runs to its end; its
    /// worker then finds the task gone and drops the future.
    fn abort_task(&self, id: TaskId) {
        let mut st = self.lock();
        let task = st.tasks.remove(&id);
        st.ready.retain(|&queued| queued != id);
        self.notify_settled(&st);
        drop(st);
        drop(task); // outside the lock: a drop may wake tasks
    }

    fn register_timer(&self, deadline: SimTime, waker: Waker) {
        let mut st = self.lock();
        // Real time moves on between a task computing `now + dt` and
        // this insert, and the wheel refuses deadlines behind its
        // cursor. A fresh `now` is never behind it (the cursor only
        // moves to deadlines already seen elapsed): clamp to it.
        let deadline = deadline.max(self.elapsed());
        if st.timers.next_deadline().is_none_or(|e| deadline < e) {
            self.timer.notify_one();
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.timers.insert(deadline, seq, waker);
    }

    fn rng_u64(&self) -> u64 {
        self.rng.lock().random()
    }

    fn rng_range(&self, bound: u64) -> u64 {
        self.rng.lock().random_range(0..bound)
    }

    fn with_trace_log(&self, f: &mut dyn FnMut(&mut TraceLog)) {
        f(&mut self.trace.lock());
    }

    fn poll_count(&self) -> u64 {
        self.lock().polls
    }
}

/// A shared-queue thread pool over real monotonic time; see the module
/// documentation. Dropping it stops the pool once the polls in progress
/// return (detaching, not joining, workers stuck in a poll for
/// [`STALL_BOUND`]) and drops every pending task future.
pub struct ThreadedExecutor {
    core: Arc<Core>,
    /// The one handle every `handle()` call clones.
    handle: SimHandle,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for ThreadedExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ThreadedExecutor({} threads)", self.threads.len())
    }
}

impl ThreadedExecutor {
    /// Creates a pool with `workers` threads (`0` = one per available
    /// core, capped at 8) plus one timer thread; `seed` seeds the RNG.
    #[expect(clippy::expect_used, reason = "no worker thread: out of resources")]
    pub fn new(workers: usize, seed: u64) -> Self {
        let workers = match workers {
            0 => std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            n => n,
        };
        let core = Arc::new(Core {
            start: Instant::now(),
            state: StdMutex::default(),
            work: Condvar::new(),
            timer: Condvar::new(),
            settled: Condvar::new(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            trace: Mutex::new(TraceLog::new()),
        });
        let spawn = |name: String, body: fn(Arc<Core>)| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || body(core))
                .expect("spawn executor thread")
        };
        let mut threads: Vec<_> = (0..workers)
            .map(|i| spawn(format!("pathways-worker-{i}"), Core::worker_loop))
            .collect();
        threads.push(spawn("pathways-timer".into(), Core::timer_loop));
        let weak: Weak<Core> = Arc::downgrade(&core);
        let handle = SimHandle::new(weak, false);
        ThreadedExecutor {
            core,
            handle,
            threads,
        }
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
    ) -> JoinHandle<T> {
        self.handle.spawn(name, future)
    }

    /// Nanoseconds since the executor started, as a [`SimTime`].
    pub fn now(&self) -> SimTime {
        self.core.elapsed()
    }

    /// Number of task polls performed so far.
    pub fn poll_count(&self) -> u64 {
        self.core.lock().polls
    }

    /// Takes the accumulated trace events, leaving the log empty.
    pub fn take_trace(&self) -> TraceLog {
        std::mem::take(&mut self.core.trace.lock())
    }

    /// Blocks until every task completes or only idle-parked service
    /// tasks remain, re-raising the first task panic. Reports `Deadlock`
    /// when nothing is ready, running or timed but non-idle tasks remain
    /// (naming them), or when polls have been in progress for
    /// [`STALL_BOUND`] with none finishing (naming the tasks mid-poll).
    pub fn run(&mut self) -> RunOutcome {
        let (mut st, stalled) = self.core.wait_until(self.core.lock(), |st| {
            let idle = st.ready.is_empty() && !st.firing && st.timers.is_empty();
            st.panic.is_some() || st.running == 0 && (idle || st.tasks.is_empty())
        });
        if let Some(payload) = st.panic.take() {
            drop(st);
            std::panic::resume_unwind(payload);
        }
        let mut stuck_tasks: Vec<String> = st
            .tasks
            .values()
            .filter(|t| match stalled {
                true => matches!(t.state, SlotState::Running | SlotState::Woken),
                false => !t.idle.as_ref().is_some_and(IdleToken::is_idle),
            })
            .map(|t| t.name.to_string())
            .collect();
        drop(st);
        stuck_tasks.sort();
        let time = self.core.elapsed();
        if stuck_tasks.is_empty() {
            return RunOutcome::Quiescent { time };
        }
        RunOutcome::Deadlock { time, stuck_tasks }
    }

    /// Runs and panics with the stuck-task list on deadlock.
    ///
    /// # Panics
    ///
    /// Panics if the run deadlocks (and re-raises task panics).
    #[expect(clippy::panic, reason = "a deadlocked simulation must abort")]
    pub fn run_to_quiescence(&mut self) -> SimTime {
        match self.run() {
            RunOutcome::Quiescent { time } => time,
            RunOutcome::Deadlock { time, stuck_tasks } => {
                panic!("threaded executor stalled at {time} with stuck tasks: {stuck_tasks:?}")
            }
        }
    }
}

impl Drop for ThreadedExecutor {
    fn drop(&mut self) {
        let mut st = self.core.lock();
        st.shutdown = true;
        self.core.work.notify_all();
        self.core.timer.notify_all();
        let (mut st, stalled) = self.core.wait_until(st, |st| st.running == 0);
        let tasks = std::mem::take(&mut st.tasks);
        drop(st);
        if !stalled {
            for t in self.threads.drain(..) {
                let _ = t.join();
            }
        }
        drop(tasks); // outside the lock: a drop may wake tasks
    }
}

#[cfg(test)]
mod tests {
    use super::super::join_all;
    use super::*;
    use crate::channel::channel;
    use crate::time::SimDuration;
    use std::sync::atomic::{AtomicBool, Ordering};

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
        assert!(elapsed >= SimDuration::from_millis(5), "slept {elapsed}");
    }

    #[test]
    fn threaded_tasks_run_in_parallel() {
        // 4 concurrent 20ms sleeps on 4 workers take far less than 80ms.
        let mut ex = ThreadedExecutor::new(4, 0);
        let sleep = |h: SimHandle| async move { h.sleep(SimDuration::from_millis(20)).await };
        let handles: Vec<_> = (0..4)
            .map(|i| ex.spawn(format!("p{i}"), sleep(ex.handle())))
            .collect();
        let t0 = Instant::now();
        let joiner = ex.spawn("join", async move { join_all(handles).await.len() });
        assert!(ex.run().is_quiescent());
        assert_eq!(joiner.try_take(), Some(4));
        assert!(
            t0.elapsed() < Duration::from_millis(70),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn threaded_join_and_channels_work() {
        let mut ex = ThreadedExecutor::new(2, 0);
        let (tx, mut rx) = channel::<u32>();
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
    #[expect(clippy::disallowed_methods, reason = "lets the task reach its sleep")]
    fn threaded_abort_prevents_completion() {
        let ex = ThreadedExecutor::new(2, 0);
        let (h, flag) = (ex.handle(), Arc::new(AtomicBool::new(false)));
        let flag2 = Arc::clone(&flag);
        let jh = ex.spawn("doomed", async move {
            h.sleep(SimDuration::from_secs(300)).await;
            flag2.store(true, Ordering::SeqCst);
        });
        // Let the task reach its sleep, then abort it: it leaves the
        // registry at once, though its timer stays armed.
        std::thread::sleep(Duration::from_millis(10));
        jh.abort();
        assert!(ex.core.lock().tasks.is_empty(), "abort did not retire");
        assert!(!flag.load(Ordering::SeqCst));
        assert!(!jh.is_finished());
    }

    #[test]
    fn threaded_task_panic_propagates_to_run() {
        let mut ex = ThreadedExecutor::new(2, 0);
        ex.spawn("bomb", async move { panic!("boom from task") });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| ex.run())).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom"), "unexpected payload {msg:?}");
    }

    #[test]
    fn threaded_idle_service_tasks_are_quiescent() {
        let mut ex = ThreadedExecutor::new(2, 0);
        let (token, (tx, mut rx)) = (IdleToken::new(), channel::<u32>());
        let t2 = token.clone();
        ex.handle().spawn_service("svc", &token, async move {
            loop {
                t2.set_idle();
                let Some(_) = rx.recv().await else { break };
                t2.set_busy();
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
}
