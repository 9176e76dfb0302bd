//! The deterministic virtual-time backend.
//!
//! A [`Sim`] owns a set of tasks and a virtual clock. Tasks are ordinary
//! Rust futures that sleep on virtual timers via
//! [`SimHandle::sleep`](super::SimHandle::sleep) and communicate through
//! the channels in [`crate::channel`] and the primitives in
//! [`crate::sync`]. Everything runs on the calling thread; futures are
//! `Send` only so the identical code also runs on the threaded backend.
//!
//! Execution is deterministic: the ready queue is FIFO, timers fire in
//! `(deadline, registration order)`, and the only randomness available
//! to tasks is the seeded RNG in
//! [`SimHandle::rng_u64`](super::SimHandle::rng_u64). Running the same
//! program twice produces identical traces, which is what makes the
//! paper's trace figures (Figure 9/10/12) exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use pathways_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(42);
//! let h = sim.handle();
//! let task = sim.spawn("worker", async move {
//!     h.sleep(SimDuration::from_micros(10)).await;
//!     h.now()
//! });
//! let outcome = sim.run();
//! assert!(outcome.is_quiescent());
//! assert_eq!(task.try_take().unwrap().as_nanos(), 10_000);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::sync::{Arc, Weak};
use std::task::{Context, Wake, Waker};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::time::SimTime;
use crate::trace::TraceLog;
use crate::wheel::TimerWheel;

use super::{
    Backend, ExecutorBackend, ExecutorRef, IdleToken, JoinHandle, RunOutcome, SimHandle,
    TaskFuture, TaskId, TaskName,
};

/// Queue of task ids woken and awaiting a poll.
///
/// Kept outside the main state mutex so wakers never contend with (or
/// re-enter) a locked executor: `wake` only ever touches this queue.
#[derive(Default)]
struct ReadyQueue {
    queue: Mutex<VecDeque<TaskId>>,
}

impl ReadyQueue {
    fn push(&self, id: TaskId) {
        self.queue.lock().push_back(id);
    }
}

/// One per task, made at spawn and cloned into every registration, so
/// a poll allocates nothing. It deliberately holds only the id: a stale
/// registration (an event that never fires, a timer for a task that
/// finished early) keeps these few bytes alive, never the finished
/// task's future or name.
struct TaskWaker {
    id: TaskId,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id);
    }
}

struct Task {
    name: TaskName,
    idle: Option<IdleToken>,
    /// `future` and `waker` are both taken out for the duration of a
    /// poll (the state lock is released while the future runs) and put
    /// back if it returned `Pending`; the rest of the entry stays put.
    future: Option<TaskFuture>,
    waker: Option<Waker>,
    /// `abort` arrived while the task was being polled; the future is
    /// dropped when that poll returns.
    aborted: bool,
}

struct Slot {
    /// Bumped when the slot is freed, so the id (and any stale wake) of
    /// the task that lived here never matches its next tenant.
    generation: u32,
    task: Option<Task>,
}

/// The live tasks: a slab indexed by the low half of [`TaskId`], the
/// high half being the slot's generation at spawn.
#[derive(Default)]
struct TaskTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl TaskTable {
    fn id_of(index: u32, generation: u32) -> TaskId {
        TaskId(u64::from(generation) << 32 | u64::from(index))
    }

    /// Inserts the task `make` builds for the id it will live under.
    fn insert(&mut self, make: impl FnOnce(TaskId) -> Task) -> TaskId {
        let index = self.free.pop().unwrap_or_else(|| {
            assert!(self.slots.len() < u32::MAX as usize, "2^32 live tasks");
            self.slots.push(Slot {
                generation: 0,
                task: None,
            });
            (self.slots.len() - 1) as u32
        });
        let slot = &mut self.slots[index as usize];
        let id = Self::id_of(index, slot.generation);
        slot.task = Some(make(id));
        self.live += 1;
        id
    }

    /// The slot `id` was issued for, if it is still on that generation.
    fn slot_mut(&mut self, id: TaskId) -> Option<&mut Slot> {
        let slot = self.slots.get_mut(id.0 as u32 as usize)?;
        (slot.generation == (id.0 >> 32) as u32).then_some(slot)
    }

    /// The live task `id` names; `None` once it finished or was aborted.
    fn get_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        self.slot_mut(id)?.task.as_mut()
    }

    /// Frees `id`'s slot, returning the task for the caller to drop
    /// outside the state lock.
    fn remove(&mut self, id: TaskId) -> Option<Task> {
        let slot = self.slot_mut(id)?;
        let task = slot.task.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.0 as u32);
        self.live -= 1;
        Some(task)
    }

    fn iter(&self) -> impl Iterator<Item = &Task> {
        self.slots.iter().filter_map(|s| s.task.as_ref())
    }
}

struct DetState {
    now: SimTime,
    timers: TimerWheel<Waker>,
    tasks: TaskTable,
    next_seq: u64,
    rng: StdRng,
    trace: TraceLog,
    /// Total number of task polls performed (for introspection/benches).
    polls: u64,
}

impl DetState {
    fn register_timer(&mut self, deadline: SimTime, waker: Waker) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.timers.insert(deadline, seq, waker);
    }
}

/// Shared core: the backend object handles point at.
struct DetCore {
    state: Mutex<DetState>,
    ready: Arc<ReadyQueue>,
}

impl ExecutorBackend for DetCore {
    fn backend(&self) -> Backend {
        Backend::Deterministic
    }

    fn now(&self) -> SimTime {
        self.state.lock().now
    }

    fn spawn_task(&self, name: TaskName, idle: Option<IdleToken>, future: TaskFuture) -> TaskId {
        let id = self.state.lock().tasks.insert(|id| Task {
            name,
            idle,
            future: Some(future),
            waker: Some(Waker::from(Arc::new(TaskWaker {
                id,
                ready: Arc::clone(&self.ready),
            }))),
            aborted: false,
        });
        self.ready.push(id);
        id
    }

    fn abort_task(&self, id: TaskId) {
        let dropped = {
            let mut st = self.state.lock();
            match st.tasks.get_mut(id) {
                // Mid-poll (the task is aborting itself, or something it
                // called is): the running poll owns the future, so mark
                // the entry and let `poll_task` drop it on return.
                Some(task) if task.future.is_none() => {
                    task.aborted = true;
                    None
                }
                Some(_) => st.tasks.remove(id),
                None => None,
            }
        };
        // The future's destructors may wake, spawn or arm timers.
        drop(dropped);
    }

    fn register_timer(&self, deadline: SimTime, waker: Waker) {
        self.state.lock().register_timer(deadline, waker);
    }

    fn rng_u64(&self) -> u64 {
        self.state.lock().rng.random()
    }

    fn rng_range(&self, bound: u64) -> u64 {
        self.state.lock().rng.random_range(0..bound)
    }

    fn with_trace_log(&self, f: &mut dyn FnMut(&mut TraceLog)) {
        f(&mut self.state.lock().trace)
    }

    fn poll_count(&self) -> u64 {
        self.state.lock().polls
    }
}

/// A deterministic discrete-event simulation.
///
/// See the module documentation for an overview and example.
pub struct Sim {
    core: Arc<DetCore>,
    /// The one handle every `handle()` call clones; owns the clock
    /// mirror the run loop writes.
    handle: SimHandle,
    /// The batch of woken ids being polled; kept between drains so the
    /// ready queue and this buffer swap back and forth without
    /// allocating.
    batch: VecDeque<TaskId>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.core.state.lock();
        f.debug_struct("Sim")
            .field("now", &st.now)
            .field("live_tasks", &st.tasks.live)
            .field("pending_timers", &st.timers.len())
            .finish()
    }
}

impl Sim {
    /// Creates a simulation whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        let core = Arc::new(DetCore {
            state: Mutex::new(DetState {
                now: SimTime::ZERO,
                timers: TimerWheel::new(),
                tasks: TaskTable::default(),
                next_seq: 0,
                rng: StdRng::seed_from_u64(seed),
                trace: TraceLog::new(),
                polls: 0,
            }),
            ready: Arc::new(ReadyQueue::default()),
        });
        let weak: Weak<DetCore> = Arc::downgrade(&core);
        Sim {
            core,
            handle: SimHandle::new(weak, true),
            batch: VecDeque::new(),
        }
    }

    /// Returns a cloneable handle for use inside tasks.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Spawns a task and returns a handle to its eventual output.
    ///
    /// The `name` is used in deadlock reports and traces.
    pub fn spawn<T: Send + 'static>(
        &self,
        name: impl Into<TaskName>,
        future: impl Future<Output = T> + Send + 'static,
    ) -> JoinHandle<T> {
        self.handle.spawn(name, future)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.state.lock().now
    }

    /// Number of task polls performed so far.
    pub fn poll_count(&self) -> u64 {
        self.core.state.lock().polls
    }

    /// Number of tasks spawned and not yet finished or aborted, parked
    /// services included.
    pub fn live_tasks(&self) -> usize {
        self.core.state.lock().tasks.live
    }

    /// Takes the accumulated trace events, leaving the log empty.
    pub fn take_trace(&self) -> TraceLog {
        std::mem::take(&mut self.core.state.lock().trace)
    }

    /// Runs until every task completes or no further progress is possible.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until_time(SimTime::MAX)
    }

    /// Runs until quiescence, deadlock, or the clock reaching `limit`
    /// (whichever comes first). Timers beyond `limit` are left pending.
    pub fn run_until_time(&mut self, limit: SimTime) -> RunOutcome {
        // One waker buffer for the whole run: `pop_batch_into` refills
        // it in place, so advancing time allocates nothing.
        let mut wakers = Vec::new();
        loop {
            self.drain_ready();
            // Advance virtual time to the next deadline, taking *every*
            // timer that shares it in one batch pop (one wheel operation
            // per simulated instant instead of one heap pop per timer).
            let fired = {
                let mut st = self.core.state.lock();
                match st.timers.pop_batch_into(limit, &mut wakers) {
                    Some(deadline) => {
                        debug_assert!(deadline >= st.now, "timer in the past");
                        st.now = deadline.max(st.now);
                        self.handle.set_clock(st.now);
                        true
                    }
                    None => false,
                }
            };
            if !fired {
                break;
            }
            // Wake each timer and drain the ready queue before the
            // next waker fires — the exact interleaving of the old
            // pop-per-timer loop. Nothing can join this batch
            // mid-drain: `Sleep` never registers a timer at
            // `deadline == now`.
            for waker in wakers.drain(..) {
                waker.wake();
                self.drain_ready();
            }
        }
        let st = self.core.state.lock();
        if st.tasks.live == 0 || !st.timers.is_empty() {
            // All done, or stopped by the time limit with timers pending.
            RunOutcome::Quiescent { time: st.now }
        } else {
            let mut stuck: Vec<String> = st
                .tasks
                .iter()
                .filter(|t| !t.idle.as_ref().is_some_and(IdleToken::is_idle))
                .map(|t| t.name.to_string())
                .collect();
            stuck.sort();
            if stuck.is_empty() {
                // Only parked service tasks remain: quiescent.
                RunOutcome::Quiescent { time: st.now }
            } else {
                RunOutcome::Deadlock {
                    time: st.now,
                    stuck_tasks: stuck,
                }
            }
        }
    }

    /// Runs the simulation and panics with the stuck-task list if it
    /// deadlocks. Convenient in tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks.
    pub fn run_to_quiescence(&mut self) -> SimTime {
        match self.run() {
            RunOutcome::Quiescent { time } => time,
            RunOutcome::Deadlock { time, stuck_tasks } => {
                panic!("simulation deadlocked at {time} with stuck tasks: {stuck_tasks:?}")
            }
        }
    }

    /// Polls woken tasks in FIFO order until the ready queue is empty.
    ///
    /// The queue is taken a whole batch at a time (one lock per batch,
    /// not per pop). That is the same order as popping one id at a
    /// time: whatever a poll wakes lands in the now-empty queue, behind
    /// every id of the batch in hand, exactly where a push onto the
    /// undivided queue would have put it.
    fn drain_ready(&mut self) {
        loop {
            // (Non-empty here only if a poll panicked out of a batch.)
            if self.batch.is_empty() {
                std::mem::swap(&mut self.batch, &mut *self.core.ready.queue.lock());
                if self.batch.is_empty() {
                    return;
                }
            }
            while let Some(id) = self.batch.pop_front() {
                self.poll_task(id);
            }
        }
    }

    fn poll_task(&self, id: TaskId) {
        // Take the future and the task's waker out of its entry so the
        // state lock is released while polling: the polled future may
        // spawn tasks, arm timers or abort tasks (itself included).
        let (mut future, waker) = {
            let mut st = self.core.state.lock();
            let Some(task) = st.tasks.get_mut(id) else {
                return; // finished or aborted; stale wake
            };
            let (Some(future), Some(waker)) = (task.future.take(), task.waker.take()) else {
                return; // lost to a panic in an earlier poll
            };
            st.polls += 1;
            (future, waker)
        };
        let mut cx = Context::from_waker(&waker);
        let ready = future.as_mut().poll(&mut cx).is_ready();
        let retired = {
            let mut st = self.core.state.lock();
            match st.tasks.get_mut(id) {
                Some(task) if !ready && !task.aborted => {
                    task.future = Some(future);
                    task.waker = Some(waker);
                    return;
                }
                _ => st.tasks.remove(id),
            }
        };
        // Finished, or aborted from inside its own poll: the future and
        // the entry (name, idle token) die here, outside the lock.
        drop((future, retired));
    }
}

impl ExecutorRef for Sim {
    fn executor_handle(&self) -> SimHandle {
        self.handle()
    }
}

#[cfg(test)]
mod tests {
    use super::super::join_all;
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn empty_sim_is_quiescent_at_zero() {
        let mut sim = Sim::new(0);
        let outcome = sim.run();
        assert_eq!(
            outcome,
            RunOutcome::Quiescent {
                time: SimTime::ZERO
            }
        );
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        sim.spawn("sleeper", async move {
            h.sleep(SimDuration::from_millis(5)).await;
        });
        let t = sim.run_to_quiescence();
        assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(5));
    }

    #[test]
    fn sleeps_compose_sequentially() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let jh = sim.spawn("seq", async move {
            h.sleep(SimDuration::from_micros(3)).await;
            let mid = h.now();
            h.sleep(SimDuration::from_micros(4)).await;
            (mid, h.now())
        });
        sim.run_to_quiescence();
        let (mid, end) = jh.try_take().unwrap();
        assert_eq!(mid.as_nanos(), 3_000);
        assert_eq!(end.as_nanos(), 7_000);
    }

    #[test]
    fn concurrent_tasks_interleave_by_deadline() {
        let mut sim = Sim::new(0);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, delay) in [("b", 20u64), ("a", 10), ("c", 30)] {
            let h = sim.handle();
            let order = Arc::clone(&order);
            sim.spawn(name, async move {
                h.sleep(SimDuration::from_micros(delay)).await;
                order.lock().push(name);
            });
        }
        sim.run_to_quiescence();
        assert_eq!(*order.lock(), vec!["a", "b", "c"]);
    }

    #[test]
    fn join_handle_returns_output() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let inner = sim.spawn("inner", async move {
            h.sleep(SimDuration::from_micros(1)).await;
            41
        });
        let outer = sim.spawn("outer", async move { inner.await + 1 });
        sim.run_to_quiescence();
        assert_eq!(outer.try_take(), Some(42));
    }

    #[test]
    fn deadlock_is_detected_and_reports_task_names() {
        let mut sim = Sim::new(0);
        let (_tx, mut rx) = crate::channel::channel::<u32>();
        sim.spawn("waiter", async move {
            // _tx is never used to send and never dropped before run, so
            // this blocks forever.
            let _ = rx.recv().await;
        });
        match sim.run() {
            RunOutcome::Deadlock { stuck_tasks, .. } => {
                assert_eq!(stuck_tasks, vec!["waiter".to_string()]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn abort_removes_task() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let flag = Arc::new(Mutex::new(false));
        let flag2 = Arc::clone(&flag);
        let jh = sim.spawn("doomed", async move {
            h.sleep(SimDuration::from_secs(1)).await;
            *flag2.lock() = true;
        });
        jh.abort();
        let outcome = sim.run();
        assert!(outcome.is_quiescent());
        assert!(!*flag.lock());
        assert!(!jh.is_finished());
    }

    #[test]
    fn run_until_time_stops_early() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        sim.spawn("late", async move {
            h.sleep(SimDuration::from_secs(10)).await;
        });
        let out = sim.run_until_time(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(out.is_quiescent());
        assert_eq!(sim.now(), SimTime::ZERO);
        // Resuming without a limit finishes the task.
        assert!(sim.run().is_quiescent());
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(10));
    }

    #[test]
    fn yield_now_round_robins_ready_tasks() {
        let mut sim = Sim::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        for name in ["x", "y"] {
            let h = sim.handle();
            let log = Arc::clone(&log);
            sim.spawn(name, async move {
                for i in 0..2 {
                    log.lock().push(format!("{name}{i}"));
                    h.yield_now().await;
                }
            });
        }
        sim.run_to_quiescence();
        assert_eq!(*log.lock(), vec!["x0", "y0", "x1", "y1"]);
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let draw = |seed| {
            let sim = Sim::new(seed);
            let h = sim.handle();
            (h.rng_u64(), h.rng_range(100))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).0, draw(8).0);
    }

    #[test]
    fn join_all_collects_in_order() {
        let mut sim = Sim::new(0);
        let mut handles = Vec::new();
        for i in 0..5u64 {
            let h = sim.handle();
            handles.push(sim.spawn(format!("t{i}"), async move {
                // Later tasks finish earlier; join_all must preserve order.
                h.sleep(SimDuration::from_micros(10 - i)).await;
                i
            }));
        }
        let joined = sim.spawn("join", async move { join_all(handles).await });
        sim.run_to_quiescence();
        assert_eq!(joined.try_take().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_duration_sleep_completes_without_time_advance() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        sim.spawn("zero", async move {
            h.sleep(SimDuration::ZERO).await;
        });
        assert_eq!(sim.run_to_quiescence(), SimTime::ZERO);
    }
}
