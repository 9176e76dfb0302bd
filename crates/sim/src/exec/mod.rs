//! Executor backends: one spawn/timer/channel/event surface, two
//! schedulers.
//!
//! Everything in the runtime — hosts, schedulers, device models, shard
//! drivers, clients — is an async task talking to an executor through
//! [`SimHandle`]. This module abstracts that surface behind the
//! [`ExecutorBackend`] trait with two implementations:
//!
//! * [`Sim`] (the **deterministic** backend, [`deterministic`]): the
//!   original single-threaded virtual-time executor. Time advances only
//!   when every runnable task has yielded; the ready queue is FIFO;
//!   timers fire in `(deadline, registration order)`. Running the same
//!   program twice produces bit-identical traces — this is the backend
//!   every golden trace, chaos matrix and figure replays on.
//! * [`ThreadedExecutor`] (the **threaded** backend, [`threaded`]): a
//!   work-stealing thread pool with real monotonic timers behind the
//!   same timer-wheel API. `SimTime` is nanoseconds since executor
//!   start, `sleep` is a real timer, and tasks genuinely run in
//!   parallel — this is the backend that exercises the controller's
//!   locking and `Send`-safety for production, mirroring the
//!   `Deterministic`/`Production` split in zed/gpui.
//!
//! [`Executor`] is the uniform front: construct from an
//! [`ExecutorKind`] (or `PATHWAYS_EXECUTOR` via
//! [`ExecutorKind::from_env`]) and drive either backend with one API.
//! Code that only spawns and sleeps is backend-agnostic by
//! construction: `SimHandle` requires `Send` futures, so anything that
//! runs deterministically also compiles for real threads.

pub mod deterministic;
pub mod threaded;

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Waker};

use parking_lot::Mutex;

use crate::time::{SimDuration, SimTime};
use crate::trace::TraceLog;

pub use deterministic::Sim;
pub use threaded::ThreadedExecutor;

/// Identifier of a spawned task within one executor.
///
/// Opaque: ids are only compared, hashed and printed. The deterministic
/// backend packs a task-table index and a slot generation into it, so
/// the id of a finished task never matches a later task that reuses its
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Renders a [`TaskName::lazy`] name from its ids.
pub type RenderName = fn(&[u64; 4], &mut fmt::Formatter<'_>) -> fmt::Result;

/// A task's name, rendered only when something reads it (deadlock
/// reports, `Debug`).
///
/// Spawning is hot — one task per transfer, per shard driver — and the
/// name is read only when a run deadlocks, so the per-transfer spawn
/// sites hand over a few integers and a render function
/// ([`TaskName::lazy`]) instead of a formatted `String`. Literals and
/// owned strings convert with `into()`.
#[derive(Clone)]
pub struct TaskName(NameRepr);

#[derive(Clone)]
enum NameRepr {
    Static(&'static str),
    Owned(String),
    Lazy { ids: [u64; 4], render: RenderName },
}

impl TaskName {
    /// A name rendered on demand as `render(&ids, f)`. `render` must be
    /// a plain function of the ids (a non-capturing closure coerces).
    pub fn lazy(ids: [u64; 4], render: RenderName) -> Self {
        TaskName(NameRepr::Lazy { ids, render })
    }
}

impl From<&'static str> for TaskName {
    fn from(name: &'static str) -> Self {
        TaskName(NameRepr::Static(name))
    }
}

impl From<String> for TaskName {
    fn from(name: String) -> Self {
        TaskName(NameRepr::Owned(name))
    }
}

impl fmt::Display for TaskName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            NameRepr::Static(s) => f.write_str(s),
            NameRepr::Owned(s) => f.write_str(s),
            NameRepr::Lazy { ids, render } => render(ids, f),
        }
    }
}

impl fmt::Debug for TaskName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{self}\"")
    }
}

/// Boxed task body as stored by a backend.
pub type TaskFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Which backend an executor (or handle) is running on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Single-threaded virtual time; bit-identical replay.
    Deterministic,
    /// Work-stealing thread pool on real monotonic time.
    Threaded,
}

/// Backend selection, including threaded worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// The deterministic virtual-time backend (the default).
    #[default]
    Deterministic,
    /// The work-stealing threaded backend with `workers` OS threads.
    Threaded {
        /// Worker thread count (0 = one per available core, capped at 8).
        workers: usize,
    },
}

impl ExecutorKind {
    /// Reads `PATHWAYS_EXECUTOR`: `deterministic` (default), `threaded`,
    /// or `threaded:<N>` for an explicit worker count.
    pub fn from_env() -> Self {
        match std::env::var("PATHWAYS_EXECUTOR") {
            Ok(v) => Self::parse(&v).unwrap_or_else(|| {
                panic!("PATHWAYS_EXECUTOR={v:?} (want deterministic | threaded | threaded:<N>)")
            }),
            Err(_) => ExecutorKind::Deterministic,
        }
    }

    /// Parses `deterministic` | `threaded` | `threaded:<N>`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "deterministic" | "" => Some(ExecutorKind::Deterministic),
            "threaded" => Some(ExecutorKind::Threaded { workers: 0 }),
            _ => {
                let n = s.strip_prefix("threaded:")?;
                Some(ExecutorKind::Threaded {
                    workers: n.parse().ok()?,
                })
            }
        }
    }

    /// The backend this kind selects.
    pub fn backend(&self) -> Backend {
        match self {
            ExecutorKind::Deterministic => Backend::Deterministic,
            ExecutorKind::Threaded { .. } => Backend::Threaded,
        }
    }
}

/// The spawn/timer/trace surface a backend provides to [`SimHandle`].
///
/// Object-safe: handles hold a `Weak<dyn ExecutorBackend>` so the same
/// handle type drives both backends. The generic conveniences
/// (`spawn<T>`, typed join handles) are layered on top in `SimHandle`.
pub trait ExecutorBackend: Send + Sync {
    /// Which backend this is.
    fn backend(&self) -> Backend;
    /// Current time: virtual time (deterministic) or monotonic
    /// nanoseconds since executor start (threaded).
    fn now(&self) -> SimTime;
    /// Registers a boxed task; it becomes runnable immediately.
    fn spawn_task(&self, name: TaskName, idle: Option<IdleToken>, future: TaskFuture) -> TaskId;
    /// Forcibly removes a task (models abrupt process death).
    fn abort_task(&self, id: TaskId);
    /// Arms a timer waking `waker` at `deadline`. Timers sharing a
    /// deadline fire in registration order on the deterministic
    /// backend.
    fn register_timer(&self, deadline: SimTime, waker: Waker);
    /// Draws from the executor's seeded RNG.
    fn rng_u64(&self) -> u64;
    /// Draws uniformly from `[0, bound)` (callers guarantee `bound > 0`).
    fn rng_range(&self, bound: u64) -> u64;
    /// Runs `f` with the shared trace log.
    fn with_trace_log(&self, f: &mut dyn FnMut(&mut TraceLog));
    /// Total task polls performed (introspection/benches).
    fn poll_count(&self) -> u64;
}

/// Marker a long-running service task uses to tell the executor it is
/// parked waiting for work (as opposed to stuck mid-operation).
///
/// Quiescence detection treats a pending task whose token reads *idle*
/// as finished: an accelerator waiting for its next kernel is not a
/// deadlock, but an accelerator blocked inside a gang collective is.
#[derive(Debug, Clone, Default)]
pub struct IdleToken {
    idle: Arc<AtomicBool>,
}

impl IdleToken {
    /// Creates a token in the *busy* state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the owning task idle (parked awaiting work).
    pub fn set_idle(&self) {
        self.idle.store(true, Ordering::SeqCst);
    }

    /// Marks the owning task busy (processing an operation).
    pub fn set_busy(&self) {
        self.idle.store(false, Ordering::SeqCst);
    }

    /// Reads the current state.
    pub fn is_idle(&self) -> bool {
        self.idle.load(Ordering::SeqCst)
    }
}

/// Outcome of running an executor to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every spawned task ran to completion (or is parked idle).
    Quiescent {
        /// Time when the last event fired.
        time: SimTime,
    },
    /// Some tasks are still pending but nothing can wake them: the
    /// system is deadlocked (or waiting on an external stimulus that
    /// will never arrive). The names of the stuck tasks are reported
    /// for diagnosis.
    Deadlock {
        /// Time at which progress stopped.
        time: SimTime,
        /// Names of tasks that can never be woken again.
        stuck_tasks: Vec<String>,
    },
}

impl RunOutcome {
    /// Returns true if the run ended with all tasks completed.
    pub fn is_quiescent(&self) -> bool {
        matches!(self, RunOutcome::Quiescent { .. })
    }

    /// Returns true if the run ended in a deadlock.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, RunOutcome::Deadlock { .. })
    }

    /// Time at which the run stopped.
    pub fn time(&self) -> SimTime {
        match self {
            RunOutcome::Quiescent { time } | RunOutcome::Deadlock { time, .. } => *time,
        }
    }
}

/// Cloneable handle to an executor, usable from inside tasks.
///
/// The same handle type serves both backends; spawned futures must be
/// `Send` so they are runnable on either.
#[derive(Clone)]
pub struct SimHandle {
    shared: Arc<HandleShared>,
}

/// What every clone of one executor's handle points at.
struct HandleShared {
    backend: Weak<dyn ExecutorBackend>,
    /// Deterministic backend only: mirror of the virtual clock in
    /// nanoseconds, written by the run loop whenever it advances time,
    /// so `now()` is one load instead of upgrade + dyn call + mutex.
    /// `Relaxed` suffices: the value publishes no other data, and the
    /// run loop and every task share one thread.
    clock: Option<AtomicU64>,
}

impl fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimHandle")
            .field("now", &self.now())
            .finish()
    }
}

impl SimHandle {
    /// The handle of `backend`. With `mirrored_clock`, `now()` reads a
    /// mirror the backend keeps current through
    /// [`SimHandle::set_clock`]; without, it asks the backend.
    pub(crate) fn new(backend: Weak<dyn ExecutorBackend>, mirrored_clock: bool) -> Self {
        SimHandle {
            shared: Arc::new(HandleShared {
                backend,
                clock: mirrored_clock.then(|| AtomicU64::new(0)),
            }),
        }
    }

    /// Publishes the backend's clock to every clone of this handle.
    pub(crate) fn set_clock(&self, now: SimTime) {
        if let Some(clock) = &self.shared.clock {
            clock.store(now.as_nanos(), Ordering::Relaxed);
        }
    }

    fn upgrade(&self) -> Arc<dyn ExecutorBackend> {
        self.shared
            .backend
            .upgrade()
            .expect("SimHandle used after its executor was dropped")
    }

    /// Which backend this handle belongs to.
    pub fn backend(&self) -> Backend {
        self.upgrade().backend()
    }

    /// Current time (virtual or monotonic-since-start).
    ///
    /// # Panics
    ///
    /// On the threaded backend, panics if the owning executor has been
    /// dropped.
    #[inline]
    pub fn now(&self) -> SimTime {
        match &self.shared.clock {
            Some(clock) => SimTime::from_nanos(clock.load(Ordering::Relaxed)),
            None => self.upgrade().now(),
        }
    }

    /// Returns a future that resolves after `duration`.
    pub fn sleep(&self, duration: SimDuration) -> Sleep {
        Sleep {
            handle: self.clone(),
            deadline: None,
            duration,
        }
    }

    /// Returns a future that resolves at the given instant (immediately
    /// if `deadline` is in the past).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            handle: self.clone(),
            deadline: Some(deadline),
            duration: SimDuration::ZERO,
        }
    }

    /// Yields to other ready tasks once.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Spawns a task onto the executor.
    pub fn spawn<T: Send + 'static>(
        &self,
        name: impl Into<TaskName>,
        future: impl Future<Output = T> + Send + 'static,
    ) -> JoinHandle<T> {
        self.spawn_inner(name.into(), None, future)
    }

    /// Spawns a long-running service task carrying an [`IdleToken`].
    ///
    /// Clone the token into the future and call
    /// [`IdleToken::set_idle`]/[`IdleToken::set_busy`] around its
    /// wait-for-work point; an idle service task does not count as a
    /// deadlock when the rest of the system drains.
    pub fn spawn_service<T: Send + 'static>(
        &self,
        name: impl Into<TaskName>,
        token: &IdleToken,
        future: impl Future<Output = T> + Send + 'static,
    ) -> JoinHandle<T> {
        self.spawn_inner(name.into(), Some(token.clone()), future)
    }

    fn spawn_inner<T: Send + 'static>(
        &self,
        name: TaskName,
        idle: Option<IdleToken>,
        future: impl Future<Output = T> + Send + 'static,
    ) -> JoinHandle<T> {
        let state = Arc::new(Mutex::new(JoinState {
            result: None,
            waker: None,
            finished: false,
        }));
        let state2 = Arc::clone(&state);
        let wrapped = async move {
            let out = future.await;
            let waker = {
                let mut st = state2.lock();
                st.result = Some(out);
                st.finished = true;
                st.waker.take()
            };
            if let Some(w) = waker {
                w.wake();
            }
        };
        let backend = self.upgrade();
        let id = backend.spawn_task(name, idle, Box::pin(wrapped));
        JoinHandle {
            state,
            id,
            backend: Weak::clone(&self.shared.backend),
        }
    }

    /// Draws a uniformly random `u64` from the executor's seeded RNG.
    pub fn rng_u64(&self) -> u64 {
        self.upgrade().rng_u64()
    }

    /// Draws a uniformly random value in `[0, bound)` from the seeded RNG.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn rng_range(&self, bound: u64) -> u64 {
        assert!(bound > 0, "rng_range bound must be positive");
        self.upgrade().rng_range(bound)
    }

    /// Records a span on the shared trace log.
    pub fn trace_span(
        &self,
        track: impl Into<Arc<str>>,
        label: impl Into<Arc<str>>,
        start: SimTime,
        end: SimTime,
    ) {
        let (track, label) = (track.into(), label.into());
        self.with_trace(move |t| t.record(track, label, start, end));
    }

    /// Runs `f` with mutable access to the trace log.
    pub fn with_trace<R>(&self, f: impl FnOnce(&mut TraceLog) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.upgrade().with_trace_log(&mut |trace| {
            if let Some(f) = f.take() {
                out = Some(f(trace));
            }
        });
        out.expect("with_trace_log must invoke the callback")
    }

    pub(crate) fn register_timer(&self, deadline: SimTime, waker: Waker) {
        self.upgrade().register_timer(deadline, waker);
    }
}

/// Future returned by [`SimHandle::sleep`].
#[derive(Debug)]
pub struct Sleep {
    handle: SimHandle,
    deadline: Option<SimTime>,
    duration: SimDuration,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let now = self.handle.now();
        match self.deadline {
            None => {
                // First poll: register the timer.
                let deadline = now + self.duration;
                self.deadline = Some(deadline);
                if deadline <= now {
                    return Poll::Ready(());
                }
                self.handle.register_timer(deadline, cx.waker().clone());
                Poll::Pending
            }
            Some(deadline) => {
                if now >= deadline {
                    Poll::Ready(())
                } else {
                    self.handle.register_timer(deadline, cx.waker().clone());
                    Poll::Pending
                }
            }
        }
    }
}

/// Future returned by [`SimHandle::yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
    finished: bool,
}

/// Handle to the output of a spawned task.
///
/// Awaiting the handle yields the task's output. Dropping it detaches
/// the task (the task keeps running).
pub struct JoinHandle<T> {
    state: Arc<Mutex<JoinState<T>>>,
    id: TaskId,
    backend: Weak<dyn ExecutorBackend>,
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinHandle")
            .field("task", &self.id)
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> JoinHandle<T> {
    /// Returns true if the task has run to completion.
    pub fn is_finished(&self) -> bool {
        self.state.lock().finished
    }

    /// Takes the output if the task has completed and the output has
    /// not been taken yet.
    pub fn try_take(&self) -> Option<T> {
        self.state.lock().result.take()
    }

    /// Forcibly removes the task from the executor.
    ///
    /// Used to model abrupt client/program failure: the task simply
    /// never runs again, exactly like a process that was killed. Safe
    /// to call on completed tasks (it is then a no-op).
    pub fn abort(&self) {
        if let Some(backend) = self.backend.upgrade() {
            backend.abort_task(self.id);
        }
    }

    /// The id of the underlying task.
    pub fn id(&self) -> TaskId {
        self.id
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.lock();
        if let Some(v) = st.result.take() {
            Poll::Ready(v)
        } else if st.finished {
            panic!("JoinHandle polled after output was taken");
        } else {
            st.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Awaits every handle in `handles`, returning outputs in order.
///
/// Concurrency comes from the tasks themselves (they were already
/// spawned); this helper merely collects their results.
pub async fn join_all<T>(handles: Vec<JoinHandle<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

/// Anything that can hand out a [`SimHandle`]: both executors, the
/// [`Executor`] front, and `SimHandle` itself. Lets runtime
/// constructors accept any of them.
pub trait ExecutorRef {
    /// A handle onto the underlying executor.
    fn executor_handle(&self) -> SimHandle;
}

impl ExecutorRef for SimHandle {
    fn executor_handle(&self) -> SimHandle {
        self.clone()
    }
}

impl<E: ExecutorRef + ?Sized> ExecutorRef for &E {
    fn executor_handle(&self) -> SimHandle {
        (**self).executor_handle()
    }
}

/// Uniform front over the two backends.
///
/// ```
/// use pathways_sim::{Executor, ExecutorKind, SimDuration};
///
/// for kind in [ExecutorKind::Deterministic, ExecutorKind::Threaded { workers: 2 }] {
///     let mut ex = Executor::new(kind, 42);
///     let h = ex.handle();
///     let task = ex.spawn("worker", async move {
///         h.sleep(SimDuration::from_micros(10)).await;
///         2 + 2
///     });
///     assert!(ex.run().is_quiescent());
///     assert_eq!(task.try_take(), Some(4));
/// }
/// ```
#[derive(Debug)]
pub enum Executor {
    /// Deterministic virtual-time backend.
    Deterministic(Sim),
    /// Work-stealing threaded backend.
    Threaded(ThreadedExecutor),
}

impl Executor {
    /// Creates an executor of the given kind; `seed` seeds its RNG.
    pub fn new(kind: ExecutorKind, seed: u64) -> Self {
        match kind {
            ExecutorKind::Deterministic => Executor::Deterministic(Sim::new(seed)),
            ExecutorKind::Threaded { workers } => {
                Executor::Threaded(ThreadedExecutor::new(workers, seed))
            }
        }
    }

    /// Creates an executor per `PATHWAYS_EXECUTOR` (see
    /// [`ExecutorKind::from_env`]).
    pub fn from_env(seed: u64) -> Self {
        Self::new(ExecutorKind::from_env(), seed)
    }

    /// Which backend is running.
    pub fn backend(&self) -> Backend {
        match self {
            Executor::Deterministic(_) => Backend::Deterministic,
            Executor::Threaded(_) => Backend::Threaded,
        }
    }

    /// True for the deterministic backend (use to gate bit-identical
    /// replay assertions; the threaded backend asserts invariants only).
    pub fn is_deterministic(&self) -> bool {
        matches!(self, Executor::Deterministic(_))
    }

    /// A cloneable handle for use inside tasks.
    pub fn handle(&self) -> SimHandle {
        match self {
            Executor::Deterministic(s) => s.handle(),
            Executor::Threaded(t) => t.handle(),
        }
    }

    /// Spawns a task and returns a handle to its eventual output.
    pub fn spawn<T: Send + 'static>(
        &self,
        name: impl Into<TaskName>,
        future: impl Future<Output = T> + Send + 'static,
    ) -> JoinHandle<T> {
        self.handle().spawn(name, future)
    }

    /// Runs until every task completes (or is parked idle) or no
    /// further progress is possible.
    pub fn run(&mut self) -> RunOutcome {
        match self {
            Executor::Deterministic(s) => s.run(),
            Executor::Threaded(t) => t.run(),
        }
    }

    /// Runs and panics with the stuck-task list on deadlock.
    ///
    /// # Panics
    ///
    /// Panics if the run deadlocks.
    pub fn run_to_quiescence(&mut self) -> SimTime {
        match self {
            Executor::Deterministic(s) => s.run_to_quiescence(),
            Executor::Threaded(t) => t.run_to_quiescence(),
        }
    }

    /// Current time.
    pub fn now(&self) -> SimTime {
        match self {
            Executor::Deterministic(s) => s.now(),
            Executor::Threaded(t) => t.now(),
        }
    }

    /// Takes the accumulated trace events, leaving the log empty.
    pub fn take_trace(&self) -> TraceLog {
        match self {
            Executor::Deterministic(s) => s.take_trace(),
            Executor::Threaded(t) => t.take_trace(),
        }
    }
}

impl ExecutorRef for Executor {
    fn executor_handle(&self) -> SimHandle {
        self.handle()
    }
}
