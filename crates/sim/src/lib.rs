//! # pathways-sim
//!
//! Deterministic virtual-time discrete-event simulation substrate for the
//! Pathways reproduction.
//!
//! The paper's evaluation runs on thousands of TPU cores; this crate
//! replaces wall-clock time on that testbed with a deterministic
//! single-threaded async executor whose clock only advances when every
//! runnable task has yielded. Hosts, schedulers, device executors and
//! clients are all ordinary Rust `async` tasks; latencies are modelled by
//! [`SimHandle::sleep`] rather than measured.
//!
//! Determinism matters here: the paper's Figures 9–12 are execution
//! traces, and with a deterministic executor our reproductions of those
//! traces are bit-identical across runs.
//!
//! ## Example
//!
//! ```
//! use pathways_sim::{channel, Sim, SimDuration};
//!
//! let mut sim = Sim::new(0);
//! let (tx, mut rx) = channel::channel();
//! let h = sim.handle();
//! sim.spawn("device", async move {
//!     // Model a 10us kernel.
//!     h.sleep(SimDuration::from_micros(10)).await;
//!     tx.send("kernel done").unwrap();
//! });
//! let host = sim.spawn("host", async move { rx.recv().await });
//! sim.run_to_quiescence();
//! assert_eq!(host.try_take().unwrap(), Some("kernel done"));
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod exec;
pub mod fault;
pub mod hash;
pub mod lock;
pub mod sync;
mod time;
pub mod trace;
mod wheel;

pub use exec::{
    join_all, join_each, Executor, ExecutorBackend, ExecutorKind, ExecutorRef, IdleToken, JoinEach,
    JoinHandle, RenderName, RunOutcome, Sim, SimHandle, Sleep, TaskId, TaskName, ThreadedExecutor,
    YieldNow,
};
pub use fault::{FaultPlan, FaultSignal, FaultStamp};
pub use hash::{FxHashMap, FxHashSet};
pub use lock::{contention_profile, Lock, LockGuard, LockProfile};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceLog, TraceSpan};
