//! # pathways-core
//!
//! The Pathways runtime (Barham et al., MLSys 2022) rebuilt in Rust over
//! a simulated TPU cluster:
//!
//! * a **resource manager** handing out virtual device slices with a 1:1
//!   virtual→physical mapping (§4.1), exact per-device use-count
//!   accounting across remap/attach/detach churn, elastic healing
//!   ([`ResourceManager::heal`]: dead hardware → slices remapped onto
//!   spare capacity → programs re-lower on their next submit) and a
//!   churn defragmenter ([`ResourceManager::rebalance`]),
//! * a **client library** that traces programs into a compact sharded IR
//!   and lowers it to a PLAQUE dataflow (§3, §4.2, §4.3), with
//!   non-blocking submission returning typed [`ObjectRef`] data futures
//!   that chain programs through external inputs
//!   ([`ProgramBuilder::input`] + [`Client::submit_with`]) without
//!   awaiting intermediate runs,
//! * per-island **centralized gang schedulers** that consistently order
//!   all computations sharing an island (§4.4), with a pluggable policy
//!   engine ([`sched::policy`]) shipping FIFO, stride proportional
//!   share, strict priority, and gang-aware weighted-fair queueing,
//! * per-host **executors** implementing parallel asynchronous dispatch
//!   with a sequential fallback (§4.5),
//! * a **sharded object store** with logical-buffer refcounting,
//!   ownership-labelled GC, and HBM back-pressure (§4.2, §4.6).
//!
//! ## Quickstart
//!
//! ```
//! use pathways_core::{FnSpec, PathwaysConfig, PathwaysRuntime, SliceRequest};
//! use pathways_net::{ClusterSpec, HostId, NetworkParams};
//! use pathways_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(0);
//! let rt = PathwaysRuntime::new(
//!     &sim,
//!     ClusterSpec::config_b(2),
//!     NetworkParams::tpu_cluster(),
//!     PathwaysConfig::default(),
//! );
//! let client = rt.client(HostId(0));
//! let slice = client.virtual_slice(SliceRequest::devices(8))?;
//! let mut b = client.trace("step");
//! let f = FnSpec::compute_only("train_step", SimDuration::from_millis(1)).with_allreduce(4);
//! let comp = b.computation(f, &slice);
//! let program = b.build()?;
//! let prepared = client.prepare(&program);
//! let job = sim.spawn("client", async move {
//!     let result = client.run(&prepared).await;
//!     result.objects().len()
//! });
//! sim.run_to_quiescence();
//! assert_eq!(job.try_take().unwrap(), 1);
//! # let _ = comp;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Chaining programs through `ObjectRef` futures
//!
//! ```
//! use pathways_core::{FnSpec, InputSpec, PathwaysConfig, PathwaysRuntime, SliceRequest};
//! use pathways_net::{ClusterSpec, HostId, NetworkParams};
//! use pathways_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(0);
//! let rt = PathwaysRuntime::new(
//!     &sim,
//!     ClusterSpec::config_b(2),
//!     NetworkParams::tpu_cluster(),
//!     PathwaysConfig::default(),
//! );
//! let client = rt.client(HostId(0));
//! let slice = client.virtual_slice(SliceRequest::devices(8))?;
//!
//! let mut b = client.trace("producer");
//! let f = b.computation(
//!     FnSpec::compute_only("f", SimDuration::from_micros(100)).with_output_bytes(1 << 10),
//!     &slice,
//! );
//! let producer = client.prepare(&b.build()?);
//!
//! let mut b = client.trace("consumer");
//! let x = b.input(InputSpec::new("x", 8)); // bound at submit time
//! let g = b.computation(FnSpec::compute_only("g", SimDuration::from_micros(100)), &slice);
//! b.edge(x, g, 1 << 10);
//! let consumer = client.prepare(&b.build()?);
//!
//! let job = sim.spawn("client", async move {
//!     let run1 = client.submit(&producer).await; // non-blocking
//!     let fut = run1.object_ref(f).unwrap();     // future, data not produced yet
//!     let run2 = client.submit_with(&consumer, &[(x, fut)]).await.unwrap();
//!     // Both programs are in flight; await only the tail.
//!     let result = run2.finish().await;
//!     run1.finish().await;
//!     result.objects().len()
//! });
//! sim.run_to_quiescence();
//! assert_eq!(job.try_take().unwrap(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod chaos;
mod client;
mod config;
mod context;
mod exec;
mod fault;
pub mod housekeeping;
mod objref;
mod ops;
mod program;
mod resource;
mod runtime;
pub mod sched;
mod storage;

pub use client::{Client, Run, RunResult, SubmitError};
pub use config::{DispatchMode, PathwaysConfig};
pub use context::{CoreCtx, InputKey, InputSlot};
pub use exec::{CompRegistration, EnqueueInfo, ExecutorShared};
pub use fault::{FailureState, FaultInjector, FaultSpec, RunFootprint};
pub use housekeeping::{ErrorLog, HealLog};
pub use objref::ObjectRef;
pub use ops::{PreparedProgram, ProgInfo};
pub use program::{
    CompId, Computation, DataEdge, FnSpec, InputSpec, Program, ProgramBuilder, ProgramError,
    ShardMapping,
};
pub use resource::{
    HealEvent, ResourceError, ResourceManager, SliceId, SliceRequest, VirtualSlice,
};
pub use runtime::PathwaysRuntime;
pub use sched::policy::{
    FifoPolicy, PriorityPolicy, QueuedProgram, SchedPolicyImpl, StridePolicy, WfqPolicy,
};
pub use sched::{SchedPolicy, SchedulerHandle};
pub use storage::{
    FailureReason, ObjectError, ObjectId, ObjectStore, PlacementPolicy, RecoveryStats,
    SegmentStats, SpillEvent, StoreError, StoredShard, Tier, TierConfig, TierStats,
};
