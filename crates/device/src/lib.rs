//! # pathways-device
//!
//! A simulated TPU-like accelerator for the Pathways reproduction.
//!
//! What matters for the paper's arguments is not what a TPU computes but
//! *how it schedules*: one in-order non-preemptible kernel queue per
//! device, gang collectives that block the queue until every participant
//! arrives (so inconsistent enqueue orders deadlock, §2), statically
//! known resource requirements for compiled functions (§3, Appendix B),
//! and HBM capacity with back-pressure (§4.6). This crate implements
//! exactly those semantics over the virtual-time executor.
//!
//! ## Example
//!
//! ```
//! use pathways_device::{CollectiveRendezvous, DeviceConfig, DeviceHandle, Kernel};
//! use pathways_net::DeviceId;
//! use pathways_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(0);
//! let rz = CollectiveRendezvous::new(sim.handle());
//! let dev = DeviceHandle::spawn(&sim.handle(), DeviceId(0), rz, DeviceConfig::default());
//! let done = dev.enqueue_simple(Kernel::compute("step", SimDuration::from_millis(1)), "demo");
//! let probe = sim.spawn("probe", async move { done.await.unwrap() });
//! drop(dev);
//! sim.run_to_quiescence();
//! assert_eq!(probe.try_take().unwrap().finished.as_nanos(), 1_000_000);
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod device;
mod gang;
mod hbm;
mod kernel;

pub use device::{
    DeviceConfig, DeviceDead, DeviceHandle, DeviceStats, EnqueuedKernel, Fleet, KernelCompletion,
};
pub use gang::{CollectiveRendezvous, GangAborted};
pub use hbm::{HbmLease, HbmPool};
pub use kernel::{CollectiveOp, GangTag, Kernel};
