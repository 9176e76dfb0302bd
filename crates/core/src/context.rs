//! Shared runtime context threaded through operators and clients.

use pathways_sim::hash::FxHashMap;
use pathways_sim::Lock;
use std::fmt;
use std::sync::Arc;

use pathways_device::DeviceHandle;
use pathways_net::{DeviceId, Fabric, HostId, IslandId, Router};
use pathways_plaque::{PlaqueRuntime, RunId};
use pathways_sim::SimHandle;

use pathways_sim::sync::Event;

use crate::config::PathwaysConfig;
use crate::exec::ExecutorShared;
use crate::fault::FailureState;
use crate::objref::InputBinding;
use crate::program::CompId;
use crate::sched::{GrantMsg, SubmitMsg};
use crate::storage::ObjectStore;

/// Key of one consumer input: `(run, consumer comp, consumer shard,
/// local in-edge index)`.
pub type InputKey = (RunId, CompId, u32, usize);

/// A consumer shard's input buffer: producers decrement `remaining` as
/// their transfers land; the kernel's input future fires at zero.
///
/// This models the ICI path of §4.5: "outputs are sent via the
/// accelerator interconnect directly into node B's input buffers, and
/// then host B starts node B" — the data arrival itself is the trigger,
/// with no host or DCN message in the critical path.
#[derive(Debug, Clone)]
pub struct InputSlot {
    remaining: std::sync::Arc<std::sync::atomic::AtomicU64>,
    event: Event,
}

impl InputSlot {
    /// Creates a slot expecting `expected` producer transfers; fires
    /// immediately when `expected` is zero.
    pub fn new(expected: u64) -> Self {
        let event = Event::new();
        if expected == 0 {
            event.set();
        }
        InputSlot {
            remaining: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(expected)),
            event,
        }
    }

    /// The readiness event the kernel waits on.
    pub fn event(&self) -> &Event {
        &self.event
    }

    /// Records one producer transfer landing.
    ///
    /// # Panics
    ///
    /// Panics if more transfers land than were expected.
    pub fn deliver(&self) {
        let left = self
            .remaining
            .fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
        assert!(left > 0, "input slot over-delivered");
        if left == 1 {
            self.event.set();
        }
    }
}

/// Everything the runtime's moving parts share.
pub struct CoreCtx {
    /// Simulation handle.
    pub handle: SimHandle,
    /// The interconnect fabric.
    pub fabric: Fabric,
    /// The cluster-wide object store.
    pub store: ObjectStore,
    /// The coordination substrate.
    pub plaque: PlaqueRuntime,
    /// Client → scheduler control channel.
    pub sched_router: Router<SubmitMsg>,
    /// Scheduler → executor control channel.
    pub exec_router: Router<Vec<GrantMsg>>,
    /// All device handles.
    pub devices: Arc<FxHashMap<DeviceId, DeviceHandle>>,
    /// Per-host executor hand-off: a kernel shard's `on_start` registers
    /// its inputs here, and the host's executor, which started the shard,
    /// takes the registration as soon as the start returns.
    pub executors: FxHashMap<HostId, ExecutorShared>,
    /// Island → scheduler host.
    pub sched_hosts: FxHashMap<IslandId, HostId>,
    /// Bound external inputs, keyed by `(run, input comp)`. Installed by
    /// `Client::submit_with` before the run launches; removed by the
    /// last input shard once its transfers are driven.
    pub(crate) bindings: Lock<FxHashMap<(RunId, CompId), Arc<InputBinding>>>,
    /// Live consumer input buffers (see [`InputSlot`]).
    pub input_slots: Lock<FxHashMap<InputKey, InputSlot>>,
    /// Shared failure registry: dead hardware and failed runs, consulted
    /// by clients (fail-fast submission), schedulers (eviction) and
    /// executors (grant skipping).
    pub failures: FailureState,
    /// Runtime configuration.
    pub cfg: PathwaysConfig,
}

impl fmt::Debug for CoreCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoreCtx")
            .field("devices", &self.devices.len())
            .field("hosts", &self.executors.len())
            .finish()
    }
}

impl CoreCtx {
    /// Moves `bytes` from `src` device's HBM to `dst` device's HBM over
    /// the appropriate interconnect: in-place (same device), ICI (same
    /// island) or PCIe→DCN→PCIe (across islands).
    pub async fn move_bytes(&self, src: DeviceId, dst: DeviceId, bytes: u64) {
        if src == dst || bytes == 0 {
            self.handle.yield_now().await;
            return;
        }
        let topo = Arc::clone(self.fabric.topology());
        if topo.same_island(src, dst) {
            self.fabric.ici_transfer(src, dst, bytes).await;
        } else {
            let sh = topo.host_of_device(src);
            let dh = topo.host_of_device(dst);
            self.fabric.pcie_transfer(sh, src, bytes).await;
            self.fabric.dcn_send(sh, dh, bytes).await;
            self.fabric.pcie_transfer(dh, dst, bytes).await;
        }
    }
}
