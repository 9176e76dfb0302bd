//! Per-host executors: the host-side half of gang-scheduled dynamic
//! dispatch (§4.4) and parallel asynchronous dispatch (§4.5).
//!
//! The executor consumes grant batches from its island's scheduler in
//! strict FIFO order and performs, for each granted computation shard:
//! output-buffer reservation (HBM back-pressure applies here),
//! input-future wiring, and the PCIe enqueue. Because grants arrive on a
//! FIFO channel from a single scheduler, every device's queue sees
//! concurrent programs' collectives in the same relative order — the
//! deadlock-freedom invariant.
//!
//! The executor starts a granted shard's dataflow operator itself:
//! `PlaqueRuntime::start_local` runs the operator's `on_start`, which
//! registers the shard's input events and enqueue channel here, before
//! it returns. So the executor takes the registration straight away;
//! only a failed run, whose registrations the fault injector swept, can
//! lack one.

use pathways_sim::hash::FxHashMap;
use pathways_sim::Lock;
use std::fmt;
use std::sync::Arc;

use pathways_device::{CollectiveOp, DeviceHandle, EnqueuedKernel, Kernel, KernelCompletion};
use pathways_net::{DeviceId, Fabric, HostId, Router};
use pathways_plaque::RunId;
use pathways_sim::channel::{self, OneshotReceiver, OneshotSender};
use pathways_sim::sync::{first_set, Event};
use pathways_sim::{IdleToken, SimHandle};

use crate::config::DispatchMode;
use crate::fault::FailureState;
use crate::program::CompId;
use crate::sched::GrantMsg;
use crate::storage::{ObjectId, ObjectStore};

/// Key identifying one computation shard of one run.
pub type ShardKey = (RunId, CompId, u32);

/// What a computation shard's dataflow operator hands to the executor so
/// its kernel can be enqueued.
pub struct CompRegistration {
    /// One readiness event per in-edge; the kernel waits on all of them.
    pub input_events: Vec<Event>,
    /// Sequential-dispatch gate: set once all predecessor future handles
    /// arrived. Parallel dispatch ignores it.
    pub prereq: Event,
    /// Fired by the executor once the kernel is enqueued, with the
    /// receiver that resolves when the kernel finishes on the device.
    pub on_enqueued: OneshotSender<OneshotReceiver<KernelCompletion>>,
}

impl fmt::Debug for CompRegistration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompRegistration")
            .field("inputs", &self.input_events.len())
            .finish_non_exhaustive()
    }
}

/// Registration hand-off between dataflow operators and the host
/// executor.
#[derive(Clone, Default)]
pub struct ExecutorShared {
    regs: Arc<Lock<FxHashMap<ShardKey, CompRegistration>>>,
}

impl fmt::Debug for ExecutorShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutorShared")
            .field("pending_registrations", &self.regs.lock().len())
            .finish()
    }
}

impl ExecutorShared {
    /// Creates an empty rendezvous.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a shard (called by the operator's `on_start`).
    ///
    /// # Panics
    ///
    /// Panics on duplicate registration of the same key.
    pub fn register(&self, key: ShardKey, reg: CompRegistration) {
        let prev = self.regs.lock().insert(key, reg);
        assert!(prev.is_none(), "shard {key:?} registered twice");
    }

    /// Drops every pending registration of `run` (failure sweep): the
    /// dropped `on_enqueued` senders make the shard drivers observe the
    /// abort.
    pub fn fail_run(&self, run: RunId) {
        self.regs.lock().retain(|(r, _, _), _| *r != run);
    }

    /// Takes the registration of a shard whose operator has started;
    /// `None` if the run failed and the fault injector swept it.
    ///
    /// # Panics
    ///
    /// Panics if a live run's shard never registered: starting it runs
    /// its `on_start`, which registers before returning.
    fn take(&self, key: ShardKey, failures: &FailureState) -> Option<CompRegistration> {
        let reg = self.regs.lock().remove(&key);
        assert!(
            reg.is_some() || failures.run_failed(key.0),
            "shard {key:?} of a live run started without registering"
        );
        reg
    }
}

/// Spawns the executor task for `host`.
#[allow(clippy::too_many_arguments)]
#[expect(clippy::panic, reason = "grants name only devices the runtime built")]
pub fn spawn_executor(
    handle: &SimHandle,
    host: HostId,
    router: &Router<Vec<GrantMsg>>,
    shared: ExecutorShared,
    fabric: Fabric,
    store: ObjectStore,
    devices: Arc<FxHashMap<DeviceId, DeviceHandle>>,
    plaque: pathways_plaque::PlaqueRuntime,
    failures: FailureState,
    mode: DispatchMode,
) {
    let mut inbox = router.register(host);
    let token = IdleToken::new();
    let token_task = token.clone();
    handle.spawn_service(format!("executor-{host}"), &token, async move {
        loop {
            token_task.set_idle();
            let Some(env) = inbox.recv().await else { break };
            token_task.set_busy();
            // Strict FIFO processing preserves the scheduler's global
            // order on every local device queue.
            for grant in env.msg {
                // Grants of a failed run are skipped wholesale: the
                // fault injector already force-started the run's shards
                // and swept their registrations, so touching them here
                // would double-start them.
                if failures.run_failed(grant.run) {
                    continue;
                }
                let object = ObjectId {
                    run: grant.run,
                    comp: grant.comp,
                };
                // Intermediate outputs are runtime-owned (released by the
                // producer once consumers have their copies). Sink outputs
                // were declared by the client at submit time; re-creating
                // one here would resurrect an output whose ObjectRef the
                // client already dropped.
                if !grant.sink {
                    store.create(object, grant.client);
                }
                // The grant message carries the subgraph-start
                // information (§4.5's single message): trigger the local
                // dataflow shards in place, no extra fan-out.
                for (shard, _) in &grant.local_shards {
                    plaque.start_local(
                        host,
                        grant.run,
                        pathways_plaque::NodeId(grant.comp.0),
                        *shard,
                    );
                }
                for (shard, device_id) in &grant.local_shards {
                    let device = devices
                        .get(device_id)
                        .unwrap_or_else(|| panic!("unknown {device_id} in grant"))
                        .clone();
                    debug_assert_eq!(
                        fabric.topology().host_of_device(*device_id),
                        host,
                        "grant routed to wrong host"
                    );
                    let Some(reg) = shared.take((grant.run, grant.comp, *shard), &failures) else {
                        // The run failed while this grant's earlier
                        // shards were being enqueued.
                        continue;
                    };
                    if mode == DispatchMode::Sequential {
                        reg.prereq.wait().await;
                    }
                    // Host-side resource allocation: the output buffer in
                    // the object store (HBM back-pressure applies; on a
                    // tiered store, HBM pressure first spills LRU ready
                    // shards to host DRAM).
                    store
                        .put_shard(object, *shard, &device, grant.output_bytes)
                        .await;
                    // Wire input futures, each raced against the run's
                    // failure: a run failed mid-enqueue may have had its
                    // input slots swept by the aborting shard driver, so
                    // nothing would ever deliver the event. The unblock
                    // matches poison semantics — the kernel drains, the
                    // run's typed error is what consumers observe.
                    let cancel = failures.failed_event(grant.run);
                    let inputs_ready = reg
                        .input_events
                        .iter()
                        .map(|ev| first_set(ev, cancel.as_ref()))
                        .collect();
                    let kernel = Kernel {
                        label: Arc::clone(&grant.label),
                        compute: grant.compute,
                        collective: grant.collective.map(|(kind, duration)| CollectiveOp {
                            kind,
                            tag: grant.gang_tag,
                            participants: grant.participants,
                            duration,
                            devices: Arc::clone(&grant.gang_devices),
                        }),
                        output_bytes: grant.output_bytes,
                    };
                    // The asynchronous PCIe enqueue (host CPU + driver).
                    fabric.pcie_enqueue(host).await;
                    let (done_tx, done_rx) = channel::oneshot();
                    // Enqueueing to a dead device drops the job (and its
                    // completion sender), which the shard driver observes
                    // as a kernel abort — same path as a death with the
                    // kernel already queued.
                    let _ = device.enqueue(EnqueuedKernel {
                        kernel,
                        program: Arc::clone(&grant.label),
                        inputs_ready,
                        done: Some(done_tx),
                        // Gang owner: run id + 1 (0 is the rendezvous's
                        // "unknown owner" sentinel; RunId(0) is real).
                        owner: grant.run.0 + 1,
                    });
                    let _ = reg.on_enqueued.send(done_rx);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registration() -> CompRegistration {
        CompRegistration {
            input_events: vec![],
            prereq: Event::new(),
            on_enqueued: channel::oneshot().0,
        }
    }

    #[test]
    fn registration_rendezvous_is_order_independent() {
        // The operator registers first (its `on_start` runs inside
        // `start_local`); the executor takes the registration once.
        let shared = ExecutorShared::new();
        let failures = FailureState::new();
        let key: ShardKey = (RunId(1), CompId(0), 0);
        shared.register(key, registration());
        assert!(shared.take(key, &failures).is_some());
        assert!(shared.regs.lock().is_empty());
    }

    #[test]
    fn a_swept_registration_of_a_failed_run_is_none() {
        use crate::{FnSpec, PathwaysConfig, PathwaysRuntime, SliceRequest};
        use pathways_net::{ClusterSpec, NetworkParams};
        use pathways_sim::{Sim, SimDuration, SimTime};
        // A run still in flight when its client fails.
        let mut sim = Sim::new(0);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(1),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let slice = client.virtual_slice(SliceRequest::devices(1)).unwrap();
        let mut b = client.trace("long");
        b.computation(
            FnSpec::compute_only("k", SimDuration::from_millis(1)),
            &slice,
        );
        let prepared = client.prepare(&b.build().unwrap());
        let id = client.id();
        let job = sim.spawn("client", async move { client.submit(&prepared).await });
        sim.run_until_time(SimTime::ZERO + SimDuration::from_micros(100));
        let run = job.try_take().expect("submitted").run();
        rt.fail_client(id);
        let (shared, failures) = (&rt.core().executors[&HostId(0)], &rt.core().failures);
        assert!(failures.run_failed(run));
        // A registration the failure sweep drops is reported as `None`.
        let key: ShardKey = (run, CompId(7), 0);
        shared.register(key, registration());
        shared.fail_run(run);
        assert!(shared.take(key, failures).is_none());
    }

    #[test]
    #[should_panic(expected = "started without registering")]
    fn a_missing_registration_of_a_live_run_panics() {
        let shared = ExecutorShared::new();
        shared.take((RunId(0), CompId(0), 0), &FailureState::new());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let shared = ExecutorShared::new();
        let key: ShardKey = (RunId(0), CompId(0), 0);
        shared.register(key, registration());
        shared.register(key, registration());
    }
}
