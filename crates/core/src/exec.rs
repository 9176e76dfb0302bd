//! Per-host executors: the host-side half of gang-scheduled dynamic
//! dispatch (§4.4) and parallel asynchronous dispatch (§4.5).
//!
//! The executor consumes grant batches from its island's scheduler in
//! strict FIFO order and performs, for each granted computation shard:
//! output-buffer reservation (HBM back-pressure applies here), input
//! staging allocation, input-future wiring, and the PCIe enqueue. Because
//! grants arrive on a FIFO channel from a single scheduler, every
//! device's queue sees concurrent programs' collectives in the same
//! relative order — the deadlock-freedom invariant.

use pathways_sim::hash::FxHashMap;
use pathways_sim::Lock;
use std::fmt;
use std::sync::Arc;

use pathways_device::{
    CollectiveOp, DeviceHandle, EnqueuedKernel, HbmLease, Kernel, KernelCompletion,
};
use pathways_net::{DeviceId, Fabric, HostId, Router};
use pathways_plaque::RunId;
use pathways_sim::channel::{self, OneshotReceiver, OneshotSender};
use pathways_sim::sync::{Event, Notify};
use pathways_sim::{IdleToken, SimHandle};

use crate::config::DispatchMode;
use crate::fault::FailureState;
use crate::program::CompId;
use crate::sched::CtrlMsg;
use crate::storage::{ObjectId, ObjectStore};

/// Key identifying one computation shard of one run.
pub type ShardKey = (RunId, CompId, u32);

/// What a computation shard's dataflow operator hands to the executor so
/// its kernel can be enqueued.
pub struct CompRegistration {
    /// One readiness event per in-edge; the kernel waits on all of them.
    pub input_events: Vec<Event>,
    /// Sequential-dispatch gate: set once all predecessor future handles
    /// arrived. `None` in parallel mode.
    pub prereq: Option<Event>,
    /// Fired by the executor once the kernel is enqueued.
    pub on_enqueued: OneshotSender<EnqueueInfo>,
}

impl fmt::Debug for CompRegistration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompRegistration")
            .field("inputs", &self.input_events.len())
            .field("sequential", &self.prereq.is_some())
            .finish()
    }
}

/// Delivered to the operator when its kernel has been enqueued.
pub struct EnqueueInfo {
    /// Resolves when the kernel finishes on the device.
    pub completion: OneshotReceiver<KernelCompletion>,
    /// Transient input-staging reservation, dropped after completion.
    pub input_lease: Option<HbmLease>,
}

impl fmt::Debug for EnqueueInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnqueueInfo").finish_non_exhaustive()
    }
}

/// Registration rendezvous between dataflow operators and the host
/// executor.
#[derive(Clone, Default)]
pub struct ExecutorShared {
    regs: Arc<Lock<FxHashMap<ShardKey, CompRegistration>>>,
    arrival: Notify,
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
        self.arrival.notify_waiters();
    }

    /// Drops every pending registration of `run` (failure sweep): the
    /// dropped `on_enqueued` senders make the shard drivers observe the
    /// abort, and any executor parked in `wait_for` on
    /// one of the run's shards is woken to notice the failure.
    pub fn fail_run(&self, run: RunId) {
        self.regs.lock().retain(|(r, _, _), _| *r != run);
        self.arrival.notify_waiters();
    }

    /// Waits for the shard's registration; `None` if the run is failed
    /// (the registration was, or will be, swept by the fault injector).
    async fn wait_for(&self, key: ShardKey, failures: &FailureState) -> Option<CompRegistration> {
        loop {
            if let Some(reg) = self.regs.lock().remove(&key) {
                return Some(reg);
            }
            if failures.run_failed(key.0) {
                return None;
            }
            self.arrival.notified().await;
        }
    }
}

/// Spawns the executor task for `host`.
#[allow(clippy::too_many_arguments)]
pub fn spawn_executor(
    handle: &SimHandle,
    host: HostId,
    router: &Router<CtrlMsg>,
    shared: ExecutorShared,
    fabric: Fabric,
    store: ObjectStore,
    devices: Arc<FxHashMap<DeviceId, DeviceHandle>>,
    plaque: pathways_plaque::PlaqueRuntime,
    failures: FailureState,
    mode: DispatchMode,
) {
    let mut inbox = router.register(host);
    let h = handle.clone();
    let token = IdleToken::new();
    let token_task = token.clone();
    handle.spawn_service(format!("executor-{host}"), &token, async move {
        loop {
            token_task.set_idle();
            let Some(env) = inbox.recv().await else { break };
            token_task.set_busy();
            let CtrlMsg::Grants(grants) = env.msg else {
                panic!("executor received a non-grant control message");
            };
            // Strict FIFO processing preserves the scheduler's global
            // order on every local device queue.
            for grant in grants {
                // Grants of a failed run are skipped wholesale: the
                // fault injector already force-started the run's shards
                // and swept their registrations, so touching them here
                // would double-start (and waiting for their
                // registrations would wedge this executor).
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
                    let Some(reg) = shared
                        .wait_for((grant.run, grant.comp, *shard), &failures)
                        .await
                    else {
                        // The run failed while this grant was in flight.
                        continue;
                    };
                    if mode == DispatchMode::Sequential {
                        if let Some(prereq) = &reg.prereq {
                            prereq.wait().await;
                        }
                    }
                    // Host-side resource allocation: output buffer in the
                    // object store (HBM back-pressure applies) plus
                    // transient input staging. On a tiered store, HBM
                    // pressure first spills LRU ready shards to host
                    // DRAM so the staging allocation need not stall.
                    let input_lease = if grant.input_bytes > 0 {
                        store.ensure_room(&device, grant.input_bytes).await;
                        Some(device.hbm().allocate(grant.input_bytes).await)
                    } else {
                        None
                    };
                    store
                        .put_shard(object, *shard, &device, grant.output_bytes)
                        .await;
                    // Wire input futures.
                    let mut inputs_ready = Vec::with_capacity(reg.input_events.len());
                    for ev in &reg.input_events {
                        let (tx, rx) = channel::oneshot();
                        let ev = ev.clone();
                        // Raced against the run's failure: a run failed
                        // mid-enqueue may have had its input slots swept
                        // by the aborting shard driver before this
                        // adapter started waiting, so nothing would ever
                        // deliver the event. The unblock matches poison
                        // semantics — the kernel drains, the run's typed
                        // error is what consumers observe.
                        let cancel = failures.failed_event(grant.run);
                        h.spawn("input-adapter", async move {
                            crate::ops::event_or_cancel(&ev, cancel.as_ref()).await;
                            let _ = tx.send(());
                        });
                        inputs_ready.push(rx);
                    }
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
                    let _ = reg.on_enqueued.send(EnqueueInfo {
                        completion: done_rx,
                        input_lease,
                    });
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_rendezvous_is_order_independent() {
        use pathways_sim::{Sim, SimDuration};
        let mut sim = Sim::new(0);
        let shared = ExecutorShared::new();
        let key: ShardKey = (RunId(1), CompId(0), 0);
        // Waiter first, registration later.
        let s2 = shared.clone();
        let failures = FailureState::new();
        let f2 = failures.clone();
        let waiter = sim.spawn("waiter", async move { s2.wait_for(key, &f2).await });
        let s3 = shared.clone();
        let h = sim.handle();
        sim.spawn("registrar", async move {
            h.sleep(SimDuration::from_micros(5)).await;
            let (tx, _rx) = channel::oneshot();
            s3.register(
                key,
                CompRegistration {
                    input_events: vec![],
                    prereq: None,
                    on_enqueued: tx,
                },
            );
        });
        sim.run_to_quiescence();
        assert!(waiter.is_finished());
        // Registration first, waiter later.
        let mut sim = Sim::new(0);
        let shared = ExecutorShared::new();
        let (tx, _rx) = channel::oneshot();
        shared.register(
            key,
            CompRegistration {
                input_events: vec![],
                prereq: None,
                on_enqueued: tx,
            },
        );
        let s2 = shared.clone();
        let f3 = failures.clone();
        let waiter = sim.spawn("waiter", async move { s2.wait_for(key, &f3).await });
        sim.run_to_quiescence();
        assert!(waiter.is_finished());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let shared = ExecutorShared::new();
        let key: ShardKey = (RunId(0), CompId(0), 0);
        let (tx1, _r1) = channel::oneshot();
        let (tx2, _r2) = channel::oneshot();
        shared.register(
            key,
            CompRegistration {
                input_events: vec![],
                prereq: None,
                on_enqueued: tx1,
            },
        );
        shared.register(
            key,
            CompRegistration {
                input_events: vec![],
                prereq: None,
                on_enqueued: tx2,
            },
        );
    }
}
