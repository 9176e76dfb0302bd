//! The simulated accelerator proper.
//!
//! A device is a single in-order, non-preemptible kernel queue (Appendix
//! A.5: TPUs "are restricted to run a single program at a time, with no
//! local pre-emption"). Work is enqueued asynchronously — the enqueueing
//! host never blocks — and each kernel:
//!
//! 1. waits for its input buffers to be ready (futures, §4.4),
//! 2. runs its gang collective, blocking the queue until every
//!    participant reaches the same collective,
//! 3. computes for its statically-known duration.
//!
//! The device records a trace span per kernel and per-program busy time,
//! which the multi-tenancy experiments (Figures 8, 9, 11) read back.

use pathways_sim::Lock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use pathways_net::DeviceId;
use pathways_sim::channel::{self, OneshotReceiver, OneshotSender, Sender};
use pathways_sim::{FaultSignal, SimDuration, SimHandle, SimTime};

use crate::gang::CollectiveRendezvous;
use crate::hbm::HbmPool;
use crate::kernel::Kernel;

/// Error returned by [`DeviceHandle::enqueue`] when the device has
/// failed (fault injection) or its queue task has exited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceDead {
    /// The dead device.
    pub device: DeviceId,
    /// Why it died, when a fault stamp is available.
    pub reason: Option<String>,
}

impl fmt::Display for DeviceDead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reason {
            Some(r) => write!(f, "{} is dead ({r})", self.device),
            None => write!(f, "{} has shut down", self.device),
        }
    }
}

impl std::error::Error for DeviceDead {}

/// Configuration of one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// HBM capacity in bytes. The paper's T5 experiments use TPUv3 with
    /// 16 GiB per core.
    pub hbm_capacity: u64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            hbm_capacity: 16 << 30,
        }
    }
}

/// Completion record delivered when a kernel finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCompletion {
    /// When the kernel reached the head of the queue.
    pub dequeued: SimTime,
    /// When the kernel finished.
    pub finished: SimTime,
}

/// One enqueued unit of work.
pub struct EnqueuedKernel {
    /// The kernel to run.
    pub kernel: Kernel,
    /// Owning program label (used for traces and per-program accounting).
    pub program: Arc<str>,
    /// Input-readiness futures; the kernel starts only after all resolve.
    /// A dropped sender counts as ready (the producer was cleaned up; the
    /// data was already in HBM).
    pub inputs_ready: Vec<OneshotReceiver<()>>,
    /// Completion notification; dropped silently if the receiver is gone.
    pub done: Option<OneshotSender<KernelCompletion>>,
    /// Owning run id for gang-abort bookkeeping (0 = none/unknown).
    /// Carried to the rendezvous so a run failure aborts its gangs even
    /// when some members' grants were lost before enqueue.
    pub owner: u64,
}

impl fmt::Debug for EnqueuedKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnqueuedKernel")
            .field("kernel", &self.kernel.label)
            .field("program", &self.program)
            .field("inputs", &self.inputs_ready.len())
            .finish()
    }
}

/// Aggregate statistics of one device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Kernels executed to completion.
    pub kernels: u64,
    /// Total busy time (collective wire time + compute), excluding time
    /// spent waiting for inputs or for gang partners.
    pub busy: SimDuration,
    /// Busy time per program label.
    pub busy_by_program: BTreeMap<String, SimDuration>,
}

/// Handle for enqueueing work onto a spawned device.
#[derive(Clone)]
pub struct DeviceHandle {
    id: DeviceId,
    tx: Sender<EnqueuedKernel>,
    hbm: HbmPool,
    stats: Arc<Lock<DeviceStats>>,
    fault: FaultSignal,
    rendezvous: CollectiveRendezvous,
}

impl fmt::Debug for DeviceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceHandle")
            .field("id", &self.id)
            .field("hbm_free", &self.hbm.free())
            .finish()
    }
}

impl DeviceHandle {
    /// Spawns the device task onto the simulation and returns its handle.
    ///
    /// `rendezvous` must be shared by all devices that will participate
    /// in collectives together (one per island).
    pub fn spawn(
        sim: &SimHandle,
        id: DeviceId,
        rendezvous: CollectiveRendezvous,
        config: DeviceConfig,
    ) -> DeviceHandle {
        let (tx, mut rx) = channel::channel::<EnqueuedKernel>();
        let hbm = HbmPool::new(config.hbm_capacity);
        let stats = Arc::new(Lock::new(DeviceStats::default()));
        let stats_task = Arc::clone(&stats);
        let handle = sim.clone();
        let fault = FaultSignal::new();
        let fault_task = fault.clone();
        let rz_task = rendezvous.clone();
        let token = pathways_sim::IdleToken::new();
        let token_task = token.clone();
        // This device's trace row; every kernel's span shares it.
        let track: Arc<str> = format!("d{:04}", id.0).into();
        sim.spawn_service(format!("{id}"), &token, async move {
            loop {
                token_task.set_idle();
                let Some(job) = rx.recv().await else { break };
                token_task.set_busy();
                // 0. A dead device stops accepting work: abort this job
                //    and everything queued behind it, then exit. Aborted
                //    jobs drop their completion sender, which downstream
                //    code observes as a typed kernel abort.
                if fault_task.is_failed() {
                    drop(job);
                    while let Ok(late) = rx.try_recv() {
                        drop(late);
                    }
                    break;
                }
                // 1. Wait for inputs (dropped producers count as ready).
                for input in job.inputs_ready {
                    let _ = input.await;
                }
                // Death may have struck while we waited for inputs.
                if fault_task.is_failed() {
                    drop(job.done);
                    while let Ok(late) = rx.try_recv() {
                        drop(late);
                    }
                    break;
                }
                let dequeued = handle.now();
                // 2. Gang collective: blocks the whole queue until every
                //    participant arrives at the same tag. A gang that
                //    includes a dead device aborts instead of blocking;
                //    the device itself survives and moves on.
                if let Some(c) = &job.kernel.collective {
                    if rz_task
                        .arrive(c.tag, c.participants, c.duration, &c.devices, job.owner)
                        .await
                        .is_err()
                    {
                        drop(job.done);
                        continue;
                    }
                }
                // 3. Statically-known compute time. A kernel that reached
                //    its compute phase retires even if the fault fires
                //    mid-sleep (death takes effect at kernel boundaries).
                handle.sleep(job.kernel.compute).await;
                let finished = handle.now();
                let busy = job.kernel.min_duration();
                {
                    let mut st = stats_task.lock();
                    st.kernels += 1;
                    st.busy += busy;
                    // Only a program's first kernel here allocates its key.
                    match st.busy_by_program.get_mut(&*job.program) {
                        Some(total) => *total += busy,
                        None => {
                            st.busy_by_program.insert(job.program.to_string(), busy);
                        }
                    }
                }
                handle.trace_span(Arc::clone(&track), job.program, finished - busy, finished);
                if let Some(done) = job.done {
                    let _ = done.send(KernelCompletion { dequeued, finished });
                }
            }
        });
        DeviceHandle {
            id,
            tx,
            hbm,
            stats,
            fault,
            rendezvous,
        }
    }

    /// This device's id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The device's HBM pool (used by object stores for reservations).
    pub fn hbm(&self) -> &HbmPool {
        &self.hbm
    }

    /// The collective rendezvous this device participates in.
    pub fn rendezvous(&self) -> &CollectiveRendezvous {
        &self.rendezvous
    }

    /// This device's fault signal (fired by [`DeviceHandle::fail`]).
    pub fn fault(&self) -> &FaultSignal {
        &self.fault
    }

    /// True once the device has been failed.
    pub fn is_failed(&self) -> bool {
        self.fault.is_failed()
    }

    /// Kills the device at virtual time `at`: it stops accepting work
    /// ([`DeviceHandle::enqueue`] errors), aborts its queued kernels the
    /// next time its task runs, and gangs that include it abort at the
    /// rendezvous instead of blocking forever.
    pub fn fail(&self, at: SimTime, reason: impl Into<String>) {
        self.fault.fire(at, reason);
        self.rendezvous.mark_dead(self.id);
    }

    /// Enqueues a kernel; returns immediately (asynchronous dispatch).
    ///
    /// # Errors
    ///
    /// [`DeviceDead`] if the device has been failed or its queue task has
    /// exited. The job (and its completion sender) is dropped, so anyone
    /// holding the completion receiver observes the abort.
    pub fn enqueue(&self, job: EnqueuedKernel) -> Result<(), DeviceDead> {
        if self.fault.is_failed() {
            return Err(DeviceDead {
                device: self.id,
                reason: self.fault.stamp().map(|s| s.reason),
            });
        }
        self.tx.send(job).map_err(|_| DeviceDead {
            device: self.id,
            reason: None,
        })
    }

    /// Convenience: enqueue a kernel with no inputs and return its
    /// completion future. If the device is dead, the returned future
    /// resolves to a receive error (the abort signal).
    pub fn enqueue_simple(
        &self,
        kernel: Kernel,
        program: impl Into<Arc<str>>,
    ) -> OneshotReceiver<KernelCompletion> {
        let (tx, rx) = channel::oneshot();
        let _ = self.enqueue(EnqueuedKernel {
            kernel,
            program: program.into(),
            inputs_ready: Vec::new(),
            done: Some(tx),
            owner: 0,
        });
        rx
    }

    /// Snapshot of the device's statistics.
    pub fn stats(&self) -> DeviceStats {
        self.stats.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{CollectiveOp, GangTag};
    use pathways_net::CollectiveKind;
    use pathways_sim::Sim;

    fn spawn_devices(sim: &Sim, n: u32) -> Vec<DeviceHandle> {
        let rz = CollectiveRendezvous::new(sim.handle());
        (0..n)
            .map(|i| {
                DeviceHandle::spawn(
                    &sim.handle(),
                    DeviceId(i),
                    rz.clone(),
                    DeviceConfig::default(),
                )
            })
            .collect()
    }

    #[test]
    fn kernels_execute_in_enqueue_order() {
        let mut sim = Sim::new(0);
        let devs = spawn_devices(&sim, 1);
        let d = devs[0].clone();
        let r1 = d.enqueue_simple(Kernel::compute("k1", SimDuration::from_micros(10)), "p");
        let r2 = d.enqueue_simple(Kernel::compute("k2", SimDuration::from_micros(5)), "p");
        let probe = sim.spawn("probe", async move {
            let c1 = r1.await.unwrap();
            let c2 = r2.await.unwrap();
            (c1, c2)
        });
        drop(devs);
        sim.run_to_quiescence();
        let (c1, c2) = probe.try_take().unwrap();
        assert_eq!(c1.finished.as_nanos(), 10_000);
        // k2 runs only after k1 despite being shorter.
        assert_eq!(c2.finished.as_nanos(), 15_000);
    }

    #[test]
    fn kernel_waits_for_inputs() {
        let mut sim = Sim::new(0);
        let devs = spawn_devices(&sim, 1);
        let d = devs[0].clone();
        let (in_tx, in_rx) = channel::oneshot();
        let (done_tx, done_rx) = channel::oneshot();
        d.enqueue(EnqueuedKernel {
            kernel: Kernel::compute("k", SimDuration::from_micros(10)),
            program: "p".into(),
            inputs_ready: vec![in_rx],
            done: Some(done_tx),
            owner: 0,
        })
        .unwrap();
        let h = sim.handle();
        sim.spawn("producer", async move {
            h.sleep(SimDuration::from_micros(100)).await;
            let _ = in_tx.send(());
        });
        let probe = sim.spawn("probe", async move { done_rx.await.unwrap() });
        drop(devs);
        sim.run_to_quiescence();
        let c = probe.try_take().unwrap();
        assert_eq!(c.dequeued.as_nanos(), 100_000);
        assert_eq!(c.finished.as_nanos(), 110_000);
    }

    #[test]
    fn gang_collective_aligns_devices() {
        let mut sim = Sim::new(0);
        let devs = spawn_devices(&sim, 2);
        let coll = |tag| CollectiveOp {
            kind: CollectiveKind::AllReduce,
            tag: GangTag(tag),
            participants: 2,
            duration: SimDuration::from_micros(3),
            devices: [].into(),
        };
        // Device 0 is delayed by a long kernel first.
        drop(devs[0].enqueue_simple(Kernel::compute("slow", SimDuration::from_micros(50)), "p"));
        let r0 = devs[0].enqueue_simple(
            Kernel::compute("c", SimDuration::from_micros(1)).with_collective(coll(1)),
            "p",
        );
        let r1 = devs[1].enqueue_simple(
            Kernel::compute("c", SimDuration::from_micros(1)).with_collective(coll(1)),
            "p",
        );
        let probe = sim.spawn(
            "probe",
            async move { (r0.await.unwrap(), r1.await.unwrap()) },
        );
        drop(devs);
        sim.run_to_quiescence();
        let (c0, c1) = probe.try_take().unwrap();
        // Both finish together: 50us wait + 3us collective + 1us compute.
        assert_eq!(c0.finished.as_nanos(), 54_000);
        assert_eq!(c1.finished.as_nanos(), 54_000);
    }

    #[test]
    fn inconsistent_gang_order_deadlocks_devices() {
        let mut sim = Sim::new(0);
        let devs = spawn_devices(&sim, 2);
        let coll = |tag| CollectiveOp {
            kind: CollectiveKind::AllReduce,
            tag: GangTag(tag),
            participants: 2,
            duration: SimDuration::ZERO,
            devices: [].into(),
        };
        // Opposite enqueue orders on the two devices.
        devs[0]
            .enqueue(EnqueuedKernel {
                kernel: Kernel::compute("a", SimDuration::ZERO).with_collective(coll(1)),
                program: "p1".into(),
                inputs_ready: vec![],
                done: None,
                owner: 0,
            })
            .unwrap();
        devs[0]
            .enqueue(EnqueuedKernel {
                kernel: Kernel::compute("b", SimDuration::ZERO).with_collective(coll(2)),
                program: "p2".into(),
                inputs_ready: vec![],
                done: None,
                owner: 0,
            })
            .unwrap();
        devs[1]
            .enqueue(EnqueuedKernel {
                kernel: Kernel::compute("b", SimDuration::ZERO).with_collective(coll(2)),
                program: "p2".into(),
                inputs_ready: vec![],
                done: None,
                owner: 0,
            })
            .unwrap();
        devs[1]
            .enqueue(EnqueuedKernel {
                kernel: Kernel::compute("a", SimDuration::ZERO).with_collective(coll(1)),
                program: "p1".into(),
                inputs_ready: vec![],
                done: None,
                owner: 0,
            })
            .unwrap();
        drop(devs);
        let out = sim.run();
        assert!(out.is_deadlock(), "expected device deadlock, got {out:?}");
    }

    #[test]
    fn stats_account_busy_time_per_program() {
        let mut sim = Sim::new(0);
        let devs = spawn_devices(&sim, 1);
        let d = devs[0].clone();
        drop(d.enqueue_simple(Kernel::compute("k", SimDuration::from_micros(10)), "alpha"));
        drop(d.enqueue_simple(Kernel::compute("k", SimDuration::from_micros(20)), "beta"));
        drop(d.enqueue_simple(Kernel::compute("k", SimDuration::from_micros(30)), "alpha"));
        drop(devs);
        sim.run_to_quiescence();
        let st = d.stats();
        assert_eq!(st.kernels, 3);
        assert_eq!(st.busy, SimDuration::from_micros(60));
        assert_eq!(st.busy_by_program["alpha"], SimDuration::from_micros(40));
        assert_eq!(st.busy_by_program["beta"], SimDuration::from_micros(20));
    }

    #[test]
    fn trace_spans_cover_busy_time() {
        let mut sim = Sim::new(0);
        let devs = spawn_devices(&sim, 1);
        let d = devs[0].clone();
        drop(d.enqueue_simple(Kernel::compute("k", SimDuration::from_micros(10)), "A"));
        drop(devs);
        drop(d);
        sim.run_to_quiescence();
        let trace = sim.take_trace();
        let spans = trace.track("d0000");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration(), SimDuration::from_micros(10));
        assert_eq!(&*spans[0].label, "A");
    }

    #[test]
    fn dropped_input_sender_counts_as_ready() {
        let mut sim = Sim::new(0);
        let devs = spawn_devices(&sim, 1);
        let d = devs[0].clone();
        let (in_tx, in_rx) = channel::oneshot::<()>();
        drop(in_tx); // producer was garbage-collected
        let (done_tx, done_rx) = channel::oneshot();
        d.enqueue(EnqueuedKernel {
            kernel: Kernel::compute("k", SimDuration::from_micros(1)),
            program: "p".into(),
            inputs_ready: vec![in_rx],
            done: Some(done_tx),
            owner: 0,
        })
        .unwrap();
        let probe = sim.spawn("probe", async move { done_rx.await.is_ok() });
        drop(devs);
        drop(d);
        sim.run_to_quiescence();
        assert!(probe.try_take().unwrap());
    }

    #[test]
    fn enqueue_to_dead_device_returns_error_not_panic() {
        let mut sim = Sim::new(0);
        let devs = spawn_devices(&sim, 1);
        let d = devs[0].clone();
        d.fail(sim.now(), "scripted fault");
        assert!(d.is_failed());
        let err = d
            .enqueue(EnqueuedKernel {
                kernel: Kernel::compute("k", SimDuration::from_micros(1)),
                program: "p".into(),
                inputs_ready: vec![],
                done: None,
                owner: 0,
            })
            .unwrap_err();
        assert_eq!(err.device, DeviceId(0));
        assert_eq!(err.reason.as_deref(), Some("scripted fault"));
        drop(devs);
        drop(d);
        assert!(sim.run().is_quiescent());
    }

    #[test]
    fn death_aborts_queued_kernels() {
        let mut sim = Sim::new(0);
        let devs = spawn_devices(&sim, 1);
        let d = devs[0].clone();
        // A long kernel followed by a queued one; the fault fires while
        // the first computes, so the first retires and the second aborts.
        let r1 = d.enqueue_simple(Kernel::compute("k1", SimDuration::from_micros(50)), "p");
        let r2 = d.enqueue_simple(Kernel::compute("k2", SimDuration::from_micros(50)), "p");
        let d2 = d.clone();
        let h = sim.handle();
        sim.spawn("fault", async move {
            h.sleep(SimDuration::from_micros(10)).await;
            d2.fail(h.now(), "mid-flight death");
        });
        let probe = sim.spawn("probe", async move { (r1.await, r2.await) });
        drop(devs);
        drop(d);
        sim.run_to_quiescence();
        let (c1, c2) = probe.try_take().unwrap();
        assert_eq!(c1.unwrap().finished.as_nanos(), 50_000, "in-flight retires");
        assert!(c2.is_err(), "queued kernel must abort, not run");
    }

    #[test]
    fn gang_with_dead_member_aborts_but_device_survives() {
        let mut sim = Sim::new(0);
        let devs = spawn_devices(&sim, 2);
        let gang = vec![DeviceId(0), DeviceId(1)];
        let coll = CollectiveOp {
            kind: CollectiveKind::AllReduce,
            tag: GangTag(1),
            participants: 2,
            duration: SimDuration::from_micros(3),
            devices: gang.into(),
        };
        devs[1].fail(sim.now(), "dead partner");
        let r0 = devs[0].enqueue_simple(
            Kernel::compute("c", SimDuration::from_micros(1)).with_collective(coll),
            "p",
        );
        // A plain kernel queued behind the doomed gang still runs.
        let r_after =
            devs[0].enqueue_simple(Kernel::compute("k", SimDuration::from_micros(5)), "p");
        let probe = sim.spawn("probe", async move { (r0.await, r_after.await) });
        drop(devs);
        sim.run_to_quiescence();
        let (gang_result, after) = probe.try_take().unwrap();
        assert!(gang_result.is_err(), "gang must abort");
        assert_eq!(after.unwrap().finished.as_nanos(), 5_000);
    }
}
