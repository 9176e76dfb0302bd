//! Ray-like actor baseline (§5.1's GPU comparator).
//!
//! Ray v1.3 + PyTorch on one-GPU hosts connected only by the DCN. The
//! properties the paper attributes to Ray's measured overheads are
//! modelled explicitly:
//!
//! * general-purpose Python actors: a per-task overhead far above a C++
//!   enqueue;
//! * **no HBM object store**: each computation's result is copied from
//!   GPU memory to host DRAM over PCIe before its `ObjectRef` resolves;
//! * collectives run over the DCN (no dedicated interconnect), as a
//!   ring all-reduce.

use pathways_sim::hash::FxHashMap;
use std::fmt;
use std::sync::Arc;

use pathways_device::{
    CollectiveOp, CollectiveRendezvous, DeviceConfig, DeviceHandle, GangTag, Kernel,
};
use pathways_net::collective::ring_allreduce;
use pathways_net::{
    ClusterSpec, CollectiveKind, DeviceId, Envelope, Fabric, HostId, NetworkParams, Router,
    Topology,
};
use pathways_sim::{Sim, SimDuration, SimHandle};

use crate::workload::{StepWorkload, SubmissionMode, Throughput};

/// Tunables of the Ray-like baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayConfig {
    /// Driver-side cost to issue one remote call.
    pub driver_call_overhead: SimDuration,
    /// Actor-side per-task overhead (deserialize, Python dispatch).
    pub task_overhead: SimDuration,
    /// PyTorch per-op overhead inside a fused loop.
    pub torch_op_overhead: SimDuration,
    /// Result bytes copied GPU→DRAM per computation.
    pub result_bytes: u64,
    /// GPU memory per device.
    pub hbm_per_device: u64,
}

impl Default for RayConfig {
    fn default() -> Self {
        RayConfig {
            driver_call_overhead: SimDuration::from_micros(30),
            task_overhead: SimDuration::from_micros(300),
            torch_op_overhead: SimDuration::from_micros(15),
            result_bytes: 4 << 10,
            hbm_per_device: 16 << 30,
        }
    }
}

enum ActorMsg {
    /// Run `steps` computations, copying the result to DRAM after each
    /// (Chained) or only at the end (Fused); OpByOp is Chained with
    /// steps = 1.
    Run {
        base_tag: u64,
        steps: u64,
        fused: bool,
    },
    /// Actor finished a Run (sent to the driver).
    Done,
    Stop,
}

/// Router address of the driver inbox.
const DRIVER_ADDR: HostId = HostId(u32::MAX - 2);

/// The Ray-like runtime: one actor + one GPU per host.
pub struct RayRuntime {
    handle: SimHandle,
    topo: Arc<Topology>,
    fabric: Fabric,
    devices: FxHashMap<DeviceId, DeviceHandle>,
    cfg: RayConfig,
}

impl fmt::Debug for RayRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RayRuntime")
            .field("gpus", &self.devices.len())
            .finish()
    }
}

impl RayRuntime {
    /// Builds a Ray-like cluster of `hosts` one-GPU machines.
    pub fn new(sim: &Sim, hosts: u32, net: NetworkParams, cfg: RayConfig) -> Self {
        let handle = sim.handle();
        let topo = Arc::new(ClusterSpec::single_island(hosts, 1).build());
        let fabric = Fabric::new(handle.clone(), Arc::clone(&topo), net);
        let rz = CollectiveRendezvous::new(handle.clone());
        let devices = topo
            .devices()
            .map(|d| {
                (
                    d,
                    DeviceHandle::spawn(
                        &handle,
                        d,
                        rz.clone(),
                        DeviceConfig {
                            hbm_capacity: cfg.hbm_per_device,
                        },
                    ),
                )
            })
            .collect();
        RayRuntime {
            handle,
            topo,
            fabric,
            devices,
            cfg,
        }
    }

    /// DCN ring all-reduce time across all GPUs.
    pub fn allreduce_time(&self, bytes: u64) -> SimDuration {
        let p = self.fabric.params();
        ring_allreduce(self.topo.num_hosts(), bytes, p.dcn_bandwidth, p.dcn_latency)
    }

    /// Runs the benchmark; the driver lives on host 0.
    pub fn spawn_benchmark(
        &self,
        sim: &mut Sim,
        mode: SubmissionMode,
        workload: StepWorkload,
        total_computations: u64,
    ) -> pathways_sim::JoinHandle<Throughput> {
        let participants = self.topo.num_devices();
        let coll = self.allreduce_time(workload.allreduce_bytes);
        let cfg = self.cfg;
        let topo = Arc::clone(&self.topo);
        let handle = self.handle.clone();
        let router: Router<ActorMsg> = Router::new(self.fabric.clone());
        let driver_host = HostId(0);

        let chain = workload.chain_len as u64;
        // (driver calls, steps per call, fused?)
        let (calls, steps_per_call, fused) = match mode {
            SubmissionMode::OpByOp => (total_computations, 1, false),
            SubmissionMode::Chained => (total_computations / chain, chain, false),
            SubmissionMode::Fused => (total_computations / chain, chain, true),
        };

        // Actor tasks.
        let mut actor_hosts = Vec::new();
        for host in topo.hosts() {
            actor_hosts.push(host);
            let mut inbox = router.register(host);
            let router2 = router.clone();
            let fabric = self.fabric.clone();
            let first_dev = topo.devices_of_host(host).next().expect("host has devices");
            let gpu = self.devices[&first_dev].clone();
            let h = handle.clone();
            let token = pathways_sim::IdleToken::new();
            let token2 = token.clone();
            handle.spawn_service(format!("ray-actor-{host}"), &token, async move {
                loop {
                    token2.set_idle();
                    let Some(Envelope { msg, .. }) = inbox.recv().await else {
                        break;
                    };
                    token2.set_busy();
                    match msg {
                        ActorMsg::Run {
                            base_tag,
                            steps,
                            fused,
                        } => {
                            // Actor-side task entry.
                            h.sleep(cfg.task_overhead).await;
                            for s in 0..steps {
                                let per_op = if fused {
                                    cfg.torch_op_overhead
                                } else {
                                    // Non-fused: each step is a separate
                                    // actor-level operation.
                                    cfg.task_overhead
                                };
                                let extra = if s == 0 { SimDuration::ZERO } else { per_op };
                                let k = Kernel::compute("allreduce+add", workload.compute + extra)
                                    .with_collective(CollectiveOp {
                                        kind: CollectiveKind::AllReduce,
                                        tag: GangTag(base_tag + s),
                                        participants,
                                        duration: coll,
                                        devices: [].into(),
                                    });
                                let done = gpu.enqueue_simple(k, "ray");
                                let _ = done.await;
                                if !fused {
                                    // No GPU object store: copy the step
                                    // result to DRAM before the
                                    // ObjectRef resolves.
                                    fabric.pcie_transfer(host, gpu.id(), cfg.result_bytes).await;
                                }
                            }
                            if fused {
                                fabric.pcie_transfer(host, gpu.id(), cfg.result_bytes).await;
                            }
                            router2.send(host, DRIVER_ADDR, ActorMsg::Done, 64);
                        }
                        ActorMsg::Stop => break,
                        ActorMsg::Done => {}
                    }
                }
            });
        }

        // Driver.
        let mut driver_inbox = router.register(DRIVER_ADDR);
        let router2 = router.clone();
        let h = handle.clone();
        let n_actors = actor_hosts.len() as u64;
        let executed = calls * steps_per_call;
        sim.spawn("ray-driver", async move {
            let start = h.now();
            for call in 0..calls {
                for a in &actor_hosts {
                    h.sleep(cfg.driver_call_overhead).await;
                    router2.send(
                        driver_host,
                        *a,
                        ActorMsg::Run {
                            base_tag: call * steps_per_call,
                            steps: steps_per_call,
                            fused,
                        },
                        512,
                    );
                }
                // ray.get on the returned refs.
                let mut done = 0;
                while done < n_actors {
                    match driver_inbox.recv().await {
                        Some(Envelope {
                            msg: ActorMsg::Done,
                            ..
                        }) => done += 1,
                        Some(_) => {}
                        None => {
                            return Throughput {
                                computations: 0,
                                elapsed: SimDuration::ZERO,
                            }
                        }
                    }
                }
            }
            for a in &actor_hosts {
                router2.send(driver_host, *a, ActorMsg::Stop, 16);
            }
            Throughput {
                computations: executed,
                elapsed: h.now().duration_since(start),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure(hosts: u32, mode: SubmissionMode, n: u64) -> f64 {
        let mut sim = Sim::new(0);
        let rt = RayRuntime::new(
            &sim,
            hosts,
            NetworkParams::tpu_cluster(),
            RayConfig::default(),
        );
        let m = rt.spawn_benchmark(&mut sim, mode, StepWorkload::trivial(), n);
        sim.run_to_quiescence();
        m.try_take().unwrap().per_sec()
    }

    #[test]
    fn fused_beats_chained_beats_op_by_op() {
        let o = measure(2, SubmissionMode::OpByOp, 256);
        let c = measure(2, SubmissionMode::Chained, 256);
        let f = measure(2, SubmissionMode::Fused, 256);
        assert!(c > o, "chained {c}/s vs op-by-op {o}/s");
        assert!(f > c, "fused {f}/s vs chained {c}/s");
    }

    #[test]
    fn op_by_op_pays_per_task_overheads() {
        // One computation costs at least an actor task overhead plus a
        // DCN all-reduce plus the GPU→DRAM copy.
        let thr = measure(2, SubmissionMode::OpByOp, 64);
        let cfg = RayConfig::default();
        let floor = cfg.task_overhead.as_secs_f64();
        assert!(
            thr < 1.0 / floor,
            "throughput {thr}/s impossibly exceeds the task-overhead bound"
        );
    }

    #[test]
    fn completes_without_deadlock() {
        let mut sim = Sim::new(0);
        let rt = RayRuntime::new(&sim, 4, NetworkParams::tpu_cluster(), RayConfig::default());
        let m = rt.spawn_benchmark(
            &mut sim,
            SubmissionMode::Chained,
            StepWorkload::trivial(),
            256,
        );
        let out = sim.run();
        assert!(out.is_quiescent(), "{out:?}");
        assert_eq!(m.try_take().unwrap().computations, 256);
    }
}
