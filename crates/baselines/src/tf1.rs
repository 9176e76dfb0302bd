//! TensorFlow-v1-like single-controller baseline (§2, Figure 1b/1c).
//!
//! A coordinator builds the graph and drives workers over the DCN. Two
//! properties the paper calls out are modelled faithfully:
//!
//! * **a centralized barrier serializes gang-scheduled computations**:
//!   the coordinator dispatches step `k+1` only after every worker
//!   reported step `k` complete (control edges), so dispatch latency is
//!   never overlapped with execution;
//! * **no device object store**: results are transferred back to the
//!   client after every client call, paying DCN bandwidth.

use std::fmt;

use pathways_device::{CollectiveOp, DeviceConfig, DeviceHandle, Fleet, GangTag, Kernel};
use pathways_net::{
    ClusterSpec, CollectiveKind, DeviceId, Envelope, HostId, NetworkParams, Router,
};
use pathways_sim::{IdleToken, Sim, SimDuration};

use crate::workload::{StepWorkload, SubmissionMode, Throughput};

/// Client-side session-run overhead per call.
const SESSION_OVERHEAD: SimDuration = SimDuration::from_micros(50);
/// Worker-side graph-executor overhead per step: TF1 walks the dataflow
/// graph interpretively, dispatching send/recv and compute ops node by
/// node (§2's "host side work at the destination ... triggered only
/// after the transfer is completed"). Because every step ends at the
/// centralized barrier, this cost is never overlapped.
const WORKER_STEP_OVERHEAD: SimDuration = SimDuration::from_micros(100);

/// Tunables of the TF1-like baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tf1Config {
    /// Bytes of result data copied back to the client per call.
    pub result_bytes: u64,
}

impl Default for Tf1Config {
    fn default() -> Self {
        Tf1Config {
            result_bytes: 4 << 10,
        }
    }
}

enum WorkerMsg {
    /// Run one step with this gang tag.
    Run { tag: u64 },
    /// Worker finished its step (sent to the coordinator).
    Done,
    /// Result payload back to the client (modelled by message size).
    Result,
    /// Tear down.
    Stop,
}

/// The single-controller runtime.
pub struct Tf1Runtime {
    fleet: Fleet,
    cfg: Tf1Config,
}

/// Router address of the coordinator/client inbox (outside the host id
/// space so it never collides with a worker registration).
const COORD_ADDR: HostId = HostId(u32::MAX - 1);

impl fmt::Debug for Tf1Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tf1Runtime")
            .field("devices", &self.fleet.devices.len())
            .finish()
    }
}

impl Tf1Runtime {
    /// Builds the baseline over a fresh cluster.
    pub fn new(sim: &Sim, spec: ClusterSpec, net: NetworkParams, cfg: Tf1Config) -> Self {
        let fleet = Fleet::spawn(&sim.handle(), spec, net, DeviceConfig::default());
        Tf1Runtime { fleet, cfg }
    }

    /// Runs the benchmark; the coordinator lives on host 0.
    pub fn spawn_benchmark(
        &self,
        sim: &mut Sim,
        mode: SubmissionMode,
        workload: StepWorkload,
        total_computations: u64,
    ) -> pathways_sim::JoinHandle<Throughput> {
        let Fleet {
            handle,
            topo,
            fabric,
            devices,
        } = &self.fleet;
        let participants = topo.num_devices();
        let all: Vec<DeviceId> = topo.devices().collect();
        let coll =
            fabric.ici_collective_time(CollectiveKind::AllReduce, &all, workload.allreduce_bytes);
        let cfg = self.cfg;
        let router: Router<WorkerMsg> = Router::new(fabric.clone());
        let coordinator_host = topo
            .hosts_of_island(pathways_net::IslandId(0))
            .next()
            .expect("island has hosts");

        // Per mode: how many barrier-separated *steps* one client call
        // performs, and the kernel run per step.
        let chain = workload.chain_len as u64;
        let (calls, steps_per_call, comps_per_step, kernel) = match mode {
            SubmissionMode::OpByOp => (
                total_computations,
                1u64,
                1u64,
                Kernel::compute("step", workload.compute),
            ),
            SubmissionMode::Chained => (
                total_computations / chain,
                chain,
                1,
                Kernel::compute("step", workload.compute),
            ),
            SubmissionMode::Fused => (
                total_computations / chain,
                1,
                chain,
                Kernel::compute(
                    "fused",
                    (workload.compute + coll) * (chain - 1) + workload.compute,
                ),
            ),
        };

        // Worker tasks: run a step on all local devices when told.
        let mut worker_hosts = Vec::new();
        for host in topo.hosts() {
            worker_hosts.push(host);
            let mut inbox = router.register(host);
            let router2 = router.clone();
            let fabric = fabric.clone();
            let local: Vec<DeviceHandle> = topo
                .devices_of_host(host)
                .map(|d| devices[&d].clone())
                .collect();
            let token = IdleToken::new();
            let token2 = token.clone();
            let h = handle.clone();
            handle.spawn_service(format!("tf-worker-{host}"), &token, {
                let kernel = kernel.clone();
                async move {
                    loop {
                        token2.set_idle();
                        let Some(Envelope { msg, .. }) = inbox.recv().await else {
                            break;
                        };
                        token2.set_busy();
                        match msg {
                            WorkerMsg::Run { tag } => {
                                // Interpretive graph-executor dispatch.
                                h.sleep(WORKER_STEP_OVERHEAD).await;
                                let k = kernel.clone().with_collective(CollectiveOp {
                                    kind: CollectiveKind::AllReduce,
                                    tag: GangTag(tag),
                                    participants,
                                    duration: coll,
                                    devices: [].into(),
                                });
                                let mut dones = Vec::new();
                                for dev in &local {
                                    fabric.pcie_enqueue(host).await;
                                    dones.push(dev.enqueue_simple(k.clone(), "tf"));
                                }
                                for d in dones {
                                    let _ = d.await;
                                }
                                router2.send(host, COORD_ADDR, WorkerMsg::Done, 64);
                            }
                            WorkerMsg::Stop => break,
                            _ => {}
                        }
                    }
                }
            });
        }

        // Coordinator + client live on host 0's machine but get their
        // own inbox address (a host's router registration is exclusive
        // and host 0 already runs a worker).
        let mut coord_inbox = router.register(COORD_ADDR);
        let router2 = router.clone();
        let h = handle.clone();
        let n_hosts = worker_hosts.len() as u64;
        let executed = calls * steps_per_call * comps_per_step;
        sim.spawn("tf-coordinator", async move {
            let start = h.now();
            for _call in 0..calls {
                // Client session.run() entry.
                h.sleep(SESSION_OVERHEAD).await;
                for step in 0..steps_per_call {
                    let tag = _call * steps_per_call + step;
                    // Control messages to every worker over DCN,
                    // serialized on the coordinator NIC.
                    for w in &worker_hosts {
                        router2.send(coordinator_host, *w, WorkerMsg::Run { tag }, 256);
                    }
                    // Centralized barrier: wait for every worker before
                    // dispatching the next step.
                    let mut done = 0u64;
                    while done < n_hosts {
                        match coord_inbox.recv().await {
                            Some(Envelope {
                                msg: WorkerMsg::Done,
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
                // No device object store: the call's results return to
                // the client over DCN (modelled as one result-sized
                // message from the lead worker's host to the client).
                router2.send(
                    coordinator_host,
                    COORD_ADDR,
                    WorkerMsg::Result,
                    cfg.result_bytes,
                );
                loop {
                    match coord_inbox.recv().await {
                        Some(Envelope {
                            msg: WorkerMsg::Result,
                            ..
                        }) => break,
                        Some(_) => {}
                        None => break,
                    }
                }
            }
            for w in &worker_hosts {
                router2.send(coordinator_host, *w, WorkerMsg::Stop, 16);
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
        let rt = Tf1Runtime::new(
            &sim,
            ClusterSpec::config_b(hosts),
            NetworkParams::tpu_cluster(),
            Tf1Config::default(),
        );
        let m = rt.spawn_benchmark(&mut sim, mode, StepWorkload::trivial(), n);
        sim.run_to_quiescence();
        m.try_take().unwrap().per_sec()
    }

    #[test]
    fn chained_amortizes_client_work() {
        let o = measure(2, SubmissionMode::OpByOp, 256);
        let c = measure(2, SubmissionMode::Chained, 256);
        assert!(c > o, "chained {c}/s should beat op-by-op {o}/s");
    }

    #[test]
    fn fused_amortizes_barriers_too() {
        let c = measure(2, SubmissionMode::Chained, 256);
        let f = measure(2, SubmissionMode::Fused, 256);
        assert!(f >= c, "fused {f}/s should be at least chained {c}/s");
    }

    #[test]
    fn barrier_cost_grows_with_hosts() {
        let small = measure(2, SubmissionMode::Chained, 256);
        let large = measure(32, SubmissionMode::Chained, 256);
        assert!(
            small > large * 1.5,
            "fan-out + barrier should hurt scale: {small}/s vs {large}/s"
        );
    }

    #[test]
    fn completes_without_deadlock() {
        let mut sim = Sim::new(0);
        let rt = Tf1Runtime::new(
            &sim,
            ClusterSpec::config_b(4),
            NetworkParams::tpu_cluster(),
            Tf1Config::default(),
        );
        let m = rt.spawn_benchmark(
            &mut sim,
            SubmissionMode::OpByOp,
            StepWorkload::trivial(),
            32,
        );
        let out = sim.run();
        assert!(out.is_quiescent(), "{out:?}");
        assert_eq!(m.try_take().unwrap().computations, 32);
    }
}
