//! JAX-like multi-controller baseline (§2, Figure 1a).
//!
//! An identical copy of the user program runs on every host; each host
//! enqueues kernels onto its local devices over PCIe, asynchronously and
//! ahead of execution, and all cross-host communication happens inside
//! device collectives over ICI. There is no coordinator: the per-step
//! cost on the host side is the Python call plus local enqueues, and the
//! device side is the collective plus the computation. Whichever is
//! slower bounds throughput.

use std::fmt;

use pathways_device::{CollectiveOp, DeviceConfig, DeviceHandle, Fleet, GangTag, Kernel};
use pathways_net::{ClusterSpec, CollectiveKind, DeviceId, NetworkParams};
use pathways_sim::channel::OneshotReceiver;
use pathways_sim::{join_all, Sim, SimDuration};

use crate::workload::{StepWorkload, SubmissionMode, Throughput};

/// Tunables of the JAX-like baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JaxConfig {
    /// Python-side cost per user call (dispatch through the JAX tracing
    /// cache and runtime bindings).
    pub python_overhead: SimDuration,
}

impl Default for JaxConfig {
    fn default() -> Self {
        JaxConfig {
            python_overhead: SimDuration::from_micros(80),
        }
    }
}

/// The multi-controller runtime.
pub struct JaxRuntime {
    fleet: Fleet,
    cfg: JaxConfig,
}

impl fmt::Debug for JaxRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JaxRuntime")
            .field("devices", &self.fleet.devices.len())
            .finish()
    }
}

impl JaxRuntime {
    /// Builds the baseline over a fresh cluster.
    pub fn new(sim: &Sim, spec: ClusterSpec, net: NetworkParams, cfg: JaxConfig) -> Self {
        assert_eq!(
            spec.islands.len(),
            1,
            "multi-controller JAX cannot span islands (its collectives are ICI-only, §3)"
        );
        let fleet = Fleet::spawn(&sim.handle(), spec, net, DeviceConfig::default());
        JaxRuntime { fleet, cfg }
    }

    /// Wire time of one all-reduce over every device.
    pub fn allreduce_time(&self, bytes: u64) -> SimDuration {
        let all: Vec<DeviceId> = self.fleet.topo.devices().collect();
        self.fleet
            .fabric
            .ici_collective_time(CollectiveKind::AllReduce, &all, bytes)
    }

    /// Runs `total_computations` of `workload` in `mode` and returns the
    /// measured throughput. Must complete before the simulation is run
    /// to quiescence (spawns controller tasks; call from outside the
    /// sim, then run the sim).
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
        let coll = self.allreduce_time(workload.allreduce_bytes);
        let cfg = self.cfg;

        // Per mode, determine calls and the kernel each call enqueues.
        let (calls, kernels_per_call, kernel): (u64, u64, Kernel) = match mode {
            SubmissionMode::OpByOp => (
                total_computations,
                1,
                Kernel::compute("step", workload.compute),
            ),
            // There is no Chained analogue for a multi-controller (§5.1);
            // callers should not request it, but map it to OpByOp rather
            // than panicking so sweeps can share code.
            SubmissionMode::Chained => (
                total_computations,
                1,
                Kernel::compute("step", workload.compute),
            ),
            SubmissionMode::Fused => {
                let n = workload.chain_len as u64;
                (
                    total_computations / n,
                    n,
                    // A fused kernel runs the whole chain on-device: the
                    // collectives happen inside the kernel, so the gang
                    // rendezvous below covers the first and the rest are
                    // folded into compute time.
                    Kernel::compute(
                        "fused",
                        (workload.compute + coll) * (n - 1) + workload.compute,
                    ),
                )
            }
        };

        let mut controllers = Vec::new();
        for host in topo.hosts() {
            let local: Vec<DeviceHandle> = topo
                .devices_of_host(host)
                .map(|d| devices[&d].clone())
                .collect();
            let fabric = fabric.clone();
            let h = handle.clone();
            controllers.push(sim.spawn(format!("jax-ctrl-{host}"), {
                let kernel = kernel.clone();
                async move {
                    let mut last: Vec<OneshotReceiver<_>> = Vec::new();
                    for call in 0..calls {
                        // Python dispatch for this call.
                        h.sleep(cfg.python_overhead).await;
                        let k = kernel.clone().with_collective(CollectiveOp {
                            kind: CollectiveKind::AllReduce,
                            // Same step on every host: same tag order.
                            tag: GangTag(call),
                            participants,
                            duration: coll,
                            devices: [].into(),
                        });
                        last.clear();
                        for dev in &local {
                            // Async enqueue over PCIe; does not wait for
                            // the device.
                            fabric.pcie_enqueue(host).await;
                            last.push(dev.enqueue_simple(k.clone(), "jax"));
                        }
                    }
                    // Await the final call's completions.
                    for done in last {
                        let _ = done.await;
                    }
                }
            }));
        }

        let handle2 = handle.clone();
        let executed = calls * kernels_per_call;
        sim.spawn("jax-measure", async move {
            let start = handle2.now();
            join_all(controllers).await;
            Throughput {
                computations: executed,
                elapsed: handle2.now().duration_since(start),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure(hosts: u32, mode: SubmissionMode, workload: StepWorkload, n: u64) -> f64 {
        let mut sim = Sim::new(0);
        let rt = JaxRuntime::new(
            &sim,
            ClusterSpec::config_b(hosts),
            NetworkParams::tpu_cluster(),
            JaxConfig::default(),
        );
        let m = rt.spawn_benchmark(&mut sim, mode, workload, n);
        sim.run_to_quiescence();
        m.try_take().unwrap().per_sec()
    }

    #[test]
    fn fused_beats_op_by_op() {
        let w = StepWorkload::trivial();
        let o = measure(2, SubmissionMode::OpByOp, w, 256);
        let f = measure(2, SubmissionMode::Fused, w, 256);
        assert!(f > o, "fused {f}/s should beat op-by-op {o}/s");
    }

    #[test]
    fn op_by_op_is_host_bound_for_tiny_kernels() {
        // Throughput should be close to 1 / (python + local enqueues).
        let w = StepWorkload {
            compute: SimDuration::from_micros(1),
            allreduce_bytes: 4,
            chain_len: 128,
        };
        let thr = measure(2, SubmissionMode::OpByOp, w, 512);
        let cfg = JaxConfig::default();
        let p = NetworkParams::tpu_cluster();
        let per_step = cfg.python_overhead + p.enqueue_cpu_overhead * 8;
        let bound = 1.0 / per_step.as_secs_f64();
        assert!(
            (thr / bound) > 0.7 && (thr / bound) < 1.3,
            "throughput {thr}/s vs host bound {bound}/s"
        );
    }

    #[test]
    fn throughput_declines_with_scale() {
        // The all-reduce latency grows with the mesh, so per-computation
        // time grows and throughput drops (Figure 5's JAX slope).
        let w = StepWorkload::trivial();
        let small = measure(2, SubmissionMode::Fused, w, 256);
        let large = measure(64, SubmissionMode::Fused, w, 256);
        assert!(
            small > large,
            "throughput should decline: {small}/s -> {large}/s"
        );
    }

    #[test]
    fn controllers_stay_in_lockstep_without_deadlock() {
        let w = StepWorkload::trivial();
        let mut sim = Sim::new(0);
        let rt = JaxRuntime::new(
            &sim,
            ClusterSpec::config_b(4),
            NetworkParams::tpu_cluster(),
            JaxConfig::default(),
        );
        let m = rt.spawn_benchmark(&mut sim, SubmissionMode::OpByOp, w, 64);
        let out = sim.run();
        assert!(out.is_quiescent(), "{out:?}");
        assert_eq!(m.try_take().unwrap().computations, 64);
    }
}
