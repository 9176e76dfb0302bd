//! Property-based tests across the whole stack: arbitrary program DAGs
//! on arbitrary small clusters complete, conserve memory, and stay
//! deterministic.

use std::collections::BTreeMap;

use proptest::prelude::*;

use pathways::core::{FnSpec, PathwaysConfig, PathwaysRuntime, SchedPolicy, SliceRequest};
use pathways::net::{ClientId, ClusterSpec, HostId, NetworkParams};
use pathways::sim::{Sim, SimDuration};

/// Generates a random layered DAG description: per layer, a shard count
/// selector and compute time; consecutive layers are connected.
fn layered_program() -> impl Strategy<Value = Vec<(u8, u16, bool)>> {
    // (slice size selector, compute us, reshard edge?)
    proptest::collection::vec((1u8..4, 1u16..500, any::<bool>()), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any layered program over any small cluster runs to completion —
    /// no deadlocks from scheduling, dispatch, transfers or progress
    /// tracking — and the object store is empty after results drop.
    #[test]
    fn arbitrary_layered_programs_complete(
        hosts in 1u32..5,
        layers in layered_program(),
        seed in any::<u64>(),
    ) {
        let mut sim = Sim::new(seed);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(hosts),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let n_devices = hosts * 8;
        let mut b = client.trace("prop");
        let mut prev = None;
        for (sel, us, reshard) in &layers {
            let devs = (n_devices / *sel as u32).max(1);
            let slice = client.virtual_slice(SliceRequest::devices(devs)).unwrap();
            let comp = b.computation(
                FnSpec::compute_only("l", SimDuration::from_micros(*us as u64))
                    .with_output_bytes(1 << 12),
                &slice,
            );
            if let Some(p) = prev {
                // One-to-one edges require equal shard counts; fall back
                // to resharding otherwise.
                if *reshard {
                    b.reshard_edge(p, comp, 1 << 12);
                } else {
                    b.reshard_edge(p, comp, 1 << 10);
                }
            }
            prev = Some(comp);
        }
        let program = b.build().unwrap();
        let prepared = client.prepare(&program);
        // Compact representation: plaque nodes = comps + Result.
        let (nodes, _) = prepared.graph_size();
        prop_assert_eq!(nodes, layers.len() + 1);
        let core = std::sync::Arc::clone(rt.core());
        let job = sim.spawn("client", async move {
            let r = client.run(&prepared).await;
            r.objects().len()
        });
        let outcome = sim.run();
        prop_assert!(outcome.is_quiescent(), "deadlock: {:?}", outcome);
        prop_assert_eq!(job.try_take(), Some(1));
        // All HBM returned once results dropped.
        prop_assert!(core.store.is_empty(), "store leaked {} objects", core.store.len());
    }

    /// The paper's deadlock-freedom invariant (§4.4): because every
    /// device executor receives its grants from the single island
    /// scheduler, gang collectives are enqueued in the same relative
    /// order on *every* device of the island — regardless of which
    /// policy engine chose that order. Violating this is exactly the
    /// inconsistent-enqueue deadlock of §2.
    #[test]
    fn gang_grant_order_identical_across_island_devices(
        weighted_fair in any::<bool>(),
        n_clients in 2u32..5,
        cost_us in 50u64..500,
        seed in any::<u64>(),
    ) {
        let weights: BTreeMap<ClientId, u32> = (0..n_clients)
            .map(|c| (ClientId(c), 1 << c.min(3)))
            .collect();
        let policy = if weighted_fair {
            SchedPolicy::WeightedFair {
                weights,
                quantum: SimDuration::from_micros(500),
            }
        } else {
            SchedPolicy::Fifo
        };
        let mut sim = Sim::new(seed);
        sim.handle().record_trace(true);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::single_island(1, 8),
            NetworkParams::tpu_cluster(),
            PathwaysConfig {
                policy,
                sched_horizon: SimDuration::from_micros(600),
                ..PathwaysConfig::default()
            },
        );
        let labels = ["A", "B", "C", "D"];
        for c in 0..n_clients {
            let client = rt.client_labeled(HostId(0), labels[c as usize]);
            // Every program gangs all 8 devices of the island.
            let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
            let mut b = client.trace(format!("p{c}"));
            b.computation(
                FnSpec::compute_only("step", SimDuration::from_micros(cost_us))
                    .with_allreduce(4),
                &slice,
            );
            let program = b.build().unwrap();
            let prepared = client.prepare(&program);
            sim.spawn(format!("client{c}"), async move {
                // A few outstanding at once so the scheduler is
                // contended and the policy actually reorders.
                let mut outstanding = Vec::new();
                for _ in 0..3 {
                    outstanding.push(Box::pin(client.run(&prepared)));
                }
                for _ in 0..6 {
                    let done = outstanding.remove(0);
                    done.await;
                    outstanding.push(Box::pin(client.run(&prepared)));
                }
                for f in outstanding {
                    f.await;
                }
            });
        }
        let outcome = sim.run();
        prop_assert!(outcome.is_quiescent(), "deadlock: {:?}", outcome);
        let trace = sim.take_trace();
        // Per-device sequence of client labels must be identical on all
        // devices of the island.
        let order_of = |d: u32| -> Vec<String> {
            trace
                .track(&format!("d{d:04}"))
                .iter()
                .map(|s| s.label.to_string())
                .collect()
        };
        let reference = order_of(0);
        prop_assert!(
            reference.len() >= (n_clients * 9) as usize,
            "device 0 saw only {} kernels",
            reference.len()
        );
        for d in 1..8 {
            prop_assert_eq!(
                &reference,
                &order_of(d),
                "device {} disagrees with device 0 on gang order",
                d
            );
        }
    }

    /// Throughput of a single-computation program is monotonically
    /// non-increasing in computation size (sanity of the whole timing
    /// stack).
    #[test]
    fn longer_computations_never_run_faster(
        a_us in 10u64..3_000,
        b_us in 10u64..3_000,
    ) {
        let measure = |us: u64| {
            let mut sim = Sim::new(0);
            let rt = PathwaysRuntime::new(
                &sim,
                ClusterSpec::config_b(1),
                NetworkParams::tpu_cluster(),
                PathwaysConfig::default(),
            );
            let client = rt.client(HostId(0));
            let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
            let mut b = client.trace("m");
            b.computation(
                FnSpec::compute_only("f", SimDuration::from_micros(us)).with_allreduce(4),
                &slice,
            );
            let program = b.build().unwrap();
            let prepared = client.prepare(&program);
            let h = sim.handle();
            let job = sim.spawn("c", async move {
                let start = h.now();
                for _ in 0..5 {
                    client.run(&prepared).await;
                }
                h.now().duration_since(start).as_nanos()
            });
            sim.run_to_quiescence();
            job.try_take().unwrap()
        };
        let (lo, hi) = if a_us <= b_us { (a_us, b_us) } else { (b_us, a_us) };
        prop_assert!(measure(lo) <= measure(hi));
    }
}
