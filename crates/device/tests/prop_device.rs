//! Property-based tests of the simulated accelerator: queue semantics,
//! busy-time accounting and gang-collective alignment under arbitrary
//! workloads.

use proptest::prelude::*;

use pathways_device::{
    CollectiveOp, CollectiveRendezvous, DeviceConfig, DeviceHandle, GangTag, Kernel,
};
use pathways_net::{CollectiveKind, DeviceId};
use pathways_sim::{Sim, SimDuration};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With no collectives, a device's makespan equals the sum of its
    /// kernel durations (in-order, non-preemptible, no gaps) and busy
    /// accounting matches exactly.
    #[test]
    fn makespan_is_sum_of_kernels(durations in proptest::collection::vec(1u64..1_000, 1..40)) {
        let mut sim = Sim::new(0);
        let rz = CollectiveRendezvous::new(sim.handle());
        let dev = DeviceHandle::spawn(&sim.handle(), DeviceId(0), rz, DeviceConfig::default());
        for (i, us) in durations.iter().enumerate() {
            drop(dev.enqueue_simple(
                Kernel::compute(format!("k{i}"), SimDuration::from_micros(*us)),
                "p",
            ));
        }
        let stats_handle = dev.clone();
        drop(dev);
        let end = sim.run_to_quiescence();
        let total: u64 = durations.iter().sum();
        prop_assert_eq!(end.as_nanos(), total * 1_000);
        prop_assert_eq!(stats_handle.stats().busy, SimDuration::from_micros(total));
        prop_assert_eq!(stats_handle.stats().kernels, durations.len() as u64);
    }

    /// Any *consistent* interleaving of collective and compute kernels
    /// across n devices completes (only inconsistent orders deadlock).
    #[test]
    fn consistent_gang_orders_complete(
        n_devices in 2u32..6,
        ops in proptest::collection::vec((any::<bool>(), 1u64..50), 1..15),
    ) {
        let mut sim = Sim::new(0);
        let rz = CollectiveRendezvous::new(sim.handle());
        let devs: Vec<DeviceHandle> = (0..n_devices)
            .map(|i| {
                DeviceHandle::spawn(&sim.handle(), DeviceId(i), rz.clone(), DeviceConfig::default())
            })
            .collect();
        // Same op sequence enqueued on every device = consistent order.
        for (tag, (is_coll, us)) in ops.iter().enumerate() {
            for dev in &devs {
                let mut k = Kernel::compute(format!("k{tag}"), SimDuration::from_micros(*us));
                if *is_coll {
                    k = k.with_collective(CollectiveOp {
                        kind: CollectiveKind::AllReduce,
                        tag: GangTag(tag as u64),
                        participants: n_devices,
                        duration: SimDuration::from_micros(3),
                        devices: [].into(),
                    });
                }
                drop(dev.enqueue_simple(k, "p"));
            }
        }
        drop(devs);
        let outcome = sim.run();
        prop_assert!(outcome.is_quiescent(), "consistent order deadlocked: {:?}", outcome);
    }

    /// All gang participants finish a collective at the same instant,
    /// no matter how staggered their arrival.
    #[test]
    fn gang_participants_align(
        delays in proptest::collection::vec(0u64..500, 2..6),
    ) {
        let mut sim = Sim::new(0);
        let rz = CollectiveRendezvous::new(sim.handle());
        let n = delays.len() as u32;
        let mut ends = Vec::new();
        for (i, d) in delays.iter().enumerate() {
            let dev = DeviceHandle::spawn(
                &sim.handle(),
                DeviceId(i as u32),
                rz.clone(),
                DeviceConfig::default(),
            );
            // Stagger with a leading pure-compute kernel.
            drop(dev.enqueue_simple(
                Kernel::compute("warmup", SimDuration::from_micros(*d)),
                "p",
            ));
            ends.push(dev.enqueue_simple(
                Kernel::compute("c", SimDuration::ZERO).with_collective(CollectiveOp {
                    kind: CollectiveKind::AllReduce,
                    tag: GangTag(1),
                    participants: n,
                    duration: SimDuration::from_micros(7),
                    devices: [].into(),
                }),
                "p",
            ));
        }
        let probe = sim.spawn("probe", async move {
            let mut finish = Vec::new();
            for e in ends {
                finish.push(e.await.unwrap().finished.as_nanos());
            }
            finish
        });
        sim.run_to_quiescence();
        let finish = probe.try_take().unwrap();
        let expected = delays.iter().max().unwrap() * 1_000 + 7_000;
        for f in finish {
            prop_assert_eq!(f, expected);
        }
    }

    /// HBM leases never leak under arbitrary allocate/free interleavings
    /// driven through kernels with output reservations.
    #[test]
    fn hbm_conserved_across_workloads(
        sizes in proptest::collection::vec(1u64..1_000, 1..25),
    ) {
        let mut sim = Sim::new(0);
        let rz = CollectiveRendezvous::new(sim.handle());
        let dev = DeviceHandle::spawn(
            &sim.handle(),
            DeviceId(0),
            rz,
            DeviceConfig { hbm_capacity: 4_000 },
        );
        let hbm = dev.hbm().clone();
        let h = sim.handle();
        let sizes2 = sizes.clone();
        sim.spawn("alloc-free", async move {
            for s in sizes2 {
                let lease = hbm.allocate(s.min(4_000)).await;
                h.sleep(SimDuration::from_nanos(s)).await;
                drop(lease);
            }
        });
        drop(dev.clone());
        let hbm_after = dev.hbm().clone();
        drop(dev);
        sim.run_to_quiescence();
        prop_assert_eq!(hbm_after.used(), 0);
        prop_assert_eq!(hbm_after.free(), 4_000);
    }
}
