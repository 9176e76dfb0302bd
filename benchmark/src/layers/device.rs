//! Layer `device`: simulated accelerators — in-order kernel queues,
//! HBM pools and the gang-collective rendezvous.

use pathways::device::{
    CollectiveRendezvous, DeviceConfig, DeviceHandle, GangTag, HbmPool, Kernel,
};
use pathways::net::DeviceId;
use pathways::sim::{Sim, SimDuration};

use super::{Named, Shape, DEVICE};
use crate::clock::{ns_per_op, Stopwatch};
use crate::span;

/// Kernels executed and virtual busy nanoseconds, summed over devices.
pub fn totals<'a>(devices: impl Iterator<Item = &'a DeviceHandle>) -> (u64, u64) {
    devices.fold((0, 0), |(k, b), d| {
        let s = d.stats();
        (k + s.kernels, b + s.busy.as_nanos())
    })
}

/// HBM bytes still allocated, summed over devices (0 once every object
/// has been released).
pub fn hbm_used<'a>(devices: impl Iterator<Item = &'a DeviceHandle>) -> u64 {
    devices.map(|d| d.hbm().used()).sum()
}

/// Host ns per gang member arrival at `width`: `width` tasks arrive at
/// one tag per round, the last arrival releases the rest.
pub fn gang_arrive_ns(width: u32) -> f64 {
    let rounds = (65_536 / width).clamp(2, 512);
    let mut sim = Sim::new(0);
    let rz = CollectiveRendezvous::new(sim.handle());
    let members: std::sync::Arc<Vec<DeviceId>> =
        std::sync::Arc::new((0..width).map(DeviceId).collect());
    for _ in 0..width {
        let rz = rz.clone();
        let members = std::sync::Arc::clone(&members);
        sim.spawn("member", async move {
            for r in 0..rounds {
                let _ = rz
                    .arrive(
                        GangTag(u64::from(r)),
                        width,
                        SimDuration::from_micros(1),
                        &members,
                        1,
                    )
                    .await;
            }
        });
    }
    let sw = Stopwatch::start();
    let _ = sim.run();
    sw.nanos() / f64::from(rounds * width)
}

/// Host ns per device operation, on fresh devices.
pub fn probe(shape: &Shape) -> Vec<Named> {
    // enqueue_simple to completion on one device, no collective.
    const KERNELS: u32 = 20_000;
    let enqueue_ns = span::sync("probe.enqueue", DEVICE, || {
        let mut sim = Sim::new(0);
        let dev = DeviceHandle::spawn(
            &sim.handle(),
            DeviceId(0),
            CollectiveRendezvous::new(sim.handle()),
            DeviceConfig::default(),
        );
        sim.spawn("enqueuer", async move {
            for _ in 0..KERNELS {
                let done =
                    dev.enqueue_simple(Kernel::compute("k", SimDuration::from_micros(1)), "probe");
                let _ = done.await;
            }
        });
        let sw = Stopwatch::start();
        let _ = sim.run();
        sw.nanos() / f64::from(KERNELS)
    });

    let gang_arrive = span::sync("probe.gang_arrive", DEVICE, || gang_arrive_ns(shape.gang));

    let hbm_alloc_ns = span::sync("probe.hbm_alloc", DEVICE, || {
        let pool = HbmPool::new(16 << 30);
        let bytes = shape.shard_bytes.max(64);
        ns_per_op(200_000, |_| pool.try_allocate(bytes).map(|l| l.bytes()))
    });

    vec![
        ("device.enqueue_ns", enqueue_ns),
        ("device.gang_arrive_ns", gang_arrive),
        ("device.hbm_alloc_ns", hbm_alloc_ns),
    ]
}
