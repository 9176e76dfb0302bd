//! Layer `core.resource`: the resource manager — virtual slices, the
//! device-load ledger, healing.

use std::sync::Arc;

use pathways::core::{Client, PathwaysRuntime, ResourceManager, SliceRequest, VirtualSlice};
use pathways::net::{ClientId, DeviceId, IslandId};

use super::core_client::{Env, Prog};
use super::sim::{enter, leave};
use super::{net, Named, Shape, RESOURCE};
use crate::clock::Stopwatch;
use crate::span;

fn request(devices: u32, island: Option<u32>) -> SliceRequest {
    let r = SliceRequest::devices(devices);
    match island {
        Some(i) => r.in_island(IslandId(i)),
        None => r,
    }
}

/// `Client::virtual_slice`. Workloads size their clusters so this
/// cannot fail.
fn allocate(client: &Client, request: SliceRequest, prog: Prog) -> VirtualSlice {
    let h = client.handle();
    let t = enter(h, RESOURCE, "virtual_slice", 1, false, prog);
    let s = client
        .virtual_slice(request)
        .expect("the workload's cluster has room for its slices");
    leave(h, t);
    s
}

/// `devices` devices, optionally pinned to an island.
pub fn slice(client: &Client, devices: u32, island: Option<u32>, prog: Prog) -> VirtualSlice {
    allocate(client, request(devices, island), prog)
}

/// A slice that must form a connected window of the island's torus.
pub fn contiguous_slice(client: &Client, devices: u32, prog: Prog) -> VirtualSlice {
    allocate(client, SliceRequest::devices(devices).contiguous(), prog)
}

/// A shareable handle to the runtime's resource manager.
pub type Manager = Arc<ResourceManager>;

pub fn release(env_rm: &Manager, client: &Client, slice: &VirtualSlice, prog: Prog) {
    let h = client.handle();
    let t = enter(h, RESOURCE, "release", 1, false, prog);
    env_rm.release(slice);
    leave(h, t);
}

pub fn manager(env: &Env) -> Manager {
    manager_of(&env.rt)
}

pub fn manager_of(rt: &PathwaysRuntime) -> Manager {
    Arc::clone(rt.resource_manager())
}

/// The devices a slice currently maps to.
pub fn devices_of(slice: &VirtualSlice) -> Vec<DeviceId> {
    slice.physical_devices()
}

/// Panics (loudly failing the run) if the manager's derived indexes
/// disagree with its ledger.
pub fn assert_consistent(env: &Env) {
    env.rt.resource_manager().assert_indexes_consistent();
}

pub fn counters(env: &Env) -> Vec<Named> {
    vec![(
        "core.resource.heal_events",
        env.rt.faults().heal_events().len() as f64,
    )]
}

/// Slices still allocated and their summed device load (both 0 once a
/// workload has released everything it took).
pub fn residue(env: &Env) -> (usize, u64) {
    let rm = env.rt.resource_manager();
    (rm.live_slice_count(), rm.total_load())
}

/// Host ns per resource-manager operation on a fresh manager over the
/// workload's topology, with the workload's slice size.
pub fn probe(shape: &Shape) -> Vec<Named> {
    let topo = Arc::new(net::cluster(shape).build());
    let per_island = shape.hosts_per_island * shape.devices_per_host;
    let want = shape.gang.min(per_island);
    let client = ClientId(0);

    // Churn: allocate one slice per island, release them all, repeat.
    let rounds = (40_000 / (shape.islands * want.max(1))).clamp(4, 4_000);
    let (allocate_ns, release_ns) = span::sync("probe.allocate_release", RESOURCE, || {
        let rm = ResourceManager::new(Arc::clone(&topo));
        let mut alloc = 0.0;
        let mut rel = 0.0;
        let mut live = Vec::with_capacity(shape.islands as usize);
        for _ in 0..rounds {
            let sw = Stopwatch::start();
            for i in 0..shape.islands {
                live.push(
                    rm.allocate(client, request(want, Some(i)))
                        .expect("island fits one slice"),
                );
            }
            alloc += sw.nanos();
            let sw = Stopwatch::start();
            for s in live.drain(..) {
                rm.release(&s);
            }
            rel += sw.nanos();
        }
        let ops = f64::from(rounds * shape.islands);
        (alloc / ops, rel / ops)
    });

    // Heal: slices of half an island each (so spare capacity exists),
    // several stacked on the same devices, then kill one of them.
    let heal_us_per_slice = span::sync("probe.heal", RESOURCE, || {
        let width = (per_island / 2).clamp(1, want.max(1));
        let mut total_ns = 0.0;
        let mut healed = 0usize;
        for round in 0..64u32 {
            let rm = ResourceManager::new(Arc::clone(&topo));
            let slices: Vec<VirtualSlice> = (0..4)
                .map(|_| {
                    rm.allocate(client, request(width, Some(0)))
                        .expect("island fits the probe slices")
                })
                .collect();
            let victim = slices[(round % 4) as usize].physical_devices()[0];
            let sw = Stopwatch::start();
            let events = rm.heal(&[victim], &[]);
            total_ns += sw.nanos();
            healed += events.len().max(1);
        }
        total_ns / 1e3 / healed as f64
    });

    vec![
        ("core.resource.allocate_ns", allocate_ns),
        ("core.resource.release_ns", release_ns),
        ("core.resource.heal_us_per_slice", heal_us_per_slice),
    ]
}
