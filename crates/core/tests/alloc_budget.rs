//! Allocation and retention budgets of the kernel path.
//!
//! This test binary installs its own counting global allocator. It
//! counts per thread, and each test runs its simulation on its own
//! thread, so nothing else allocates on the counted thread while a test
//! runs.
//!
//! *Allocations.* The program is `runtime.rs`'s fan-out program — one
//! 8-shard → 8-shard all-to-all edge over two hosts, 64 (producer,
//! consumer) shard pairs — run once to warm the runtime's lazily built
//! services, then counted over a second run. A per-pair cost shows up
//! here multiplied by the fan-out. The second run makes 847 allocations,
//! 52 per kernel. It made 1 683, 105 per kernel, with a task per
//! transfer and per kernel input, a `Vec` of every destination shard per
//! send and punctuation, hashed per-edge PLAQUE state, an `Arc` per
//! control tuple and a fresh egress buffer per flush.
//!
//! *Retention.* A finished run, once its outputs are dropped, must leave
//! nothing behind: the controller's memory may not grow with the number
//! of runs it has completed. Each finished run used to keep its failure
//! footprint, its failure event and the stale wakers its kernel inputs
//! and transfers had registered on that event until a fault happened to
//! purge them, and the executor kept a trace span per kernel that
//! nothing read: 150 more chains below grew live bytes by 1 006 352
//! (6.7 KiB per chain of two runs). They now grow them by 9 600.
//!
//! *Fault notices.* A heal tells every live host which slice moved. Each
//! host used to keep its own `(key, String)` copy of every notice: 48
//! heals on 32 hosts grew live bytes by 119 136, 2 482 per heal — the
//! 41-byte detail plus a 32-byte entry on each of 32 hosts (2 336), and
//! what the heal itself keeps. Then each delivery's notices became one
//! shared batch and each host kept a 16-byte pointer to it per delivery:
//! 758 per heal on 32 hosts and 2 267 on 128. Now the log keeps each
//! batch once in a batch list and a host keeps runs of consecutive batch
//! indices, one run for a host that hears every heal, so a heal's cost
//! no longer grows with the hosts: 262 per heal on 32 hosts, 235 on 128.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pathways_core::{FnSpec, InputSpec, PathwaysConfig, PathwaysRuntime, SliceRequest};
use pathways_net::{ClusterSpec, HostId, NetworkParams};
use pathways_sim::{Sim, SimDuration};

/// Counts every allocation (`alloc`, `alloc_zeroed`, `realloc`) made on
/// the current thread, and the bytes the thread holds.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(grown: i64) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    held(grown);
}

fn held(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only thread-local `Cell`s with const initializers, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        held(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes allocated and not yet freed by the current thread.
fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Allocations per kernel the fan-out program may make.
const BUDGET_PER_KERNEL: u64 = 52;

#[test]
fn fan_out_kernels_stay_within_their_allocation_budget() {
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::config_a(2),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
    let mut b = client.trace("fan-out");
    let f =
        |n: &str| FnSpec::compute_only(n, SimDuration::from_micros(100)).with_output_bytes(1 << 16);
    let src = b.computation(f("src"), &slice);
    let dst = b.computation(f("dst"), &slice);
    b.reshard_edge(src, dst, 1 << 16);
    let prepared = std::sync::Arc::new(client.prepare(&b.build().unwrap()));
    let device0 = rt.core().devices[&pathways_net::DeviceId(0)].clone();

    let run = |sim: &mut Sim| {
        let (client, prepared) = (client.clone(), std::sync::Arc::clone(&prepared));
        sim.spawn("client", async move {
            client.run(&prepared).await;
        });
        sim.run_to_quiescence();
    };
    run(&mut sim);
    let kernels_before = device0.stats().kernels;
    let before = allocs();
    run(&mut sim);
    let made = allocs() - before;
    // Every one of the 8 devices ran one producer and one consumer
    // kernel.
    assert_eq!(device0.stats().kernels - kernels_before, 2);
    let kernels = 16;
    let per_kernel = made / kernels;
    assert!(
        per_kernel <= BUDGET_PER_KERNEL,
        "{made} allocations, {per_kernel} per kernel (budget {BUDGET_PER_KERNEL})"
    );
}

/// Live bytes 150 more finished chains may add. Each island scheduler
/// remembers the arrival time of its last 1 024 runs; going from 100 to
/// 400 runs grows that map and its order queue from 128 to 512 slots,
/// 9 600 bytes. Past 1 024 runs they stop growing.
const RETENTION_SLACK: i64 = 16 << 10;

#[test]
fn finished_runs_retain_nothing() {
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::config_a(2),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
    let f =
        |n: &str| FnSpec::compute_only(n, SimDuration::from_micros(100)).with_output_bytes(1 << 16);
    let mut b = client.trace("producer");
    let src = b.computation(f("src"), &slice);
    let producer = std::sync::Arc::new(client.prepare(&b.build().unwrap()));
    // The consumer is submitted before the producer finishes, so its
    // kernel inputs and its input transfers wait on the producer's
    // events while racing their own run's failure event.
    let mut b = client.trace("consumer");
    let x = b.input(InputSpec::new("x", 8));
    let dst = b.computation(f("dst"), &slice);
    b.reshard_edge(x, dst, 1 << 16);
    let consumer = std::sync::Arc::new(client.prepare(&b.build().unwrap()));

    let chains = |sim: &mut Sim, n: usize| {
        let client = client.clone();
        let (producer, consumer) = (producer.clone(), consumer.clone());
        sim.spawn("client", async move {
            for _ in 0..n {
                let first = client.submit(&producer).await;
                let input = first.object_ref(src).unwrap();
                let second = client.submit_with(&consumer, &[(x, input)]).await.unwrap();
                first.finish().await;
                second.finish().await;
            }
        });
        sim.run_to_quiescence();
    };
    chains(&mut sim, 50);
    let after_50 = live_bytes();
    chains(&mut sim, 150);
    let after_200 = live_bytes();
    assert!(rt.core().store.is_empty());
    assert_eq!(
        rt.core().failures.registered_run_count(),
        0,
        "a completed, unfailed run leaves no footprint"
    );
    assert!(
        after_200 - after_50 <= RETENTION_SLACK,
        "150 more chains grew live bytes {after_50} -> {after_200}"
    );
}

/// Live bytes one heal may keep, at any cluster size: its notice batch
/// (a 48-byte shared slice header and entry plus the 41-byte detail)
/// and its slot in the log's batch list, the `HealEvent` that
/// `heal_events()` keeps on purpose (64 bytes plus its two one-device
/// mappings) and the failure registries' entry for the dead device.
/// 262 bytes are measured.
const HEAL_SLACK: i64 = 512;

/// Live bytes each of 48 heals keeps on a cluster of `hosts` hosts
/// (config B: 8 devices per host), measured after 16 warm-up heals.
fn per_heal_bytes(hosts: u32) -> i64 {
    use pathways_core::FaultSpec;

    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::config_b(hosts),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(1)).unwrap();
    // Each kill takes the slice's one device; the heal remaps it onto a
    // spare and tells every host.
    let kill = |sim: &mut Sim, n: usize| {
        for _ in 0..n {
            let device = slice.physical_devices()[0];
            rt.faults().inject(&FaultSpec::Device(device));
            sim.run_to_quiescence();
        }
    };
    // 16 then 48 more: the batch list and the heal history go from 16
    // to 64 entries, so their growth is exactly one entry per heal.
    kill(&mut sim, 16);
    let before = live_bytes();
    kill(&mut sim, 48);
    let per_heal = (live_bytes() - before) / 48;
    let heals = rt.faults().heal_events();
    assert_eq!(heals.len(), 64);
    assert!(heals.iter().all(|e| e.healed()));
    for h in 0..hosts {
        let notices = rt.faults().heal_log().notices(HostId(h));
        assert_eq!(notices.len(), 64, "host {h}");
        assert!(notices.iter().all(|(id, _)| *id == slice.id()));
    }
    per_heal
}

#[test]
fn a_heal_notice_is_stored_once_across_hosts() {
    for hosts in [32, 128] {
        let per_heal = per_heal_bytes(hosts);
        assert!(
            per_heal <= HEAL_SLACK,
            "each heal kept {per_heal} live bytes on {hosts} hosts (budget {HEAL_SLACK})"
        );
    }
}

/// Live bytes a device may cost at rest: the runtime built on
/// `ClusterSpec::config_a(128)` (512 devices on 128 hosts), once one
/// 512-wide all-reduce step has run and every service is parked, holds
/// this much per device in all — its device loop, queue and stats, its
/// share of its host's executor, router and PLAQUE state, and the
/// program's per-shard tables.
const BYTES_PER_DEVICE_AT_REST: i64 = 3_700;

#[test]
fn a_device_at_rest_costs_bounded_bytes() {
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::config_a(128),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    let devices = rt.core().devices.len() as i64;
    assert_eq!(devices, 512);
    let client = rt.client(HostId(0));
    let slice = client.virtual_slice(SliceRequest::devices(512)).unwrap();
    let mut b = client.trace("step");
    b.computation(
        FnSpec::compute_only("step", SimDuration::from_micros(500)).with_allreduce(4),
        &slice,
    );
    let prepared = client.prepare(&b.build().unwrap());
    sim.spawn("client", async move {
        client.run(&prepared).await;
    });
    sim.run_to_quiescence();
    let per_device = live_bytes() / devices;
    assert!(
        per_device <= BYTES_PER_DEVICE_AT_REST,
        "{per_device} live bytes per device (budget {BYTES_PER_DEVICE_AT_REST})"
    );
}
