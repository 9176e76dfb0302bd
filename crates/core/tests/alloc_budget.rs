//! Allocation budget of the kernel path.
//!
//! This test binary installs its own counting global allocator, so it
//! holds exactly one test: nothing else allocates on the counted thread
//! while it runs. The program is `runtime.rs`'s fan-out program — one
//! 8-shard → 8-shard all-to-all edge over two hosts, 64 (producer,
//! consumer) shard pairs — run once to warm the runtime's lazily built
//! services, then counted over a second run.
//!
//! A per-pair cost shows up here multiplied by the fan-out. The second
//! run makes 856 allocations, 53 per kernel. It made 1 683, 105 per
//! kernel, with a task per transfer and per kernel input, a `Vec` of
//! every destination shard per send and punctuation, hashed per-edge
//! PLAQUE state, an `Arc` per control tuple and a fresh egress buffer
//! per flush.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pathways_core::{FnSpec, PathwaysConfig, PathwaysRuntime, SliceRequest};
use pathways_net::{ClusterSpec, HostId, NetworkParams};
use pathways_sim::{Sim, SimDuration};

/// Counts every allocation (`alloc`, `alloc_zeroed`, `realloc`) made on
/// the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a thread-local `Cell` with a const initializer, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations per kernel the fan-out program may make.
const BUDGET_PER_KERNEL: u64 = 53;

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
