//! Lock-order regression test for the resource manager.
//!
//! Two OS threads share one `ResourceManager`: one allocates and
//! releases slices, the other heals, rebalances and detaches/re-attaches
//! devices. On the threaded executor these calls really do overlap (a
//! client allocating while the fault injector heals), so the manager
//! must never wait on itself. When its state sat behind several locks
//! taken in different orders, `allocate` (attached, then use-counts) and
//! the ledger's charge path (use-counts, then attached) deadlocked here
//! within moments. The main thread waits with a timeout, so a deadlock
//! fails the test instead of hanging it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use pathways_core::{ResourceManager, SliceRequest};
use pathways_net::{ClientId, ClusterSpec, DeviceId};

const ITERATIONS: usize = 3_000;
const DEVICES: u32 = 16;
const DEADLINE: Duration = Duration::from_secs(20);

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the race under test needs two OS threads"
)]
fn allocate_and_heal_on_two_threads_never_deadlock() {
    // Two islands of one host with eight devices each.
    let rm = Arc::new(ResourceManager::new(Arc::new(
        ClusterSpec::islands_of(2, 1, 8).build(),
    )));
    let progress = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let (done_tx, done_rx) = mpsc::channel::<&'static str>();

    let (rm_a, progress_a, tx_a) = (Arc::clone(&rm), Arc::clone(&progress), done_tx.clone());
    std::thread::spawn(move || {
        let mut live = VecDeque::new();
        for i in 0..ITERATIONS {
            let want = 1 + (i % 4) as u32;
            if let Ok(slice) = rm_a.allocate(ClientId(0), SliceRequest::devices(want)) {
                live.push_back(slice);
            }
            if live.len() > 4 {
                let oldest = live.pop_front().expect("non-empty");
                rm_a.release(&oldest);
            }
            progress_a[0].store(i + 1, Ordering::Relaxed);
        }
        for slice in live {
            rm_a.release(&slice);
        }
        let _ = tx_a.send("allocator");
    });

    let (rm_b, progress_b, tx_b) = (Arc::clone(&rm), Arc::clone(&progress), done_tx);
    std::thread::spawn(move || {
        for i in 0..ITERATIONS {
            let dead = DeviceId(i as u32 % DEVICES);
            rm_b.heal(&[dead], &[]);
            rm_b.attach_device(dead);
            rm_b.rebalance();
            let maintenance = DeviceId((i as u32 * 7 + 3) % DEVICES);
            rm_b.detach_device(maintenance);
            rm_b.attach_device(maintenance);
            progress_b[1].store(i + 1, Ordering::Relaxed);
        }
        let _ = tx_b.send("healer");
    });

    for _ in 0..2 {
        match done_rx.recv_timeout(DEADLINE) {
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => panic!(
                "resource manager deadlocked: after {DEADLINE:?} the allocator is at iteration \
                 {} and the healer at {} of {ITERATIONS}",
                progress[0].load(Ordering::Relaxed),
                progress[1].load(Ordering::Relaxed),
            ),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("a resource-manager thread panicked (see its message above)")
            }
        }
    }
    rm.assert_indexes_consistent();
    assert_eq!(rm.live_slice_count(), 0);
    assert_eq!(rm.total_load(), 0, "every slice was released");
}
