//! Lock-order regression test for the resource manager.
//!
//! Two OS threads share one `ResourceManager`: one allocates and
//! releases slices, the other heals and detaches devices. On the
//! threaded executor these calls really do overlap (a client allocating
//! while the fault injector heals), so the manager must never wait on
//! itself. When its state sat behind several locks taken in different
//! orders, `allocate` (attached, then use-counts) and the ledger's
//! charge path (use-counts, then attached) deadlocked here within
//! moments.
//!
//! Healing detaches for good, so one manager runs out of devices: the
//! test runs in rounds, each on a fresh manager that both threads start
//! on together. The main thread waits with a timeout, so a deadlock
//! fails the test instead of hanging it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use pathways_core::{ResourceManager, SliceRequest};
use pathways_net::{ClientId, ClusterSpec, DeviceId};

const ROUNDS: usize = 100;
const STEPS: usize = 40;
const DEVICES: u32 = 64;
const DEADLINE: Duration = Duration::from_secs(20);

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the race under test needs two OS threads"
)]
fn allocate_and_heal_on_two_threads_never_deadlock() {
    let progress = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let start = Arc::new(Barrier::new(2));
    let (alloc_tx, alloc_rx) = mpsc::channel::<Arc<ResourceManager>>();
    let (heal_tx, heal_rx) = mpsc::channel::<Arc<ResourceManager>>();
    let (done_tx, done_rx) = mpsc::channel::<&'static str>();

    let (progress_a, start_a, tx_a) = (Arc::clone(&progress), Arc::clone(&start), done_tx.clone());
    let allocator = std::thread::spawn(move || {
        for rm in alloc_rx {
            start_a.wait();
            let mut live = VecDeque::new();
            for i in 0..STEPS {
                let want = 1 + (i % 4) as u32;
                if let Ok(slice) = rm.allocate(ClientId(0), SliceRequest::devices(want)) {
                    live.push_back(slice);
                }
                if live.len() > 4 {
                    let oldest = live.pop_front().expect("non-empty");
                    rm.release(&oldest);
                }
                progress_a[0].fetch_add(1, Ordering::Relaxed);
            }
            for slice in live {
                rm.release(&slice);
            }
            let _ = tx_a.send("allocator");
        }
    });

    let (progress_b, start_b, tx_b) = (Arc::clone(&progress), Arc::clone(&start), done_tx);
    let healer = std::thread::spawn(move || {
        for (round, rm) in heal_rx.into_iter().enumerate() {
            start_b.wait();
            for i in 0..STEPS {
                let step = (round * STEPS + i) as u32;
                rm.heal(&[DeviceId(step * 5 % DEVICES)], &[]);
                if i % 4 == 0 {
                    rm.detach_device(DeviceId((step * 7 + 3) % DEVICES));
                }
                progress_b[1].fetch_add(1, Ordering::Relaxed);
            }
            let _ = tx_b.send("healer");
        }
    });

    for _ in 0..ROUNDS {
        // Four islands of two hosts with eight devices each.
        let rm = Arc::new(ResourceManager::new(Arc::new(
            ClusterSpec::islands_of(4, 2, 8).build(),
        )));
        assert_eq!(rm.topology().num_devices(), DEVICES);
        alloc_tx.send(Arc::clone(&rm)).expect("allocator alive");
        heal_tx.send(Arc::clone(&rm)).expect("healer alive");
        for _ in 0..2 {
            match done_rx.recv_timeout(DEADLINE) {
                Ok(_) => {}
                Err(mpsc::RecvTimeoutError::Timeout) => panic!(
                    "resource manager deadlocked (or a thread panicked, see above): after \
                     {DEADLINE:?} the allocator is at step {} and the healer at {} of {}",
                    progress[0].load(Ordering::Relaxed),
                    progress[1].load(Ordering::Relaxed),
                    ROUNDS * STEPS,
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
    drop((alloc_tx, heal_tx));
    allocator.join().expect("allocator thread panicked");
    healer.join().expect("healer thread panicked");
}
