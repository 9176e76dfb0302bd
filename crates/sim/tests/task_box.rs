//! What a spawned task costs the heap, and when its future is dropped.
//!
//! This test binary installs its own counting global allocator. It
//! records, per thread, the largest single allocation made, and each
//! test runs on its own thread, so nothing else allocates on the
//! counted thread while a test runs.
//!
//! *One box per task, sized by its future.* A task's future is stored
//! once, in the box the executor keeps it in. Wrapped in an `async`
//! block that awaited it and then published its output, it was stored
//! twice: a task holding a 1 KiB array across an await made one
//! allocation of about 2 KiB.
//!
//! *Drop before output.* A finished task's future is dropped before its
//! output is handed to the `JoinHandle` and the handle's waker is woken,
//! so whoever awaits the handle sees every destructor of the task's
//! state already run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::{poll_fn, Future};
use std::hint::black_box;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{ready, Context, Poll, Wake, Waker};

use pathways_sim::{Executor, ExecutorKind, Sim};

/// Records the largest allocation (`alloc`, `alloc_zeroed`, `realloc`)
/// made on the current thread.
struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every method forwards to `System` unchanged; recording
// touches only a thread-local `Cell` with a const initializer, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The largest allocation `f` makes on the current thread.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|n| n.set(0));
    f();
    LARGEST.with(Cell::get)
}

const HELD: usize = 1024;

/// Room for what a task keeps beside the array: its join state pointer,
/// the future's own locals and the enum tag.
const SLACK: usize = 64;

#[test]
fn a_task_boxes_its_future_once() {
    let mut sim = Sim::new(0);
    // The first spawn sizes the executor's task table; count after it.
    sim.spawn("warm-up", async {});
    sim.run_to_quiescence();
    let h = sim.handle();
    let largest = largest_allocation(|| {
        let task = sim.spawn("holder", async move {
            let held = [7u8; HELD];
            h.yield_now().await;
            black_box(&held);
            held[HELD - 1]
        });
        sim.run_to_quiescence();
        assert_eq!(task.try_take(), Some(7));
    });
    assert!(
        largest <= HELD + SLACK,
        "a task holding {HELD} bytes made a {largest}-byte allocation (budget {})",
        HELD + SLACK
    );
}

/// Sets its flag when dropped.
struct SetOnDrop(Arc<AtomicBool>);

impl Drop for SetOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Yields once, then returns 11, holding its guard until it is dropped
/// (an `async` block would drop its locals when it returns).
struct Guarded {
    _guard: SetOnDrop,
    yielded: bool,
}

impl Future for Guarded {
    type Output = u32;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
        if self.yielded {
            return Poll::Ready(11);
        }
        self.yielded = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// Wakes `inner`, first noting in `stale` whether `dropped` was still
/// unset: a wake that arrives before the task's state is dropped.
struct CheckingWaker {
    inner: Waker,
    dropped: Arc<AtomicBool>,
    stale: Arc<AtomicBool>,
}

impl Wake for CheckingWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.dropped.load(Ordering::SeqCst) {
            self.stale.store(true, Ordering::SeqCst);
        }
        self.inner.wake_by_ref();
    }
}

#[test]
fn a_finished_task_is_dropped_before_its_output_arrives() {
    for kind in [
        ExecutorKind::Deterministic,
        ExecutorKind::Threaded { workers: 2 },
    ] {
        let mut ex = Executor::new(kind, 7);
        let dropped = Arc::new(AtomicBool::new(false));
        let guarded = Guarded {
            _guard: SetOnDrop(Arc::clone(&dropped)),
            yielded: false,
        };
        let mut task = ex.spawn("guarded", guarded);
        let stale = Arc::new(AtomicBool::new(false));
        let waiter = ex.spawn("waiter", {
            let stale = Arc::clone(&stale);
            poll_fn(move |cx| {
                let waker = Waker::from(Arc::new(CheckingWaker {
                    inner: cx.waker().clone(),
                    dropped: Arc::clone(&dropped),
                    stale: Arc::clone(&stale),
                }));
                let out = ready!(Pin::new(&mut task).poll(&mut Context::from_waker(&waker)));
                Poll::Ready((out, dropped.load(Ordering::SeqCst)))
            })
        });
        assert!(ex.run().is_quiescent(), "{kind:?}");
        assert_eq!(waiter.try_take(), Some((11, true)), "{kind:?}");
        assert!(
            !stale.load(Ordering::SeqCst),
            "{kind:?}: woken before the drop"
        );
    }
}
