//! Synchronization primitives for simulation tasks.
//!
//! All primitives are FIFO-fair — waiters are released in the order they
//! first polled — and run on both executor backends: deterministic under
//! the virtual-time backend, `Send`-safe (wakes issued after internal
//! locks are released) under the threaded one.

use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use parking_lot::Mutex;

use crate::channel::{OneshotReceiver, OneshotSender};

/// A counting semaphore with FIFO-fair acquisition.
///
/// Used to model bounded resources such as HBM capacity (back-pressure in
/// the object store, §4.6 of the paper) and link concurrency.
///
/// # Examples
///
/// ```
/// use pathways_sim::{sync::Semaphore, Sim, SimDuration};
///
/// let mut sim = Sim::new(0);
/// let sem = Semaphore::new(1);
/// for name in ["a", "b"] {
///     let sem = sem.clone();
///     let h = sim.handle();
///     sim.spawn(name, async move {
///         let _permit = sem.acquire(1).await;
///         h.sleep(SimDuration::from_micros(10)).await;
///     });
/// }
/// let end = sim.run_to_quiescence();
/// // The two critical sections are serialized.
/// assert_eq!(end.as_nanos(), 20_000);
/// ```
#[derive(Clone)]
pub struct Semaphore {
    inner: Arc<Mutex<SemInner>>,
}

struct SemInner {
    permits: u64,
    // (amount requested, state shared with the waiting future)
    waiters: VecDeque<Arc<Mutex<WaitState>>>,
}

struct WaitState {
    amount: u64,
    granted: bool,
    cancelled: bool,
    waker: Option<Waker>,
}

impl fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Semaphore")
            .field("permits", &inner.permits)
            .field("waiters", &inner.waiters.len())
            .finish()
    }
}

impl Semaphore {
    /// Creates a semaphore holding `permits` permits.
    pub fn new(permits: u64) -> Self {
        Semaphore {
            inner: Arc::new(Mutex::new(SemInner {
                permits,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> u64 {
        self.inner.lock().permits
    }

    /// Number of queued waiters.
    pub fn waiters(&self) -> usize {
        self.inner.lock().waiters.len()
    }

    /// Acquires `amount` permits, waiting FIFO-fairly if unavailable.
    ///
    /// The returned [`Permit`] releases the permits when dropped.
    pub fn acquire(&self, amount: u64) -> Acquire<'_> {
        Acquire {
            sem: self,
            amount,
            state: None,
        }
    }

    /// Attempts to acquire permits without waiting.
    pub fn try_acquire(&self, amount: u64) -> Option<Permit> {
        let mut inner = self.inner.lock();
        // Respect FIFO fairness: cannot jump the queue.
        if inner.waiters.is_empty() && inner.permits >= amount {
            inner.permits -= amount;
            Some(Permit {
                sem: self.clone(),
                amount,
            })
        } else {
            None
        }
    }

    /// Adds permits (used to model resources growing, e.g. hosts added to
    /// an island at runtime).
    pub fn add_permits(&self, amount: u64) {
        {
            let mut inner = self.inner.lock();
            inner.permits += amount;
        }
        self.grant_waiters();
    }

    fn grant_waiters(&self) {
        loop {
            let waker = {
                let mut inner = self.inner.lock();
                // Drop cancelled waiters at the head.
                while matches!(inner.waiters.front(), Some(w) if w.lock().cancelled) {
                    inner.waiters.pop_front();
                }
                let front = match inner.waiters.pop_front() {
                    Some(w) => w,
                    None => return,
                };
                let amount = front.lock().amount;
                if inner.permits >= amount {
                    inner.permits -= amount;
                    let mut st = front.lock();
                    st.granted = true;
                    st.waker.take()
                } else {
                    // Not enough permits yet: the head keeps its place.
                    inner.waiters.push_front(front);
                    return;
                }
            };
            if let Some(w) = waker {
                w.wake();
            }
        }
    }
}

/// Future returned by [`Semaphore::acquire`].
///
/// Borrows the semaphore, and allocates its queue node only if it has
/// to wait: an uncontended acquire costs one lock and the `Arc` clone
/// the returned [`Permit`] owns.
pub struct Acquire<'a> {
    sem: &'a Semaphore,
    amount: u64,
    state: Option<Arc<Mutex<WaitState>>>,
}

impl fmt::Debug for Acquire<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Acquire")
            .field("amount", &self.amount)
            .finish()
    }
}

impl Future for Acquire<'_> {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        let sem = self.sem;
        let Some(state) = &self.state else {
            // First poll: either take permits immediately (if nobody is
            // queued ahead) or join the FIFO queue.
            let mut inner = sem.inner.lock();
            if inner.waiters.is_empty() && inner.permits >= self.amount {
                inner.permits -= self.amount;
                return Poll::Ready(Permit {
                    sem: sem.clone(),
                    amount: self.amount,
                });
            }
            let state = Arc::new(Mutex::new(WaitState {
                amount: self.amount,
                granted: false,
                cancelled: false,
                waker: Some(cx.waker().clone()),
            }));
            inner.waiters.push_back(Arc::clone(&state));
            drop(inner);
            self.state = Some(state);
            return Poll::Pending;
        };
        let mut st = state.lock();
        if st.granted {
            st.granted = false; // permit ownership moves into the Permit
            drop(st);
            self.state = None;
            Poll::Ready(Permit {
                sem: sem.clone(),
                amount: self.amount,
            })
        } else {
            st.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

impl Drop for Acquire<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            let mut st = state.lock();
            if st.granted {
                // Permits were granted but never observed; return them.
                drop(st);
                self.sem.inner.lock().permits += self.amount;
                self.sem.grant_waiters();
            } else {
                st.cancelled = true;
            }
        }
    }
}

/// RAII guard for permits acquired from a [`Semaphore`].
pub struct Permit {
    sem: Semaphore,
    amount: u64,
}

impl fmt::Debug for Permit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Permit")
            .field("amount", &self.amount)
            .finish()
    }
}

impl Permit {
    /// Number of permits held.
    pub fn amount(&self) -> u64 {
        self.amount
    }

    /// Releases the permits without waiting for drop, consuming the guard.
    pub fn release(self) {}
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.sem.inner.lock().permits += self.amount;
        self.sem.grant_waiters();
    }
}

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

/// A one-shot flag that any number of tasks can wait on.
///
/// Once [`Event::set`] fires, all current and future waiters resolve
/// immediately. Used for buffer-readiness signalling (a buffer future in
/// the paper's sense: many consumers, one producer).
#[derive(Clone, Default)]
pub struct Event {
    inner: Arc<Mutex<EventInner>>,
}

#[derive(Default)]
struct EventInner {
    set: bool,
    /// Waiters in registration order: the first inline (most events
    /// have exactly one, and it should not cost a `Vec`), the rest
    /// behind it.
    first: Option<Waker>,
    rest: Vec<Waker>,
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("set", &self.inner.lock().set)
            .finish()
    }
}

impl Event {
    /// Creates an unset event.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the event, waking all waiters. Idempotent.
    pub fn set(&self) {
        let (first, rest) = {
            let mut inner = self.inner.lock();
            if inner.set {
                return;
            }
            inner.set = true;
            (inner.first.take(), std::mem::take(&mut inner.rest))
        };
        for w in first.into_iter().chain(rest) {
            w.wake();
        }
    }

    /// True if the event has fired.
    pub fn is_set(&self) -> bool {
        self.inner.lock().set
    }

    /// Waits for the event to fire (immediately ready if it already has).
    pub fn wait(&self) -> EventWait {
        EventWait {
            event: self.clone(),
        }
    }
}

/// Future returned by [`Event::wait`].
#[derive(Debug)]
pub struct EventWait {
    event: Event,
}

impl Future for EventWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.event.inner.lock();
        if inner.set {
            Poll::Ready(())
        } else {
            let waker = cx.waker().clone();
            if inner.first.is_none() {
                inner.first = Some(waker);
            } else {
                inner.rest.push(waker);
            }
            Poll::Pending
        }
    }
}

/// Resolves when `event` fires or, if given, when `cancel` fires first.
pub fn event_or_cancel(event: &Event, cancel: Option<&Event>) -> EventOrCancel {
    EventOrCancel {
        event: event.wait(),
        cancel: cancel.map(Event::wait),
    }
}

/// Future returned by [`event_or_cancel`].
#[derive(Debug)]
pub struct EventOrCancel {
    event: EventWait,
    cancel: Option<EventWait>,
}

impl Future for EventOrCancel {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Pin::new(&mut self.event).poll(cx).is_ready() {
            return Poll::Ready(());
        }
        match &mut self.cancel {
            Some(cancel) => Pin::new(cancel).poll(cx),
            None => Poll::Pending,
        }
    }
}

/// A receiver that completes once `event` or, if given, `cancel` fires,
/// whichever is first (at once if one already has).
///
/// No task waits on the events: one waker registered on both sends the
/// value from inside whichever `set` comes first, so the receiver's task
/// is woken right there. Dropping both events unset drops the sender,
/// and the receiver resolves to `Err`.
pub fn first_set(event: &Event, cancel: Option<&Event>) -> OneshotReceiver<()> {
    let (tx, rx) = crate::channel::oneshot();
    let waker = Waker::from(Arc::new(SendOnWake(Mutex::new(Some(tx)))));
    let mut cx = Context::from_waker(&waker);
    for ev in std::iter::once(event).chain(cancel) {
        // Registers the waker, or finds the event already set.
        if Pin::new(&mut ev.wait()).poll(&mut cx).is_ready() {
            waker.wake_by_ref();
        }
    }
    rx
}

/// The waker behind [`first_set`]: the first wake sends, later ones find
/// the sender gone.
struct SendOnWake(Mutex<Option<OneshotSender<()>>>);

impl Wake for SendOnWake {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let tx = self.0.lock().take();
        if let Some(tx) = tx {
            let _ = tx.send(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Sim;
    use crate::time::SimDuration;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn semaphore_serializes_critical_sections() {
        let mut sim = Sim::new(0);
        let sem = Semaphore::new(2);
        for i in 0..4 {
            let sem = sem.clone();
            let h = sim.handle();
            sim.spawn(format!("t{i}"), async move {
                let _p = sem.acquire(1).await;
                h.sleep(SimDuration::from_micros(10)).await;
            });
        }
        // 4 tasks, 2 at a time, 10us each => 20us.
        assert_eq!(sim.run_to_quiescence().as_nanos(), 20_000);
    }

    #[test]
    fn semaphore_is_fifo_fair_for_large_requests() {
        let mut sim = Sim::new(0);
        let sem = Semaphore::new(4);
        let order = Arc::new(Mutex::new(Vec::new()));
        let h0 = sim.handle();
        // Hold all 4 permits briefly.
        let sem_a = sem.clone();
        sim.spawn("holder", async move {
            let p = sem_a.acquire(4).await;
            h0.sleep(SimDuration::from_micros(10)).await;
            drop(p);
        });
        // Queue a large request first, then a small one: the small one
        // must NOT overtake the large one.
        let h = sim.handle();
        let sem_b = sem.clone();
        let order_b = Arc::clone(&order);
        sim.spawn("large", async move {
            h.sleep(SimDuration::from_micros(1)).await;
            let _p = sem_b.acquire(3).await;
            order_b.lock().push("large");
        });
        let h = sim.handle();
        let sem_c = sem.clone();
        let order_c = Arc::clone(&order);
        sim.spawn("small", async move {
            h.sleep(SimDuration::from_micros(2)).await;
            let _p = sem_c.acquire(1).await;
            order_c.lock().push("small");
        });
        sim.run_to_quiescence();
        assert_eq!(*order.lock(), vec!["large", "small"]);
    }

    #[test]
    fn try_acquire_respects_queue() {
        let mut sim = Sim::new(0);
        let sem = Semaphore::new(1);
        let sem2 = sem.clone();
        let h = sim.handle();
        sim.spawn("holder", async move {
            let _p = sem2.acquire(1).await;
            h.sleep(SimDuration::from_micros(10)).await;
        });
        let sem3 = sem.clone();
        let h2 = sim.handle();
        let probe = sim.spawn("probe", async move {
            h2.sleep(SimDuration::from_micros(1)).await;
            sem3.try_acquire(1).is_none()
        });
        sim.run_to_quiescence();
        assert!(probe.try_take().unwrap());
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn add_permits_releases_waiters() {
        let mut sim = Sim::new(0);
        let sem = Semaphore::new(0);
        let sem2 = sem.clone();
        let t = sim.spawn("waiter", async move {
            let _p = sem2.acquire(2).await;
            true
        });
        let sem3 = sem.clone();
        let h = sim.handle();
        sim.spawn("grower", async move {
            h.sleep(SimDuration::from_micros(1)).await;
            sem3.add_permits(2);
        });
        sim.run_to_quiescence();
        assert_eq!(t.try_take(), Some(true));
    }

    #[test]
    fn event_wakes_all_waiters_and_stays_set() {
        let mut sim = Sim::new(0);
        let ev = Event::new();
        let count = Arc::new(AtomicU32::new(0));
        for i in 0..3 {
            let ev = ev.clone();
            let count = Arc::clone(&count);
            sim.spawn(format!("w{i}"), async move {
                ev.wait().await;
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        let ev2 = ev.clone();
        let h = sim.handle();
        sim.spawn("setter", async move {
            h.sleep(SimDuration::from_micros(2)).await;
            ev2.set();
            ev2.set(); // idempotent
        });
        sim.run_to_quiescence();
        assert_eq!(count.load(Ordering::SeqCst), 3);
        assert!(ev.is_set());
        // Late waiter resolves immediately.
        let mut sim2 = Sim::new(0);
        let late = sim2.spawn("late", async move { ev.wait().await });
        sim2.run_to_quiescence();
        assert!(late.is_finished());
    }

    #[test]
    fn cancelled_acquire_does_not_leak_permits() {
        let mut sim = Sim::new(0);
        let sem = Semaphore::new(1);
        let sem_holder = sem.clone();
        let h = sim.handle();
        sim.spawn("holder", async move {
            let _p = sem_holder.acquire(1).await;
            h.sleep(SimDuration::from_micros(10)).await;
        });
        // This waiter is aborted while queued.
        let sem_w = sem.clone();
        let h2 = sim.handle();
        let doomed = sim.spawn("doomed", async move {
            h2.sleep(SimDuration::from_micros(1)).await;
            let _p = sem_w.acquire(1).await;
            unreachable!("aborted before acquiring");
        });
        let h3 = sim.handle();
        let doom_ref = Arc::new(doomed);
        let doom2 = Arc::clone(&doom_ref);
        sim.spawn("killer", async move {
            h3.sleep(SimDuration::from_micros(5)).await;
            doom2.abort();
        });
        // A later waiter must still get the permit.
        let sem_l = sem.clone();
        let h4 = sim.handle();
        let late = sim.spawn("late", async move {
            h4.sleep(SimDuration::from_micros(6)).await;
            let _p = sem_l.acquire(1).await;
            true
        });
        sim.run_to_quiescence();
        assert_eq!(late.try_take(), Some(true));
        assert_eq!(sem.available(), 1);
    }
}
