//! Unbounded MPSC and oneshot channels for simulation tasks.
//!
//! These mirror the tokio channel APIs and run on both executor
//! backends: under the deterministic backend messages are delivered in
//! send order and receivers are woken through the executor's FIFO ready
//! queue; under the threaded backend the same types are `Send`-safe and
//! wakes are issued after the channel lock is released so a woken task
//! can start on another worker immediately.

use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use parking_lot::Mutex;

/// Error returned by [`Sender::send`] when the receiver was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiver was dropped")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message is currently queued.
    Empty,
    /// All senders were dropped and the queue is drained.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "channel is empty"),
            TryRecvError::Disconnected => write!(f, "channel is disconnected"),
        }
    }
}

impl std::error::Error for TryRecvError {}

struct ChanInner<T> {
    queue: VecDeque<T>,
    recv_waker: Option<Waker>,
    senders: usize,
    receiver_alive: bool,
}

/// Sending half of an unbounded channel. Cloneable.
pub struct Sender<T> {
    inner: Arc<Mutex<ChanInner<T>>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender")
            .field("queued", &self.inner.lock().queue.len())
            .finish()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.lock().senders += 1;
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let waker = {
            let mut inner = self.inner.lock();
            inner.senders -= 1;
            if inner.senders == 0 {
                inner.recv_waker.take()
            } else {
                None
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Sender<T> {
    /// Enqueues a message, waking the receiver.
    ///
    /// # Errors
    ///
    /// Returns the message back if the receiver was dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let waker = {
            let mut inner = self.inner.lock();
            if !inner.receiver_alive {
                return Err(SendError(value));
            }
            // Most queues never hold more than one message; std's
            // first growth would reserve four.
            if inner.queue.capacity() == 0 {
                inner.queue.reserve_exact(1);
            }
            inner.queue.push_back(value);
            inner.recv_waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
        Ok(())
    }

    /// Returns true if the receiving half is still alive.
    pub fn is_open(&self) -> bool {
        self.inner.lock().receiver_alive
    }
}

/// Receiving half of an unbounded channel.
pub struct Receiver<T> {
    inner: Arc<Mutex<ChanInner<T>>>,
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver")
            .field("queued", &self.inner.lock().queue.len())
            .finish()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.lock().receiver_alive = false;
    }
}

impl<T> Receiver<T> {
    /// Awaits the next message; `None` once all senders are dropped and
    /// the queue is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { receiver: self }
    }

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] if no message is queued,
    /// [`TryRecvError::Disconnected`] if the channel is closed and empty.
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        let mut inner = self.inner.lock();
        match inner.queue.pop_front() {
            Some(v) => Ok(v),
            None if inner.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Returns true if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    receiver: &'a mut Receiver<T>,
}

impl<T> fmt::Debug for Recv<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recv").finish_non_exhaustive()
    }
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut inner = self.receiver.inner.lock();
        match inner.queue.pop_front() {
            Some(v) => Poll::Ready(Some(v)),
            None if inner.senders == 0 => Poll::Ready(None),
            None => {
                inner.recv_waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// Creates an unbounded MPSC channel.
///
/// # Examples
///
/// ```
/// use pathways_sim::{channel, Sim};
///
/// let mut sim = Sim::new(0);
/// let (tx, mut rx) = channel::channel();
/// sim.spawn("producer", async move {
///     tx.send(7u32).unwrap();
/// });
/// let consumer = sim.spawn("consumer", async move { rx.recv().await });
/// sim.run_to_quiescence();
/// assert_eq!(consumer.try_take().unwrap(), Some(7));
/// ```
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Mutex::new(ChanInner {
        queue: VecDeque::new(),
        recv_waker: None,
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

// ---------------------------------------------------------------------------
// Oneshot
// ---------------------------------------------------------------------------

struct OneshotInner<T> {
    value: Option<T>,
    waker: Option<Waker>,
    sender_alive: bool,
    receiver_alive: bool,
}

/// Sending half of a oneshot channel.
pub struct OneshotSender<T> {
    inner: Arc<Mutex<OneshotInner<T>>>,
}

impl<T> fmt::Debug for OneshotSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OneshotSender").finish_non_exhaustive()
    }
}

/// Receiving half of a oneshot channel; a future yielding
/// `Result<T, RecvError>`.
pub struct OneshotReceiver<T> {
    inner: Arc<Mutex<OneshotInner<T>>>,
}

impl<T> fmt::Debug for OneshotReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OneshotReceiver").finish_non_exhaustive()
    }
}

/// Error yielded when the oneshot sender was dropped without sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oneshot sender dropped without sending")
    }
}

impl std::error::Error for RecvError {}

impl<T> OneshotSender<T> {
    /// Delivers the value, waking the receiver.
    ///
    /// # Errors
    ///
    /// Returns the value back if the receiver was dropped.
    pub fn send(self, value: T) -> Result<(), T> {
        let waker = {
            let mut inner = self.inner.lock();
            if !inner.receiver_alive {
                return Err(value);
            }
            inner.value = Some(value);
            inner.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
        Ok(())
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let waker = {
            let mut inner = self.inner.lock();
            inner.sender_alive = false;
            inner.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Drop for OneshotReceiver<T> {
    fn drop(&mut self) {
        self.inner.lock().receiver_alive = false;
    }
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.inner.lock();
        if let Some(v) = inner.value.take() {
            Poll::Ready(Ok(v))
        } else if !inner.sender_alive {
            Poll::Ready(Err(RecvError))
        } else {
            inner.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Creates a oneshot channel.
///
/// # Examples
///
/// ```
/// use pathways_sim::{channel, Sim};
///
/// let mut sim = Sim::new(0);
/// let (tx, rx) = channel::oneshot();
/// sim.spawn("sender", async move {
///     tx.send("done").unwrap();
/// });
/// let r = sim.spawn("receiver", async move { rx.await });
/// sim.run_to_quiescence();
/// assert_eq!(r.try_take().unwrap(), Ok("done"));
/// ```
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let inner = Arc::new(Mutex::new(OneshotInner {
        value: None,
        waker: None,
        sender_alive: true,
        receiver_alive: true,
    }));
    (
        OneshotSender {
            inner: Arc::clone(&inner),
        },
        OneshotReceiver { inner },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Sim;
    use crate::time::SimDuration;

    #[test]
    fn messages_delivered_in_order() {
        let mut sim = Sim::new(0);
        let (tx, mut rx) = channel::<u32>();
        sim.spawn("producer", async move {
            for i in 0..10 {
                tx.send(i).unwrap();
            }
        });
        let consumer = sim.spawn("consumer", async move {
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        sim.run_to_quiescence();
        assert_eq!(consumer.try_take().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recv_returns_none_when_all_senders_drop() {
        let mut sim = Sim::new(0);
        let (tx, mut rx) = channel::<u32>();
        let tx2 = tx.clone();
        let h = sim.handle();
        sim.spawn("p1", async move {
            tx.send(1).unwrap();
        });
        let h2 = h.clone();
        sim.spawn("p2", async move {
            h2.sleep(SimDuration::from_micros(5)).await;
            tx2.send(2).unwrap();
        });
        let consumer = sim.spawn("c", async move {
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        sim.run_to_quiescence();
        assert_eq!(consumer.try_take().unwrap(), vec![1, 2]);
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
        assert!(!tx.is_open());
    }

    #[test]
    fn try_recv_reports_empty_and_disconnected() {
        let (tx, mut rx) = channel::<u32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(3).unwrap();
        assert_eq!(rx.try_recv(), Ok(3));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn oneshot_delivers_value() {
        let mut sim = Sim::new(0);
        let (tx, rx) = oneshot::<&str>();
        let h = sim.handle();
        sim.spawn("s", async move {
            h.sleep(SimDuration::from_micros(1)).await;
            tx.send("hi").unwrap();
        });
        let r = sim.spawn("r", rx);
        sim.run_to_quiescence();
        assert_eq!(r.try_take().unwrap(), Ok("hi"));
    }

    #[test]
    fn oneshot_sender_drop_wakes_with_error() {
        let mut sim = Sim::new(0);
        let (tx, rx) = oneshot::<u32>();
        sim.spawn("s", async move {
            drop(tx);
        });
        let r = sim.spawn("r", rx);
        sim.run_to_quiescence();
        assert_eq!(r.try_take().unwrap(), Err(RecvError));
    }

    #[test]
    fn oneshot_send_to_dropped_receiver_errors() {
        let (tx, rx) = oneshot::<u32>();
        drop(rx);
        assert_eq!(tx.send(5), Err(5));
    }
}
