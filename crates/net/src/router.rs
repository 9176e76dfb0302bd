//! Typed host-to-host DCN messaging.
//!
//! A [`Router`] gives every host an inbox and delivers typed messages
//! with the fabric's DCN cost model. This is the transport the PLAQUE
//! replacement (crate `pathways-plaque`) and the single-controller
//! control planes are built on.
//!
//! Nothing is spawned per message: `send` queues it for the source
//! host's long-lived *egress actor*, which books the NIC in send order
//! (the link's closed form gives the arrival instant at once) and hands
//! each message to its destination inbox at that instant.

use pathways_sim::hash::FxHashMap;
use pathways_sim::Lock;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::fmt;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use pathways_sim::channel::{self, Receiver, Sender};
use pathways_sim::{IdleToken, SimTime};

use crate::fabric::Fabric;
use crate::ids::HostId;

/// A delivered message with its source host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending host.
    pub src: HostId,
    /// Payload.
    pub msg: M,
}

type Inboxes<M> = Arc<Lock<FxHashMap<HostId, Sender<Envelope<M>>>>>;

/// `(destination, message, simulated bytes)` as accepted by `send`.
type Outbound<M> = (HostId, M, u64);

struct RouterInner<M> {
    fabric: Fabric,
    /// Shared with the egress actors. They must not hold `RouterInner`:
    /// it owns their queues' senders, and they exit when those are gone.
    inboxes: Inboxes<M>,
    /// Each source host's egress actor, spawned by its first `send`.
    egress: Lock<FxHashMap<HostId, Sender<Outbound<M>>>>,
}

/// Typed DCN message router. Cheaply cloneable.
pub struct Router<M> {
    inner: Arc<RouterInner<M>>,
}

impl<M> Clone for Router<M> {
    fn clone(&self) -> Self {
        Router {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M> fmt::Debug for Router<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Router")
            .field("registered", &self.inner.inboxes.lock().len())
            .finish()
    }
}

impl<M: Send + 'static> Router<M> {
    /// Creates a router over `fabric`.
    pub fn new(fabric: Fabric) -> Self {
        Router {
            inner: Arc::new(RouterInner {
                fabric,
                inboxes: Arc::new(Lock::new(FxHashMap::default())),
                egress: Lock::new(FxHashMap::default()),
            }),
        }
    }

    /// Registers `host` and returns its inbox.
    ///
    /// # Panics
    ///
    /// Panics if the host is already registered.
    pub fn register(&self, host: HostId) -> Receiver<Envelope<M>> {
        let (tx, rx) = channel::channel();
        let prev = self.inner.inboxes.lock().insert(host, tx);
        assert!(prev.is_none(), "{host} registered twice");
        rx
    }

    /// Sends `msg` of simulated size `bytes` from `src` to `dst` and
    /// returns at once (asynchronous send, like an RPC with no reply);
    /// `src`'s egress actor delivers it. Messages between a pair of
    /// hosts are delivered in order because the sender NIC is FIFO.
    /// Callable from outside any task, before the executor runs.
    ///
    /// # Panics
    ///
    /// Panics if `dst` was never registered.
    pub fn send(&self, src: HostId, dst: HostId, msg: M, bytes: u64) {
        assert!(
            self.inner.inboxes.lock().contains_key(&dst),
            "send to unregistered {dst}"
        );
        let mut egress = self.inner.egress.lock();
        let queue = egress.entry(src).or_insert_with(|| self.spawn_egress(src));
        // The actor outlives every sender, so the queue is open.
        let _ = queue.send((dst, msg, bytes));
    }

    fn spawn_egress(&self, src: HostId) -> Sender<Outbound<M>> {
        let (tx, queue) = channel::channel();
        let idle = IdleToken::new();
        let mut actor = Egress {
            src,
            fabric: self.inner.fabric.clone(),
            inboxes: Arc::clone(&self.inner.inboxes),
            queue,
            in_flight: VecDeque::new(),
            armed: None,
            routes: FxHashMap::default(),
            idle: idle.clone(),
        };
        self.inner.fabric.handle().spawn_service(
            format!("dcn-egress-{src}"),
            &idle,
            poll_fn(move |cx| actor.poll(cx)),
        );
        tx
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }
}

/// One source host's egress actor. It reads idle whenever nothing is
/// queued or on the wire, so a drained simulation still ends quiescent.
struct Egress<M> {
    src: HostId,
    fabric: Fabric,
    inboxes: Inboxes<M>,
    queue: Receiver<Outbound<M>>,
    /// `(arrival, destination, message)`, in send order: one NIC's
    /// arrivals are monotone, so that is arrival order too.
    in_flight: VecDeque<(SimTime, HostId, M)>,
    /// The instant the one outstanding timer fires: the head's arrival.
    armed: Option<SimTime>,
    /// Inboxes delivered to so far (none is ever unregistered).
    routes: FxHashMap<HostId, Sender<Envelope<M>>>,
    idle: IdleToken,
}

impl<M: Send + 'static> Egress<M> {
    /// One wake-up: book the NIC for everything queued, deliver what has
    /// arrived, arm the timer. Done once the router is gone and the wire
    /// is empty.
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll<()> {
        let open = loop {
            match Pin::new(&mut self.queue.recv()).poll(cx) {
                Poll::Ready(Some((dst, msg, _))) if dst == self.src => self.deliver(dst, msg),
                Poll::Ready(Some((dst, msg, bytes))) => {
                    let arrival = self.fabric.dcn_arrival(self.src, bytes);
                    self.in_flight.push_back((arrival, dst, msg));
                }
                Poll::Ready(None) => break false,
                Poll::Pending => break true,
            }
        };
        let now = self.fabric.handle().now();
        while self.in_flight.front().is_some_and(|m| m.0 <= now) {
            if let Some((_, dst, msg)) = self.in_flight.pop_front() {
                self.deliver(dst, msg);
            }
        }
        // A `Sleep` registers a timer on every poll, so arm one only when
        // the head is not the instant already armed.
        let head = self.in_flight.front().map(|m| m.0);
        if let Some(arrival) = head.filter(|_| head != self.armed) {
            let mut timer = self.fabric.handle().sleep_until(arrival);
            if Pin::new(&mut timer).poll(cx).is_ready() {
                cx.waker().wake_by_ref(); // a real clock got there first
            }
        }
        self.armed = head;
        if !self.in_flight.is_empty() {
            self.idle.set_busy();
        } else if open {
            self.idle.set_idle();
        } else {
            return Poll::Ready(());
        }
        Poll::Pending
    }

    fn deliver(&mut self, dst: HostId, msg: M) {
        // Checked at the arrival instant so a link that dies while the
        // message is queued or on the wire also loses it.
        if !self.fabric.link_up(self.src, dst) {
            return;
        }
        let inbox = match self.routes.entry(dst) {
            Entry::Occupied(known) => known.into_mut(),
            // `send` saw the inbox, and nothing unregisters one.
            Entry::Vacant(new) => match self.inboxes.lock().get(&dst) {
                Some(inbox) => new.insert(inbox.clone()),
                None => return,
            },
        };
        // Receiver may legitimately have shut down (host failure).
        let _ = inbox.send(Envelope { src: self.src, msg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NetworkParams;
    use crate::topology::ClusterSpec;
    use pathways_sim::{Sim, SimDuration};
    use std::sync::Arc;

    fn setup(sim: &Sim) -> Router<String> {
        let fabric = Fabric::new(
            sim.handle(),
            Arc::new(ClusterSpec::config_b(4).build()),
            NetworkParams::tpu_cluster(),
        );
        Router::new(fabric)
    }

    #[test]
    fn delivers_with_dcn_latency() {
        let mut sim = Sim::new(0);
        let router = setup(&sim);
        let mut inbox = router.register(HostId(1));
        router.register(HostId(0));
        router.send(HostId(0), HostId(1), "hello".to_string(), 64);
        let h = sim.handle();
        let recv = sim.spawn("recv", async move {
            let env = inbox.recv().await.unwrap();
            (env.src, env.msg, h.now())
        });
        sim.run_to_quiescence();
        let (src, msg, at) = recv.try_take().unwrap();
        assert_eq!(src, HostId(0));
        assert_eq!(msg, "hello");
        assert!(at.as_nanos() >= NetworkParams::tpu_cluster().dcn_latency.as_nanos());
    }

    #[test]
    fn pairwise_ordering_is_preserved() {
        let mut sim = Sim::new(0);
        let router = setup(&sim);
        let mut inbox = router.register(HostId(1));
        router.register(HostId(0));
        for i in 0..10 {
            router.send(HostId(0), HostId(1), format!("m{i}"), 1_000);
        }
        let recv = sim.spawn("recv", async move {
            let mut got = Vec::new();
            for _ in 0..10 {
                got.push(inbox.recv().await.unwrap().msg);
            }
            got
        });
        sim.run_to_quiescence();
        let got = recv.try_take().unwrap();
        let want: Vec<String> = (0..10).map(|i| format!("m{i}")).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn send_to_dead_receiver_is_dropped_silently() {
        let mut sim = Sim::new(0);
        let router = setup(&sim);
        let inbox = router.register(HostId(1));
        router.register(HostId(0));
        drop(inbox); // host 1 "fails"
        router.send(HostId(0), HostId(1), "lost".into(), 8);
        assert!(sim.run().is_quiescent());
    }

    #[test]
    fn messages_over_dead_links_are_dropped() {
        let mut sim = Sim::new(0);
        let router = setup(&sim);
        let mut in1 = router.register(HostId(1));
        let mut in2 = router.register(HostId(2));
        router.register(HostId(0));
        router.fabric().fail_host(HostId(1));
        router.fabric().sever_link(HostId(0), HostId(2));
        router.send(HostId(0), HostId(1), "to-dead-host".into(), 8);
        router.send(HostId(0), HostId(2), "over-severed-link".into(), 8);
        assert!(sim.run().is_quiescent());
        use pathways_sim::channel::TryRecvError;
        assert_eq!(in1.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(in2.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn link_dying_mid_flight_loses_the_message() {
        let mut sim = Sim::new(0);
        let router = setup(&sim);
        let mut inbox = router.register(HostId(1));
        router.register(HostId(0));
        // Sent while the link is up; the fault fires before the DCN
        // latency elapses, so delivery finds the link down.
        router.send(HostId(0), HostId(1), "in-flight".to_string(), 1 << 20);
        let fabric = router.fabric().clone();
        sim.spawn("fault", async move {
            fabric.sever_link(HostId(0), HostId(1));
        });
        assert!(sim.run().is_quiescent());
        assert!(inbox.try_recv().is_err());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let sim = Sim::new(0);
        let router = setup(&sim);
        let _a = router.register(HostId(0));
        let _b = router.register(HostId(0));
    }

    #[test]
    fn concurrent_sends_from_one_host_serialize_on_nic() {
        let mut sim = Sim::new(0);
        let router = setup(&sim);
        let mut in1 = router.register(HostId(1));
        let mut in2 = router.register(HostId(2));
        router.register(HostId(0));
        router.send(HostId(0), HostId(1), "a".into(), 0);
        router.send(HostId(0), HostId(2), "b".into(), 0);
        let h = sim.handle();
        let t1 = sim.spawn("r1", async move {
            in1.recv().await.unwrap();
            h.now()
        });
        let h2 = sim.handle();
        let t2 = sim.spawn("r2", async move {
            in2.recv().await.unwrap();
            h2.now()
        });
        sim.run_to_quiescence();
        let p = NetworkParams::tpu_cluster();
        let d1 = t1.try_take().unwrap();
        let d2 = t2.try_take().unwrap();
        // Second message waits for the first's NIC occupancy.
        assert_eq!(
            d2.duration_since(d1),
            SimDuration::from_nanos(p.dcn_send_overhead.as_nanos())
        );
    }
}
