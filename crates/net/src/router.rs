//! Typed host-to-host DCN messaging.
//!
//! A [`Router`] gives every host an inbox and delivers typed messages
//! with the fabric's DCN cost model. This is the transport the PLAQUE
//! replacement (crate `pathways-plaque`) and the single-controller
//! control planes are built on.

use pathways_sim::hash::FxHashMap;
use pathways_sim::Lock;
use std::fmt;
use std::sync::Arc;

use pathways_sim::channel::{self, Receiver, Sender};
use pathways_sim::TaskName;

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

/// `dcn:{src}->{dst}`. One task per DCN message, so the text is only
/// rendered if a deadlock report reads it.
fn delivery_task_name(src: HostId, dst: HostId) -> TaskName {
    TaskName::lazy([src.0.into(), dst.0.into(), 0, 0], |ids, f| {
        write!(
            f,
            "dcn:{}->{}",
            HostId(ids[0] as u32),
            HostId(ids[1] as u32)
        )
    })
}

struct RouterInner<M> {
    fabric: Fabric,
    inboxes: Lock<FxHashMap<HostId, Sender<Envelope<M>>>>,
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
                inboxes: Lock::new(FxHashMap::default()),
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

    /// Sends `msg` of simulated size `bytes` from `src` to `dst`,
    /// spawning the delivery in the background (asynchronous send, like
    /// an RPC with no reply). Messages between a pair of hosts are
    /// delivered in order because the sender NIC is FIFO.
    ///
    /// # Panics
    ///
    /// Panics if `dst` was never registered.
    pub fn send(&self, src: HostId, dst: HostId, msg: M, bytes: u64) {
        assert!(
            self.inner.inboxes.lock().contains_key(&dst),
            "send to unregistered {dst}"
        );
        let inner = Arc::clone(&self.inner);
        let handle = self.inner.fabric.handle();
        handle.spawn(delivery_task_name(src, dst), async move {
            inner.fabric.dcn_send(src, dst, bytes).await;
            // Checked at delivery time so a link that dies while the
            // message is on the wire also loses it.
            if !inner.fabric.link_up(src, dst) {
                return;
            }
            let tx = inner
                .inboxes
                .lock()
                .get(&dst)
                .expect("inbox disappeared")
                .clone();
            // Receiver may legitimately have shut down (host failure).
            let _ = tx.send(Envelope { src, msg });
        });
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
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
    fn delivery_task_name_renders_as_the_formatted_string_it_replaced() {
        let (src, dst) = (HostId(511), HostId(u32::MAX));
        assert_eq!(
            delivery_task_name(src, dst).to_string(),
            format!("dcn:{src}->{dst}")
        );
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
