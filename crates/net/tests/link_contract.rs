//! The wire's contract: [`FifoLink`] against the model it replaced, and
//! the router's egress actors against what a message may and may not do.
//!
//! `SemaphoreLink` below *is* the old link — a FIFO-fair semaphore held
//! across a `sleep` — kept as the specification. The property drives it
//! and the closed-form `FifoLink` with one seeded schedule and demands
//! the same completion instant for every transfer, in the same order.
//!
//! Runs on whichever backend `PATHWAYS_EXECUTOR` selects. Instants and
//! orders are compared on the deterministic one only; the threaded leg
//! checks what holds under any interleaving (everything completes or is
//! dropped as specified, per-pair order, quiescence).

use std::sync::Arc;

use proptest::prelude::*;

use pathways_net::{Bandwidth, ClusterSpec, Fabric, FifoLink, HostId, NetworkParams, Router};
use pathways_sim::channel::TryRecvError;
use pathways_sim::sync::Semaphore;
use pathways_sim::{Executor, Lock, Sim, SimDuration, SimHandle, SimTime};

/// The reference model: one permit, held for the occupancy; the
/// propagation latency is slept after the permit is released.
#[derive(Clone)]
struct SemaphoreLink {
    gate: Semaphore,
    latency: SimDuration,
    bandwidth: Bandwidth,
    per_message: SimDuration,
}

impl SemaphoreLink {
    fn occupancy(&self, bytes: u64) -> SimDuration {
        self.per_message + self.bandwidth.transfer_time(bytes)
    }

    async fn transmit(&self, handle: &SimHandle, bytes: u64) {
        {
            let _permit = self.gate.acquire(1).await;
            handle.sleep(self.occupancy(bytes)).await;
        }
        handle.sleep(self.latency).await;
    }

    async fn occupy(&self, handle: &SimHandle, bytes: u64) {
        let _permit = self.gate.acquire(1).await;
        handle.sleep(self.occupancy(bytes)).await;
    }
}

#[derive(Clone)]
enum Wire {
    Reference(SemaphoreLink),
    ClosedForm(FifoLink),
}

impl Wire {
    /// 1 GB/s, so a kilobyte serializes in 1 us.
    fn pair(latency: SimDuration, per_message: SimDuration) -> [Wire; 2] {
        let bandwidth = Bandwidth::from_gbps(1.0);
        [
            Wire::Reference(SemaphoreLink {
                gate: Semaphore::new(1),
                latency,
                bandwidth,
                per_message,
            }),
            Wire::ClosedForm(FifoLink::new(latency, bandwidth, per_message)),
        ]
    }

    async fn transfer(&self, handle: &SimHandle, bytes: u64, propagate: bool) {
        match (self, propagate) {
            (Wire::Reference(l), true) => l.transmit(handle, bytes).await,
            (Wire::Reference(l), false) => l.occupy(handle, bytes).await,
            (Wire::ClosedForm(l), true) => l.transmit(handle, bytes).await,
            (Wire::ClosedForm(l), false) => l.occupy(handle, bytes).await,
        }
    }
}

/// `(arrival instant in us, kilobytes, transmit rather than occupy)`.
type Op = (u64, u64, bool);

/// One sender task per op: it wakes at its arrival instant and pushes
/// the op through `wire`. Returns `(op index, completion instant)` in
/// completion order, and whether the backend is the deterministic one.
fn replay(wire: &Wire, ops: &[Op]) -> (bool, Vec<(usize, SimTime)>) {
    let mut ex = Executor::from_env(7);
    let log = Arc::new(Lock::new(Vec::new()));
    for (id, &(arrival_us, kilobytes, propagate)) in ops.iter().enumerate() {
        let (wire, log, h) = (wire.clone(), Arc::clone(&log), ex.handle());
        ex.spawn(format!("sender{id}"), async move {
            h.sleep_until(SimTime::ZERO + SimDuration::from_micros(arrival_us))
                .await;
            wire.transfer(&h, kilobytes * 1_000, propagate).await;
            log.lock().push((id, h.now()));
        });
    }
    assert!(ex.run().is_quiescent());
    let log = log.lock().clone();
    (matches!(ex, Executor::Deterministic(_)), log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same arrivals — 1 to 64 senders, instants that tie, 0-byte
    /// messages, `transmit` and `occupy` mixed — same completion
    /// instants, in the same order.
    ///
    /// What the schedule fixes is the order in which senders first poll
    /// the link (ties go by spawn order): the two models agree *given*
    /// that order, which is the contract. Two things are left out of it.
    /// A sender that starts its next transfer in the very instant a
    /// transfer completes first-polls in timer order, and a completion's
    /// timer is registered at first poll here but at service start (or
    /// release) in the reference. And a transfer of zero occupancy that
    /// has to queue is resumed by its own timer here but inside the
    /// releasing transfer's poll in the reference — so every transfer
    /// below holds the wire for at least the 1 us per-message cost.
    #[test]
    fn closed_form_link_matches_the_semaphore_model(
        spread_us in 1u64..120,
        latency_us in 0u64..12,
        ops in proptest::collection::vec((0u64..120, 0u64..4, any::<bool>()), 1..65),
    ) {
        let ops: Vec<Op> = ops.iter().map(|&(at, kb, kind)| (at % spread_us, kb, kind)).collect();
        let [reference, closed_form] = Wire::pair(
            SimDuration::from_micros(latency_us),
            SimDuration::from_micros(1),
        );
        let (deterministic, want) = replay(&reference, &ops);
        let (_, got) = replay(&closed_form, &ops);
        if deterministic {
            prop_assert_eq!(&got, &want);
        }
        // On any backend: every transfer completes, and the wire was
        // held for each in turn.
        let mut done: Vec<usize> = got.iter().map(|c| c.0).collect();
        done.sort_unstable();
        prop_assert_eq!(done, (0..ops.len()).collect::<Vec<_>>());
        let held: u64 = ops.iter().map(|op| 1 + op.1).sum();
        let end = got.iter().map(|c| c.1).max().expect("at least one op");
        prop_assert!(end >= SimTime::ZERO + SimDuration::from_micros(held));
    }
}

/// A zero-occupancy transfer behind a busy wire still waits its turn in
/// both models.
#[test]
fn zero_occupancy_transfer_queues_behind_a_busy_wire() {
    for wire in Wire::pair(SimDuration::from_micros(5), SimDuration::ZERO) {
        let mut ex = Executor::from_env(7);
        let (w, h) = (wire.clone(), ex.handle());
        ex.spawn("holder", async move { w.transfer(&h, 2_000, false).await });
        let h = ex.handle();
        let waiter = ex.spawn("waiter", async move {
            wire.transfer(&h, 0, false).await;
            h.now()
        });
        assert!(ex.run().is_quiescent());
        let done = waiter.try_take().expect("waiter ran");
        if matches!(ex, Executor::Deterministic(_)) {
            assert_eq!(done.as_nanos(), 2_000);
        } else {
            assert!(done.as_nanos() >= 2_000);
        }
    }
}

// ------------------------------------------------------------- router

/// Slow enough (20 ms on the NIC, 200 ms on the wire) that a fault timed
/// between two steps lands between them on the threaded backend too.
fn slow_dcn() -> NetworkParams {
    NetworkParams {
        dcn_send_overhead: SimDuration::from_millis(20),
        dcn_latency: SimDuration::from_millis(200),
        ..NetworkParams::tpu_cluster()
    }
}

fn router(ex: &Executor, params: NetworkParams) -> Router<u32> {
    let topo = Arc::new(ClusterSpec::config_b(8).build());
    Router::new(Fabric::new(ex.handle(), topo, params))
}

/// Everything `inbox` holds once the run is over.
fn drain(inbox: &mut pathways_sim::channel::Receiver<pathways_net::Envelope<u32>>) -> Vec<u32> {
    std::iter::from_fn(|| inbox.try_recv().ok())
        .map(|env| env.msg)
        .collect()
}

#[test]
fn fan_out_keeps_per_pair_order_and_serializes_on_the_nic() {
    let mut ex = Executor::from_env(7);
    let params = NetworkParams::tpu_cluster();
    let router = router(&ex, params);
    let log = Arc::new(Lock::new(Vec::new()));
    for dst in 1..5u32 {
        let mut inbox = router.register(HostId(dst));
        let (log, h) = (Arc::clone(&log), ex.handle());
        ex.spawn(format!("rx{dst}"), async move {
            for _ in 0..8 {
                let env = inbox.recv().await.expect("router alive");
                assert_eq!(env.src, HostId(0));
                log.lock().push((dst, env.msg, h.now()));
            }
        });
    }
    // Sent from outside any task, before the executor runs.
    for seq in 0..8u32 {
        for dst in 1..5u32 {
            router.send(HostId(0), HostId(dst), seq * 4 + dst - 1, 0);
        }
    }
    assert!(ex.run().is_quiescent());
    let log = log.lock().clone();
    assert_eq!(log.len(), 32);
    for dst in 1..5u32 {
        let seen: Vec<u32> = log.iter().filter(|e| e.0 == dst).map(|e| e.1).collect();
        let sent: Vec<u32> = (0..8).map(|seq| seq * 4 + dst - 1).collect();
        assert_eq!(seen, sent, "order to host {dst}");
    }
    if matches!(ex, Executor::Deterministic(_)) {
        // The k-th message overall leaves after k + 1 NIC slots.
        for (dst, msg, at) in log {
            let want = params.dcn_send_overhead * u64::from(msg + 1) + params.dcn_latency;
            assert_eq!(at, SimTime::ZERO + want, "message {msg} to host {dst}");
        }
    }
}

#[test]
fn loopback_skips_the_nic_and_dies_with_its_host() {
    let mut ex = Executor::from_env(7);
    let router = router(&ex, NetworkParams::tpu_cluster());
    let mut inbox0 = router.register(HostId(0));
    let mut inbox3 = router.register(HostId(3));
    router.fabric().fail_host(HostId(3));
    router.send(HostId(0), HostId(0), 1, 1 << 30);
    router.send(HostId(3), HostId(3), 2, 8);
    let h = ex.handle();
    let rx = ex.spawn("rx", async move { (inbox0.recv().await, h.now()) });
    assert!(ex.run().is_quiescent());
    let (env, at) = rx.try_take().expect("rx ran");
    assert_eq!(env.expect("delivered").msg, 1);
    if matches!(ex, Executor::Deterministic(_)) {
        assert_eq!(
            at,
            SimTime::ZERO,
            "a gigabyte to oneself costs no wire time"
        );
    }
    assert_eq!(inbox3.try_recv(), Err(TryRecvError::Empty));
}

#[test]
fn a_severed_link_loses_messages_sent_queued_or_in_flight() {
    let mut ex = Executor::from_env(7);
    let router = router(&ex, slow_dcn());
    let mut inbox1 = router.register(HostId(1));
    let mut inbox2 = router.register(HostId(2));
    let mut inbox3 = router.register(HostId(3));
    let mut inbox4 = router.register(HostId(4));
    // Severed before the send.
    router.fabric().sever_link(HostId(0), HostId(1));
    router.send(HostId(0), HostId(1), 10, 0);
    // Each message holds its NIC for 20 ms and then flies for 200 ms:
    // 30 waits for host 0's third slot, [40, 60) ms; 40 has host 5's
    // first and is on the wire from 20 ms to 220 ms.
    router.send(HostId(0), HostId(2), 20, 0);
    router.send(HostId(0), HostId(3), 30, 0);
    router.send(HostId(5), HostId(4), 40, 0);
    router.send(HostId(5), HostId(2), 50, 0);
    let (fabric, h) = (router.fabric().clone(), ex.handle());
    ex.spawn("faults", async move {
        h.sleep(SimDuration::from_millis(30)).await;
        fabric.sever_link(HostId(0), HostId(3)); // still queued on the NIC
        h.sleep(SimDuration::from_millis(70)).await;
        fabric.sever_link(HostId(5), HostId(4)); // off the NIC, on the wire
    });
    assert!(ex.run().is_quiescent());
    assert_eq!(drain(&mut inbox1), []);
    let mut untouched = drain(&mut inbox2);
    untouched.sort_unstable();
    assert_eq!(untouched, [20, 50], "other pairs deliver");
    assert_eq!(drain(&mut inbox3), []);
    assert_eq!(drain(&mut inbox4), []);
}

#[test]
fn a_dropped_inbox_swallows_its_messages_only() {
    let mut ex = Executor::from_env(7);
    let router = router(&ex, NetworkParams::tpu_cluster());
    drop(router.register(HostId(1)));
    let mut inbox2 = router.register(HostId(2));
    router.send(HostId(0), HostId(1), 1, 64);
    router.send(HostId(0), HostId(2), 2, 64);
    router.send(HostId(0), HostId(1), 3, 64);
    assert!(ex.run().is_quiescent());
    assert_eq!(drain(&mut inbox2), [2]);
}

#[test]
fn parked_actors_leave_the_run_quiescent_and_serve_the_next_one() {
    let mut ex = Executor::from_env(7);
    let router = router(&ex, NetworkParams::tpu_cluster());
    let mut inbox = router.register(HostId(1));
    for round in 0..3u32 {
        for src in [0, 2, 3] {
            router.send(HostId(src), HostId(1), round, 128);
        }
        let outcome = ex.run();
        assert!(outcome.is_quiescent(), "round {round}: {outcome:?}");
        assert_eq!(drain(&mut inbox), [round; 3]);
    }
}

/// The old router spawned a `dcn:{src}->{dst}` task per message. Now a
/// hundred messages on the wire are one task — the source's egress
/// actor, whatever it is called, is the only thing `send` ever spawns —
/// and delivering all of them costs a poll each, not three or four.
#[test]
fn no_task_per_message() {
    let mut sim = Sim::new(7);
    let topo = Arc::new(ClusterSpec::config_b(8).build());
    let router: Router<u32> = Router::new(Fabric::new(
        sim.handle(),
        topo,
        NetworkParams::tpu_cluster(),
    ));
    let mut inbox = router.register(HostId(1));
    assert_eq!(sim.live_tasks(), 0);
    for i in 0..100 {
        router.send(HostId(0), HostId(1), i, 1 << 20);
    }
    assert_eq!(sim.live_tasks(), 1, "one egress actor for host 0");
    // 1 MiB holds the NIC ~88 us: stop with most of them still queued.
    assert!(sim
        .run_until_time(SimTime::from_nanos(1_000_000))
        .is_quiescent());
    assert_eq!(sim.live_tasks(), 1);
    assert!(sim.run().is_quiescent());
    assert_eq!(sim.live_tasks(), 1, "parked, not respawned");
    assert_eq!(drain(&mut inbox), (0..100).collect::<Vec<_>>());
    // One poll books all hundred slots, then one per arrival.
    assert_eq!(sim.poll_count(), 101);
}
