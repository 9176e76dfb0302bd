//! Background housekeeping over the coordination substrate.
//!
//! §4.3: *"it is also convenient to use an extensible, general-purpose
//! dataflow engine to handle DCN communication, since this means that
//! PATHWAYS can also use it for background housekeeping tasks such as
//! distributing configuration information, monitoring programs, cleaning
//! them up, delivering errors on failures, and so on."*
//!
//! This module implements the two the fault path needs, as PLAQUE
//! programs:
//!
//! * [`deliver_errors`] — fan a failure notification out to every
//!   *live* host so its client agents learn which runs died and why
//!   (the "delivering errors on failures" clause). The
//!   [`FaultInjector`](crate::FaultInjector) launches this
//!   automatically after each injected fault;
//! * heal delivery ([`HealLog`]) — fan a slice-remap notice out to
//!   every live host after elastic healing, so client agents know their
//!   lowered programs are stale and must re-lower before resubmitting.
//!
//! Both are one program shape, built by one private builder: a
//! controller shard broadcasts a notice batch (`32 + 24 × notices`
//! bytes) to one shard per host, each host's shard records it there and
//! acknowledges, and a controller shard counts the acknowledgements.
//!
//! Error and heal notices land in a [`NoticeLog`] per kind. Each
//! delivery builds its notices once, into one batch that the log keeps
//! in its batch list and the broadcast tuple carries; a receiving host
//! records only the batch's index, as part of a run of consecutive
//! indices. The log so grows with the deliveries, not with hosts ×
//! deliveries.

use pathways_sim::Lock;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use pathways_net::HostId;
use pathways_plaque::{EdgeId, GraphBuilder, Operator, RunId, ShardCtx, Tuple};

use crate::context::CoreCtx;
use crate::fault::FailureState;
use crate::resource::SliceId;

#[derive(Debug, Clone, Copy)]
struct Ack;

/// The controller shard of a delivery program: broadcasts its batch
/// once, then halts.
struct Broadcast(Tuple);

impl Operator for Broadcast {
    fn on_all_inputs_complete(&mut self, ctx: &mut ShardCtx<'_>) {
        ctx.broadcast(EdgeId(0), self.0.clone());
        ctx.halt();
    }
}

/// A per-host or collecting shard of a delivery program: runs its
/// closure on every tuple that arrives.
struct OnTuple<F>(Arc<F>);

impl<F: Fn(&mut ShardCtx<'_>) + Send + Sync> Operator for OnTuple<F> {
    fn on_tuple(&mut self, ctx: &mut ShardCtx<'_>, _edge: EdgeId, _src: u32, _tuple: Tuple) {
        (self.0)(ctx);
    }
}

/// Per-host record of notices delivered by housekeeping: each a key (a
/// failed run, a remapped slice) with a human-readable detail, in
/// delivery order per host.
///
/// The log keeps each delivery's notices once, as one batch in a
/// launch-ordered batch list; the broadcast tuple carries the batch and
/// each receiving host records its index. A host keeps runs of
/// consecutive indices: the next index extends the last run in place, so
/// a host that hears every delivery holds one run, and one that missed a
/// delivery (dead or cut off at launch) starts a new run with the next.
/// The log so grows with the deliveries, not with hosts × deliveries.
#[derive(Clone)]
pub struct NoticeLog<K> {
    inner: Arc<Lock<LogInner<K>>>,
}

struct LogInner<K> {
    /// Every delivery's batch, in launch order.
    batches: Vec<Batch<K>>,
    /// Per host, the runs of batch indices it received, in delivery
    /// order.
    hosts: BTreeMap<HostId, Vec<Range<usize>>>,
}

/// One delivery's `(key, detail)` notices, shared by its broadcast tuple
/// and the log's batch list.
type Batch<K> = Arc<[(K, String)]>;

/// Per-host record of failures delivered by housekeeping: which runs
/// died and why, as seen by each host's client agent.
pub type ErrorLog = NoticeLog<RunId>;

/// Per-host record of slice heals delivered by housekeeping: which
/// virtual slices were remapped off dead hardware (and onto what), as
/// seen by each host's client agent. The notice is the trigger for the
/// client side of elasticity: programs lowered against a remapped slice
/// are stale and re-lower on their next submit.
pub type HealLog = NoticeLog<SliceId>;

impl<K> Default for NoticeLog<K> {
    fn default() -> Self {
        NoticeLog {
            inner: Arc::new(Lock::new(LogInner {
                batches: Vec::new(),
                hosts: BTreeMap::new(),
            })),
        }
    }
}

impl<K> std::fmt::Debug for NoticeLog<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NoticeLog")
            .field("hosts", &self.inner.lock().hosts.len())
            .finish()
    }
}

impl<K> LogInner<K> {
    /// The batches `host` received, in delivery order.
    fn received(&self, host: HostId) -> impl Iterator<Item = &Batch<K>> {
        let runs = self.hosts.get(&host).into_iter().flatten();
        runs.flat_map(|run| &self.batches[run.clone()])
    }
}

impl<K: Copy + PartialEq> NoticeLog<K> {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notices delivered to `host`, in delivery order.
    pub fn notices(&self, host: HostId) -> Vec<(K, String)> {
        let inner = self.inner.lock();
        let batches = inner.received(host);
        batches.flat_map(|b| b.iter().cloned()).collect()
    }

    /// True if `host` has been told about `key` (that the run failed,
    /// that the slice was remapped).
    pub fn knows_about(&self, host: HostId, key: K) -> bool {
        let inner = self.inner.lock();
        let mut batches = inner.received(host);
        batches.any(|b| b.iter().any(|(k, _)| *k == key))
    }

    /// Appends one delivery's batch to the batch list; returns its index.
    fn append(&self, batch: Batch<K>) -> usize {
        let mut inner = self.inner.lock();
        inner.batches.push(batch);
        inner.batches.len() - 1
    }

    /// Records that `host` received batch `index`.
    fn record(&self, host: HostId, index: usize) {
        let mut inner = self.inner.lock();
        let runs = inner.hosts.entry(host).or_default();
        match runs.last_mut() {
            Some(run) if run.end == index => run.end += 1,
            _ => runs.push(index..index + 1),
        }
    }
}

/// Builds the `name` delivery program from the lowest live host to every
/// host still reachable from it (alive, with an unsevered link to it):
/// `batch` joins `log`'s batch list, and a `broadcast` shard on the
/// controller sends it (`32 + 24 × notices` bytes) to one `apply` shard
/// per host (edge 0), which records its index and acknowledges to one
/// `collect` shard on the controller (edge 1), which counts the
/// acknowledgements. `None` if no host is left alive.
#[expect(clippy::expect_used, reason = "static shape, validated by build()")]
fn prepare_delivery<K: Copy + PartialEq + Send + Sync + 'static>(
    core: &Arc<CoreCtx>,
    failures: &FailureState,
    name: &str,
    log: &NoticeLog<K>,
    batch: Batch<K>,
) -> Option<(pathways_plaque::Graph, HostId, Arc<Lock<u32>>)> {
    let topo = core.fabric.topology();
    let controller = topo.hosts().find(|h| !failures.host_dead(*h))?;
    let hosts = topo
        .hosts()
        .filter(|h| !failures.host_dead(*h) && !failures.link_down(controller, *h))
        .collect();
    let acks = Arc::new(Lock::new(0u32));
    let index = log.append(Arc::clone(&batch));
    let bytes = 32 + 24 * batch.len() as u64;
    let payload = Tuple::new(batch, bytes);
    let reply_edge = EdgeId(1);
    let log = log.clone();
    let apply = Arc::new(move |ctx: &mut ShardCtx<'_>| {
        log.record(ctx.host(), index);
        ctx.send(reply_edge, 0, Tuple::control(Ack));
    });
    let count = {
        let acks = Arc::clone(&acks);
        Arc::new(move |_: &mut ShardCtx<'_>| *acks.lock() += 1)
    };
    let mut g = GraphBuilder::new(name);
    let src = g.node("broadcast", vec![controller], move |_| {
        Box::new(Broadcast(payload.clone()))
    });
    let appliers = g.node("apply", hosts, move |_| {
        Box::new(OnTuple(Arc::clone(&apply)))
    });
    let collector = g.node("collect", vec![controller], move |_| {
        Box::new(OnTuple(Arc::clone(&count)))
    });
    assert_eq!(g.edge(src, appliers), EdgeId(0));
    assert_eq!(g.edge(appliers, collector), reply_edge);
    let graph = g.build().expect("delivery graph is valid");
    Some((graph, controller, acks))
}

/// Delivers failure notices to every live, reachable host via a PLAQUE
/// program launched from the lowest live host; resolves once every such
/// host acknowledged. Returns the number of acknowledgements (0 if no
/// host is left alive).
///
/// The reachable-host set is snapshotted at launch: if one of those
/// hosts dies *while the program is in flight*, its applier shard never
/// halts and this future never resolves. Callers that may race further
/// faults must not await delivery — the fault injector uses the
/// fire-and-forget `spawn_delivery` internally for exactly that reason.
/// Reserve this awaited form for quiescent-fault settings (tests,
/// post-mortem reporting).
pub async fn deliver_errors(
    core: &Arc<CoreCtx>,
    failures: &FailureState,
    log: &ErrorLog,
    notices: &[(RunId, String)],
) -> u32 {
    let Some((graph, controller, acks)) =
        prepare_delivery(core, failures, "error-delivery", log, notices.into())
    else {
        return 0;
    };
    core.plaque.launch(&graph, controller).await_done().await;
    let n = *acks.lock();
    n
}

/// Fire-and-forget delivery, used by the fault injector for failure
/// notices (`"error-delivery"`, the background form of
/// [`deliver_errors`]) and, right after the resource manager remapped
/// slices off dead hardware, for heal notices (`"heal-delivery"`). The
/// program is *not* awaited, so a second fault landing mid-delivery
/// cannot wedge the injector (shards lost to the newer fault simply
/// never ack).
pub(crate) fn spawn_delivery<K: Copy + PartialEq + Send + Sync + 'static>(
    core: &Arc<CoreCtx>,
    failures: &FailureState,
    name: &str,
    log: &NoticeLog<K>,
    notices: impl Into<Batch<K>>,
) {
    let batch = notices.into();
    if let Some((graph, controller, _acks)) = prepare_delivery(core, failures, name, log, batch) {
        drop(core.plaque.launch(&graph, controller));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnSpec, PathwaysConfig, PathwaysRuntime, SliceRequest};
    use pathways_net::{ClusterSpec, NetworkParams};
    use pathways_sim::{Sim, SimDuration};

    fn runtime(sim: &Sim, hosts: u32) -> PathwaysRuntime {
        PathwaysRuntime::new(
            sim,
            ClusterSpec::config_b(hosts),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        )
    }

    #[test]
    fn error_delivery_skips_dead_hosts_and_reaches_the_rest() {
        use crate::fault::FaultSpec;
        use pathways_plaque::RunId;

        let mut sim = Sim::new(0);
        let rt = runtime(&sim, 4);
        // Kill host 3 through the injector so both the fabric and the
        // failure registry know about it.
        rt.faults().inject(&FaultSpec::Host(HostId(3)));
        let core = Arc::clone(rt.core());
        let failures = rt.faults().state().clone();
        let log = ErrorLog::new();
        let notices = vec![(RunId(9), "dev3 failed".to_string())];
        let log2 = log.clone();
        let job = sim.spawn("deliver", async move {
            deliver_errors(&core, &failures, &log2, &notices).await
        });
        sim.run_to_quiescence();
        assert_eq!(job.try_take(), Some(3), "three live hosts acknowledge");
        for h in 0..3 {
            assert!(
                log.knows_about(HostId(h), RunId(9)),
                "host {h} missed the notice"
            );
            assert_eq!(log.notices(HostId(h))[0].1, "dev3 failed");
        }
        assert!(
            log.notices(HostId(3)).is_empty(),
            "dead host learns nothing"
        );
    }

    /// Delivers `first`, kills host 3, delivers `second` (each through
    /// `deliver`, run to quiescence), then checks what every host holds.
    fn two_batches_around_a_host_kill<K>(
        first: &[(K, String)],
        second: &[(K, String)],
        deliver: impl Fn(&Sim, &Arc<CoreCtx>, &FailureState, &NoticeLog<K>, &[(K, String)]),
    ) where
        K: Copy + PartialEq + std::fmt::Debug,
    {
        use crate::fault::FaultSpec;

        let mut sim = Sim::new(0);
        let rt = runtime(&sim, 4);
        let failures = rt.faults().state().clone();
        let log = NoticeLog::new();
        deliver(&sim, rt.core(), &failures, &log, first);
        sim.run_to_quiescence();
        rt.faults().inject(&FaultSpec::Host(HostId(3)));
        deliver(&sim, rt.core(), &failures, &log, second);
        sim.run_to_quiescence();

        let both: Vec<(K, String)> = first.iter().chain(second).cloned().collect();
        for h in 0..3 {
            assert_eq!(log.notices(HostId(h)), both, "host {h}");
        }
        assert_eq!(
            log.notices(HostId(3)),
            first,
            "the dead host keeps the first batch only"
        );
        for (key, _) in &both {
            for h in 0..3 {
                assert!(log.knows_about(HostId(h), *key), "host {h} missed {key:?}");
            }
            let in_first = first.iter().any(|(k, _)| k == key);
            assert_eq!(log.knows_about(HostId(3), *key), in_first, "{key:?}");
        }
    }

    #[test]
    fn error_batches_reach_live_hosts_in_delivery_order() {
        let first = [
            (RunId(4), "device dev3 failed".to_string()),
            (RunId(7), "upstream object 12 failed".to_string()),
        ];
        let second = [(RunId(2), "host host3 failed".to_string())];
        two_batches_around_a_host_kill(&first, &second, |sim, core, failures, log, notices| {
            let (core, failures, log) = (Arc::clone(core), failures.clone(), log.clone());
            let notices = notices.to_vec();
            sim.spawn("deliver", async move {
                deliver_errors(&core, &failures, &log, &notices).await;
            });
        });
    }

    #[test]
    fn heal_batches_reach_live_hosts_in_delivery_order() {
        let first = [(SliceId(5), "remapped [dev1] -> [dev9]".to_string())];
        let second = [
            (SliceId(5), "remapped [dev9] -> [dev10]".to_string()),
            (SliceId(6), "unplaceable: no capacity".to_string()),
        ];
        two_batches_around_a_host_kill(&first, &second, |_, core, failures, log, notices| {
            spawn_delivery(core, failures, "heal-delivery", log, notices);
        });
    }

    #[test]
    fn a_host_that_misses_a_delivery_picks_up_with_the_next() {
        use crate::fault::FaultSpec;

        let batch = |slice: u64| vec![(SliceId(slice), format!("remapped slice {slice}"))];
        let (b0, b1, b2) = (batch(0), batch(1), batch(2));
        let mut sim = Sim::new(0);
        let rt = runtime(&sim, 4);
        let failures = rt.faults().state().clone();
        let log = HealLog::new();
        let deliver = |sim: &mut Sim, notices: &[(SliceId, String)]| {
            spawn_delivery(
                rt.core(),
                &failures,
                "heal-delivery",
                &log,
                notices.to_vec(),
            );
            sim.run_to_quiescence();
        };
        deliver(&mut sim, &b0);
        // Host 0 controls the next delivery and cannot reach host 3.
        rt.faults().inject(&FaultSpec::Link(HostId(0), HostId(3)));
        deliver(&mut sim, &b1);
        // Host 1 controls the last one, and reaches host 3 again.
        rt.faults().inject(&FaultSpec::Host(HostId(0)));
        deliver(&mut sim, &b2);

        let expected = [
            [&b0[..], &b1].concat(),
            [&b0[..], &b1, &b2].concat(),
            [&b0[..], &b1, &b2].concat(),
            [&b0[..], &b2].concat(),
        ];
        for (h, want) in expected.iter().enumerate() {
            let host = HostId(h as u32);
            assert_eq!(&log.notices(host), want, "host {h}");
            for slice in 0..3 {
                let key = SliceId(slice);
                let knows = want.iter().any(|(k, _)| *k == key);
                assert_eq!(log.knows_about(host, key), knows, "host {h}, {key:?}");
            }
        }
    }

    /// Error delivery's virtual duration (ns) and acknowledgement count
    /// for two notices on four idle hosts, launched from host 0: what
    /// the graph shape, the tuple bytes and the send order cost on the
    /// wire.
    #[test]
    fn housekeeping_programs_resolve_at_pinned_instants() {
        let mut sim = Sim::new(0);
        let rt = runtime(&sim, 4);
        let core = Arc::clone(rt.core());
        let failures = rt.faults().state().clone();
        let h = sim.handle();
        let job = sim.spawn("hk", async move {
            let log = ErrorLog::new();
            let notices = [
                (RunId(3), "device dev1 failed".to_string()),
                (RunId(5), "host host2 failed".to_string()),
            ];
            let t0 = h.now();
            let errors = deliver_errors(&core, &failures, &log, &notices).await;
            ((h.now() - t0).as_nanos(), errors)
        });
        sim.run_to_quiescence();
        let got = job.try_take().unwrap();
        assert_eq!(got, PINNED_ERROR_DELIVERY, "{got:?}");
    }

    /// `(virtual ns, acks)` of `deliver_errors` with two notices.
    const PINNED_ERROR_DELIVERY: (u64, u32) = (88_049, 4);

    #[test]
    fn housekeeping_runs_alongside_training() {
        // Error delivery and training programs share the substrate
        // without interfering.
        let mut sim = Sim::new(0);
        let rt = runtime(&sim, 2);
        let client = rt.client(HostId(1));
        let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
        let mut b = client.trace("train");
        b.computation(
            FnSpec::compute_only("f", SimDuration::from_micros(200)).with_allreduce(4),
            &slice,
        );
        let program = b.build().unwrap();
        let prepared = client.prepare(&program);
        let train = sim.spawn("train", async move {
            for _ in 0..10 {
                client.run(&prepared).await;
            }
        });
        let log = ErrorLog::new();
        let core = Arc::clone(rt.core());
        let failures = rt.faults().state().clone();
        let log2 = log.clone();
        let h = sim.handle();
        let hk = sim.spawn("hk", async move {
            let mut acks = 0;
            for i in 0..5 {
                h.sleep(SimDuration::from_micros(150)).await;
                let notice = [(RunId(100 + i), format!("epoch {i}"))];
                acks += deliver_errors(&core, &failures, &log2, &notice).await;
            }
            acks
        });
        assert!(sim.run().is_quiescent());
        assert!(train.is_finished(), "training completes alongside");
        assert_eq!(hk.try_take(), Some(10));
        let want: Vec<(RunId, String)> = (0..5)
            .map(|i| (RunId(100 + i), format!("epoch {i}")))
            .collect();
        for host in 0..2 {
            assert_eq!(log.notices(HostId(host)), want, "host {host}");
        }
    }
}
