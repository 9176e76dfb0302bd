//! Background housekeeping over the coordination substrate.
//!
//! §4.3: *"it is also convenient to use an extensible, general-purpose
//! dataflow engine to handle DCN communication, since this means that
//! PATHWAYS can also use it for background housekeeping tasks such as
//! distributing configuration information, monitoring programs, cleaning
//! them up, delivering errors on failures, and so on."*
//!
//! This module implements four of those as PLAQUE programs:
//!
//! * [`distribute_config`] — broadcast a key/value configuration update
//!   to every host; each host's config store is updated and
//!   acknowledgements gathered back;
//! * [`collect_health`] — fan-out a probe, gather per-host health
//!   (device count, kernels executed, HBM usage) at the controller;
//! * [`deliver_errors`] — fan a failure notification out to every
//!   *live* host so its client agents learn which runs died and why
//!   (the "delivering errors on failures" clause). The
//!   [`FaultInjector`](crate::FaultInjector) launches this
//!   automatically after each injected fault;
//! * heal delivery ([`HealLog`]) — fan a slice-remap notice out to
//!   every live host after elastic healing, so client agents know their
//!   lowered programs are stale and must re-lower before resubmitting.

use pathways_sim::hash::FxHashMap;
use pathways_sim::Lock;
use std::collections::BTreeMap;
use std::sync::Arc;

use pathways_net::{DeviceId, HostId};
use pathways_plaque::{EdgeId, GraphBuilder, Operator, RunId, ShardCtx, Tuple};

use crate::context::CoreCtx;
use crate::fault::FailureState;
use crate::resource::SliceId;

/// A per-host key/value configuration store, updated via housekeeping
/// broadcasts.
#[derive(Clone, Default)]
pub struct ConfigStore {
    inner: Arc<Lock<FxHashMap<(HostId, String), String>>>,
}

impl std::fmt::Debug for ConfigStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConfigStore")
            .field("entries", &self.inner.lock().len())
            .finish()
    }
}

impl ConfigStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads `key` as seen by `host`.
    pub fn get(&self, host: HostId, key: &str) -> Option<String> {
        self.inner.lock().get(&(host, key.to_string())).cloned()
    }

    fn set(&self, host: HostId, key: String, value: String) {
        self.inner.lock().insert((host, key), value);
    }
}

/// One host's health report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostHealth {
    /// Reporting host.
    pub host: HostId,
    /// Devices attached to the host.
    pub devices: u32,
    /// Kernels executed across those devices.
    pub kernels_executed: u64,
    /// Bytes of HBM currently in use across those devices.
    pub hbm_used: u64,
}

#[derive(Debug, Clone)]
struct ConfigMsg {
    key: String,
    value: String,
}

#[derive(Debug, Clone, Copy)]
struct Ack;

struct Broadcaster {
    out: EdgeId,
    msg: ConfigMsg,
}

impl Operator for Broadcaster {
    fn on_all_inputs_complete(&mut self, ctx: &mut ShardCtx<'_>) {
        ctx.broadcast(self.out, Tuple::new(self.msg.clone(), 64));
        ctx.halt();
    }
}

struct ConfigApplier {
    store: ConfigStore,
    ack_edge: EdgeId,
}

impl Operator for ConfigApplier {
    fn on_tuple(&mut self, ctx: &mut ShardCtx<'_>, _edge: EdgeId, _src: u32, tuple: Tuple) {
        let msg = tuple.expect::<ConfigMsg>();
        self.store
            .set(ctx.host(), msg.key.clone(), msg.value.clone());
        ctx.send(self.ack_edge, 0, Tuple::control(Ack));
    }
}

struct AckCollector {
    acks: Arc<Lock<u32>>,
}

impl Operator for AckCollector {
    fn on_tuple(&mut self, _ctx: &mut ShardCtx<'_>, _e: EdgeId, _s: u32, tuple: Tuple) {
        tuple.expect::<Ack>();
        *self.acks.lock() += 1;
    }
}

/// Broadcasts `key = value` to every host's [`ConfigStore`] via a
/// PLAQUE program launched from `controller`; resolves once every host
/// acknowledged. Returns the number of acknowledgements.
pub async fn distribute_config(
    core: &Arc<CoreCtx>,
    store: &ConfigStore,
    controller: HostId,
    key: impl Into<String>,
    value: impl Into<String>,
) -> u32 {
    let hosts: Vec<HostId> = core.fabric.topology().hosts().collect();
    let acks = Arc::new(Lock::new(0u32));
    let msg = ConfigMsg {
        key: key.into(),
        value: value.into(),
    };
    // Edge ids are assigned in creation order: broadcast = 0, ack = 1.
    let bcast_edge = EdgeId(0);
    let ack_edge = EdgeId(1);
    let mut g = GraphBuilder::new("config-distribution");
    let src = g.node("broadcast", vec![controller], move |_| {
        Box::new(Broadcaster {
            out: bcast_edge,
            msg: msg.clone(),
        })
    });
    let appliers = {
        let store = store.clone();
        g.node("apply", hosts.clone(), move |_| {
            Box::new(ConfigApplier {
                store: store.clone(),
                ack_edge,
            })
        })
    };
    let collector = {
        let acks = Arc::clone(&acks);
        g.node("collect", vec![controller], move |_| {
            Box::new(AckCollector {
                acks: Arc::clone(&acks),
            })
        })
    };
    assert_eq!(g.edge(src, appliers), bcast_edge);
    assert_eq!(g.edge(appliers, collector), ack_edge);
    let graph = g.build().expect("housekeeping graph is valid");
    core.plaque.launch(&graph, controller).await_done().await;
    let n = *acks.lock();
    n
}

struct HealthProbe {
    out: EdgeId,
}

impl Operator for HealthProbe {
    fn on_all_inputs_complete(&mut self, ctx: &mut ShardCtx<'_>) {
        ctx.broadcast(self.out, Tuple::control(Ack));
        ctx.halt();
    }
}

struct HealthReporter {
    core: Arc<CoreCtx>,
    report_edge: EdgeId,
}

impl Operator for HealthReporter {
    fn on_tuple(&mut self, ctx: &mut ShardCtx<'_>, _e: EdgeId, _s: u32, _t: Tuple) {
        let host = ctx.host();
        let devices: Vec<DeviceId> = self.core.fabric.topology().devices_of_host(host).collect();
        let mut kernels = 0u64;
        let mut hbm_used = 0u64;
        for d in &devices {
            let dev = &self.core.devices[d];
            kernels += dev.stats().kernels;
            hbm_used += dev.hbm().used();
        }
        let report = HostHealth {
            host,
            devices: devices.len() as u32,
            kernels_executed: kernels,
            hbm_used,
        };
        ctx.send(self.report_edge, 0, Tuple::new(report, 48));
    }
}

struct HealthCollector {
    reports: Arc<Lock<BTreeMap<HostId, HostHealth>>>,
}

impl Operator for HealthCollector {
    fn on_tuple(&mut self, _ctx: &mut ShardCtx<'_>, _e: EdgeId, _s: u32, tuple: Tuple) {
        let h = tuple.expect::<HostHealth>().clone();
        self.reports.lock().insert(h.host, h);
    }
}

/// Gathers a health report from every host via a PLAQUE program.
pub async fn collect_health(
    core: &Arc<CoreCtx>,
    controller: HostId,
) -> BTreeMap<HostId, HostHealth> {
    let hosts: Vec<HostId> = core.fabric.topology().hosts().collect();
    let reports = Arc::new(Lock::new(BTreeMap::new()));
    let probe_edge = EdgeId(0);
    let report_edge = EdgeId(1);
    let mut g = GraphBuilder::new("health-monitor");
    let src = g.node("probe", vec![controller], move |_| {
        Box::new(HealthProbe { out: probe_edge })
    });
    let reporters = {
        let core = Arc::clone(core);
        g.node("report", hosts.clone(), move |_| {
            Box::new(HealthReporter {
                core: Arc::clone(&core),
                report_edge,
            })
        })
    };
    let collector = {
        let reports = Arc::clone(&reports);
        g.node("collect", vec![controller], move |_| {
            Box::new(HealthCollector {
                reports: Arc::clone(&reports),
            })
        })
    };
    assert_eq!(g.edge(src, reporters), probe_edge);
    assert_eq!(g.edge(reporters, collector), report_edge);
    let graph = g.build().expect("housekeeping graph is valid");
    core.plaque.launch(&graph, controller).await_done().await;
    let out = reports.lock().clone();
    out
}

// ---------------------------------------------------------------------------
// Notice delivery (failures and slice remaps → every live host)
// ---------------------------------------------------------------------------

/// Per-host record of notices delivered by housekeeping: each a key (a
/// failed run, a remapped slice) with a human-readable detail, in
/// delivery order per host.
#[derive(Clone)]
pub struct NoticeLog<K> {
    inner: Arc<Lock<BTreeMap<HostId, Notices<K>>>>,
}

/// One host's delivered notices: `(key, detail)` in delivery order.
type Notices<K> = Vec<(K, String)>;

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
            inner: Arc::default(),
        }
    }
}

impl<K> std::fmt::Debug for NoticeLog<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NoticeLog")
            .field("hosts", &self.inner.lock().len())
            .finish()
    }
}

impl<K: Copy + PartialEq> NoticeLog<K> {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notices delivered to `host`, in delivery order.
    pub fn notices(&self, host: HostId) -> Notices<K> {
        self.inner.lock().get(&host).cloned().unwrap_or_default()
    }

    /// True if `host` has been told about `key` (that the run failed,
    /// that the slice was remapped).
    pub fn knows_about(&self, host: HostId, key: K) -> bool {
        self.inner
            .lock()
            .get(&host)
            .is_some_and(|v| v.iter().any(|(k, _)| *k == key))
    }

    fn record(&self, host: HostId, key: K, detail: String) {
        self.inner
            .lock()
            .entry(host)
            .or_default()
            .push((key, detail));
    }
}

/// A broadcast of `notices` from one controller shard.
#[derive(Debug, Clone)]
struct NoticeMsg<T> {
    notices: Vec<T>,
}

struct NoticeBroadcaster<T> {
    out: EdgeId,
    msg: NoticeMsg<T>,
}

impl<T: Clone + Send + Sync + 'static> Operator for NoticeBroadcaster<T> {
    fn on_all_inputs_complete(&mut self, ctx: &mut ShardCtx<'_>) {
        let bytes = 32 + 24 * self.msg.notices.len() as u64;
        ctx.broadcast(self.out, Tuple::new(self.msg.clone(), bytes));
        ctx.halt();
    }
}

/// How a host applies one received notice to its local log.
type ApplyNotice<T> = Arc<dyn Fn(HostId, &T) + Send + Sync>;

struct NoticeApplier<T> {
    apply: ApplyNotice<T>,
    ack_edge: EdgeId,
}

impl<T: Clone + Send + Sync + 'static> Operator for NoticeApplier<T> {
    fn on_tuple(&mut self, ctx: &mut ShardCtx<'_>, _edge: EdgeId, _src: u32, tuple: Tuple) {
        let msg = tuple.expect::<NoticeMsg<T>>();
        for notice in &msg.notices {
            (self.apply)(ctx.host(), notice);
        }
        ctx.send(self.ack_edge, 0, Tuple::control(Ack));
    }
}

/// The shared broadcast/apply/ack fan-out shape behind error and heal
/// delivery: one controller shard broadcasts the notices, every host
/// applies them through `apply`, acknowledgements gather back.
fn notice_delivery_graph<T: Clone + Send + Sync + 'static>(
    name: &str,
    controller: HostId,
    hosts: Vec<HostId>,
    notices: Vec<T>,
    apply: ApplyNotice<T>,
    acks: &Arc<Lock<u32>>,
) -> pathways_plaque::Graph {
    let bcast_edge = EdgeId(0);
    let ack_edge = EdgeId(1);
    let mut g = GraphBuilder::new(name);
    let msg = NoticeMsg { notices };
    let src = g.node("broadcast", vec![controller], move |_| {
        Box::new(NoticeBroadcaster {
            out: bcast_edge,
            msg: msg.clone(),
        })
    });
    let appliers = g.node("apply", hosts, move |_| {
        Box::new(NoticeApplier {
            apply: Arc::clone(&apply),
            ack_edge,
        })
    });
    let collector = {
        let acks = Arc::clone(acks);
        g.node("collect", vec![controller], move |_| {
            Box::new(AckCollector {
                acks: Arc::clone(&acks),
            })
        })
    };
    assert_eq!(g.edge(src, appliers), bcast_edge);
    assert_eq!(g.edge(appliers, collector), ack_edge);
    g.build().expect("housekeeping graph is valid")
}

/// Builds the `name` delivery program from the lowest live host to every
/// host still reachable from it (alive, with an unsevered link to it),
/// each of which records the notices in `log`; `None` if no host is
/// left alive.
fn prepare_delivery<K: Copy + PartialEq + Send + Sync + 'static>(
    core: &Arc<CoreCtx>,
    failures: &FailureState,
    name: &str,
    log: &NoticeLog<K>,
    notices: &[(K, String)],
) -> Option<(pathways_plaque::Graph, HostId, Arc<Lock<u32>>)> {
    let topo = core.fabric.topology();
    let controller = topo.hosts().find(|h| !failures.host_dead(*h))?;
    let hosts = topo
        .hosts()
        .filter(|h| !failures.host_dead(*h) && !failures.link_down(controller, *h))
        .collect();
    let acks = Arc::new(Lock::new(0u32));
    let log = log.clone();
    let graph = notice_delivery_graph(
        name,
        controller,
        hosts,
        notices.to_vec(),
        Arc::new(move |host, (key, detail): &(K, String)| {
            log.record(host, *key, detail.clone());
        }),
        &acks,
    );
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
        prepare_delivery(core, failures, "error-delivery", log, notices)
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
    notices: &[(K, String)],
) {
    if let Some((graph, controller, _acks)) = prepare_delivery(core, failures, name, log, notices) {
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
    fn config_reaches_every_host() {
        let mut sim = Sim::new(0);
        let rt = runtime(&sim, 4);
        let store = ConfigStore::new();
        let core = Arc::clone(rt.core());
        let store2 = store.clone();
        let job = sim.spawn("hk", async move {
            distribute_config(&core, &store2, HostId(0), "sched/policy", "fifo").await
        });
        sim.run_to_quiescence();
        assert_eq!(job.try_take(), Some(4));
        for h in 0..4 {
            assert_eq!(
                store.get(HostId(h), "sched/policy").as_deref(),
                Some("fifo")
            );
        }
    }

    #[test]
    fn health_reflects_executed_work() {
        let mut sim = Sim::new(0);
        let rt = runtime(&sim, 2);
        // Run a program so device stats are non-zero.
        let client = rt.client(HostId(0));
        let slice = client.virtual_slice(SliceRequest::devices(16)).unwrap();
        let mut b = client.trace("work");
        b.computation(
            FnSpec::compute_only("f", SimDuration::from_micros(10)).with_allreduce(4),
            &slice,
        );
        let program = b.build().unwrap();
        let prepared = client.prepare(&program);
        let core = Arc::clone(rt.core());
        let job = sim.spawn("flow", async move {
            client.run(&prepared).await;
            collect_health(&core, HostId(0)).await
        });
        sim.run_to_quiescence();
        let health = job.try_take().unwrap();
        assert_eq!(health.len(), 2);
        let total_kernels: u64 = health.values().map(|h| h.kernels_executed).sum();
        assert_eq!(total_kernels, 16);
        assert!(health.values().all(|h| h.devices == 8));
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

    #[test]
    fn housekeeping_runs_alongside_training() {
        // Config distribution and training programs share the substrate
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
        sim.spawn("train", async move {
            for _ in 0..10 {
                client.run(&prepared).await;
            }
        });
        let store = ConfigStore::new();
        let core = Arc::clone(rt.core());
        let store2 = store.clone();
        let h = sim.handle();
        let hk = sim.spawn("hk", async move {
            let mut acks = 0;
            for i in 0..5 {
                h.sleep(SimDuration::from_micros(150)).await;
                acks += distribute_config(&core, &store2, HostId(0), "epoch", format!("{i}")).await;
            }
            acks
        });
        assert!(sim.run().is_quiescent());
        assert_eq!(hk.try_take(), Some(10));
        assert_eq!(store.get(HostId(1), "epoch").as_deref(), Some("4"));
    }
}
