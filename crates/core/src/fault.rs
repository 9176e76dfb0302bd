//! Fault injection and failure propagation (§4.3's "delivering errors
//! on failures").
//!
//! The seed runtime modeled exactly one failure: client death
//! ([`PathwaysRuntime::fail_client`](crate::PathwaysRuntime::fail_client)).
//! A dead *device* or *host* would simply hang every `ObjectRef`
//! downstream of it — the consuming kernels gate on readiness events
//! that would never fire. This module makes those failures first-class
//! scenarios:
//!
//! * [`FaultSpec`] — the fault vocabulary (kill a device, kill a host,
//!   sever a DCN link), scripted on a
//!   [`FaultPlan`](pathways_sim::FaultPlan) registered on the `Sim`.
//! * [`FailureState`] — the shared registry of dead hardware and failed
//!   runs, consulted by the client (fail-fast submission), the island
//!   schedulers (evicting queued work of failed runs) and the host
//!   executors (skipping grants of failed runs).
//! * [`FaultInjector`] — applies a fault at its scripted virtual time
//!   and *synchronously* walks the blast radius so that nothing is left
//!   to hang: objects with shards on dead hardware fail in the store
//!   (readiness events fire, HBM frees) unless recovery absorbs them,
//!   in-flight runs touching dead hardware fail (their sinks resolve to
//!   [`ObjectError::ProducerFailed`], their never-granted shards are
//!   force-started so their drivers can wind the dataflow down, their
//!   pending executor registrations are swept so drivers observe the
//!   abort), and failures cascade along `ObjectRef` bindings to
//!   downstream consumers. A housekeeping error-delivery program
//!   ([`crate::housekeeping::deliver_errors`]) then fans the failure
//!   out to every live host over the coordination substrate. Finally
//!   the injector closes the elasticity loop: the resource manager
//!   [heals](crate::ResourceManager::heal) every live slice off the
//!   dead hardware, heal notices fan out to live hosts
//!   ([`FaultInjector::heal_log`]), and the affected clients' next
//!   submits re-lower onto the healed mappings and succeed.
//!
//! Data loss is one walk, keyed by the storage `Place` that died — a
//! device's HBM, a host's DRAM — over the store's residency set for it:
//! each object with a shard there is absorbed into recovery (a tiered
//! store's `RecoveryManager` restores or recomputes it) or failed, and
//! the failed ones cascade. A dead device walks its HBM; a dead host
//! walks each of its devices' HBM, then its DRAM. A failed run's
//! in-flight sinks take the same absorb-or-fail step with no place to
//! drop. Which runs a fault dooms is one query over the registered
//! footprints, by client, device, host or link.
//!
//! Everything here is deterministic: scans iterate in sorted id order,
//! and the fault plan's driver fires on the simulation's timer wheel,
//! so the same seed and schedule reproduce a bit-identical trace.

use pathways_sim::hash::{FxHashMap, FxHashSet};
use pathways_sim::Lock;
use std::fmt;
use std::sync::Arc;

use pathways_net::{ClientId, DeviceId, HostId, IslandId};
use pathways_plaque::RunId;
use pathways_sim::sync::Event;
use pathways_sim::{FaultPlan, SimHandle};

use crate::context::CoreCtx;
use crate::housekeeping::{spawn_delivery, ErrorLog, HealLog};
use crate::resource::{HealEvent, ResourceManager};
use crate::storage::{FailureReason, ObjectId, Place};
use crate::storage::{RecoveryManager, RecoveryStats};

/// One scripted fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSpec {
    /// Kill one device: it stops accepting kernels, aborts its queue,
    /// and gangs that include it abort at the rendezvous.
    Device(DeviceId),
    /// Kill one host: its NIC drops all DCN traffic, its devices die,
    /// and any island scheduler on it takes the island down with it.
    Host(HostId),
    /// Sever the DCN link between two hosts (both directions).
    Link(HostId, HostId),
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::Device(d) => write!(f, "kill-{d}"),
            FaultSpec::Host(h) => write!(f, "kill-{h}"),
            FaultSpec::Link(a, b) => write!(f, "sever-{a}-{b}"),
        }
    }
}

/// What one in-flight run touches — enough to decide whether a fault
/// dooms it, and to wind it down if so. Registered by
/// [`Client::submit_with`](crate::Client::submit_with) and dropped when
/// the run completes.
#[derive(Debug, Clone)]
pub struct RunFootprint {
    /// Submitting client.
    pub client: ClientId,
    /// The client process's host.
    pub client_host: HostId,
    /// Every device any kernel computation shard was lowered onto.
    pub devices: Vec<DeviceId>,
    /// Every host involved: shard hosts, the client host, and the
    /// scheduler hosts of the islands the run submits to.
    pub hosts: Vec<HostId>,
    /// Islands the run submits work to.
    pub islands: Vec<IslandId>,
    /// The run's sink objects (the client-visible `ObjectRef`s).
    pub sinks: Vec<ObjectId>,
    /// Fired when the run is failed; the client's
    /// [`Run::finish`](crate::Run::finish) races completion against
    /// this, so a run whose wind-down messages were lost to a partition
    /// is abandoned instead of awaited forever.
    pub failed: Event,
}

#[derive(Default)]
struct FailInner {
    dead_devices: FxHashSet<DeviceId>,
    dead_hosts: FxHashSet<HostId>,
    dead_islands: FxHashSet<IslandId>,
    severed: FxHashSet<(HostId, HostId)>,
    failed_runs: FxHashMap<RunId, FailureReason>,
    runs: FxHashMap<RunId, RunFootprint>,
}

/// Shared, cheaply-cloneable failure registry.
#[derive(Clone, Default)]
pub struct FailureState {
    inner: Arc<Lock<FailInner>>,
}

impl fmt::Debug for FailureState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("FailureState")
            .field("dead_devices", &inner.dead_devices.len())
            .field("dead_hosts", &inner.dead_hosts.len())
            .field("failed_runs", &inner.failed_runs.len())
            .finish()
    }
}

impl FailureState {
    /// An empty registry (nothing dead, nothing failed).
    pub fn new() -> Self {
        Self::default()
    }

    /// True if `run` has been failed.
    pub fn run_failed(&self, run: RunId) -> bool {
        self.inner.lock().failed_runs.contains_key(&run)
    }

    /// Why `run` failed, if it has.
    pub fn run_failure(&self, run: RunId) -> Option<FailureReason> {
        self.inner.lock().failed_runs.get(&run).copied()
    }

    /// True if `device` is dead.
    pub fn device_dead(&self, device: DeviceId) -> bool {
        self.inner.lock().dead_devices.contains(&device)
    }

    /// True if `host` is dead.
    pub fn host_dead(&self, host: HostId) -> bool {
        self.inner.lock().dead_hosts.contains(&host)
    }

    /// True if the link between `a` and `b` is severed or either end is
    /// dead.
    pub fn link_down(&self, a: HostId, b: HostId) -> bool {
        let inner = self.inner.lock();
        inner.dead_hosts.contains(&a)
            || inner.dead_hosts.contains(&b)
            || (a != b && inner.severed.contains(&pair_key(a, b)))
    }

    /// The first dead component a run over `devices`, `islands` and
    /// `hosts` (sorted, deduped) would touch, checked in that order
    /// under one lock: a dead device, a dead island, a dead host, then
    /// a severed link between two of `hosts` — the lowest such pair,
    /// which is the one a scan over host pairs in order meets first.
    pub(crate) fn first_dead(
        &self,
        devices: impl IntoIterator<Item = DeviceId>,
        islands: impl IntoIterator<Item = IslandId>,
        hosts: &[HostId],
    ) -> Option<FailureReason> {
        let inner = self.inner.lock();
        if !inner.dead_devices.is_empty() {
            if let Some(d) = devices.into_iter().find(|d| inner.dead_devices.contains(d)) {
                return Some(FailureReason::Device(d));
            }
        }
        if let Some(i) = islands.into_iter().find(|i| inner.dead_islands.contains(i)) {
            return Some(FailureReason::Island(i));
        }
        if let Some(h) = hosts.iter().find(|h| inner.dead_hosts.contains(h)) {
            return Some(FailureReason::Host(*h));
        }
        let involved = |h: &HostId| hosts.binary_search(h).is_ok();
        inner
            .severed
            .iter()
            .filter(|(a, b)| a != b && involved(a) && involved(b))
            .min()
            .map(|&(a, b)| FailureReason::Link(a, b))
    }

    /// Registers an in-flight run's footprint (client submission path).
    pub fn register_run(&self, run: RunId, footprint: RunFootprint) {
        self.inner.lock().runs.insert(run, footprint);
    }

    /// Forgets a completed run's footprint, failed or not: a finished
    /// run can no longer be doomed, and its footprint holds the run's
    /// failure event and every waker still registered on it. A failed
    /// run keeps its reason, which executors read for its grants still
    /// in flight. Called by PLAQUE once the run's last shard halts.
    pub(crate) fn complete_run(&self, run: RunId) {
        let footprint = self.inner.lock().runs.remove(&run);
        // The event's wakers drop outside the lock.
        drop(footprint);
    }

    /// The run's failure event, if the run is registered. Transfer
    /// tasks race their cross-host waits against this so wind-down
    /// messages lost to dead NICs cannot wedge them.
    pub fn failed_event(&self, run: RunId) -> Option<Event> {
        self.inner.lock().runs.get(&run).map(|fp| fp.failed.clone())
    }

    /// Number of runs currently failed (tests/metrics).
    pub fn failed_run_count(&self) -> usize {
        self.inner.lock().failed_runs.len()
    }

    /// Number of runs whose footprint is registered: the ones still in
    /// flight, failed or not (tests/metrics).
    pub fn registered_run_count(&self) -> usize {
        self.inner.lock().runs.len()
    }

    /// The registered runs whose footprint `doomed` picks, ascending —
    /// a fault's victims, in the order replay fails them.
    fn runs_where(&self, doomed: impl Fn(&RunFootprint) -> bool) -> Vec<RunId> {
        let inner = self.inner.lock();
        let mut runs: Vec<RunId> = inner
            .runs
            .iter()
            .filter(|(_, fp)| doomed(fp))
            .map(|(r, _)| *r)
            .collect();
        runs.sort_unstable();
        runs
    }
}

fn pair_key(a: HostId, b: HostId) -> (HostId, HostId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// Applies scripted faults to a running
/// [`PathwaysRuntime`](crate::PathwaysRuntime) and propagates the
/// resulting errors so no future ever wedges.
pub struct FaultInjector {
    core: Arc<CoreCtx>,
    rm: Arc<ResourceManager>,
    state: FailureState,
    errors: ErrorLog,
    /// Every healing action taken so far, in injection order.
    heals: Lock<Vec<HealEvent>>,
    heal_log: HealLog,
    /// Present on a tiered store: hardware loss is absorbed into
    /// checkpoint restore / lineage recompute instead of terminal
    /// `ProducerFailed`.
    recovery: Option<Arc<RecoveryManager>>,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("state", &self.state)
            .finish()
    }
}

impl FaultInjector {
    /// The injector of a runtime; on a tiered store it owns the
    /// [`RecoveryManager`] that the loss walk routes object loss through
    /// before declaring anything `ProducerFailed`.
    pub(crate) fn new(
        core: Arc<CoreCtx>,
        rm: Arc<ResourceManager>,
        state: FailureState,
    ) -> Arc<Self> {
        Arc::new_cyclic(|injector| FaultInjector {
            recovery: core.cfg.tiers.is_some().then(|| {
                let core = Arc::clone(&core);
                Arc::new(RecoveryManager::new(core, injector.clone()))
            }),
            core,
            rm,
            state,
            errors: ErrorLog::new(),
            heals: Lock::new(Vec::new()),
            heal_log: HealLog::new(),
        })
    }

    /// Recovery outcome counters (all zero on an untiered store).
    pub fn recovery_stats(&self) -> RecoveryStats {
        let recovery = self.recovery.as_ref();
        recovery.map(|r| r.stats()).unwrap_or_default()
    }

    /// The shared failure registry.
    pub fn state(&self) -> &FailureState {
        &self.state
    }

    /// The per-host error log fed by housekeeping error delivery.
    pub fn error_log(&self) -> &ErrorLog {
        &self.errors
    }

    /// Every [`HealEvent`] so far: which slices were remapped off dead
    /// hardware (or could not be), in injection order.
    pub fn heal_events(&self) -> Vec<HealEvent> {
        self.heals.lock().clone()
    }

    /// The per-host heal-notice log fed by housekeeping delivery, so
    /// client agents on live hosts learn which slices were remapped and
    /// must re-lower.
    pub fn heal_log(&self) -> &HealLog {
        &self.heal_log
    }

    /// Spawns the driver task for `plan`: each fault applies at its
    /// scripted virtual time, stamped onto the trace's `faults` track.
    pub fn install_plan(self: &Arc<Self>, handle: &SimHandle, plan: FaultPlan<FaultSpec>) {
        let this = Arc::clone(self);
        let h = handle.clone();
        plan.spawn(handle, move |at, spec| {
            if h.tracing() {
                h.trace_span("faults", spec.to_string(), at, at);
            }
            this.inject(&spec);
        });
    }

    /// Applies one fault now. Synchronous: when this returns, every
    /// doomed object carries its error, every doomed run is winding
    /// down, nothing downstream of the fault can block forever, and
    /// every live slice touching the dead hardware has been remapped
    /// onto spare capacity (or recorded as unplaceable) — the *next*
    /// submit on a healed slice re-lowers and succeeds.
    pub fn inject(&self, spec: &FaultSpec) {
        let mut newly_failed: Vec<RunId> = Vec::new();
        let mut newly_dead: Vec<DeviceId> = Vec::new();
        match *spec {
            FaultSpec::Device(d) => self.fail_device(
                d,
                FailureReason::Device(d),
                &mut newly_failed,
                &mut newly_dead,
            ),
            FaultSpec::Host(h) => self.fail_host(h, &mut newly_failed, &mut newly_dead),
            FaultSpec::Link(a, b) => self.sever_link(a, b, &mut newly_failed),
        }
        self.heal_dead_hardware(&newly_dead);
        self.deliver(newly_failed);
        // After healing, so lineage re-submissions re-lower onto healed
        // slices. Everything this fault absorbed recovers as one batch
        // (chain recovery over the lineage DAG).
        self.launch_recoveries();
    }

    /// Launches a chain-recovery task for everything the walk that just
    /// finished absorbed (no-op on an untiered store or when nothing
    /// was absorbed).
    fn launch_recoveries(&self) {
        if let Some(r) = &self.recovery {
            r.launch_pending();
        }
    }

    /// Elastic slice healing (§4.1 closed-loop): remap every live slice
    /// that touched the newly dead devices onto spare attached capacity.
    /// Islands whose scheduler died are excluded — hardware there may be
    /// alive, but nothing can be granted on them, so healing onto them
    /// would strand the slice. Each heal is stamped onto the trace's
    /// `heals` track (part of the replayable schedule) and fanned out to
    /// live hosts over the coordination substrate.
    fn heal_dead_hardware(&self, dead: &[DeviceId]) {
        if dead.is_empty() {
            return;
        }
        let excluded: Vec<IslandId> = {
            let inner = self.state.inner.lock();
            let mut v: Vec<IslandId> = inner.dead_islands.iter().copied().collect();
            v.sort();
            v
        };
        let events = self.rm.heal(dead, &excluded);
        if events.is_empty() {
            return;
        }
        let now = self.core.handle.now();
        let notices: Vec<(crate::resource::SliceId, String)> = events
            .iter()
            .map(|e| {
                let outcome = match &e.to {
                    Ok(to) => format!("remapped {:?} -> {:?}", e.from, to),
                    Err(err) => format!("unplaceable: {err}"),
                };
                let h = &self.core.handle;
                if h.tracing() {
                    h.trace_span("heals", format!("{} {outcome}", e.slice), now, now);
                }
                (e.slice, outcome)
            })
            .collect();
        self.heals.lock().extend(events);
        spawn_delivery(
            &self.core,
            &self.state,
            "heal-delivery",
            &self.heal_log,
            notices,
        );
    }

    /// Simulates abrupt client failure: every live run of the client
    /// fails (downstream consumers observe typed errors, not stale
    /// data), its objects are garbage-collected, and its device slices
    /// released. Returns the number of objects freed by the GC.
    pub fn fail_client(&self, client: ClientId) -> usize {
        let mut newly_failed: Vec<RunId> = Vec::new();
        // Live runs submitted by the client fail outright.
        let reason = FailureReason::Client(client);
        self.fail_runs_where(|fp| fp.client == client, reason, &mut newly_failed);
        // Consumers bound to any of the client's objects fail too —
        // their kernels must not run on stale data.
        let doomed_objects = self.core.store.objects_owned_by(client);
        self.cascade_objects(&doomed_objects, &mut newly_failed);
        let freed = self.core.store.gc_client(client);
        self.rm.release_client(client);
        self.deliver(newly_failed);
        self.launch_recoveries();
        freed
    }

    fn fail_device(
        &self,
        d: DeviceId,
        reason: FailureReason,
        newly_failed: &mut Vec<RunId>,
        newly_dead: &mut Vec<DeviceId>,
    ) {
        {
            let mut inner = self.state.inner.lock();
            if !inner.dead_devices.insert(d) {
                return;
            }
        }
        newly_dead.push(d);
        // New slices avoid the dead device; the device itself stops
        // accepting kernels and its gangs abort at the rendezvous.
        // Healing of live slices happens once per injected fault, after
        // the whole blast radius is known (see `inject`).
        self.rm.detach_device(d);
        let now = self.core.handle.now();
        if let Some(dev) = self.core.devices.get(&d) {
            dev.fail(now, reason.to_string());
        }
        // Data already produced onto the device is lost.
        let lost = self.lose(Place::Hbm(d), reason);
        // In-flight runs with any shard lowered onto the device fail.
        self.fail_runs_where(|fp| fp.devices.contains(&d), reason, newly_failed);
        self.cascade_objects(&lost, newly_failed);
    }

    fn fail_host(&self, h: HostId, newly_failed: &mut Vec<RunId>, newly_dead: &mut Vec<DeviceId>) {
        {
            let mut inner = self.state.inner.lock();
            if !inner.dead_hosts.insert(h) {
                return;
            }
        }
        self.core.fabric.fail_host(h);
        let reason = FailureReason::Host(h);
        // The host's devices die with it.
        for d in self.core.fabric.topology().devices_of_host(h) {
            self.fail_device(d, reason, newly_failed, newly_dead);
        }
        // So do shards spilled to the host's DRAM (tiered store only;
        // untiered stores never populate the DRAM index).
        let lost = self.lose(Place::Dram(h), reason);
        self.cascade_objects(&lost, newly_failed);
        // An island scheduler on the host takes its island down: nothing
        // on the island can be granted anymore.
        let dead_islands: Vec<IslandId> = {
            let mut v: Vec<IslandId> = self
                .core
                .sched_hosts
                .iter()
                .filter(|(_, host)| **host == h)
                .map(|(island, _)| *island)
                .collect();
            v.sort();
            v
        };
        for island in &dead_islands {
            self.state.inner.lock().dead_islands.insert(*island);
        }
        // Runs touching the host (shards, client process, scheduler) or
        // a newly dead island fail.
        let doomed = |fp: &RunFootprint| {
            fp.hosts.contains(&h) || fp.islands.iter().any(|i| dead_islands.contains(i))
        };
        self.fail_runs_where(doomed, reason, newly_failed);
    }

    fn sever_link(&self, a: HostId, b: HostId, newly_failed: &mut Vec<RunId>) {
        {
            let mut inner = self.state.inner.lock();
            if !inner.severed.insert(pair_key(a, b)) {
                return;
            }
        }
        self.core.fabric.sever_link(a, b);
        // Conservative blast radius: any in-flight run whose control
        // plane spans both endpoints can no longer coordinate.
        let reason = FailureReason::Link(a, b);
        let doomed = |fp: &RunFootprint| fp.hosts.contains(&a) && fp.hosts.contains(&b);
        self.fail_runs_where(doomed, reason, newly_failed);
    }

    /// Fails one run: records it (scheduler and executors skip it from
    /// now on), fails its sinks in the store, force-starts its
    /// never-granted shards, sweeps its pending executor registrations
    /// so every shard driver observes the abort and winds the dataflow
    /// down, and cascades to runs consuming its outputs.
    fn fail_run(&self, run: RunId, reason: FailureReason, newly_failed: &mut Vec<RunId>) {
        let (sinks, islands, failed_ev) = {
            let mut inner = self.state.inner.lock();
            if inner.failed_runs.contains_key(&run) {
                return;
            }
            let Some(fp) = inner.runs.get(&run) else {
                return; // completed or never registered
            };
            let out = (fp.sinks.clone(), fp.islands.clone(), fp.failed.clone());
            inner.failed_runs.insert(run, reason);
            out
        };
        if !self.core.plaque.is_live(run) {
            // Already completed: its data-loss case is handled by the
            // store scan; nothing is in flight to wind down.
            self.state.inner.lock().failed_runs.remove(&run);
            return;
        }
        newly_failed.push(run);
        failed_ev.set();
        // A failed run's in-flight sinks can still be saved: a sink with
        // lineage (or a checkpoint from an earlier completed production)
        // recovers by re-submission instead of failing. Only terminally
        // dead sinks fail and cascade.
        let dead_sinks = self.absorb_or_fail(sinks, None, reason);
        // Abort the run's gang collectives: members whose grants are
        // already lost (dead host, severed link) will never arrive, so
        // arrived partners must not wait for them. Gang owner = run + 1
        // (0 is the rendezvous's "unknown" sentinel).
        let topo = self.core.fabric.topology();
        for island in &islands {
            if let Some(d) = topo.devices_of_island(*island).next() {
                if let Some(dev) = self.core.devices.get(&d) {
                    dev.rendezvous().mark_owner_failed(run.0 + 1);
                }
            }
        }
        // Shards that never got (and now never will get) a grant must
        // still start so they can halt; their executor registrations are
        // then swept so the shard drivers observe the abort.
        self.core.plaque.force_start_run(run);
        let mut hosts: Vec<HostId> = self.core.executors.keys().copied().collect();
        hosts.sort();
        for host in hosts {
            self.core.executors[&host].fail_run(run);
        }
        self.cascade_objects(&dead_sinks, newly_failed);
    }

    /// Fails every registered run that `doomed` picks, in id order.
    fn fail_runs_where(
        &self,
        doomed: impl Fn(&RunFootprint) -> bool,
        reason: FailureReason,
        newly_failed: &mut Vec<RunId>,
    ) {
        for run in self.state.runs_where(doomed) {
            self.fail_run(run, reason, newly_failed);
        }
    }

    /// The loss walk over dead hardware: every object with a shard in
    /// `place` loses those shards. Returns the failed ids, ascending —
    /// the set the caller cascades to consumers.
    fn lose(&self, place: Place, reason: FailureReason) -> Vec<ObjectId> {
        let ids = self.core.store.objects_in(place);
        self.absorb_or_fail(ids, Some(place), reason)
    }

    /// Each of `ids` lost its shards in `place` (`None`: its in-flight
    /// production died) and is absorbed into recovery when the recovery
    /// manager can restore or recompute it, failed otherwise. Absorbed
    /// objects are neither failed nor cascaded: their consumers wait
    /// through the recovery window. Returns the failed ids, in order.
    fn absorb_or_fail(
        &self,
        ids: Vec<ObjectId>,
        place: Option<Place>,
        reason: FailureReason,
    ) -> Vec<ObjectId> {
        let recovery = self.recovery.as_ref();
        let mut failed = Vec::new();
        for id in ids {
            if !recovery.is_some_and(|r| r.absorb(id, place, reason)) {
                self.core.store.fail_object(id, reason);
                failed.push(id);
            }
        }
        failed
    }

    /// The deferred half of the blast-radius walk, used by abandoned
    /// recoveries: cascade `objects`' failure to bound consumers and fan
    /// the resulting run failures out to live hosts — exactly what
    /// `inject` would have done synchronously had recovery not been
    /// attempted.
    pub(crate) fn cascade_failure(&self, objects: &[ObjectId]) {
        let mut newly_failed: Vec<RunId> = Vec::new();
        self.cascade_objects(objects, &mut newly_failed);
        self.deliver(newly_failed);
        // The cascade's fail_run walk may itself absorb in-flight sinks.
        self.launch_recoveries();
    }

    /// Fails every run bound (as a consumer) to any of `objects`.
    fn cascade_objects(&self, objects: &[ObjectId], newly_failed: &mut Vec<RunId>) {
        if objects.is_empty() {
            return;
        }
        let mut consumers: Vec<(RunId, ObjectId)> = self
            .core
            .bindings
            .lock()
            .iter()
            .filter(|(_, b)| objects.contains(&b.objref.id()))
            .map(|((run, _), b)| (*run, b.objref.id()))
            .collect();
        consumers.sort();
        consumers.dedup();
        for (run, object) in consumers {
            self.fail_run(run, FailureReason::Upstream(object), newly_failed);
        }
    }

    /// Fans newly-failed runs out to every live host over the
    /// coordination substrate (fire-and-forget; §4.3).
    fn deliver(&self, mut newly_failed: Vec<RunId>) {
        if newly_failed.is_empty() {
            return;
        }
        newly_failed.sort();
        newly_failed.dedup();
        let notices: Vec<(RunId, String)> = newly_failed
            .iter()
            .map(|r| {
                let reason = self
                    .state
                    .run_failure(*r)
                    .map(|x| x.to_string())
                    .unwrap_or_else(|| "unknown".into());
                (*r, reason)
            })
            .collect();
        spawn_delivery(
            &self.core,
            &self.state,
            "error-delivery",
            &self.errors,
            notices,
        );
    }
}
