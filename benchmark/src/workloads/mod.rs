//! The seven workloads and what they share: how a timed rep is
//! bracketed, what is counted around it, and what is checked after it.
//!
//! Every rep builds a fresh simulation and runtime from the same seed
//! and replays the same generated operations, so its virtual-time
//! results repeat exactly; only host time varies between reps.

pub mod chain_islands;
pub mod dispatch_fresh;
pub mod pipeline_deep;
pub mod spmd_wide;
pub mod store_recover;
pub mod store_spill;
pub mod tenants_shared;

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::clock::Stopwatch;
use crate::layers::core_client::{self, Client, Done, Env, PreparedProgram, RunResult};
use crate::layers::core_sched::SchedulerHandle;
use crate::layers::sim::JoinHandle;
use crate::layers::{core_resource, core_sched, core_storage, device, sim, Shape};
use crate::span::Span;

/// What one client task reports when its loop ends.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Programs (or scenarios) whose sinks all resolved `Ok`.
    pub ok: u64,
    /// Programs that resolved to an error, were refused, or abandoned.
    pub failed: u64,
    /// Virtual ns, submit call → every sink ready, one per program.
    pub latencies_ns: Vec<u64>,
    /// Virtual time at which the client's last program was ready.
    pub end_ns: u64,
    /// Shards the lowered dataflows of this client's programs installed.
    pub plaque_shards: u64,
    /// Traced runs only: Σ virtual ns submit → scheduler arrival and
    /// arrival → sinks ready, over `sched_samples` programs.
    pub submit_to_arrival_ns: u64,
    pub arrival_to_ready_ns: u64,
    pub sched_samples: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool, latency_ns: u64) {
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
        self.latencies_ns.push(latency_ns);
    }

    /// Records a finished program and, on traced runs, where its
    /// virtual latency went relative to its arrival at `sched`.
    pub fn record_done(&mut self, done: &Done, sched: &SchedulerHandle) {
        self.record(done.ok, done.latency_ns);
        if let Some(run_id) = done.run_id {
            self.note_arrival(
                sched,
                run_id,
                done.submitted_ns,
                done.submitted_ns + done.latency_ns,
            );
        }
    }

    /// On traced runs, splits `submitted_ns..ready_ns` of run `run_id`
    /// at its arrival at `sched`. Must be called soon after the run:
    /// schedulers remember only their latest arrivals.
    pub fn note_arrival(
        &mut self,
        sched: &SchedulerHandle,
        run_id: u64,
        submitted_ns: u64,
        ready_ns: u64,
    ) {
        if !crate::span::enabled() {
            return;
        }
        if let Some(arrival) = core_sched::arrival_ns(sched, run_id) {
            self.submit_to_arrival_ns += arrival.saturating_sub(submitted_ns);
            self.arrival_to_ready_ns += ready_ns.saturating_sub(arrival);
            self.sched_samples += 1;
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.latencies_ns.extend(other.latencies_ns);
        self.end_ns = self.end_ns.max(other.end_ns);
        self.plaque_shards += other.plaque_shards;
        self.submit_to_arrival_ns += other.submit_to_arrival_ns;
        self.arrival_to_ready_ns += other.arrival_to_ready_ns;
        self.sched_samples += other.sched_samples;
    }
}

/// One rep of one workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds before the timed window: topology, runtime,
    /// clients, slices, trace + prepare, warm-up programs.
    pub setup_s: f64,
    /// Host seconds of the timed window (first submit → quiescence).
    pub wall_s: f64,
    /// Host ns (process epoch) at which the window opened.
    pub window_start_ns: u64,
    /// Virtual ns of the timed window (start → last sink ready).
    pub sim_ns: u64,
    pub tally: Tally,
    /// Device kernels executed inside the window.
    pub kernels: u64,
    /// Counter deltas over the window plus end-of-window gauges.
    pub counts: BTreeMap<String, f64>,
    /// Human-readable descriptions of every check that failed.
    pub failures: Vec<String>,
    /// Boundary spans (traced reps only).
    pub spans: Vec<Span>,
}

impl Rep {
    /// Hash of everything virtual about the rep: a simulator-only
    /// change must leave it untouched, and every rep of one seed must
    /// produce the same value.
    pub fn sim_fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.sim_ns);
        h.u64(self.tally.ok);
        h.u64(self.tally.failed);
        h.u64(self.kernels);
        let mut lat = self.tally.latencies_ns.clone();
        lat.sort_unstable();
        for l in lat {
            h.u64(l);
        }
        // Named-lock acquires and executor polls count host-side
        // operations, which the driver's own traced look-ups add to;
        // everything else in `counts` is a statistic of the modelled
        // system.
        for (name, value) in &self.counts {
            if name.starts_with("lock.") || name == "sim.polls" {
                continue;
            }
            h.bytes(name.as_bytes());
            h.u64(value.to_bits());
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bs: &[u8]) {
        for b in bs {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Every public counter the layers expose, keyed by metric name; named
/// locks' acquire counts appear as `lock.<name>`.
fn snapshot(env: &Env) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let (kernels, busy_ns) = device::totals(core_client::devices(env));
    m.insert("device.kernels".to_string(), kernels as f64);
    m.insert("device.busy_ns".to_string(), busy_ns as f64);
    for (k, v) in sim::counters(&env.sim)
        .into_iter()
        .chain(core_sched::counters(env))
        .chain(core_resource::counters(env))
        .chain(core_storage::counters(env))
    {
        m.insert(k.to_string(), v);
    }
    for (name, acquires) in sim::lock_acquires() {
        m.insert(format!("lock.{name}"), acquires as f64);
    }
    m
}

/// Runs whatever warm-up tasks were spawned to quiescence (the last
/// step of a rep's set-up).
pub fn settle_warm_up(env: &mut Env, rep: &mut Rep) {
    if let Err(why) = sim::run(&mut env.sim) {
        rep.failures.push(format!("warm-up: {why}"));
    }
}

/// The outputs a stepping client keeps alive, oldest first.
pub type Window = VecDeque<Option<RunResult>>;

/// One client's closed loop over prepared program variants: step `i`
/// runs `prepared[steps[i]]` to ready. The outputs of the last `keep`
/// steps stay alive in `window` (which may arrive pre-filled); older
/// ones are dropped, releasing their objects wherever they now live.
pub async fn step_loop(
    client: Client,
    prepared: Arc<Vec<PreparedProgram>>,
    steps: Arc<Vec<u8>>,
    sched: SchedulerHandle,
    mut window: Window,
    keep: usize,
) -> Tally {
    let mut tally = Tally::default();
    for (i, &v) in steps.iter().enumerate() {
        let prog = core_client::begin_program(&client, i as u64 + 1);
        let prepared = &prepared[v as usize];
        let done = core_client::run_to_ready(&client, prepared, &[], prog).await;
        tally.plaque_shards += core_client::plaque_shards(prepared);
        tally.record_done(&done, &sched);
        window.push_back(done.result);
        while window.len() > keep {
            window.pop_front();
        }
        core_client::end_program(&client, prog);
    }
    tally.end_ns = sim::now_ns(client.handle());
    tally
}

/// Runs the timed window of a rep: `spawn` starts the client tasks,
/// then the simulation runs to quiescence. Fills in everything of `rep`
/// except `setup_s` and `spans`.
pub fn timed_window(
    env: &mut Env,
    rep: &mut Rep,
    spawn: impl FnOnce(&Env) -> Vec<JoinHandle<Tally>>,
) {
    // The executor's trace log holds a `String` pair per kernel; drain
    // what set-up left so the window's span count is its own.
    sim::drain_trace(&env.sim);
    let before = snapshot(env);
    let sim_t0 = sim::sim_now_ns(&env.sim);
    rep.window_start_ns = crate::clock::now_ns();
    let sw = Stopwatch::start();
    let jobs = spawn(env);
    let outcome = sim::run(&mut env.sim);
    rep.wall_s = sw.secs();
    if let Err(why) = outcome {
        rep.failures
            .push(format!("RunOutcome not quiescent: {why}"));
    }
    for (i, job) in jobs.into_iter().enumerate() {
        match job.try_take() {
            Some(t) => rep.tally.absorb(t),
            None => rep.failures.push(format!("client task {i} did not finish")),
        }
    }
    rep.sim_ns = rep.tally.end_ns.saturating_sub(sim_t0);

    let after = snapshot(env);
    for (k, v) in &after {
        rep.counts
            .insert(k.clone(), v - before.get(k).copied().unwrap_or(0.0));
    }
    rep.counts.insert(
        "sim.trace_spans".to_string(),
        sim::drain_trace(&env.sim) as f64,
    );
    for (k, v) in core_storage::gauges(env) {
        rep.counts.insert(k.to_string(), v);
    }
    rep.kernels = rep.counts["device.kernels"] as u64;
}

/// The checks every workload ends with, once its clients have dropped
/// every `ObjectRef`: nothing may be left in the store, in HBM, or out
/// of balance in the tier and resource ledgers.
pub fn final_checks(env: &Env, rep: &mut Rep) {
    if !core_storage::store_is_empty(env) {
        rep.failures
            .push("store.is_empty() is false after every ref was dropped".to_string());
    }
    let hbm = device::hbm_used(core_client::devices(env));
    if hbm != 0 {
        rep.failures
            .push(format!("HbmPool::used() sums to {hbm} bytes, expected 0"));
    }
    if !core_storage::tiers_conserved(env) {
        rep.failures.push("tiers_conserved() is false".to_string());
    }
    core_resource::assert_consistent(env);
    if rep.tally.failed != 0 {
        rep.failures.push(format!(
            "{} of {} programs did not resolve Ok",
            rep.tally.failed,
            rep.tally.ok + rep.tally.failed
        ));
    }
}

/// A workload: a name, why it exists, the sizes it runs at, and how to
/// run one rep of the operations generated from a seed.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    /// The frozen op counts, for the provenance record.
    pub frozen: &'static [(&'static str, u64)],
    pub rep: fn(seed: u64) -> Rep,
}

pub fn all() -> Vec<Workload> {
    vec![
        spmd_wide::workload(),
        pipeline_deep::workload(),
        dispatch_fresh::workload(),
        tenants_shared::workload(),
        chain_islands::workload(),
        store_spill::workload(),
        store_recover::workload(),
    ]
}
