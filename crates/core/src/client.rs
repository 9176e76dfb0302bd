//! The Pathways client library (§4.2).
//!
//! A client traces programs ([`crate::ProgramBuilder`]), lowers them once
//! ([`Client::prepare`]) and then runs the lowered form repeatedly —
//! "it is efficient to repeatedly run the low-level program in the
//! common case that the virtual device locations do not change".
//! Each run costs one Submit RPC per involved island plus the plaque
//! launch; results come back as object-store handles, not data — the
//! outputs stay in HBM (unlike the TF/Ray baselines that copy results
//! back, §5.1).
//!
//! [`Client::submit`] is **non-blocking**: it returns a [`Run`] whose
//! per-sink [`ObjectRef`]s exist immediately, before any kernel has been
//! scheduled. Feeding those refs into another program's external inputs
//! via [`Client::submit_with`] chains programs without ever awaiting an
//! intermediate run — the coordinator dispatches the whole chain while
//! the first program is still executing (parallel asynchronous dispatch
//! across programs), and only the consuming kernels gate on the
//! producers' per-shard readiness events.

use std::fmt;
use std::sync::Arc;

use pathways_net::{ClientId, HostId};
use pathways_plaque::RunId;
use pathways_sim::SimDuration;

use crate::context::CoreCtx;
use crate::fault::RunFootprint;
use crate::objref::{InputBinding, ObjectRef};
use crate::ops::{prepare, PreparedProgram};
use crate::program::{CompId, Program};
use crate::resource::{ResourceError, ResourceManager, SliceRequest, VirtualSlice};
use crate::sched::SubmitMsg;
use crate::storage::{FailureReason, ObjectId};

/// Client-side cost per program submission (Python call, tracing-cache
/// lookup, serialization).
const SUBMIT_OVERHEAD: SimDuration = SimDuration::from_micros(20);
/// Additional client-side cost per computation node submitted.
const SUBMIT_PER_COMP: SimDuration = SimDuration::from_micros(2);

/// Errors from submitting a prepared program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// A binding referenced a computation id the program does not have
    /// (typically a `CompId` from a *different* program's builder).
    UnknownComputation {
        /// The out-of-range id.
        comp: CompId,
    },
    /// The program declares an external input that was not bound.
    UnboundInput {
        /// The unbound input node.
        comp: CompId,
    },
    /// A binding targeted a computation that is not an external input.
    NotAnInput {
        /// The offending computation.
        comp: CompId,
    },
    /// The same input was bound twice.
    DuplicateBinding {
        /// The doubly-bound input.
        comp: CompId,
    },
    /// A bound `ObjectRef`'s sharding does not match the input's
    /// declared shard count.
    ShardMismatch {
        /// The input node.
        comp: CompId,
        /// Shards the program declared.
        expected: u32,
        /// Shards the bound object has.
        got: u32,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownComputation { comp } => {
                write!(
                    f,
                    "binding references {comp}, which this program does not have"
                )
            }
            SubmitError::UnboundInput { comp } => {
                write!(f, "external input {comp} has no ObjectRef bound")
            }
            SubmitError::NotAnInput { comp } => {
                write!(f, "{comp} is not an external input")
            }
            SubmitError::DuplicateBinding { comp } => {
                write!(f, "external input {comp} bound twice")
            }
            SubmitError::ShardMismatch {
                comp,
                expected,
                got,
            } => write!(
                f,
                "input {comp} expects {expected} shards, bound object has {got}"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Handles to one completed run's outputs. Each handle is an
/// [`ObjectRef`] owning one logical-buffer reference; dropping the
/// result (or individual clones) releases them.
pub struct RunResult {
    run: RunId,
    objects: Vec<(CompId, ObjectId)>,
    refs: Vec<(CompId, ObjectRef)>,
}

impl fmt::Debug for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunResult")
            .field("run", &self.run)
            .field("outputs", &self.objects.len())
            .finish()
    }
}

impl RunResult {
    /// The run id.
    pub fn run(&self) -> RunId {
        self.run
    }

    /// Output handles, one per sink computation, sorted by computation.
    pub fn objects(&self) -> &[(CompId, ObjectId)] {
        &self.objects
    }

    /// The output handle of sink `comp`, if it exists.
    pub fn object(&self, comp: CompId) -> Option<ObjectId> {
        self.objects
            .iter()
            .find(|(c, _)| *c == comp)
            .map(|(_, o)| *o)
    }

    /// A clone of the output [`ObjectRef`] of sink `comp` (retains the
    /// object), usable as a later program's input.
    pub fn object_ref(&self, comp: CompId) -> Option<ObjectRef> {
        self.refs
            .iter()
            .find(|(c, _)| *c == comp)
            .map(|(_, r)| r.clone())
    }

    /// All output refs, one per sink computation.
    pub fn refs(&self) -> &[(CompId, ObjectRef)] {
        &self.refs
    }
}

/// A submitted program. Returned by the non-blocking
/// [`Client::submit`]/[`Client::submit_with`]: the output [`ObjectRef`]s
/// are available immediately and can be fed into further submissions
/// without awaiting this run.
pub struct Run {
    run: RunId,
    /// `None` when the run failed fast at submission (dead island, dead
    /// devices, failed upstream input): nothing was launched, and the
    /// output refs already carry their errors.
    run_handle: Option<pathways_plaque::RunHandle>,
    /// Set by the fault injector when the run fails; [`Run::finish`]
    /// races completion against it so a run partitioned away from its
    /// own wind-down messages is abandoned, not awaited forever.
    failed: pathways_sim::sync::Event,
    refs: Vec<(CompId, ObjectRef)>,
}

impl fmt::Debug for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Run")
            .field("run", &self.run)
            .field("outputs", &self.refs.len())
            .field("failed_fast", &self.run_handle.is_none())
            .finish()
    }
}

impl Run {
    /// The run id.
    pub fn run(&self) -> RunId {
        self.run
    }

    /// A clone of the output future of sink `comp` — valid before the
    /// run (or even its producerless scheduling) has made any progress.
    pub fn object_ref(&self, comp: CompId) -> Option<ObjectRef> {
        self.refs
            .iter()
            .find(|(c, _)| *c == comp)
            .map(|(_, r)| r.clone())
    }

    /// All output futures, one per sink computation, sorted by
    /// computation.
    pub fn refs(&self) -> &[(CompId, ObjectRef)] {
        &self.refs
    }

    /// Waits for the program to complete and collects its results.
    ///
    /// Failure-aware: resolves when the run completes *or* when the
    /// fault injector fails it, whichever comes first. Most failed runs
    /// still wind down to completion (failure propagation force-drains
    /// them), but a run partitioned by a severed link or dead host can
    /// lose the very messages its completion tracking needs — the
    /// client abandons it on the failure notification instead of
    /// blocking forever. The refs then resolve to errors, not data.
    pub async fn finish(self) -> RunResult {
        let run = self.run;
        if let Some(handle) = self.run_handle {
            DoneOrFailed {
                done: handle.into_done_receiver(),
                failed: self.failed.wait(),
            }
            .await;
        }
        let objects = self.refs.iter().map(|(c, r)| (*c, r.id())).collect();
        RunResult {
            run,
            objects,
            refs: self.refs,
        }
    }
}

/// Races run completion against the run's failure notification.
struct DoneOrFailed {
    done: pathways_sim::channel::OneshotReceiver<()>,
    failed: pathways_sim::sync::EventWait,
}

impl std::future::Future for DoneOrFailed {
    type Output = ();

    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<()> {
        let this = self.get_mut();
        if std::pin::Pin::new(&mut this.done).poll(cx).is_ready() {
            return std::task::Poll::Ready(());
        }
        std::pin::Pin::new(&mut this.failed).poll(cx)
    }
}

/// A Pathways client.
#[derive(Clone)]
pub struct Client {
    id: ClientId,
    label: String,
    host: HostId,
    core: Arc<CoreCtx>,
    rm: Arc<ResourceManager>,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("id", &self.id)
            .field("host", &self.host)
            .finish()
    }
}

impl Client {
    pub(crate) fn new(
        id: ClientId,
        label: String,
        host: HostId,
        core: Arc<CoreCtx>,
        rm: Arc<ResourceManager>,
    ) -> Self {
        Client {
            id,
            label,
            host,
            core,
            rm,
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The host the client process runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The label used for this client's programs in device traces.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Requests a virtual slice from the resource manager.
    ///
    /// # Errors
    ///
    /// See [`ResourceError`].
    pub fn virtual_slice(&self, request: SliceRequest) -> Result<VirtualSlice, ResourceError> {
        self.rm.allocate(self.id, request)
    }

    /// Starts tracing a new program (the §3 program tracer).
    pub fn trace(&self, name: impl Into<String>) -> crate::program::ProgramBuilder {
        crate::program::ProgramBuilder::new(name)
    }

    /// The shared runtime context.
    pub fn core(&self) -> &Arc<CoreCtx> {
        &self.core
    }

    /// The simulation handle (for timing measurements in benchmarks).
    pub fn handle(&self) -> &pathways_sim::SimHandle {
        &self.core.handle
    }

    /// Lowers a traced program against the current virtual→physical
    /// mapping. A prepared program whose slices are later remapped
    /// (healing, rebalancing, explicit [`ResourceManager::remap`])
    /// becomes stale; [`Client::submit`]/[`Client::submit_with`] detect
    /// this through the slices' mapping generations and re-lower
    /// automatically — "programs simply re-lower".
    pub fn prepare(&self, program: &Program) -> PreparedProgram {
        prepare(&self.core, self.host, program)
    }

    /// Submits a prepared program with no external inputs: pays the
    /// client-side (Python-thread) overhead and sends the control
    /// messages, returning a [`Run`] whose output [`ObjectRef`]s are
    /// valid immediately. Nothing about the run is awaited — chain
    /// further submissions or call [`Run::finish`] when the results are
    /// actually needed.
    ///
    /// # Panics
    ///
    /// Panics if the program declares external inputs (bind them with
    /// [`Client::submit_with`]).
    #[expect(clippy::panic, reason = "documented under `# Panics`")]
    pub async fn submit(&self, prepared: &PreparedProgram) -> Run {
        self.submit_with(prepared, &[])
            .await
            .unwrap_or_else(|e| panic!("submit: {e}; use submit_with to bind inputs"))
    }

    /// Submits a prepared program, binding each external input to an
    /// [`ObjectRef`] — typically another run's output future. The bound
    /// objects are retained for the duration of the run.
    ///
    /// Control messages, island scheduling, buffer allocation and
    /// transfer setup for this program all proceed immediately; only the
    /// kernels consuming a bound input gate (per shard) on the
    /// producer's readiness events.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub async fn submit_with(
        &self,
        prepared: &PreparedProgram,
        bindings: &[(CompId, ObjectRef)],
    ) -> Result<Run, SubmitError> {
        // Elasticity: if any slice this program was lowered against has
        // been remapped since (device healing after a fault, or an
        // explicit remap), the preparation's device snapshot is stale.
        // Re-lower against the current virtual→physical mapping — this
        // is the client half of the paper's "remap without the client's
        // cooperation": the next submit lands on the healed
        // devices with no client-code changes. The re-lowered form is
        // cached on the stale preparation, so the cost is paid once per
        // remap, not once per submit.
        let relowered = if prepared.is_stale() {
            Some(self.refreshed(prepared))
        } else {
            None
        };
        let prepared = relowered.as_deref().unwrap_or(prepared);
        let info = &prepared.info;
        let comps = info.program.computations();
        // Validate the binding set against the program's declared inputs.
        for (i, (comp, objref)) in bindings.iter().enumerate() {
            let node = comps
                .get(comp.index())
                .ok_or(SubmitError::UnknownComputation { comp: *comp })?;
            if !node.is_input() {
                return Err(SubmitError::NotAnInput { comp: *comp });
            }
            if bindings[..i].iter().any(|(c, _)| c == comp) {
                return Err(SubmitError::DuplicateBinding { comp: *comp });
            }
            let expected = node.shards();
            if objref.shards() != expected {
                return Err(SubmitError::ShardMismatch {
                    comp: *comp,
                    expected,
                    got: objref.shards(),
                });
            }
        }
        for comp in info.program.inputs() {
            if !bindings.iter().any(|(c, _)| *c == comp) {
                return Err(SubmitError::UnboundInput { comp });
            }
        }

        // Client-side work: Python call, tracing-cache lookup,
        // serialization of the submission.
        let n_comps = comps.len() as u64;
        self.core
            .handle
            .sleep(SUBMIT_OVERHEAD + SUBMIT_PER_COMP * n_comps)
            .await;

        // Fail fast if the run cannot execute: a bound input whose
        // producer already failed, or dead hardware anywhere in the
        // run's footprint. The run is never launched; its output refs
        // are minted already carrying the error, so consumers observe
        // `Err(ObjectError::ProducerFailed)` instead of a hang.
        let hosts = self.involved_hosts(prepared);
        if let Some(reason) = self.submission_blocked(prepared, bindings, &hosts) {
            let run = self.core.plaque.reserve_run_id();
            let refs = self.mint_output_refs(prepared, run);
            for (_, r) in &refs {
                self.core.store.fail_object(r.id(), reason);
            }
            let failed = pathways_sim::sync::Event::new();
            failed.set();
            return Ok(Run {
                run,
                run_handle: None,
                failed,
                refs,
            });
        }

        // Install the dataflow without Start fan-out: the scheduler's
        // grant messages carry the start signal to every participating
        // host (§4.5's single subgraph message). Input placeholders and
        // the Result node — all local to this client — are started here.
        // A completed run deregisters its footprint itself.
        let failures = self.core.failures.clone();
        let run_handle = self
            .core
            .plaque
            .launch_unstarted(&prepared.graph, move |run| failures.complete_run(run));
        let run = run_handle.id();
        let failed = pathways_sim::sync::Event::new();
        self.core
            .failures
            .register_run(run, self.footprint(prepared, run, failed.clone(), hosts));

        // Mint the output futures: declare each sink's object (with its
        // per-shard readiness events) before anything executes.
        let refs = self.mint_output_refs(prepared, run);

        // Lineage (tiered store only): record each sink's
        // producing program and exact input bindings so a later hardware
        // loss can recompute it by re-submission. The record's ObjectRef
        // clones retain the inputs for as long as the outputs live.
        if self.core.store.lineage_enabled() {
            let record = Arc::new(crate::storage::LineageRecord {
                client: self.clone(),
                program: info.program.clone(),
                bindings: bindings.to_vec(),
            });
            for (_, r) in &refs {
                self.core.store.set_lineage(r.id(), Arc::clone(&record));
            }
        }

        // Bind the inputs, then start their shards (and the Result node)
        // locally.
        for (comp, objref) in bindings {
            let shards = info.shards[comp.index()];
            self.core.bindings.lock().insert(
                (run, *comp),
                Arc::new(InputBinding::new(objref.clone(), shards)),
            );
        }
        let result_node = pathways_plaque::NodeId(comps.len() as u32);
        self.core.plaque.start_local(self.host, run, result_node, 0);
        for comp in info.program.inputs() {
            for shard in 0..info.shards[comp.index()] {
                self.core.plaque.start_local(
                    self.host,
                    run,
                    pathways_plaque::NodeId(comp.0),
                    shard,
                );
            }
        }

        for (island, comps) in &prepared.submits {
            let sched_host = self.core.sched_hosts[island];
            // Occupancy estimate for *this island's* computations only —
            // other islands' work runs in parallel on their own devices.
            let island_cost: SimDuration = comps
                .iter()
                .map(|c| {
                    let coll = c.collective.map_or(SimDuration::ZERO, |(_, _, d)| d);
                    (c.compute + coll) * c.participants as u64
                })
                .sum();
            let msg = SubmitMsg {
                client: self.id,
                label: self.label.clone(),
                run,
                est_cost: island_cost,
                comps: comps.clone(),
            };
            let bytes = msg.wire_bytes();
            self.core
                .sched_router
                .send(self.host, sched_host, msg, bytes);
        }

        Ok(Run {
            run,
            run_handle: Some(run_handle),
            failed,
            refs,
        })
    }

    /// The cached re-lowering of a stale preparation, minted on first
    /// use and re-minted only if a further remap staled the cache too.
    fn refreshed(&self, prepared: &PreparedProgram) -> Arc<PreparedProgram> {
        let mut cache = prepared.relowered.lock();
        if let Some(fresh) = cache.as_ref() {
            if !fresh.is_stale() {
                return Arc::clone(fresh);
            }
        }
        let fresh = Arc::new(self.prepare(&prepared.info.program));
        *cache = Some(Arc::clone(&fresh));
        fresh
    }

    /// Declares each sink's object in the store and mints its
    /// [`ObjectRef`] (shared by the normal and fail-fast paths).
    #[expect(clippy::expect_used, reason = "build() validated sinks are kernels")]
    fn mint_output_refs(&self, prepared: &PreparedProgram, run: RunId) -> Vec<(CompId, ObjectRef)> {
        let info = &prepared.info;
        info.program
            .sinks()
            .into_iter()
            .map(|comp| {
                let object = ObjectId { run, comp };
                let shards = info.shards[comp.index()];
                let events = self.core.store.declare(object, self.id, shards);
                let bytes = info.program.computations()[comp.index()]
                    .fn_spec()
                    .expect("sinks are kernels")
                    .output_bytes_per_shard;
                let objref = ObjectRef::new(
                    object,
                    bytes,
                    info.devices[comp.index()].clone(),
                    events,
                    self.core.store.clone(),
                );
                (comp, objref)
            })
            .collect()
    }

    /// Every host a run of `prepared` involves — shard hosts, this
    /// client's host, and the scheduler hosts of the submitted islands —
    /// sorted and deduped. One definition shared by the fail-fast check
    /// and the fault injector's blast-radius footprint so the two can
    /// never disagree.
    fn involved_hosts(&self, prepared: &PreparedProgram) -> Vec<HostId> {
        let mut hosts: Vec<HostId> = prepared.info.hosts.iter().flatten().copied().collect();
        hosts.push(self.host);
        for island in prepared.submits.keys() {
            hosts.push(self.core.sched_hosts[island]);
        }
        hosts.sort();
        hosts.dedup();
        hosts
    }

    /// The run's failure footprint: everything the fault injector needs
    /// to decide whether a later fault dooms this run. `hosts` is
    /// [`Client::involved_hosts`].
    fn footprint(
        &self,
        prepared: &PreparedProgram,
        run: RunId,
        failed: pathways_sim::sync::Event,
        hosts: Vec<HostId>,
    ) -> RunFootprint {
        let info = &prepared.info;
        let mut devices: Vec<pathways_net::DeviceId> =
            info.devices.iter().flatten().copied().collect();
        devices.sort();
        devices.dedup();
        let islands: Vec<pathways_net::IslandId> = prepared.submits.keys().copied().collect();
        let sinks: Vec<ObjectId> = info
            .program
            .sinks()
            .into_iter()
            .map(|comp| ObjectId { run, comp })
            .collect();
        RunFootprint {
            client: self.id,
            client_host: self.host,
            devices,
            hosts,
            islands,
            sinks,
            failed,
        }
    }

    /// Checks a submission against the failure registry; `Some(reason)`
    /// if it cannot execute. Checked *before* launch so doomed runs
    /// fail fast with a typed error instead of hanging on control
    /// messages that would be dropped by dead NICs. `hosts` is
    /// [`Client::involved_hosts`].
    fn submission_blocked(
        &self,
        prepared: &PreparedProgram,
        bindings: &[(CompId, ObjectRef)],
        hosts: &[HostId],
    ) -> Option<FailureReason> {
        // A bound input whose producer already failed poisons this run.
        for (_, objref) in bindings {
            if objref.error().is_some() {
                return Some(FailureReason::Upstream(objref.id()));
            }
        }
        // Dead hardware anywhere in the footprint; any severed link
        // between two involved hosts partitions the run's control or
        // data plane (grants, plaque signal tuples).
        self.core.failures.first_dead(
            prepared.info.devices.iter().flatten().copied(),
            prepared.submits.keys().copied(),
            hosts,
        )
    }

    /// Runs a prepared program to completion, returning output handles.
    ///
    /// Must be called from inside a simulation task.
    pub async fn run(&self, prepared: &PreparedProgram) -> RunResult {
        self.submit(prepared).await.finish().await
    }
}
