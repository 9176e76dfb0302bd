//! Layer `core.client`: runtime assembly, the program tracer, lowering
//! (`prepare`) and submission, plus the `ObjectRef` futures it returns.

pub use pathways::core::{
    Client, CompId, ObjectRef, PathwaysConfig, PathwaysRuntime, PreparedProgram, Program, Run,
    RunResult, VirtualSlice,
};
use pathways::core::{FnSpec, InputSpec};
use std::sync::Arc;

use pathways::device::DeviceHandle;
use pathways::net::{ClusterSpec, HostId, NetworkParams, Topology};
use pathways::sim::{Sim, SimDuration};

use super::sim::{enter, leave, now_ns};
use super::CLIENT;
pub use crate::span::Prog;
use crate::span::{self, Parent};

/// One simulation and the runtime assembled on it.
pub struct Env {
    pub sim: Sim,
    pub rt: PathwaysRuntime,
}

/// The defaults every workload starts from.
pub fn config() -> PathwaysConfig {
    PathwaysConfig::default()
}

pub fn build_env(seed: u64, spec: ClusterSpec, net: NetworkParams, cfg: PathwaysConfig) -> Env {
    let sim = super::sim::new_sim(seed);
    let rt = span::sync("PathwaysRuntime::new", CLIENT, || {
        PathwaysRuntime::new(&sim, spec, net, cfg)
    });
    Env { sim, rt }
}

/// The runtime alone, on a backend-erased executor (the threaded
/// replay's path; everything else goes through [`build_env`]).
pub fn build_runtime_on(
    exec: &pathways::sim::Executor,
    spec: ClusterSpec,
    net: NetworkParams,
    cfg: PathwaysConfig,
) -> PathwaysRuntime {
    PathwaysRuntime::new(exec, spec, net, cfg)
}

pub fn client(env: &Env, host: HostId) -> Client {
    client_of(&env.rt, host)
}

pub fn client_of(rt: &PathwaysRuntime, host: HostId) -> Client {
    rt.client(host)
}

pub fn topology(rt: &PathwaysRuntime) -> Arc<Topology> {
    rt.topology()
}

/// Every device of the runtime.
pub fn devices(env: &Env) -> impl Iterator<Item = &DeviceHandle> {
    env.rt.core().devices.values()
}

/// Opens the root span of program `id` (virtual-time domain: it covers
/// every await made for the program).
pub fn begin_program(client: &Client, id: u64) -> Prog {
    let h = client.handle();
    let root = span::open("program", "driver", Parent::Enclosing, id, 1, true, || {
        now_ns(h)
    });
    Prog { id, root }
}

pub fn end_program(client: &Client, prog: Prog) {
    let h = client.handle();
    leave(h, prog.root);
}

/// What one kernel of a traced program looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSpec {
    pub compute_ns: u64,
    /// Per-shard all-reduce payload, if the kernel gangs.
    pub allreduce_bytes: Option<u64>,
    pub output_bytes: u64,
}

impl KernelSpec {
    pub fn compute(compute_ns: u64) -> Self {
        KernelSpec {
            compute_ns,
            allreduce_bytes: None,
            output_bytes: 0,
        }
    }

    fn fn_spec(&self, name: String) -> FnSpec {
        let mut f = FnSpec::compute_only(name, SimDuration::from_nanos(self.compute_ns))
            .with_output_bytes(self.output_bytes);
        if let Some(bytes) = self.allreduce_bytes {
            f = f.with_allreduce(bytes);
        }
        f
    }
}

/// Traces and builds a chain of kernels on `slice`, consecutive
/// kernels joined by a one-to-one edge of `edge_bytes`. The last kernel
/// is the program's only sink.
pub fn trace_chain(
    client: &Client,
    name: &str,
    slice: &VirtualSlice,
    kernels: &[KernelSpec],
    edge_bytes: u64,
    prog: Prog,
) -> (Program, CompId) {
    let h = client.handle();
    let t = enter(h, CLIENT, "trace+build", kernels.len() as u32, false, prog);
    let mut b = client.trace(name);
    let mut prev: Option<CompId> = None;
    for (k, spec) in kernels.iter().enumerate() {
        let c = b.computation(spec.fn_spec(format!("k{k}")), slice);
        if let Some(p) = prev {
            b.edge(p, c, edge_bytes);
        }
        prev = Some(c);
    }
    let program = b.build().expect("a kernel chain is a valid program");
    leave(h, t);
    (program, prev.expect("chain has a kernel"))
}

/// The external inputs of a consumer program.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    /// How many objects the program binds.
    pub count: u32,
    /// Shards of each bound object.
    pub shards: u32,
    /// Bytes each source shard sends over the reshard edge.
    pub edge_bytes: u64,
}

/// Traces and builds a one-kernel program that consumes `inputs`, each
/// resharded into the kernel. Returns the program, the input ids in
/// order, and the sink.
pub fn trace_consumer(
    client: &Client,
    name: &str,
    slice: &VirtualSlice,
    kernel: &KernelSpec,
    inputs: Inputs,
    prog: Prog,
) -> (Program, Vec<CompId>, CompId) {
    let h = client.handle();
    let t = enter(h, CLIENT, "trace+build", 1 + inputs.count, false, prog);
    let mut b = client.trace(name);
    let xs: Vec<CompId> = (0..inputs.count)
        .map(|i| b.input(InputSpec::new(format!("x{i}"), inputs.shards)))
        .collect();
    let sink = b.computation(kernel.fn_spec("consume".to_string()), slice);
    for x in &xs {
        b.reshard_edge(*x, sink, inputs.edge_bytes);
    }
    let program = b.build().expect("a consumer is a valid program");
    leave(h, t);
    (program, xs, sink)
}

/// Lowers `program` against the current virtual→physical mapping.
pub fn prepare(client: &Client, program: &Program, prog: Prog) -> PreparedProgram {
    let h = client.handle();
    let t = enter(
        h,
        CLIENT,
        "prepare",
        program.computations().len() as u32,
        false,
        prog,
    );
    let prepared = client.prepare(program);
    leave(h, t);
    prepared
}

/// Shards the lowered dataflow installs per run (every computation's
/// shards plus the client-side Result node).
pub fn plaque_shards(prepared: &PreparedProgram) -> u64 {
    prepared
        .info()
        .shards
        .iter()
        .map(|s| u64::from(*s))
        .sum::<u64>()
        + 1
}

/// `Client::submit_with` (an empty binding list is `Client::submit`).
pub async fn submit(
    client: &Client,
    prepared: &PreparedProgram,
    bindings: &[(CompId, ObjectRef)],
    prog: Prog,
) -> Result<Run, String> {
    let h = client.handle();
    let t = enter(h, CLIENT, "submit", 1, true, prog);
    let run = client.submit_with(prepared, bindings).await;
    leave(h, t);
    run.map_err(|e| e.to_string())
}

pub async fn finish(client: &Client, run: Run, prog: Prog) -> RunResult {
    let h = client.handle();
    let t = enter(h, CLIENT, "Run::finish", 1, true, prog);
    let result = run.finish().await;
    leave(h, t);
    result
}

/// Awaits every shard of `obj`; true if it resolved `Ok`.
pub async fn ready(client: &Client, obj: &ObjectRef, prog: Prog) -> bool {
    let h = client.handle();
    let t = enter(h, CLIENT, "ObjectRef::ready", 1, true, prog);
    let ok = obj.ready().await.is_ok();
    leave(h, t);
    ok
}

pub fn run_id(run: &Run) -> u64 {
    run.run().0
}

/// The output future of sink `comp`, valid before the run has made any
/// progress.
pub fn output_of(run: &Run, comp: CompId) -> Option<ObjectRef> {
    run.object_ref(comp)
}

/// A clone of the output of sink `comp` of a finished run.
pub fn result_output(result: &RunResult, comp: CompId) -> Option<ObjectRef> {
    result.object_ref(comp)
}

/// True if every output of a finished run is ready and carries no
/// error (a synchronous look; `ready` is the awaiting form).
pub fn resolved_ok(result: &RunResult) -> bool {
    result
        .refs()
        .iter()
        .all(|(_, obj)| obj.is_ready() && obj.error().is_none())
}

/// Outcome of one closed-loop program execution.
pub struct Done {
    /// Virtual ns at the submit call.
    pub submitted_ns: u64,
    /// Virtual ns from the submit call to every sink being ready.
    pub latency_ns: u64,
    /// The run's id (`None` if the submission was refused).
    pub run_id: Option<u64>,
    /// Every sink resolved `Ok`.
    pub ok: bool,
    /// The run's outputs (dropping it releases them); `None` if the
    /// submission itself was refused.
    pub result: Option<RunResult>,
}

/// submit → finish → every sink ready: what a client that waits for its
/// own results does for each program.
pub async fn run_to_ready(
    client: &Client,
    prepared: &PreparedProgram,
    bindings: &[(CompId, ObjectRef)],
    prog: Prog,
) -> Done {
    let h = client.handle();
    let t0 = now_ns(h);
    let run = match submit(client, prepared, bindings, prog).await {
        Ok(run) => run,
        Err(_) => {
            return Done {
                submitted_ns: t0,
                latency_ns: now_ns(h) - t0,
                run_id: None,
                ok: false,
                result: None,
            }
        }
    };
    let run_id = run_id(&run);
    let result = finish(client, run, prog).await;
    let mut ok = true;
    for (_, obj) in result.refs() {
        ok &= ready(client, obj, prog).await;
    }
    Done {
        submitted_ns: t0,
        latency_ns: now_ns(h) - t0,
        run_id: Some(run_id),
        ok,
        result: Some(result),
    }
}
