//! Builders that lower workloads onto Pathways programs, and the
//! disciplines that drive them.
//!
//! Three program shapes cover every §5.3 experiment:
//!
//! * [`spmd_program`] — one sharded computation over all devices of a
//!   slice (Tables 1 and 2's "Model-parallel (SPMD)" rows);
//! * [`gpipe_program`] — a GPipe schedule with `S` stages and `M`
//!   micro-batches, stage `s` on its own slice (Table 2's pipelining
//!   rows, Figure 10);
//! * [`two_island_data_parallel_program`] — gradient exchange between
//!   islands over the DCN (§5.3's 64B/136B runs, Figure 12).
//!
//! Two more cover the §5.1–§5.2 micro-benchmarks: [`gang_program`], one
//! gang kernel, and [`chain_program`], a linear chain of them.
//!
//! A client submits programs in one of three disciplines:
//! [`run_serial`] awaits each run before the next, [`spawn_windowed`]
//! keeps `k` runs outstanding, and [`measure_tokens_per_sec_chained`]
//! chains steps through `ObjectRef` futures without awaiting any.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pathways_core::{
    Client, CompId, FnSpec, InputSpec, ObjectRef, PreparedProgram, Program, ProgramError, Run,
    VirtualSlice,
};
use pathways_sim::sync::Semaphore;
use pathways_sim::SimDuration;

use crate::calibration::Calibration;
use crate::transformer::TransformerConfig;

/// A training workload: model + calibration + global batch.
#[derive(Debug, Clone)]
pub struct TrainSetup {
    /// The model.
    pub model: TransformerConfig,
    /// Hardware calibration.
    pub calib: Calibration,
    /// Tokens per training step (global batch x sequence length).
    pub global_batch_tokens: u64,
}

impl TrainSetup {
    /// Creates a setup with the default calibration.
    pub fn new(model: TransformerConfig, global_batch_tokens: u64) -> Self {
        TrainSetup {
            model,
            calib: Calibration::default(),
            global_batch_tokens,
        }
    }
}

/// Builds a single-computation SPMD training-step program on `slice`.
#[expect(clippy::expect_used, reason = "static shape, validated by build()")]
pub fn spmd_program(client: &Client, slice: &VirtualSlice, setup: &TrainSetup) -> Program {
    let (step, _) = step_kernel(setup, setup.global_batch_tokens, slice.len() as u32, "step");
    let mut b = client.trace(format!("spmd-{}", setup.model.name));
    b.computation(step.with_output_bytes(64), slice);
    b.build().expect("single-computation program is valid")
}

/// A training step of `tokens` over `cores` devices, named
/// `{model}-{what}`, and its compute time. Its collective is the
/// intra-step parameter/gradient exchange: following GShard (§5.3
/// footnote) it is sized to the per-device parameter shard, not to the
/// batch, and takes the calibrated non-overlapped fraction of compute.
fn step_kernel(setup: &TrainSetup, tokens: u64, cores: u32, what: &str) -> (FnSpec, SimDuration) {
    let compute = setup.calib.step_compute_time(&setup.model, tokens, cores);
    let spec = FnSpec::compute_only(format!("{}-{what}", setup.model.name), compute)
        .with_allreduce(setup.model.param_bytes_bf16() / cores as u64)
        .with_collective_time(compute.mul_f64(setup.calib.spmd_comm_fraction));
    (spec, compute)
}

/// Builds a GPipe training-step program: `stages.len()` pipeline stages,
/// `microbatches` micro-batches, forward then backward per micro-batch,
/// and one apply-gradients computation per stage.
///
/// # Panics
///
/// Panics if `stages` is empty or `microbatches` is zero.
#[expect(clippy::expect_used, reason = "static shape, validated by build()")]
pub fn gpipe_program(
    client: &Client,
    stages: &[VirtualSlice],
    microbatches: u32,
    setup: &TrainSetup,
) -> Program {
    assert!(!stages.is_empty(), "pipeline needs at least one stage");
    assert!(microbatches > 0, "pipeline needs at least one micro-batch");
    let s_count = stages.len() as u32;
    let m_count = microbatches;
    let ub_tokens = setup.global_batch_tokens / m_count as u64;

    // Forward is 1/3 of training FLOPs, backward 2/3; each stage holds
    // 1/S of the layers.
    let step_all = setup
        .calib
        .step_compute_time(&setup.model, ub_tokens, stages[0].len() as u32);
    let stage_total = SimDuration::from_nanos(step_all.as_nanos() / s_count as u64);
    let fwd_t = SimDuration::from_nanos(stage_total.as_nanos() / 3);
    let bwd_t = stage_total - fwd_t;
    // Activations are sharded across the stage's devices: each shard
    // holds and forwards its slice of the micro-batch boundary tensor.
    let act_bytes = ub_tokens * setup.model.activation_bytes_per_token() / stages[0].len() as u64;

    let mut b = client.trace(format!(
        "gpipe-{}-S{}-M{}",
        setup.model.name, s_count, m_count
    ));
    let mut fwd = vec![Vec::with_capacity(m_count as usize); s_count as usize];
    let mut bwd = vec![Vec::with_capacity(m_count as usize); s_count as usize];
    for s in 0..s_count as usize {
        for m in 0..m_count {
            fwd[s].push(b.computation(
                FnSpec::compute_only(format!("fwd{s}m{m}"), fwd_t).with_output_bytes(act_bytes),
                &stages[s],
            ));
        }
    }
    for s in (0..s_count as usize).rev() {
        for m in 0..m_count {
            bwd[s].push(b.computation(
                FnSpec::compute_only(format!("bwd{s}m{m}"), bwd_t).with_output_bytes(act_bytes),
                &stages[s],
            ));
        }
    }
    // Dataflow: activations forward, gradients backward.
    for s in 0..s_count as usize {
        for m in 0..m_count as usize {
            if s + 1 < s_count as usize {
                b.reshard_edge(fwd[s][m], fwd[s + 1][m], act_bytes);
            } else {
                b.reshard_edge(fwd[s][m], bwd[s][m], act_bytes);
            }
            if s > 0 {
                b.reshard_edge(bwd[s][m], bwd[s - 1][m], act_bytes);
            }
        }
    }
    // Apply-gradients per stage once all its micro-batches are done.
    let apply_t = SimDuration::from_nanos(stage_total.as_nanos() / 20);
    for s in 0..s_count as usize {
        let apply = b.computation(
            FnSpec::compute_only(format!("apply{s}"), apply_t).with_output_bytes(64),
            &stages[s],
        );
        for &bwd_sm in bwd[s].iter().take(m_count as usize) {
            b.edge(bwd_sm, apply, 64);
        }
    }
    b.build().expect("gpipe program is a DAG")
}

/// Builds a two-island data-parallel step (§5.3): each island computes
/// gradients over half the batch, exchanges them over the DCN, and
/// applies.
#[expect(clippy::expect_used, reason = "static shape, validated by build()")]
pub fn two_island_data_parallel_program(
    client: &Client,
    islands: &[VirtualSlice; 2],
    setup: &TrainSetup,
) -> Program {
    let cores = islands[0].len() as u32;
    assert_eq!(
        islands[0].len(),
        islands[1].len(),
        "islands must be symmetric"
    );
    // Each island processes half the global batch.
    let (grad, compute) = step_kernel(setup, setup.global_batch_tokens / 2, cores, "grad");
    // Cross-island exchange: the fast ICI within-island reduction
    // happened in the grad computation; each island then ships its
    // reduced gradients to the other over DCN.
    let exchange_total = setup.calib.grad_exchange_bytes(&setup.model);
    let exchange_per_shard = exchange_total / islands[0].len() as u64;

    let mut b = client.trace(format!("2island-{}", setup.model.name));
    let mut grads = Vec::new();
    let mut applies = Vec::new();
    for island in islands {
        grads.push(b.computation(grad.clone().with_output_bytes(exchange_per_shard), island));
    }
    let apply_t = SimDuration::from_nanos(compute.as_nanos() / 20);
    for island in islands {
        applies.push(b.computation(
            FnSpec::compute_only("apply", apply_t).with_output_bytes(64),
            island,
        ));
    }
    // Each apply waits for the local gradients (free) and the remote
    // island's gradients (DCN transfer).
    b.edge(grads[0], applies[0], 0);
    b.edge(grads[1], applies[1], 0);
    b.edge(grads[0], applies[1], exchange_per_shard);
    b.edge(grads[1], applies[0], exchange_per_shard);
    b.build().expect("data-parallel program is a DAG")
}

/// A linear chain of gang kernels named `name`: kernel `i` runs its
/// [`FnSpec`] over every device of its slice and feeds kernel `i + 1`
/// over an `edge_bytes` edge — §5.1's -C mode and Figure 7's pipeline.
/// Returns the prepared program and its last kernel (the sink).
pub fn chain_program<'a>(
    client: &Client,
    name: impl Into<String>,
    edge_bytes: u64,
    kernels: impl IntoIterator<Item = (FnSpec, &'a VirtualSlice)>,
) -> Result<(PreparedProgram, CompId), ProgramError> {
    let mut b = client.trace(name);
    let mut last = None;
    for (spec, slice) in kernels {
        let k = b.computation(spec, slice);
        if let Some(prev) = last {
            b.edge(prev, k, edge_bytes);
        }
        last = Some(k);
    }
    let sink = last.ok_or(ProgramError::Empty)?;
    Ok((client.prepare(&b.build()?), sink))
}

/// One gang kernel named `name`: `spec` over every device of `slice`
/// (a chain of one). Returns the prepared program and the kernel.
pub fn gang_program(
    client: &Client,
    name: impl Into<String>,
    spec: FnSpec,
    slice: &VirtualSlice,
) -> Result<(PreparedProgram, CompId), ProgramError> {
    chain_program(client, name, 0, [(spec, slice)])
}

/// A training loop expressed as chained programs: an `init` program
/// mints the weight objects once, then every `step` consumes the
/// previous step's weights through external inputs and produces the
/// next — the whole loop is dispatched through `ObjectRef` futures
/// without awaiting intermediate steps.
#[derive(Debug, Clone)]
pub struct StepChain {
    /// Produces the initial weight object(s).
    pub init: Program,
    /// Sinks of `init`, aligned with `step_inputs`.
    pub init_outputs: Vec<CompId>,
    /// The repeated training step.
    pub step: Program,
    /// External inputs of `step`, bound to the previous outputs.
    pub step_inputs: Vec<CompId>,
    /// Sinks of `step`, aligned with `step_inputs`.
    pub step_outputs: Vec<CompId>,
}

/// Builds the chained-futures form of [`spmd_program`]: the step takes
/// the previous step's weights as an external input and emits the
/// updated weights as its output object, so successive steps chain
/// through the object store instead of through the client.
#[expect(clippy::expect_used, reason = "binds objects made just before")]
pub fn spmd_chained(client: &Client, slice: &VirtualSlice, setup: &TrainSetup) -> StepChain {
    let cores = slice.len() as u32;
    let (kernel, _) = step_kernel(setup, setup.global_batch_tokens, cores, "step");
    let weight_shard = setup.model.param_bytes_bf16() / cores as u64;

    let mut b = client.trace(format!("spmd-init-{}", setup.model.name));
    let w0 = b.computation(
        FnSpec::compute_only("init-weights", SimDuration::from_micros(1))
            .with_output_bytes(weight_shard),
        slice,
    );
    let init = b.build().expect("init program is valid");

    let mut b = client.trace(format!("spmd-chained-{}", setup.model.name));
    let w_in = b.input(InputSpec::new("weights", cores));
    let step_k = b.computation(kernel.with_output_bytes(weight_shard), slice);
    // Weights stay device-resident: the handoff is shard-local.
    b.edge(w_in, step_k, 0);
    let step = b.build().expect("chained step is valid");
    StepChain {
        init,
        init_outputs: vec![w0],
        step,
        step_inputs: vec![w_in],
        step_outputs: vec![step_k],
    }
}

/// Builds the chained-futures form of
/// [`two_island_data_parallel_program`]: each island's grad computation
/// consumes that island's previous weights (external input), gradients
/// cross the DCN, and the two applies emit the next weights.
#[expect(clippy::expect_used, reason = "binds objects made just before")]
pub fn two_island_chained(
    client: &Client,
    islands: &[VirtualSlice; 2],
    setup: &TrainSetup,
) -> StepChain {
    let cores = islands[0].len() as u32;
    assert_eq!(
        islands[0].len(),
        islands[1].len(),
        "islands must be symmetric"
    );
    let (grad, compute) = step_kernel(setup, setup.global_batch_tokens / 2, cores, "grad");
    let exchange_total = setup.calib.grad_exchange_bytes(&setup.model);
    let exchange_per_shard = exchange_total / islands[0].len() as u64;
    let weight_shard = setup.model.param_bytes_bf16() / (2 * cores as u64);

    let mut b = client.trace(format!("2island-init-{}", setup.model.name));
    let init_outputs: Vec<CompId> = islands
        .iter()
        .map(|island| {
            b.computation(
                FnSpec::compute_only("init-weights", SimDuration::from_micros(1))
                    .with_output_bytes(weight_shard),
                island,
            )
        })
        .collect();
    let init = b.build().expect("init program is valid");

    let mut b = client.trace(format!("2island-chained-{}", setup.model.name));
    let step_inputs: Vec<CompId> = (0..2)
        .map(|i| b.input(InputSpec::new(format!("weights{i}"), cores)))
        .collect();
    let mut grads = Vec::new();
    for (i, island) in islands.iter().enumerate() {
        let k = b.computation(grad.clone().with_output_bytes(exchange_per_shard), island);
        b.edge(step_inputs[i], k, 0);
        grads.push(k);
    }
    let apply_t = SimDuration::from_nanos(compute.as_nanos() / 20);
    let step_outputs: Vec<CompId> = islands
        .iter()
        .map(|island| {
            b.computation(
                FnSpec::compute_only("apply", apply_t).with_output_bytes(weight_shard),
                island,
            )
        })
        .collect();
    b.edge(grads[0], step_outputs[0], 0);
    b.edge(grads[1], step_outputs[1], 0);
    b.edge(grads[0], step_outputs[1], exchange_per_shard);
    b.edge(grads[1], step_outputs[0], exchange_per_shard);
    let step = b.build().expect("chained data-parallel step is a DAG");
    StepChain {
        init,
        init_outputs,
        step,
        step_inputs,
        step_outputs,
    }
}

/// The serial discipline: runs `prepared` `warmup` times untimed, then
/// `runs` times, each run awaited before the next is submitted, and
/// returns the virtual time the timed runs took. §5.1's -O, -C and -F
/// modes and §5.3's training steps are all this loop over different
/// programs.
pub async fn run_serial(
    client: &Client,
    prepared: &PreparedProgram,
    warmup: u32,
    runs: u64,
) -> SimDuration {
    for _ in 0..warmup {
        client.run(prepared).await;
    }
    let start = client.handle().now();
    for _ in 0..runs {
        client.run(prepared).await;
    }
    client.handle().now().duration_since(start)
}

/// The windowed discipline: spawns a client stream that keeps
/// `outstanding` runs of `prepared` in flight for as long as the
/// simulation runs, counting each finished run in `completed`. The
/// stream's submissions are serialized (one single-threaded client
/// process) while completions are awaited in tasks of their own; stop
/// it by ending the simulation (`Sim::run_until_time`). §5.2's
/// concurrent clients (Figures 8, 9 and 11) are this loop.
pub fn spawn_windowed(
    client: Client,
    prepared: PreparedProgram,
    outstanding: u32,
    completed: Arc<AtomicU64>,
) {
    let window = Semaphore::new(u64::from(outstanding));
    let h = client.handle().clone();
    let label = client.label().to_string();
    h.clone().spawn(format!("stream-{label}"), async move {
        let mut seq = 0u64;
        loop {
            let permit = window.acquire(1).await;
            let pending = client.submit(&prepared).await;
            let completed = Arc::clone(&completed);
            h.spawn(format!("run-{label}-{seq}"), async move {
                let _window_slot = permit;
                pending.finish().await;
                completed.fetch_add(1, Ordering::Relaxed);
            });
            seq += 1;
        }
    });
}

/// Runs `steps` chained training steps (after an awaited init/warm-up)
/// with **no intermediate awaits**: every step is submitted with the
/// previous step's output futures bound to its inputs, so the
/// coordinator dispatches the whole loop while early steps are still on
/// the devices. Returns tokens/second of virtual time.
///
/// `init` and `step` must be preparations of [`StepChain::init`] and
/// [`StepChain::step`].
#[expect(clippy::expect_used, reason = "binds objects made just before")]
pub async fn measure_tokens_per_sec_chained(
    client: &Client,
    init: &PreparedProgram,
    step: &PreparedProgram,
    chain: &StepChain,
    tokens_per_step: u64,
    steps: u32,
) -> f64 {
    // Init doubles as the warm-up barrier.
    let init_result = client.run(init).await;
    let mut prev: Vec<ObjectRef> = chain
        .init_outputs
        .iter()
        .map(|c| init_result.object_ref(*c).expect("init sink"))
        .collect();
    let handle = client.handle().clone();
    let start = handle.now();
    let mut runs: Vec<Run> = Vec::with_capacity(steps as usize);
    for _ in 0..steps {
        let bindings: Vec<(CompId, ObjectRef)> = chain
            .step_inputs
            .iter()
            .copied()
            .zip(prev.drain(..))
            .collect();
        let run = client
            .submit_with(step, &bindings)
            .await
            .expect("chain bindings match the step's inputs");
        prev = chain
            .step_outputs
            .iter()
            .map(|c| run.object_ref(*c).expect("step sink"))
            .collect();
        runs.push(run);
    }
    drop(prev);
    drop(init_result);
    for run in runs {
        run.finish().await;
    }
    let elapsed = handle.now().duration_since(start);
    (tokens_per_step * steps as u64) as f64 / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathways_core::{PathwaysConfig, PathwaysRuntime, SliceRequest};
    use pathways_net::{ClusterSpec, HostId, IslandId, NetworkParams};
    use pathways_sim::Sim;

    fn small_setup() -> TrainSetup {
        let mut s = TrainSetup::new(TransformerConfig::decoder_3b(), 64 * 1024);
        // Keep simulated steps short for tests.
        s.calib.mfu = 0.5;
        s
    }

    #[test]
    fn spmd_program_has_one_computation() {
        let mut sim = Sim::new(0);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(2),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let slice = client.virtual_slice(SliceRequest::devices(16)).unwrap();
        let p = spmd_program(&client, &slice, &small_setup());
        assert_eq!(p.computations().len(), 1);
        let prepared = client.prepare(&p);
        let job = sim.spawn(
            "c",
            async move { client.run(&prepared).await.objects().len() },
        );
        sim.run_to_quiescence();
        assert_eq!(job.try_take().unwrap(), 1);
    }

    #[test]
    fn gpipe_program_shape() {
        let mut sim = Sim::new(0);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(4),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let stages: Vec<_> = (0..4)
            .map(|_| client.virtual_slice(SliceRequest::devices(8)).unwrap())
            .collect();
        let p = gpipe_program(&client, &stages, 4, &small_setup());
        // 4 stages x 4 ubatches x (fwd + bwd) + 4 applies.
        assert_eq!(p.computations().len(), 4 * 4 * 2 + 4);
        // It is a DAG with a valid topological order.
        assert_eq!(p.topo_order().len(), p.computations().len());
        let prepared = client.prepare(&p);
        let job = sim.spawn(
            "c",
            async move { client.run(&prepared).await.objects().len() },
        );
        let out = sim.run();
        assert!(out.is_quiescent(), "{out:?}");
        // Sinks are the 4 apply computations.
        assert_eq!(job.try_take().unwrap(), 4);
    }

    #[test]
    fn gpipe_throughput_improves_with_more_microbatches() {
        // More micro-batches shrink the pipeline bubble (S+M-1)/M.
        let measure = |m: u32| {
            let mut sim = Sim::new(0);
            let rt = PathwaysRuntime::new(
                &sim,
                ClusterSpec::config_b(4),
                NetworkParams::tpu_cluster(),
                PathwaysConfig::default(),
            );
            let client = rt.client(HostId(0));
            let stages: Vec<_> = (0..4)
                .map(|_| client.virtual_slice(SliceRequest::devices(8)).unwrap())
                .collect();
            let setup = small_setup();
            let p = gpipe_program(&client, &stages, m, &setup);
            let prepared = client.prepare(&p);
            let job = sim.spawn(
                "c",
                async move { run_serial(&client, &prepared, 1, 2).await },
            );
            sim.run_to_quiescence();
            (setup.global_batch_tokens * 2) as f64 / job.try_take().unwrap().as_secs_f64()
        };
        let m2 = measure(2);
        let m8 = measure(8);
        assert!(m8 > m2, "M=8 ({m8} tok/s) should beat M=2 ({m2} tok/s)");
    }

    #[test]
    fn windowed_stream_keeps_devices_busy() {
        let mut sim = Sim::new(0);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(1),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
        let spec = FnSpec::compute_only("step", SimDuration::from_micros(100)).with_allreduce(4);
        let (prepared, _) = gang_program(&client, "s", spec, &slice).unwrap();
        let counter = Arc::new(AtomicU64::new(0));
        spawn_windowed(client, prepared, 8, Arc::clone(&counter));
        sim.run_until_time(pathways_sim::SimTime::ZERO + SimDuration::from_millis(20));
        // ~20ms / ~100us per program, minus ramp-up: well over 100.
        let done = counter.load(Ordering::Relaxed);
        assert!(done > 100, "only {done} programs completed");
    }

    #[test]
    fn chain_program_links_its_kernels_in_order() {
        let mut sim = Sim::new(0);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(1),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let slice = client.virtual_slice(SliceRequest::devices(8)).unwrap();
        let step = |i| FnSpec::compute_only(format!("s{i}"), SimDuration::from_micros(10));
        let (prepared, sink) =
            chain_program(&client, "c", 8, (0..3).map(|i| (step(i), &slice))).unwrap();
        assert_eq!(sink, CompId(2));
        assert!(matches!(
            chain_program(&client, "empty", 8, []),
            Err(ProgramError::Empty)
        ));
        let job = sim.spawn(
            "c",
            async move { run_serial(&client, &prepared, 0, 2).await },
        );
        sim.run_to_quiescence();
        // Two serial runs of three dependent 10us kernels.
        assert!(job.try_take().unwrap() >= SimDuration::from_micros(60));
    }

    #[test]
    fn chained_spmd_steps_pipeline_without_intermediate_awaits() {
        let mut sim = Sim::new(0);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(2),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let slice = client.virtual_slice(SliceRequest::devices(16)).unwrap();
        let setup = small_setup();
        let chain = spmd_chained(&client, &slice, &setup);
        let init = client.prepare(&chain.init);
        let step = client.prepare(&chain.step);
        let tokens = setup.global_batch_tokens;
        let core = std::sync::Arc::clone(rt.core());
        let job = sim.spawn("c", async move {
            measure_tokens_per_sec_chained(&client, &init, &step, &chain, tokens, 3).await
        });
        let out = sim.run();
        assert!(out.is_quiescent(), "{out:?}");
        assert!(job.try_take().unwrap() > 0.0);
        assert!(core.store.is_empty(), "weights chain leaked objects");
    }

    #[test]
    fn chained_two_island_steps_run_over_dcn() {
        let mut sim = Sim::new(0);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::islands_of(2, 4, 8),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let s0 = client
            .virtual_slice(SliceRequest::devices(32).in_island(IslandId(0)))
            .unwrap();
        let s1 = client
            .virtual_slice(SliceRequest::devices(32).in_island(IslandId(1)))
            .unwrap();
        let mut setup = small_setup();
        setup.calib.grad_bytes_per_param = 0.01;
        let chain = two_island_chained(&client, &[s0, s1], &setup);
        assert_eq!(chain.step_inputs.len(), 2);
        assert_eq!(chain.step_outputs.len(), 2);
        let init = client.prepare(&chain.init);
        let step = client.prepare(&chain.step);
        let tokens = setup.global_batch_tokens;
        let core = std::sync::Arc::clone(rt.core());
        let job = sim.spawn("c", async move {
            measure_tokens_per_sec_chained(&client, &init, &step, &chain, tokens, 2).await
        });
        let out = sim.run();
        assert!(out.is_quiescent(), "{out:?}");
        assert!(job.try_take().unwrap() > 0.0);
        assert!(core.store.is_empty());
    }

    #[test]
    fn two_island_program_runs_over_dcn() {
        let mut sim = Sim::new(0);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::islands_of(2, 4, 8),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let s0 = client
            .virtual_slice(SliceRequest::devices(32).in_island(IslandId(0)))
            .unwrap();
        let s1 = client
            .virtual_slice(SliceRequest::devices(32).in_island(IslandId(1)))
            .unwrap();
        let mut setup = small_setup();
        // Keep the exchange small enough for a quick test.
        setup.calib.grad_bytes_per_param = 0.01;
        let p = two_island_data_parallel_program(&client, &[s0, s1], &setup);
        assert_eq!(p.computations().len(), 4);
        let prepared = client.prepare(&p);
        let job = sim.spawn(
            "c",
            async move { client.run(&prepared).await.objects().len() },
        );
        let out = sim.run();
        assert!(out.is_quiescent(), "{out:?}");
        assert_eq!(job.try_take().unwrap(), 2);
    }
}
