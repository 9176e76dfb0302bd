//! §5.3 harnesses: real-model training throughput (Tables 1 and 2,
//! Figures 10 and 12).

use pathways_baselines::{StepWorkload, SubmissionMode};
use pathways_core::{Client, PathwaysConfig, Program, SliceRequest, VirtualSlice};
use pathways_models::{
    gpipe_program, run_serial, spmd_program, two_island_data_parallel_program, Calibration,
    TrainSetup, TransformerConfig,
};
use pathways_net::{ClusterSpec, HostId, IslandId};
use pathways_sim::Sim;

use crate::micro::jax_throughput;
use crate::runtime;

/// Tokens/second of `steps` serial training steps of `program` (after
/// one untimed warm-up step), `setup.global_batch_tokens` per step.
fn tokens_per_sec(
    sim: &mut Sim,
    client: Client,
    program: &Program,
    setup: &TrainSetup,
    steps: u32,
) -> f64 {
    let prepared = client.prepare(program);
    let job = sim.spawn("train", async move {
        run_serial(&client, &prepared, 1, u64::from(steps)).await
    });
    sim.run_to_quiescence();
    let elapsed = job.try_take().unwrap();
    (setup.global_batch_tokens * u64::from(steps)) as f64 / elapsed.as_secs_f64()
}

/// Tokens/second of Pathways training `setup` as SPMD over `cores`
/// cores (4 per host, configuration A style).
pub fn pathways_spmd_tokens_per_sec(cores: u32, setup: &TrainSetup, steps: u32) -> f64 {
    let hosts = cores.div_ceil(4);
    let (mut sim, rt) = runtime(
        0,
        ClusterSpec::single_island(hosts, 4),
        PathwaysConfig::default(),
    );
    let client = rt.client(HostId(hosts - 1));
    let slice = client.virtual_slice(SliceRequest::devices(cores)).unwrap();
    let program = spmd_program(&client, &slice, setup);
    tokens_per_sec(&mut sim, client, &program, setup, steps)
}

/// Tokens/second of the JAX multi-controller training the same step: the
/// step kernel's compute time and gradient-exchange collective come from
/// the identical cost model, so any difference is pure system overhead.
pub fn jax_spmd_tokens_per_sec(cores: u32, setup: &TrainSetup, steps: u32) -> f64 {
    let compute = setup
        .calib
        .step_compute_time(&setup.model, setup.global_batch_tokens, cores);
    // Same calibrated non-overlapped collective time as the Pathways
    // SPMD program (identical model code, §5.3), folded into the fused
    // step kernel.
    let comm_time = compute.mul_f64(setup.calib.spmd_comm_fraction);
    let w = StepWorkload {
        compute: compute + comm_time,
        allreduce_bytes: 4,
        chain_len: 1,
    };
    let t = jax_throughput(
        cores.div_ceil(4),
        4,
        SubmissionMode::OpByOp,
        w,
        steps as u64,
    );
    setup.global_batch_tokens as f64 * steps as f64 / t.elapsed.as_secs_f64()
}

/// Tokens/second of a GPipe pipeline with `s_count` stages and
/// `microbatches` micro-batches over `cores` cores in one island.
pub fn pathways_pipeline_tokens_per_sec(
    cores: u32,
    s_count: u32,
    microbatches: u32,
    setup: &TrainSetup,
    steps: u32,
) -> f64 {
    let hosts = cores.div_ceil(8);
    let (mut sim, rt) = runtime(
        0,
        ClusterSpec::single_island(hosts, 8),
        PathwaysConfig::default(),
    );
    let client = rt.client(HostId(hosts - 1));
    let per_stage = cores / s_count;
    let stages: Vec<VirtualSlice> = (0..s_count)
        .map(|_| {
            client
                .virtual_slice(SliceRequest::devices(per_stage).contiguous())
                .unwrap()
        })
        .collect();
    let program = gpipe_program(&client, &stages, microbatches, setup);
    tokens_per_sec(&mut sim, client, &program, setup, steps)
}

/// Figure 10: the same 16-stage pipeline on four islands connected by
/// DCN (configuration C shape scaled to `cores` total). Returns tokens/s
/// and the rendered device trace of one step.
pub fn pathways_pipeline_islands_tokens_per_sec(
    islands: u32,
    hosts_per_island: u32,
    s_count: u32,
    microbatches: u32,
    setup: &TrainSetup,
    steps: u32,
) -> (f64, String) {
    let (mut sim, rt) = runtime(
        0,
        ClusterSpec::islands_of(islands, hosts_per_island, 8),
        PathwaysConfig::default(),
    );
    sim.handle().record_trace(true);
    let client = rt.client(HostId(0));
    let stages_per_island = s_count / islands;
    let per_stage = hosts_per_island * 8 / stages_per_island;
    let mut stages = Vec::new();
    for i in 0..islands {
        for _ in 0..stages_per_island {
            stages.push(
                client
                    .virtual_slice(
                        SliceRequest::devices(per_stage)
                            .in_island(IslandId(i))
                            .contiguous(),
                    )
                    .unwrap(),
            );
        }
    }
    let program = gpipe_program(&client, &stages, microbatches, setup);
    let tps = tokens_per_sec(&mut sim, client, &program, setup, steps);
    let trace = sim.take_trace();
    let spans = trace.spans();
    let (start, end) = spans.iter().fold(
        (pathways_sim::SimTime::MAX, pathways_sim::SimTime::ZERO),
        |acc, s| (acc.0.min(s.start), acc.1.max(s.end)),
    );
    // Render a sample of one device per stage.
    let mut sample = pathways_sim::TraceLog::new();
    for (i, st) in stages.iter().enumerate() {
        let dev = st.physical_devices()[0];
        let track = format!("d{:04}", dev.0);
        for s in trace.track(&track) {
            sample.record(format!("stage{i:02}"), s.label.clone(), s.start, s.end);
        }
    }
    (tps, sample.render_ascii(start, end, 100))
}

/// §5.3's two-island data-parallel scaling: returns `(two_island_tps,
/// single_island_2x_tps)` — the paper reports the former at ~97% of the
/// latter.
pub fn two_island_scaling(cores_per_island: u32, setup: &TrainSetup, steps: u32) -> (f64, f64) {
    let hosts = cores_per_island / 4;
    // Two islands over DCN.
    let two = {
        let (mut sim, rt) = runtime(
            0,
            ClusterSpec::islands_of(2, hosts, 4),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let s0 = client
            .virtual_slice(SliceRequest::devices(cores_per_island).in_island(IslandId(0)))
            .unwrap();
        let s1 = client
            .virtual_slice(SliceRequest::devices(cores_per_island).in_island(IslandId(1)))
            .unwrap();
        let program = two_island_data_parallel_program(&client, &[s0, s1], setup);
        tokens_per_sec(&mut sim, client, &program, setup, steps)
    };
    // One island with twice the devices (the ICI-only reference).
    let single = pathways_spmd_tokens_per_sec(2 * cores_per_island, setup, steps);
    (two, single)
}

/// The Table 1 rows with their per-model calibrated MFUs (the paper's
/// testbed efficiency differs per model; `bench table1` prints the
/// paper-vs-measured columns, `perf/baselines/BENCH_table1.json` keeps
/// the measured ones).
pub fn table1_rows() -> Vec<(TransformerConfig, u32, f64)> {
    // MFUs include the calibrated SPMD communication fraction (the
    // effective step time is compute x (1 + spmd_comm_fraction)).
    vec![
        (TransformerConfig::t5_base(), 32, 0.65),
        (TransformerConfig::t5_large(), 32, 0.27),
        (TransformerConfig::t5_3b(), 512, 0.205),
        (TransformerConfig::t5_11b(), 512, 0.23),
    ]
}

/// Builds the standard Table 2 training setup for the 3B decoder LM at
/// the given global batch (in sequences).
pub fn table2_setup(batch_sequences: u64) -> TrainSetup {
    let model = TransformerConfig::decoder_3b();
    let tokens = batch_sequences * model.seq_len as u64;
    let mut setup = TrainSetup::new(model, tokens);
    setup.calib = Calibration {
        mfu: 0.30,
        ..Calibration::default()
    };
    setup
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced-size smoke version of a Table 1 row.
    fn table1_point(model: TransformerConfig, cores: u32, mfu: f64, steps: u32) -> (f64, f64) {
        let mut setup = TrainSetup::new(model, 1 << 20);
        setup.calib.mfu = mfu;
        let jax = jax_spmd_tokens_per_sec(cores, &setup, steps);
        let pw = pathways_spmd_tokens_per_sec(cores, &setup, steps);
        (jax, pw)
    }

    /// A quick 3B setup at 30 % MFU.
    fn quick_setup() -> TrainSetup {
        let mut s = TrainSetup::new(TransformerConfig::decoder_3b(), 256 * 1024);
        s.calib.mfu = 0.30;
        s
    }

    #[test]
    fn jax_and_pathways_match_on_real_models() {
        // Table 1's claim: identical throughput because real steps mask
        // the single-controller overhead.
        let (jax, pw) = table1_point(TransformerConfig::t5_base(), 32, 0.51, 3);
        let ratio = pw / jax;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "PW {pw:.0} vs JAX {jax:.0} tokens/s (ratio {ratio:.3})"
        );
    }

    #[test]
    fn pipeline_competitive_with_spmd() {
        // Table 2's claim: pipelining is competitive with SPMD at the
        // same core count.
        let setup = quick_setup();
        let spmd = pathways_spmd_tokens_per_sec(32, &setup, 2);
        let pipe = pathways_pipeline_tokens_per_sec(32, 4, 16, &setup, 2);
        let ratio = pipe / spmd;
        assert!(
            (0.7..=1.4).contains(&ratio),
            "pipeline {pipe:.0} vs SPMD {spmd:.0} tokens/s"
        );
    }

    #[test]
    fn two_island_efficiency_is_high() {
        let mut setup = quick_setup();
        // A gradient exchange sized so DCN cost is small but non-zero.
        setup.calib.grad_bytes_per_param = 0.05;
        let (two, single) = two_island_scaling(16, &setup, 2);
        let eff = two / single;
        assert!(
            (0.7..=1.05).contains(&eff),
            "two-island {two:.0} vs single {single:.0} tokens/s (eff {eff:.2})"
        );
    }
}
