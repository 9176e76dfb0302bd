//! Pipelined Transformer training (the Table 2 workload): the 3B
//! decoder-only LM split into GPipe stages across host groups, compared
//! with the SPMD layout of the same model on the same cores.
//!
//! Run with: `cargo run --release --example pipeline_transformer`

use pathways::core::{PathwaysConfig, PathwaysRuntime, SliceRequest};
use pathways::models::{
    gpipe_program, measure_tokens_per_sec_chained, run_serial, spmd_chained, spmd_program,
    TrainSetup, TransformerConfig,
};
use pathways::net::{ClusterSpec, HostId, NetworkParams};
use pathways::sim::Sim;

fn main() {
    let model = TransformerConfig::decoder_3b();
    println!(
        "model: {} ({:.1}B params, {} layers, d_model {})",
        model.name,
        model.params() as f64 / 1e9,
        model.layers,
        model.d_model
    );
    let setup = TrainSetup::new(model, 512 * 1024); // 512 sequences/step

    // --- SPMD over 32 cores ---
    let spmd_tps = {
        let mut sim = Sim::new(0);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(4),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let slice = client.virtual_slice(SliceRequest::devices(32)).unwrap();
        let program = spmd_program(&client, &slice, &setup);
        let prepared = client.prepare(&program);
        // One untimed warm-up step, then 3 timed ones.
        let job = sim.spawn("train", async move {
            run_serial(&client, &prepared, 1, 3).await
        });
        sim.run_to_quiescence();
        (setup.global_batch_tokens * 3) as f64 / job.try_take().unwrap().as_secs_f64()
    };
    println!("SPMD, 32 cores:            {spmd_tps:>10.0} tokens/s");

    // --- The same SPMD steps chained through ObjectRef futures: every
    // step consumes the previous step's weights object as an external
    // input, so the whole loop is dispatched without awaiting any
    // intermediate run (parallel asynchronous dispatch across programs).
    let chained_tps = {
        let mut sim = Sim::new(0);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(4),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let slice = client.virtual_slice(SliceRequest::devices(32)).unwrap();
        let chain = spmd_chained(&client, &slice, &setup);
        let init = client.prepare(&chain.init);
        let step = client.prepare(&chain.step);
        let tokens = setup.global_batch_tokens;
        let job = sim.spawn("train", async move {
            measure_tokens_per_sec_chained(&client, &init, &step, &chain, tokens, 3).await
        });
        sim.run_to_quiescence();
        job.try_take().unwrap()
    };
    println!("SPMD chained (ObjectRefs): {chained_tps:>10.0} tokens/s");

    // --- GPipe: 4 stages x 8 cores, 16 micro-batches ---
    let pipe_tps = {
        let mut sim = Sim::new(0);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(4),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let stages: Vec<_> = (0..4)
            .map(|_| {
                client
                    .virtual_slice(SliceRequest::devices(8).contiguous())
                    .unwrap()
            })
            .collect();
        let program = gpipe_program(&client, &stages, 16, &setup);
        let prepared = client.prepare(&program);
        println!(
            "pipeline program: {} computations, dataflow graph {:?}",
            program.computations().len(),
            prepared.graph_size()
        );
        // One untimed warm-up step, then 3 timed ones.
        let job = sim.spawn("train", async move {
            run_serial(&client, &prepared, 1, 3).await
        });
        sim.run_to_quiescence();
        (setup.global_batch_tokens * 3) as f64 / job.try_take().unwrap().as_secs_f64()
    };
    println!("GPipe S=4 M=16, 32 cores:  {pipe_tps:>10.0} tokens/s");
    println!(
        "pipeline/SPMD ratio: {:.3} (the paper's Table 2 finds pipelining competitive)",
        pipe_tps / spmd_tps
    );
}
