//! Layer `models`: Transformer workload builders over the client API.

use pathways::core::{Client, Program, VirtualSlice};
use pathways::models::{gpipe_program, TrainSetup, TransformerConfig};

use super::core_client::{self, Prog};
use super::sim::{enter, leave};
use super::{core_resource, net, Named, MODELS};
use crate::clock::Stopwatch;
use crate::span;

/// `models::gpipe_program` for the 3B decoder: `stages.len()` stages x
/// `microbatches` micro-batches over `tokens` tokens per step.
pub fn gpipe(
    client: &Client,
    stages: &[VirtualSlice],
    microbatches: u32,
    tokens: u64,
    prog: Prog,
) -> Program {
    let h = client.handle();
    let setup = TrainSetup::new(TransformerConfig::decoder_3b(), tokens);
    // fwd + bwd per (stage, micro-batch) plus one apply per stage.
    let comps = stages.len() as u32 * (2 * microbatches + 1);
    let t = enter(h, MODELS, "gpipe_program", comps, false, prog);
    let program = gpipe_program(client, stages, microbatches, &setup);
    leave(h, t);
    program
}

/// Host µs to build the 16-stage x 16-micro-batch GPipe program (the
/// `pipeline_deep` shape) on a fresh 128-core island.
pub fn probe() -> Vec<Named> {
    const STAGES: u32 = 16;
    let program_build_us = span::sync("probe.gpipe_build", MODELS, || {
        let spec = pathways::net::ClusterSpec::single_island(STAGES, 8);
        let env = core_client::build_env(0, spec, net::params(), core_client::config());
        let client = core_client::client(&env, net::first_host(&core_client::topology(&env.rt), 0));
        let stages: Vec<VirtualSlice> = (0..STAGES)
            .map(|_| core_resource::contiguous_slice(&client, 8, Prog::SETUP))
            .collect();
        const BUILDS: u32 = 8;
        let sw = Stopwatch::start();
        for _ in 0..BUILDS {
            std::hint::black_box(gpipe(&client, &stages, 16, 65_536, Prog::SETUP));
        }
        sw.nanos() / 1e3 / f64::from(BUILDS)
    });
    vec![("models.program_build_us", program_build_us)]
}
