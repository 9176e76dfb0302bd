//! # pathways-bench
//!
//! The experiment harness that regenerates every table and figure of
//! the paper's evaluation (§5) in virtual time. [`figures::FIGURES`] is
//! the registry — one entry per artefact — and the `bench` binary is
//! its only front end (`bench list` prints the command table); the
//! other modules hold the measurement functions the entries share.
//! Each figure's report ([`perf`]) is an exact golden: tier-1 checks it
//! byte for byte against `perf/baselines/`, and `bench all` rewrites
//! those files. Host-time benchmarking lives in `benchmark/`
//! (`pwbench`), not here.

#![warn(missing_docs)]

pub mod chain;
pub mod figures;
pub mod heal;
pub mod json;
pub mod micro;
pub mod perf;
pub mod pipeline;
pub mod scale;
pub mod table;
pub mod tenancy;
pub mod tier;
pub mod training;

use pathways_core::{PathwaysConfig, PathwaysRuntime};
use pathways_net::{ClusterSpec, NetworkParams};
use pathways_sim::Sim;

/// Every harness's starting point: a fresh simulation seeded with `seed`
/// and a Pathways runtime on `spec` over the TPU-cluster network.
pub fn runtime(seed: u64, spec: ClusterSpec, config: PathwaysConfig) -> (Sim, PathwaysRuntime) {
    let sim = Sim::new(seed);
    let rt = PathwaysRuntime::new(&sim, spec, NetworkParams::tpu_cluster(), config);
    (sim, rt)
}
