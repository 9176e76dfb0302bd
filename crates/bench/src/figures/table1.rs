//! Table 1: training throughput (tokens/s) of T5 configurations on JAX
//! multi-controller vs Pathways — the paper's headline parity result.

use pathways_models::TrainSetup;

use super::Figure;
use crate::perf::{BenchReport, ClusterShape};
use crate::table::{fmt_k, Table};
use crate::training::{jax_spmd_tokens_per_sec, pathways_spmd_tokens_per_sec, table1_rows};

pub(super) const FIGURE: Figure = Figure {
    name: "table1",
    about: "Table 1: T5 training throughput, JAX vs Pathways",
    full: |_| drop(run()),
    report: run,
};

fn run() -> BenchReport {
    let mut report = BenchReport::new(ClusterShape::new(1, 128, 4));
    println!("Table 1: T5 training throughput (tokens/s), JAX vs Pathways\n");
    let paper: [(f64, f64); 4] = [
        (618_000.0, 618_000.0),
        (90_400.0, 90_400.0),
        (282_800.0, 282_800.0),
        (84_800.0, 84_800.0),
    ];
    let mut t = Table::new(&[
        "Model",
        "Params",
        "TPU cores",
        "JAX",
        "PATHWAYS",
        "paper JAX",
        "paper PW",
    ]);
    let mut worst_gap = 0.0f64;
    for ((model, cores, mfu), (pj, pp)) in table1_rows().into_iter().zip(paper) {
        let mut setup = TrainSetup::new(model.clone(), 1 << 21);
        setup.calib.mfu = mfu;
        let jax = jax_spmd_tokens_per_sec(cores, &setup, 3);
        let pw = pathways_spmd_tokens_per_sec(cores, &setup, 3);
        t.row(vec![
            model.name.clone(),
            format!("{}M", model.params() / 1_000_000),
            cores.to_string(),
            fmt_k(jax),
            fmt_k(pw),
            fmt_k(pj),
            fmt_k(pp),
        ]);
        let tag = model.name.to_lowercase().replace('-', "_");
        report = report
            .metric(format!("jax_tokens_per_sec_{tag}"), jax)
            .metric(format!("pw_tokens_per_sec_{tag}"), pw);
        worst_gap = worst_gap.max((pw / jax - 1.0).abs());
    }
    println!("{}", t.render());
    println!("expected shape (paper): JAX and Pathways columns identical per row —");
    println!("realistic computations fully mask the single-controller overhead.");
    println!("(rows calibrated per-model via MFU; baseline perf/baselines/BENCH_table1.json)");
    report.claim(
        "JAX == PW on T5",
        worst_gap < 0.05,
        format!("largest |PW/JAX - 1| across the four models: {worst_gap:.5}"),
    )
}
