//! Table 2: 3B decoder LM training throughput — SPMD vs GPipe
//! pipelining at various stage counts, on Pathways.

use super::Figure;
use crate::perf::{BenchReport, ClusterShape};
use crate::table::{fmt_k, Table};
use crate::training::{
    pathways_pipeline_tokens_per_sec, pathways_spmd_tokens_per_sec, table2_setup,
};

pub(super) const FIGURE: Figure = Figure {
    name: "table2",
    about: "Table 2: 3B decoder LM training throughput, SPMD vs GPipe pipelining",
    full: |_| full(),
    report,
};

fn full() {
    println!("Table 2: 3B Transformer LM training throughput (tokens/s) on Pathways\n");
    let steps = 2;
    let mut t = Table::new(&["Model configuration", "TPU cores", "tokens/s", "paper"]);

    // 128-core rows: global batch 2048 examples (micro-batch 4).
    let setup128 = table2_setup(2048);
    t.row(vec![
        "Model-parallel (SPMD)".into(),
        "128".into(),
        fmt_k(pathways_spmd_tokens_per_sec(128, &setup128, steps)),
        "125.7k".into(),
    ]);
    for (s, m) in [(4u32, 16u32), (8, 32), (16, 64)] {
        t.row(vec![
            format!("Pipelining, S={s}, M={m}"),
            "128".into(),
            fmt_k(pathways_pipeline_tokens_per_sec(
                128, s, m, &setup128, steps,
            )),
            match (s, m) {
                (4, _) => "133.7k".into(),
                (8, _) => "132.7k".into(),
                _ => "131.4k".into(),
            },
        ]);
    }
    // 512-core row: global batch 8192 examples.
    let setup512 = table2_setup(8192);
    t.row(vec![
        "Pipelining, S=16, M=64".into(),
        "512".into(),
        fmt_k(pathways_pipeline_tokens_per_sec(
            512, 16, 64, &setup512, steps,
        )),
        "507.8k".into(),
    ]);
    println!("{}", t.render());
    println!("expected shape (paper): pipelining competitive with SPMD at equal cores;");
    println!("minimal overhead from deeper pipelines (S=4 -> 16); ~4x throughput at 4x cores.");
}

/// The reduced 3B setup `report` passes measure: 256-sequence global
/// batch at 50% MFU (shared with `fig10`).
pub(super) fn reduced_setup() -> pathways_models::TrainSetup {
    let mut setup = table2_setup(256);
    setup.calib.mfu = 0.5;
    setup
}

/// SPMD vs an S=4, M=16 pipeline on 32 cores.
fn report() -> BenchReport {
    let setup = reduced_setup();
    let spmd = pathways_spmd_tokens_per_sec(32, &setup, 2);
    let pipe = pathways_pipeline_tokens_per_sec(32, 4, 16, &setup, 2);
    BenchReport::new(ClusterShape::new(1, 8, 4))
        .metric("spmd_tokens_per_sec", spmd)
        .metric("pipeline_tokens_per_sec", pipe)
        .claim(
            "pipeline competitive with SPMD",
            pipe / spmd > 0.9,
            format!("{pipe:.0} vs {spmd:.0} tokens/s"),
        )
}
