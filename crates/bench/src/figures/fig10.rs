//! Figure 10: the 3B model pipelined over four islands of TPUs
//! connected via DCN achieves the same throughput as one island with
//! the same total core count, because DCN transfers overlap with
//! computation.

use super::Figure;
use crate::perf::{BenchReport, ClusterShape};
use crate::table::{fmt_k, Table};
use crate::training::{
    pathways_pipeline_islands_tokens_per_sec, pathways_pipeline_tokens_per_sec, table2_setup,
};

pub(super) const FIGURE: Figure = Figure {
    name: "fig10",
    about: "Figure 10: 3B LM pipeline over four DCN-connected islands vs one island",
    full: |_| full(),
    report,
};

fn full() {
    println!("Figure 10: 3B LM, S=16 M=64 pipeline — one island vs four islands over DCN\n");
    let setup = table2_setup(2048);
    let steps = 2;
    let single = pathways_pipeline_tokens_per_sec(128, 16, 64, &setup, steps);
    let (four, trace) = pathways_pipeline_islands_tokens_per_sec(4, 4, 16, 64, &setup, steps);
    let mut t = Table::new(&["configuration", "tokens/s", "paper"]);
    t.row(vec![
        "1 island x 128 cores (B)".into(),
        fmt_k(single),
        "131.4k".into(),
    ]);
    t.row(vec![
        "4 islands x 32 cores (C)".into(),
        fmt_k(four),
        "131.4k".into(),
    ]);
    println!("{}", t.render());
    println!("ratio four-island/single-island: {:.3}\n", four / single);
    println!("trace (one device per stage, f=forward b=backward a=apply):");
    println!("{trace}");
    println!("expected shape (paper): equal throughput — cross-island DCN transfers are");
    println!("overlapped with computation; the pipeline 'bubble' is visible at the edges.");
}

/// An S=4, M=16 pipeline on 32 cores: one island vs one stage on each
/// of four 8-core islands.
fn report() -> BenchReport {
    let setup = super::table2::reduced_setup();
    let single = pathways_pipeline_tokens_per_sec(32, 4, 16, &setup, 2);
    let (four, _trace) = pathways_pipeline_islands_tokens_per_sec(4, 1, 4, 16, &setup, 2);
    BenchReport::new(ClusterShape::new(4, 1, 8))
        .metric("single_island_tokens_per_sec", single)
        .metric("four_island_tokens_per_sec", four)
        .claim(
            "DCN transfers overlap with computation",
            four / single > 0.9,
            format!("{four:.0} vs {single:.0} tokens/s"),
        )
}
