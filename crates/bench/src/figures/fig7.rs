//! Figure 7: parallel vs sequential asynchronous dispatch —
//! computations/second vs number of pipeline stages, each stage on 4
//! TPU cores of a different host, data flowing over ICI.

use pathways_core::DispatchMode;
use pathways_sim::SimDuration;

use super::Figure;
use crate::perf::{BenchReport, ClusterShape};
use crate::pipeline::pipeline_throughput;
use crate::table::Table;

pub(super) const FIGURE: Figure = Figure {
    name: "fig7",
    about: "Figure 7: parallel vs sequential async dispatch over pipeline depth",
    full: |_| drop(run()),
    report: run,
};

fn run() -> BenchReport {
    println!("Figure 7: parallel vs sequential async dispatch (computations/second)");
    let compute = SimDuration::from_micros(10);
    println!("stage computation: {compute}, 4 TPUs per stage, one stage per host\n");
    let mut t = Table::new(&["stages", "Parallel", "Sequential", "speedup"]);
    let mut report = BenchReport::new(ClusterShape::new(1, 128, 4));
    for stages in [1u32, 4, 8, 16, 32, 64, 128] {
        let programs = (256 / stages).clamp(4, 64) as u64;
        let par = pipeline_throughput(stages, DispatchMode::Parallel, compute, programs);
        let seq = pipeline_throughput(stages, DispatchMode::Sequential, compute, programs);
        t.row(vec![
            stages.to_string(),
            format!("{par:.0}"),
            format!("{seq:.0}"),
            format!("{:.2}x", par / seq),
        ]);
        report = report
            .metric(format!("parallel_per_sec_s{stages}"), par)
            .metric(format!("sequential_per_sec_s{stages}"), seq);
        if stages == 16 {
            report = report.claim(
                "parallel dispatch wins",
                par > seq * 1.3,
                format!("{par:.0} vs {seq:.0} comp/s at 16 stages"),
            );
        }
    }
    println!("{}", t.render());
    println!("expected shape (paper): parallel dispatch amortizes fixed client+scheduling");
    println!("overhead as stages grow and clearly beats sequential dispatch at depth.");
    report
}
