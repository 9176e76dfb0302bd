//! Figure 14: chained-program throughput through `ObjectRef` futures —
//! sequential (await-then-submit) vs parallel (submit-the-whole-chain)
//! dispatch, across island counts. Stages are striped round-robin over
//! the islands, so multi-island rows pay DCN handoffs between stages.

use pathways_sim::SimDuration;

use super::Figure;
use crate::chain::{chained_throughput, ChainDispatch};
use crate::perf::{BenchReport, ClusterShape};
use crate::table::Table;

pub(super) const FIGURE: Figure = Figure {
    name: "fig14",
    about: "Figure 14: chained-program ObjectRef dispatch, sequential vs parallel, 1-4 islands",
    full: |_| drop(run()),
    report: run,
};

fn run() -> BenchReport {
    let mut report = BenchReport::new(ClusterShape::new(4, 2, 4));
    println!("Figure 14: chained-program dispatch via ObjectRef futures (programs/second)");
    let compute = SimDuration::from_micros(50);
    let payload = 1u64 << 16;
    let chain_len = 16u32;
    let chains = 8u64;
    println!(
        "chain of {chain_len} dependent programs, stage compute {compute}, \
         {payload} B handoff, 4 TPUs per stage\n"
    );
    let mut t = Table::new(&["islands", "Sequential", "Parallel", "speedup"]);
    for islands in [1u32, 2, 4] {
        let throughput =
            |mode| chained_throughput(islands, chain_len, compute, payload, mode, chains);
        let seq = throughput(ChainDispatch::Sequential);
        let par = throughput(ChainDispatch::Parallel);
        t.row(vec![
            islands.to_string(),
            format!("{seq:.0}"),
            format!("{par:.0}"),
            format!("{:.2}x", par / seq),
        ]);
        report = report
            .metric(format!("sequential_programs_per_sec_i{islands}"), seq)
            .metric(format!("parallel_programs_per_sec_i{islands}"), par)
            .claim(
                format!("chained ObjectRef dispatch wins, {islands} island(s)"),
                par > seq * 1.2,
                format!("{par:.0} vs {seq:.0} prog/s"),
            );
    }
    println!("{}", t.render());
    println!("expected shape (paper): submitting dependent programs before their inputs");
    println!("exist hides the per-program client+scheduler latency; the sequential client");
    println!("pays it once per stage, so the gap widens with chain depth and island hops.");
    report
}
