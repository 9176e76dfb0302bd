//! Figure 9 (and Figure 11): traces of gang-scheduled concurrent
//! programs with proportional-share ratios 1:1:1:1 and 1:2:4:8, plus
//! utilization vs client count.

use pathways_sim::SimDuration;

use super::Figure;
use crate::perf::{BenchReport, ClusterShape};
use crate::table::Table;
use crate::tenancy::{tenancy_trace, tenancy_trace_with_policy, TenancyPolicy, TenancyTrace};

pub(super) const FIGURE: Figure = Figure {
    name: "fig9",
    about: "Figures 9 and 11: proportional-share gang-scheduling traces, stride vs WFQ, \
            utilization vs client count",
    full: |_| drop(run()),
    report: run,
};

/// `label`'s percentage of the device time the trace accounts for.
fn share(t: &TenancyTrace, label: &str) -> f64 {
    let total: f64 = t.busy_by_label.values().map(|d| d.as_secs_f64()).sum();
    let busy = t.busy_by_label.get(label).map_or(0.0, |d| d.as_secs_f64());
    100.0 * busy / total
}

fn run() -> BenchReport {
    let mut report = BenchReport::new(ClusterShape::new(1, 1, 8));
    let compute = SimDuration::from_micros(330);
    let window = SimDuration::from_millis(50);
    println!("Figure 9: gang-scheduled interleaving of 4 clients (0.33 ms programs)\n");
    for (weights, tag) in [([1u32, 1, 1, 1], "equal"), ([1, 2, 4, 8], "weighted")] {
        let t = tenancy_trace(1, 8, &weights, compute, window);
        println!(
            "proportional share {}:{}:{}:{}  (device-0 utilization {:.0}%)",
            weights[0],
            weights[1],
            weights[2],
            weights[3],
            t.utilization * 100.0
        );
        println!("{}", t.ascii);
        let shares: Vec<String> = t
            .busy_by_label
            .keys()
            .map(|l| format!("{l}={:.0}%", share(&t, l)))
            .collect();
        println!("device time shares: {}\n", shares.join(" "));
        let d_over_a = share(&t, "D") / share(&t, "A");
        report = report
            .metric(format!("{tag}_share_ratio_d_over_a"), d_over_a)
            .metric(format!("{tag}_utilization"), t.utilization);
        if tag == "weighted" {
            report = report.claim(
                "proportional share",
                d_over_a > 3.0 && t.utilization > 0.9,
                format!("D/A = {d_over_a:.1}, util {:.0}%", t.utilization * 100.0),
            );
        }
    }

    println!("Policy-engine extension: stride vs gang-aware WFQ at 1:2:4:8\n");
    let mut t = Table::new(&["policy", "A", "B", "C", "D", "device-0 utilization"]);
    for (name, policy) in [
        ("stride", TenancyPolicy::Stride),
        ("wfq", TenancyPolicy::WeightedFair),
    ] {
        let tr = tenancy_trace_with_policy(policy, 1, 8, &[1, 2, 4, 8], compute, window);
        let mut row = vec![name.to_string()];
        for label in ["A", "B", "C", "D"] {
            row.push(format!("{:.0}%", share(&tr, label)));
        }
        row.push(format!("{:.0}%", tr.utilization * 100.0));
        t.row(row);
        report = report.metric(format!("{name}_share_pct_d"), share(&tr, "D"));
    }
    println!("{}", t.render());
    println!("both engines realize the weighted shares; WFQ additionally bounds each");
    println!("tenant's burst to one quantum and charges whole-gang device time.\n");

    println!("Figure 11: utilization vs number of clients (0.33 ms programs)\n");
    let mut t = Table::new(&["clients", "device-0 utilization"]);
    for n in [1usize, 4, 8, 16] {
        let weights = vec![1u32; n];
        let tr = tenancy_trace(1, 8, &weights, compute, window);
        t.row(vec![
            n.to_string(),
            format!("{:.0}%", tr.utilization * 100.0),
        ]);
        report = report.metric(format!("utilization_c{n}"), tr.utilization);
    }
    println!("{}", t.render());
    println!("expected shape (paper): a single client cannot saturate; with enough");
    println!("clients utilization reaches ~100% with millisecond-scale interleaving.");
    report
}
