//! Figure 8: aggregate throughput of concurrent programs — Pathways
//! time-multiplexing accelerators between 1..N clients, for several
//! per-program compute sizes, against the JAX single-program reference.

use pathways_baselines::{StepWorkload, SubmissionMode};
use pathways_sim::SimDuration;

use super::Figure;
use crate::micro::{jax_throughput, pathways_multiclient_throughput};
use crate::perf::{BenchReport, ClusterShape};
use crate::table::Table;

pub(super) const FIGURE: Figure = Figure {
    name: "fig8",
    about: "Figure 8: multi-tenant aggregate throughput vs client count \
            (arg: hosts, default `8`; the paper's configuration B is 64)",
    full,
    report,
};

fn full(args: &[String]) {
    // Scaled-down configuration B (the full 64-host sweep takes much
    // longer; pass hosts as the first argument to override).
    let hosts: u32 = args.first().and_then(|s| s.parse().ok()).unwrap_or(8);
    let dph = 8;
    println!(
        "Figure 8: aggregate throughput of concurrent programs ({} hosts x {} TPUs)\n",
        hosts, dph
    );
    let computes = [
        SimDuration::from_micros(40),
        SimDuration::from_micros(330),
        SimDuration::from_micros(1040),
        SimDuration::from_micros(2400),
    ];
    let mut header = vec!["clients".to_string()];
    for c in &computes {
        header.push(format!("PW({:.2})", c.as_millis_f64()));
    }
    for c in &computes {
        header.push(format!("JAX({:.2})", c.as_millis_f64()));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);
    // JAX reference: single-program throughput on the same hardware
    // (independent of client count — multi-controller JAX is
    // single-tenant).
    let jax_ref: Vec<f64> = computes
        .iter()
        .map(|c| {
            jax_throughput(
                hosts,
                dph,
                SubmissionMode::OpByOp,
                StepWorkload::sized(*c),
                64,
            )
            .per_sec()
        })
        .collect();
    for clients in [1u32, 2, 4, 8, 16, 32, 64] {
        let mut row = vec![clients.to_string()];
        for c in &computes {
            let window = SimDuration::from_millis(60);
            let agg = pathways_multiclient_throughput(hosts, dph, clients, *c, window, 1);
            row.push(format!("{agg:.0}"));
        }
        for j in &jax_ref {
            row.push(format!("{j:.0}"));
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!("expected shape (paper): PW aggregate rises with clients until the TPUs");
    println!("saturate, reaching at least the JAX reference; larger computations need");
    println!("fewer clients to saturate.");
}

/// One vs eight clients of 40 us programs on 2 hosts x 8 TPUs.
fn report() -> BenchReport {
    let agg = |clients| {
        pathways_multiclient_throughput(
            2,
            8,
            clients,
            SimDuration::from_micros(40),
            SimDuration::from_millis(40),
            1,
        )
    };
    let (one, eight) = (agg(1), agg(8));
    BenchReport::new(ClusterShape::new(1, 2, 8))
        .metric("one_client_per_sec", one)
        .metric("eight_clients_per_sec", eight)
        .claim(
            "multi-tenancy scales",
            eight > one * 1.3,
            format!("{one:.0} -> {eight:.0} comp/s"),
        )
}
