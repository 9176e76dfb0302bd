//! Figure 5: dispatch overheads — computations/second vs number of
//! hosts for JAX, Pathways, TF1 and Ray under the OpByOp (-O),
//! Chained (-C) and Fused (-F) submission modes.
//!
//! Workload: a single scalar AllReduce followed by a scalar addition,
//! chained; configuration (A): 4 TPUs per host.

use pathways_baselines::{StepWorkload, SubmissionMode};

use super::Figure;
use crate::micro::{jax_throughput, pathways_throughput, ray_throughput, tf1_throughput};
use crate::perf::{BenchReport, ClusterShape};
use crate::table::Table;

pub(super) const FIGURE: Figure = Figure {
    name: "fig5",
    about: "Figure 5: dispatch-overhead throughput vs hosts, all frameworks and \
            submission modes (arg: comma-separated host counts, default `2,8,32,128,512`)",
    full,
    report,
};

fn full(args: &[String]) {
    let hosts_sweep: Vec<u32> = args
        .first()
        .map(|s| s.split(',').map(|v| v.parse().unwrap()).collect())
        .unwrap_or_else(|| vec![2, 8, 32, 128, 512]);
    let w = StepWorkload::trivial();
    println!("Figure 5: dispatch overhead (computations/second), config A (4 TPU/host)");
    println!(
        "workload: scalar AllReduce + add; chains of {}\n",
        w.chain_len
    );
    let mut t = Table::new(&[
        "hosts", "JAX-O", "JAX-F", "PW-O", "PW-C", "PW-F", "TF-O", "TF-C", "Ray-O", "Ray-C",
        "Ray-F",
    ]);
    for &hosts in &hosts_sweep {
        // Keep simulated work bounded at scale.
        let chains = if hosts >= 128 { 2 } else { 4 };
        let total_chain = w.chain_len as u64 * chains;
        let total_op = if hosts >= 128 { 64 } else { 256 };
        let f = |v: f64| format!("{v:.0}");
        t.row(vec![
            hosts.to_string(),
            f(jax_throughput(hosts, 4, SubmissionMode::OpByOp, w, total_op).per_sec()),
            f(jax_throughput(hosts, 4, SubmissionMode::Fused, w, total_chain).per_sec()),
            f(pathways_throughput(hosts, 4, SubmissionMode::OpByOp, w, total_op).per_sec()),
            f(pathways_throughput(hosts, 4, SubmissionMode::Chained, w, total_chain).per_sec()),
            f(pathways_throughput(hosts, 4, SubmissionMode::Fused, w, total_chain).per_sec()),
            f(tf1_throughput(hosts, 4, SubmissionMode::OpByOp, w, total_op).per_sec()),
            f(tf1_throughput(hosts, 4, SubmissionMode::Chained, w, total_chain).per_sec()),
            f(ray_throughput(hosts, SubmissionMode::OpByOp, w, total_op.min(128)).per_sec()),
            f(ray_throughput(hosts, SubmissionMode::Chained, w, total_chain).per_sec()),
            f(ray_throughput(hosts, SubmissionMode::Fused, w, total_chain).per_sec()),
        ]);
    }
    println!("{}", t.render());
    println!("expected shape (paper): JAX-O >> single-controller -O modes; PW-F matches JAX-F;");
    println!("PW-C above JAX-O at small scale; TF slowest at scale (centralized barrier);");
    println!("Ray an order of magnitude below PW per computation.");
}

/// The figure's relations on one 2-host x 8-TPU island.
fn report() -> BenchReport {
    let w = StepWorkload::trivial();
    let jax_o = jax_throughput(2, 8, SubmissionMode::OpByOp, w, 128).per_sec();
    let jax_f = jax_throughput(2, 8, SubmissionMode::Fused, w, 256).per_sec();
    let pw_o = pathways_throughput(2, 8, SubmissionMode::OpByOp, w, 128).per_sec();
    let pw_c = pathways_throughput(2, 8, SubmissionMode::Chained, w, 256).per_sec();
    let pw_f = pathways_throughput(2, 8, SubmissionMode::Fused, w, 256).per_sec();
    let tf_o = tf1_throughput(2, 8, SubmissionMode::OpByOp, w, 128).per_sec();
    let ray_o = ray_throughput(2, SubmissionMode::OpByOp, w, 64).per_sec();
    BenchReport::new(ClusterShape::new(1, 2, 8))
        .metric("jax_opbyop_per_sec", jax_o)
        .metric("jax_fused_per_sec", jax_f)
        .metric("pw_opbyop_per_sec", pw_o)
        .metric("pw_chained_per_sec", pw_c)
        .metric("pw_fused_per_sec", pw_f)
        .metric("tf1_opbyop_per_sec", tf_o)
        .metric("ray_opbyop_per_sec", ray_o)
        .claim(
            "PW-F ~= JAX-F",
            pw_f / jax_f > 0.85,
            format!("{pw_f:.0} vs {jax_f:.0} comp/s"),
        )
        .claim(
            "JAX-O > PW-O",
            jax_o > pw_o,
            format!("{jax_o:.0} vs {pw_o:.0}"),
        )
        .claim(
            "PW-C > JAX-O",
            pw_c > jax_o,
            format!("{pw_c:.0} vs {jax_o:.0}"),
        )
        .claim(
            "PW-O >= TF-O",
            pw_o >= tf_o,
            format!("{pw_o:.0} vs {tf_o:.0}"),
        )
        .claim(
            "Ray ~10x below PW",
            ray_o * 2.0 < pw_o,
            format!("{ray_o:.0} vs {pw_o:.0}"),
        )
}
