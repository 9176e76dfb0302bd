//! Figure 6: the smallest computation for which Pathways matches JAX
//! throughput (masking the single-controller overhead), at 16 hosts
//! (configuration B) and 512 hosts (configuration A).

use pathways_sim::SimDuration;

use super::Figure;
use crate::micro::fig6_point;
use crate::perf::{BenchReport, ClusterShape};
use crate::table::Table;

pub(super) const FIGURE: Figure = Figure {
    name: "fig6",
    about: "Figure 6: smallest computation reaching JAX parity, 16 vs 512 hosts",
    full: |_| full(),
    report,
};

fn full() {
    println!("Figure 6: computation size needed to match JAX throughput\n");
    for (hosts, dph, label) in [
        (16u32, 8u32, "16 hosts / 128 TPUs (B)"),
        (512, 4, "512 hosts / 2048 TPUs (A)"),
    ] {
        let mut t = Table::new(&["compute(ms)", "JAX/s", "PW/s", "PW/JAX"]);
        let mut convergence: Option<f64> = None;
        for us in [
            100u64, 220, 470, 1000, 2200, 4700, 10_000, 22_000, 35_000, 47_000, 100_000,
        ] {
            let compute = SimDuration::from_micros(us);
            let programs = (200_000 / us).clamp(3, 60);
            let (jax, pw) = fig6_point(hosts, dph, compute, programs);
            let ratio = pw / jax;
            if convergence.is_none() && ratio >= 0.95 {
                convergence = Some(us as f64 / 1000.0);
            }
            t.row(vec![
                format!("{:.2}", us as f64 / 1000.0),
                format!("{jax:.1}"),
                format!("{pw:.1}"),
                format!("{ratio:.3}"),
            ]);
        }
        println!("{label}:");
        println!("{}", t.render());
        match convergence {
            Some(ms) => println!("convergence (PW >= 95% of JAX) at ~{ms:.2} ms"),
            None => println!("no convergence in the swept range"),
        }
        println!("paper: 2.39 ms at 16 hosts, 35 ms at 512 hosts\n");
    }
}

/// Parity improves with computation size, on 4 hosts x 8 TPUs.
fn report() -> BenchReport {
    let (j_s, p_s) = fig6_point(4, 8, SimDuration::from_micros(100), 30);
    let (j_b, p_b) = fig6_point(4, 8, SimDuration::from_millis(10), 8);
    BenchReport::new(ClusterShape::new(1, 4, 8))
        .metric("ratio_small_computation", p_s / j_s)
        .metric("ratio_large_computation", p_b / j_b)
        .claim(
            "parity at large computations",
            p_s / j_s < 0.95 && p_b / j_b > 0.9,
            format!("ratio {:.2} -> {:.2}", p_s / j_s, p_b / j_b),
        )
}
