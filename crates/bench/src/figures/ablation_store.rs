//! Ablation: the HBM object store. Pathways returns opaque handles and
//! leaves data in accelerator memory; TF1 copies results back to the
//! client and Ray copies GPU→DRAM per computation. This sweep varies
//! the per-computation result size to show the store's benefit is
//! architectural, not a constant factor.

use pathways_baselines::{RayConfig, StepWorkload, SubmissionMode, Tf1Config};
use pathways_core::PathwaysConfig;

use super::Figure;
use crate::micro::{pathways_throughput, ray_throughput, tf1_throughput};
use crate::perf::{BenchReport, ClusterShape};
use crate::table::Table;

pub(super) const FIGURE: Figure = Figure {
    name: "ablation_store",
    about: "Ablation (§5.1): object-store handle return vs copying results back",
    full: |_| drop(run()),
    report: run,
};

fn run() -> BenchReport {
    println!("Ablation: device object store — handle return vs data copy-back\n");
    let hosts = 4;
    let total = 128;
    // Pathways returns handles; its throughput is independent of result
    // size because outputs stay in HBM.
    let (w, op) = (StepWorkload::trivial(), SubmissionMode::OpByOp);
    let pw = pathways_throughput(hosts, 4, op, w, total, PathwaysConfig::default()).per_sec();
    let mut report = BenchReport::new(ClusterShape::new(1, hosts, 4)).metric("pw_per_sec", pw);
    let mut t = Table::new(&[
        "result bytes",
        "PW (handles)",
        "TF1 (copy to client)",
        "Ray (GPU->DRAM)",
    ]);
    let sizes = [0u64, 4 << 10, 256 << 10, 4 << 20];
    let mut copies = Vec::new();
    for bytes in sizes {
        let tf1 = tf1_throughput(
            hosts,
            4,
            op,
            w,
            total,
            Tf1Config {
                result_bytes: bytes,
            },
        );
        let ray = ray_throughput(
            hosts,
            op,
            w,
            total,
            RayConfig {
                result_bytes: bytes,
            },
        );
        let (tf1, ray) = (tf1.per_sec(), ray.per_sec());
        t.row(vec![
            bytes.to_string(),
            format!("{pw:.0}"),
            format!("{tf1:.0}"),
            format!("{ray:.0}"),
        ]);
        report = report
            .metric(format!("tf1_per_sec_{bytes}b"), tf1)
            .metric(format!("ray_per_sec_{bytes}b"), ray);
        copies.push((tf1, ray));
    }
    let ((tf1_0, ray_0), (tf1_big, ray_big)) = (copies[0], copies[sizes.len() - 1]);
    let report = report.claim(
        "PW flat; TF1/Ray degrade as results grow",
        tf1_big < tf1_0 && ray_big < ray_0 && pw > tf1_0 && pw > ray_0,
        format!(
            "PW {pw:.0}; TF1 {tf1_0:.0} -> {tf1_big:.0}; Ray {ray_0:.0} -> {ray_big:.0} comp/s"
        ),
    );
    println!("{}", t.render());
    println!("expected shape: PW flat; TF1/Ray degrade as results grow (§5.1: 'TensorFlow");
    println!("and Ray suffer from their lack of a device object store').");
    report
}
