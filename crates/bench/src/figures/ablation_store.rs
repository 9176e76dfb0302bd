//! Ablation: the HBM object store. Pathways returns opaque handles and
//! leaves data in accelerator memory; TF1 copies results back to the
//! client and Ray copies GPU→DRAM per computation. This sweep varies
//! the per-computation result size to show the store's benefit is
//! architectural, not a constant factor.

use pathways_baselines::{
    RayConfig, RayRuntime, StepWorkload, SubmissionMode, Tf1Config, Tf1Runtime,
};
use pathways_net::{ClusterSpec, NetworkParams};
use pathways_sim::Sim;

use super::Figure;
use crate::micro::pathways_throughput;
use crate::perf::{BenchReport, ClusterShape};
use crate::table::Table;

pub(super) const FIGURE: Figure = Figure {
    name: "ablation_store",
    about: "Ablation (§5.1): object-store handle return vs copying results back",
    full: |_| drop(run()),
    report: run,
};

fn tf1_with_result_bytes(hosts: u32, bytes: u64, total: u64) -> f64 {
    let mut sim = Sim::new(0);
    let rt = Tf1Runtime::new(
        &sim,
        ClusterSpec::single_island(hosts, 4),
        NetworkParams::tpu_cluster(),
        Tf1Config {
            result_bytes: bytes,
        },
    );
    let m = rt.spawn_benchmark(
        &mut sim,
        SubmissionMode::OpByOp,
        StepWorkload::trivial(),
        total,
    );
    sim.run_to_quiescence();
    m.try_take().unwrap().per_sec()
}

fn ray_with_result_bytes(hosts: u32, bytes: u64, total: u64) -> f64 {
    let mut sim = Sim::new(0);
    let rt = RayRuntime::new(
        &sim,
        hosts,
        NetworkParams::tpu_cluster(),
        RayConfig {
            result_bytes: bytes,
        },
    );
    let m = rt.spawn_benchmark(
        &mut sim,
        SubmissionMode::OpByOp,
        StepWorkload::trivial(),
        total,
    );
    sim.run_to_quiescence();
    m.try_take().unwrap().per_sec()
}

fn run() -> BenchReport {
    println!("Ablation: device object store — handle return vs data copy-back\n");
    let hosts = 4;
    let total = 128;
    // Pathways returns handles; its throughput is independent of result
    // size because outputs stay in HBM.
    let pw = pathways_throughput(
        hosts,
        4,
        SubmissionMode::OpByOp,
        StepWorkload::trivial(),
        total,
    )
    .per_sec();
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
        let tf1 = tf1_with_result_bytes(hosts, bytes, total);
        let ray = ray_with_result_bytes(hosts, bytes, total);
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
