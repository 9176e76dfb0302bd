//! Figure 12 / §5.3 large-model scaling: 64B and 136B decoder LMs
//! trained data-parallel over two islands connected by DCN, compared to
//! a single island with twice the devices. The paper reports ~97% of
//! the single-island throughput, with gradient transfers of 457 GB
//! (64B) and 1030 GB (136B) per step.

use pathways_models::{Calibration, TrainSetup, TransformerConfig};

use super::Figure;
use crate::perf::{BenchReport, ClusterShape};
use crate::table::{fmt_k, Table};
use crate::training::two_island_scaling;

pub(super) const FIGURE: Figure = Figure {
    name: "fig12",
    about: "Figure 12: 64B/136B two-island data-parallel scaling at 128/256 cores per island \
            (arg: `--full` for the paper's 512/1024)",
    full: |args| drop(run(args.iter().any(|a| a == "--full"))),
    report: || run(false),
};

fn run(full: bool) -> BenchReport {
    let (cores_64, cores_136) = if full { (512, 1024) } else { (128, 256) };
    let mut report = BenchReport::new(ClusterShape::new(2, cores_136 / 4, 4));
    println!("Figure 12 / §5.3: two-island data-parallel training over DCN\n");
    let mut t = Table::new(&[
        "model",
        "cores/island",
        "2-island tok/s",
        "1-island(2x) tok/s",
        "efficiency",
        "grad xfer",
    ]);
    for (model, cores, batch_seq, tag) in [
        (TransformerConfig::decoder_64b(), cores_64, 1024u64, "64b"),
        (TransformerConfig::decoder_136b(), cores_136, 1024, "136b"),
    ] {
        let mut setup = TrainSetup::new(model.clone(), batch_seq * model.seq_len as u64);
        setup.calib = Calibration {
            mfu: 0.30,
            ..Calibration::default()
        };
        let xfer_gb = setup.calib.grad_exchange_bytes(&model) as f64 / 1e9;
        let (two, single) = two_island_scaling(cores, &setup, 2);
        t.row(vec![
            model.name.clone(),
            cores.to_string(),
            fmt_k(two),
            fmt_k(single),
            format!("{:.1}%", 100.0 * two / single),
            format!("{xfer_gb:.0} GB"),
        ]);
        report = report
            .metric(format!("two_island_tokens_per_sec_{tag}"), two)
            .metric(format!("single_island_tokens_per_sec_{tag}"), single)
            .metric(format!("scaling_efficiency_{tag}"), two / single)
            .claim(
                format!("two-island efficiency, {tag}"),
                two / single > 0.9,
                format!("{:.1}%", 100.0 * two / single),
            );
    }
    println!("{}", t.render());
    println!("expected shape (paper): ~97% efficiency; transfers of 457 GB / 1030 GB");
    println!("overlap poorly only at step boundaries (trace in paper's Figure 12).");
    report
}
