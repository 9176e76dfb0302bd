//! Warehouse-scale sweep in virtual time: steps completed and heal
//! blast radius vs live slices, from 4 islands (160 devices) up to 256
//! islands (10240 devices).

use pathways_sim::SimDuration;

use super::Figure;
use crate::perf::{BenchReport, ClusterShape};
use crate::scale::{heal_point, scale_point, DEVICES_PER_HOST, HOSTS_PER_ISLAND};

pub(super) const FIGURE: Figure = Figure {
    name: "fig_scale",
    about: "Warehouse-scale sweep: steps per virtual window, heal blast radius vs live slices \
            (args: island counts, default `4 16 64 256`; `bench all` runs `4`)",
    full: |args| {
        let sweep: Vec<u32> = args
            .iter()
            .map(|a| {
                a.parse()
                    .unwrap_or_else(|_| panic!("bad island count {a:?}"))
            })
            .collect();
        let sweep = if sweep.is_empty() {
            vec![4, 16, 64, 256]
        } else {
            sweep
        };
        run(&sweep);
    },
    // The smallest sweep point: the larger ones take minutes.
    report: || run(&[4]),
};

fn run(sweep: &[u32]) -> BenchReport {
    println!("Scaling sweep: {HOSTS_PER_ISLAND} hosts/island x {DEVICES_PER_HOST} devices/host");
    println!(
        "{:>8} {:>8} {:>7} {:>8} {:>8}",
        "islands", "devices", "steps", "slices", "blast"
    );

    let mut report = BenchReport::new(ClusterShape::new(
        *sweep.last().expect("sweep is non-empty"),
        HOSTS_PER_ISLAND,
        DEVICES_PER_HOST,
    ));

    for &islands in sweep {
        let s = scale_point(
            islands,
            SimDuration::from_micros(100),
            SimDuration::from_millis(2),
        );
        let h = heal_point(islands, 40);
        println!(
            "{:>8} {:>8} {:>7} {:>8} {:>8}",
            islands, s.devices, s.steps, h.live_slices, h.blast_radius,
        );
        report = report
            .metric(format!("steps_i{islands}"), s.steps as f64)
            .metric(
                format!("heal_blast_radius_i{islands}"),
                f64::from(h.blast_radius),
            )
            .metric(format!("live_slices_i{islands}"), h.live_slices as f64)
            .claim(
                format!("every island steps, {islands} islands"),
                s.steps >= u64::from(islands),
                format!("{} steps", s.steps),
            )
            .claim(
                format!("heal touches only the blast radius, {islands} islands"),
                h.blast_radius >= 1 && (h.blast_radius as usize) * 10 <= h.live_slices,
                format!("{} of {} live slices", h.blast_radius, h.live_slices),
            );
    }
    report
}
