//! Warehouse-scale sweep: sim-time/wall-time ratio, controller
//! overhead per scheduled kernel, and heal latency vs blast radius,
//! from 4 islands (160 devices) up to 256 islands (10240 devices).

use pathways_sim::SimDuration;

use super::Figure;
use crate::perf::{BenchReport, ClusterShape};
use crate::scale::{heal_point, scale_point, wide_gang_point, DEVICES_PER_HOST, HOSTS_PER_ISLAND};

pub(super) const FIGURE: Figure = Figure {
    name: "fig_scale",
    about: "Warehouse-scale sweep: sim/wall ratio, wall-us per kernel, heal latency \
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
        "{:>8} {:>8} {:>7} {:>10} {:>12} {:>8} {:>12} {:>8}",
        "islands", "devices", "steps", "sim/wall", "us/kernel", "slices", "heal_us", "blast"
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
            "{:>8} {:>8} {:>7} {:>10.3} {:>12.2} {:>8} {:>12.1} {:>8}",
            islands,
            s.devices,
            s.steps,
            s.sim_wall_ratio(),
            s.wall_us_per_kernel(),
            h.live_slices,
            h.heal_wall_us,
            h.blast_radius,
        );
        report = report
            .metric(format!("sim_wall_ratio_i{islands}"), s.sim_wall_ratio())
            .metric(
                format!("wall_us_per_kernel_i{islands}"),
                s.wall_us_per_kernel(),
            )
            .metric(format!("steps_i{islands}"), s.steps as f64)
            .metric(format!("heal_wall_us_i{islands}"), h.heal_wall_us)
            .metric(
                format!("heal_blast_radius_i{islands}"),
                f64::from(h.blast_radius),
            )
            .metric(format!("live_slices_i{islands}"), h.live_slices as f64)
            // Virtual-time and placement facts only: the wall-clock
            // columns are the gate's business, not a claim's.
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

    // One gang, two widths. Report only (`Rule::Skip` in the gate, no
    // claim): per-kernel cost grows several-fold from 128 to 2048 wide
    // until the rendezvous stops walking the member list on every
    // arrival; the claim arrives with that rewrite.
    println!("\nOne gang stepped at two widths (500 us compute + 4-byte all-reduce)");
    println!("{:>8} {:>7} {:>12}", "width", "steps", "us/kernel");
    for (width, steps) in [(128, 32), (2048, 2)] {
        let w = wide_gang_point(width, SimDuration::from_micros(500), steps);
        println!(
            "{:>8} {:>7} {:>12.2}",
            width,
            w.steps,
            w.wall_us_per_kernel()
        );
        report = report.metric(
            format!("wall_us_per_kernel_w{width}"),
            w.wall_us_per_kernel(),
        );
    }
    report
}
