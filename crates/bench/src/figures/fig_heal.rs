//! `fig_heal`: recovered throughput after a mid-trace device kill,
//! across island counts — the elastic-healing companion to the fault
//! tolerance discussion of §4.1/§4.3. A scripted fault kills one device
//! of island 0's training slice halfway through the measurement window;
//! the resource manager remaps the slice onto spare capacity and the
//! client's next submit re-lowers and keeps stepping.

use pathways_sim::SimDuration;

use super::Figure;
use crate::heal::healing_throughput;
use crate::perf::{BenchReport, ClusterShape};
use crate::table::Table;

pub(super) const FIGURE: Figure = Figure {
    name: "fig_heal",
    about: "Elastic healing: recovered throughput after a mid-trace device kill, 1-4 islands",
    full: |_| drop(run()),
    report: run,
};

fn run() -> BenchReport {
    let mut report = BenchReport::new(ClusterShape::new(4, 2, 4));
    println!("fig_heal: steps/second around a mid-trace device kill (island 0's slice)");
    let compute = SimDuration::from_micros(200);
    let window = SimDuration::from_millis(20);
    println!(
        "4-TPU gang step, {compute} compute, kill at {}\n",
        window / 2
    );
    let mut t = Table::new(&[
        "islands",
        "pre-kill (isl 0)",
        "post-kill (isl 0)",
        "recovered",
        "failed steps",
        "survivors pre",
        "survivors post",
        "healed",
    ]);
    for islands in [1u32, 2, 4] {
        let heal = healing_throughput(islands, compute, window);
        let i0 = &heal.islands[0];
        let survivors = &heal.islands[1..];
        let (surv_pre, surv_post) = if islands > 1 {
            let pre: f64 = survivors.iter().map(|s| s.pre_per_sec).sum();
            let post: f64 = survivors.iter().map(|s| s.post_per_sec).sum();
            (format!("{pre:.0}"), format!("{post:.0}"))
        } else {
            ("-".into(), "-".into())
        };
        t.row(vec![
            islands.to_string(),
            format!("{:.0}", i0.pre_per_sec),
            format!("{:.0}", i0.post_per_sec),
            format!("{:.0}%", 100.0 * heal.recovery()),
            i0.failed_steps.to_string(),
            surv_pre,
            surv_post,
            heal.healed.to_string(),
        ]);
        let survivors_ok = survivors
            .iter()
            .all(|s| s.failed_steps == 0 && s.post_per_sec >= s.pre_per_sec * 0.8);
        report = report
            .metric(
                format!("island0_pre_steps_per_sec_i{islands}"),
                i0.pre_per_sec,
            )
            .metric(
                format!("island0_post_steps_per_sec_i{islands}"),
                i0.post_per_sec,
            )
            .metric(format!("island0_recovery_i{islands}"), heal.recovery())
            .metric(
                format!("island0_failed_steps_i{islands}"),
                i0.failed_steps as f64,
            )
            .claim(
                format!("throughput recovers after device kill, {islands} island(s)"),
                heal.healed && heal.recovery() > 0.5 && survivors_ok,
                format!(
                    "island0 {:.0} -> {:.0} steps/s ({:.0}% recovered, {} failed), \
                     survivors unaffected: {survivors_ok}",
                    i0.pre_per_sec,
                    i0.post_per_sec,
                    100.0 * heal.recovery(),
                    i0.failed_steps,
                ),
            );
    }
    println!("{}", t.render());
    println!("expected shape: island 0 loses roughly the one in-flight step, is remapped");
    println!("onto the island's spare devices, and recovers to its pre-kill rate; other");
    println!("islands never miss a step. Without healing the client would be dead forever.");
    report
}
