//! `fig_tier`: the storage engine's headline curves — throughput vs
//! per-device HBM budget (retained outputs spill to DRAM and disk
//! under pressure), recovery time vs checkpoint interval (disk restore
//! vs lineage recompute after a device kill), the restore-vs-recompute
//! frontier (cost-model choice with a checkpoint always available),
//! durable disk bytes vs checkpoint-GC keep-K, and DAG-chain recovery
//! with a shared upstream.

use pathways_sim::SimDuration;

use super::Figure;
use crate::perf::{BenchReport, ClusterShape};
use crate::table::Table;
use crate::tier::{
    chain_recovery, checkpoint_gc, recovery_frontier, recovery_latency, spill_throughput,
    SHARD_BYTES,
};

pub(super) const FIGURE: Figure = Figure {
    name: "fig_tier",
    about: "Storage engine: throughput vs HBM budget (spill), recovery vs checkpoint interval, \
            restore-vs-recompute frontier, checkpoint GC, DAG-chain recovery",
    full: |_| drop(run()),
    report: run,
};

fn run() -> BenchReport {
    const STEPS: u32 = 24;
    println!("fig_tier: tiered store under pressure and under faults");
    println!(
        "family 1: {STEPS} retained 4x{} MiB outputs vs per-device HBM budget\n",
        SHARD_BYTES >> 20
    );
    let mut t = Table::new(&[
        "hbm/device",
        "steps/s (virtual)",
        "spills",
        "demotions",
        "spilled MiB",
    ]);
    let budgets: [u64; 4] = [2 << 30, 1 << 30, 512 << 20, 256 << 20];
    let mut report = BenchReport::new(ClusterShape::new(2, 2, 4));
    let spill = budgets.map(|hbm| spill_throughput(hbm, STEPS));
    for (hbm, p) in budgets.iter().zip(&spill) {
        t.row(vec![
            format!("{} MiB", hbm >> 20),
            format!("{:.0}", p.steps_per_sec),
            p.spills.to_string(),
            p.demotions.to_string(),
            format!("{}", p.spilled_bytes >> 20),
        ]);
        let tag = format!("{}mib", hbm >> 20);
        report = report
            .metric(format!("spill_steps_per_sec_hbm_{tag}"), p.steps_per_sec)
            .metric(format!("spill_count_hbm_{tag}"), p.spills as f64)
            .metric(format!("spill_demotions_hbm_{tag}"), p.demotions as f64);
    }
    let [roomy, _, _, tight] = &spill;
    report = report.claim(
        "spill trades throughput for capacity",
        roomy.spills == 0 && tight.spills > 0 && tight.steps_per_sec < roomy.steps_per_sec,
        format!(
            "{:.0} -> {:.0} steps/s ({} spills, {} demotions)",
            roomy.steps_per_sec, tight.steps_per_sec, tight.spills, tight.demotions
        ),
    );
    println!("{}", t.render());
    println!("expected shape: large budgets never spill; shrinking budgets trade");
    println!("throughput for spill transfers, and past the DRAM budget, disk demotions.\n");

    println!("family 2: kill-to-consumer-completion time vs checkpoint interval");
    println!("(200ms producer, one device of its slice killed after completion)\n");
    let mut t = Table::new(&["checkpoint interval", "recovery (virtual)", "path"]);
    let intervals: [(Option<SimDuration>, &str); 4] = [
        (None, "lineage"),
        (Some(SimDuration::from_millis(50)), "ckpt_50ms"),
        (Some(SimDuration::from_millis(10)), "ckpt_10ms"),
        (Some(SimDuration::from_millis(1)), "ckpt_1ms"),
    ];
    let recovery = intervals.map(|(interval, _)| recovery_latency(interval));
    for ((interval, tag), p) in intervals.iter().zip(&recovery) {
        t.row(vec![
            interval.map_or("none".into(), |d| d.to_string()),
            p.recovery.to_string(),
            if p.restored {
                "disk restore"
            } else {
                "lineage recompute"
            }
            .to_string(),
        ]);
        report = report
            .metric(format!("recovery_ms_{tag}"), p.recovery.as_secs_f64() * 1e3)
            .metric(
                format!("recovery_restored_{tag}"),
                if p.restored { 1.0 } else { 0.0 },
            );
    }
    let [lineage, _, ckpt_10ms, _] = &recovery;
    report = report.claim(
        "checkpoint restore beats recompute",
        !lineage.restored && ckpt_10ms.restored && ckpt_10ms.recovery < lineage.recovery,
        format!(
            "restore {} vs recompute {}",
            ckpt_10ms.recovery, lineage.recovery
        ),
    );
    println!("{}", t.render());
    println!("expected shape: any committed checkpoint restores in ~constant disk-read");
    println!("time; without checkpoints the object recomputes via lineage, paying the");
    println!("producer's full compute again — the classic tradeoff, which flips when");
    println!("recompute is cheaper than the disk read.\n");

    println!("family 3: restore-vs-recompute frontier (checkpoint fixed at 10ms)");
    println!("(producer compute swept at 4 x 1 MiB shards; the recovery manager");
    println!("picks the cheaper modeled path per object)\n");
    let mut t = Table::new(&["producer compute", "recovery (virtual)", "chosen path"]);
    let computes: [(SimDuration, &str); 5] = [
        (SimDuration::from_micros(200), "200us"),
        (SimDuration::from_millis(1), "1ms"),
        (SimDuration::from_millis(2), "2ms"),
        (SimDuration::from_millis(4), "4ms"),
        (SimDuration::from_millis(16), "16ms"),
    ];
    for (compute, tag) in computes {
        let p = recovery_frontier(compute, 1 << 20);
        t.row(vec![
            compute.to_string(),
            p.recovery.to_string(),
            if p.restored {
                "disk restore"
            } else {
                "lineage recompute"
            }
            .to_string(),
        ]);
        report = report
            .metric(
                format!("frontier_recovery_ms_{tag}"),
                p.recovery.as_secs_f64() * 1e3,
            )
            .metric(
                format!("frontier_restored_{tag}"),
                if p.restored { 1.0 } else { 0.0 },
            );
    }
    println!("{}", t.render());
    println!("expected shape: cheap producers recompute even though a checkpoint");
    println!("exists; once est. recompute crosses the disk restore time (~2.3ms for");
    println!("this restore set) the choice flips to restore and recovery time");
    println!("plateaus at the disk read.\n");

    println!("family 4: durable disk bytes vs checkpoint-GC keep-K");
    println!("(one base epoch + 15 single-shard delta epochs over 4 x 1 MiB shards,");
    println!("2 MiB append-only segments)\n");
    let mut t = Table::new(&[
        "keep K",
        "epochs retained",
        "live MiB",
        "occupied MiB",
        "segments reclaimed",
    ]);
    for keep in [1u32, 2, 4, 8] {
        let p = checkpoint_gc(keep, 16);
        t.row(vec![
            keep.to_string(),
            p.epochs_retained.to_string(),
            format!("{:.1}", p.disk_live_bytes as f64 / (1 << 20) as f64),
            format!("{:.1}", p.disk_occupied_bytes as f64 / (1 << 20) as f64),
            p.segments_reclaimed.to_string(),
        ]);
        report = report
            .metric(
                format!("gc_disk_occupied_bytes_k{keep}"),
                p.disk_occupied_bytes as f64,
            )
            .metric(
                format!("gc_epochs_retained_k{keep}"),
                p.epochs_retained as f64,
            )
            .metric(
                format!("gc_segments_reclaimed_k{keep}"),
                p.segments_reclaimed as f64,
            );
    }
    println!("{}", t.render());
    println!("expected shape: the durable footprint grows with K but is floored by");
    println!("the restore set (GC never collects the newest durable copy of a");
    println!("shard); tighter K drains sealed segments and reclaims them whole.\n");

    println!("family 5: DAG-chain recovery with a shared upstream");
    println!("(A feeds B and C on one slice; one device kill loses a shard of all");
    println!("three, lineage-only recovery)\n");
    let p = chain_recovery();
    let mut t = Table::new(&[
        "chain recovery (virtual)",
        "recomputed",
        "upstream recomputes",
    ]);
    t.row(vec![
        p.recovery.to_string(),
        p.recomputed.to_string(),
        p.upstream_recomputes.to_string(),
    ]);
    report = report
        .metric("chain_recovery_ms", p.recovery.as_secs_f64() * 1e3)
        .metric("chain_recomputed", p.recomputed as f64)
        .metric("chain_upstream_recomputes", p.upstream_recomputes as f64)
        .claim(
            "chain recovery dedupes the shared upstream",
            p.recomputed == 3 && p.upstream_recomputes == 1,
            format!(
                "chain of 3 back in {} with {} upstream recompute(s)",
                p.recovery, p.upstream_recomputes
            ),
        );
    println!("{}", t.render());
    println!("expected shape: the batch recovers in topological order and the shared");
    println!("upstream is recomputed exactly once — the chain costs one producer");
    println!("recompute plus the two downstream rebuilds, not two full chains.");
    report
}
