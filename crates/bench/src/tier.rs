//! `fig_tier` harness: the two headline curves of the tiered object
//! store.
//!
//! **Family 1 — throughput vs HBM budget.** One client steps a 4-device
//! gang program and *retains every output* (the accumulating-activations
//! pattern), so resident bytes grow linearly with steps. Against a large
//! HBM budget nothing spills; as the budget shrinks the store's LRU
//! spiller moves cold shards to host DRAM (and past the DRAM budget, to
//! disk), and each spill costs virtual transfer time on the producing
//! device's critical path. The curve is steps/second of virtual time vs
//! budget, with the spill/demotion counters alongside.
//!
//! **Family 2 — recovery time vs checkpoint interval.** A producer with
//! expensive compute finishes, a scripted fault kills one device holding
//! its output, and a consumer submitted after the kill binds the lost
//! object. With checkpointing enabled the object restores from disk (one
//! disk read); with `checkpoint_interval: None` it recomputes via
//! lineage (re-runs the producer). The curve is virtual time from kill
//! to consumer completion vs interval — the classic
//! checkpoint-vs-recompute tradeoff, which flips whenever recompute cost
//! drops below the disk read.
//!
//! **Family 3 — the restore-vs-recompute frontier.** Same harness as
//! family 2 but with checkpointing *fixed* (10ms interval) and the
//! producer's compute cost and shard size swept instead: the recovery
//! manager models both paths and picks the cheaper one per object, so
//! the sweep maps where the frontier sits — cheap producers recompute
//! even though a checkpoint exists, expensive ones restore.
//!
//! **Family 4 — durable disk bytes vs checkpoint-GC keep-K.** One
//! retained object commits a base epoch plus a train of single-shard
//! delta epochs; keep-last-K GC (which never collects an epoch still
//! holding the newest durable copy of some shard) bounds the disk
//! footprint, and sealed append-only segments are reclaimed whole once
//! their extents die. The curve is epochs retained / live / durably
//! occupied disk bytes vs K.
//!
//! **Family 5 — DAG-chain recovery.** A shared upstream producer feeds
//! two downstream objects on the same slice; one device kill loses a
//! shard of all three at once. The recovery manager absorbs the batch,
//! walks the lineage DAG in topological order, and recomputes the
//! shared upstream exactly once (trace-counted) before rebuilding both
//! consumers.

use pathways_core::{
    FaultSpec, FnSpec, InputSpec, PathwaysConfig, PathwaysRuntime, SliceRequest, Tier, TierConfig,
};
use pathways_net::{ClusterSpec, DeviceId, HostId, IslandId, NetworkParams};
use pathways_sim::{FaultPlan, Sim, SimDuration, SimTime};

/// One point of the throughput-vs-HBM-budget sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillPoint {
    /// HBM capacity per device.
    pub hbm_bytes: u64,
    /// Gang steps completed per second of virtual time.
    pub steps_per_sec: f64,
    /// HBM -> DRAM spills performed.
    pub spills: u64,
    /// DRAM -> disk demotions performed.
    pub demotions: u64,
    /// Total bytes moved out of HBM.
    pub spilled_bytes: u64,
}

/// One point of the recovery-time-vs-checkpoint-interval sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPoint {
    /// Checkpoint interval (`None` = lineage recompute only).
    pub checkpoint_interval: Option<SimDuration>,
    /// Virtual time from the device kill to the consumer completing on
    /// the recovered object.
    pub recovery: SimDuration,
    /// True if the object came back from a disk checkpoint, false if it
    /// was recomputed via lineage.
    pub restored: bool,
}

/// One point of the restore-vs-recompute frontier sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierPoint {
    /// Producer compute cost per shard.
    pub compute: SimDuration,
    /// Bytes per output shard (4 shards per object).
    pub shard_bytes: u64,
    /// Virtual time from the device kill to the consumer completing on
    /// the recovered object.
    pub recovery: SimDuration,
    /// Which path the recovery manager's cost model picked: disk
    /// restore (`true`) or lineage recompute (`false`). A checkpoint
    /// always exists in this sweep — the choice is purely economic.
    pub restored: bool,
}

/// One point of the checkpoint-GC sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcPoint {
    /// Keep-last-K GC policy swept.
    pub keep: u32,
    /// Epochs committed (one full base + single-shard deltas).
    pub epochs_committed: u32,
    /// Epochs still in the chain after GC (last K plus any older epoch
    /// holding the newest durable copy of some shard).
    pub epochs_retained: usize,
    /// Live checkpoint bytes on disk.
    pub disk_live_bytes: u64,
    /// Live + dead bytes in unreclaimed segments — what the disk
    /// durably holds after GC.
    pub disk_occupied_bytes: u64,
    /// Sealed append-only segments reclaimed whole.
    pub segments_reclaimed: u64,
}

/// Result of the DAG-chain recovery scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainPoint {
    /// Virtual time from the device kill to a post-kill consumer of
    /// both downstream objects completing.
    pub recovery: SimDuration,
    /// Objects rebuilt via lineage (the whole 3-object chain).
    pub recomputed: u64,
    /// How many times the shared upstream producer was recomputed
    /// (trace-counted; the dedup guarantee makes this exactly one).
    pub upstream_recomputes: u64,
}

/// Bytes per output shard in both workloads (4-shard gang: 128 MiB per
/// retained object in the spill sweep).
pub const SHARD_BYTES: u64 = 32 << 20;

/// Runs the retained-outputs stepping workload against `hbm_bytes` of
/// HBM per device and returns the measured point. Deterministic for
/// equal arguments.
pub fn spill_throughput(hbm_bytes: u64, steps: u32) -> SpillPoint {
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(1, 2, 4),
        NetworkParams::tpu_cluster(),
        PathwaysConfig {
            hbm_per_device: hbm_bytes,
            tiers: Some(TierConfig {
                // Family 1 isolates the spill path: no checkpoint
                // traffic, and a DRAM budget small enough that the
                // tightest HBM budget also demotes to disk.
                dram_per_host: 512 << 20,
                checkpoint_interval: None,
                ..TierConfig::default()
            }),
            ..PathwaysConfig::default()
        },
    );
    let client = rt.client(HostId(0));
    let job = sim.spawn("stepper", async move {
        let h = client.handle().clone();
        let slice = client
            .virtual_slice(SliceRequest::devices(4))
            .expect("island fits a 4-device slice");
        let mut b = client.trace("step");
        let k = b.computation(
            FnSpec::compute_only("train_step", SimDuration::from_micros(500))
                .with_output_bytes(SHARD_BYTES),
            &slice,
        );
        let prepared = client.prepare(&b.build().expect("valid step program"));
        let mut retained = Vec::new();
        for _ in 0..steps {
            let run = client.submit(&prepared).await;
            let out = run.object_ref(k).expect("sink exists");
            run.finish().await;
            assert_eq!(out.ready().await, Ok(()), "steps never fail here");
            retained.push(out); // accumulate: this is the spill pressure
        }
        let elapsed = h.now() - SimTime::ZERO;
        drop(retained);
        elapsed
    });
    sim.run_to_quiescence();
    let elapsed = job.try_take().expect("stepper finished");
    let core = rt.core();
    let stats = core.store.tier_stats();
    let spilled_bytes: u64 = core
        .store
        .spill_events()
        .iter()
        .filter(|e| e.from == Tier::Hbm)
        .map(|e| e.bytes)
        .sum();
    assert!(core.store.is_empty(), "retained outputs must drain");
    SpillPoint {
        hbm_bytes,
        steps_per_sec: f64::from(steps) / elapsed.as_secs_f64(),
        spills: stats.spills,
        demotions: stats.demotions,
        spilled_bytes,
    }
}

/// Shared families-2-and-3 harness: a producer with `compute` per-shard
/// cost and `shard_bytes` outputs on island 0 finishes, a scripted
/// fault kills one device holding its output at 300ms, and a consumer
/// submitted just after binds the lost object. Returns kill-to-consumer
/// time and whether the recovery went through the checkpoint restore
/// path. Deterministic for equal arguments.
fn recovery_case(
    checkpoint_interval: Option<SimDuration>,
    compute: SimDuration,
    shard_bytes: u64,
) -> (SimDuration, bool) {
    const KILL_US: u64 = 300_000;
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(2, 2, 4),
        NetworkParams::tpu_cluster(),
        PathwaysConfig {
            tiers: Some(TierConfig {
                checkpoint_interval,
                ..TierConfig::default()
            }),
            ..PathwaysConfig::default()
        },
    );
    // Device 1 is always part of the deterministic least-loaded
    // 4-device placement on island 0.
    rt.install_fault_plan(FaultPlan::new().at(
        SimTime::ZERO + SimDuration::from_micros(KILL_US),
        FaultSpec::Device(DeviceId(1)),
    ));
    let client = rt.client(HostId(2));
    let job = sim.spawn("client", async move {
        let h = client.handle().clone();
        let slice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(0)))
            .expect("island 0 fits the producer");
        let mut b = client.trace("producer");
        let k = b.computation(
            FnSpec::compute_only("expensive", compute).with_output_bytes(shard_bytes),
            &slice,
        );
        let run = client
            .submit(&client.prepare(&b.build().expect("valid producer")))
            .await;
        let out = run.object_ref(k).expect("sink exists");
        run.finish().await;
        assert_eq!(out.ready().await, Ok(()), "producer must succeed");

        h.sleep_until(SimTime::ZERO + SimDuration::from_micros(KILL_US + 100))
            .await;
        let t0 = h.now();
        let cslice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(0)))
            .expect("island 0 still has 4 live devices");
        let mut b = client.trace("consumer");
        let x = b.input(InputSpec::new("x", out.shards()));
        let c = b.computation(
            FnSpec::compute_only("consume", SimDuration::from_micros(100)),
            &cslice,
        );
        b.reshard_edge(x, c, 1 << 16);
        let crun = client
            .submit_with(
                &client.prepare(&b.build().expect("valid consumer")),
                &[(x, out)],
            )
            .await
            .expect("binding is valid");
        let cout = crun.object_ref(c).expect("sink exists");
        crun.finish().await;
        assert_eq!(cout.ready().await, Ok(()), "consumer must recover");
        h.now() - t0
    });
    sim.run_to_quiescence();
    let recovery = job.try_take().expect("client finished");
    let stats = rt.faults().recovery_stats();
    assert_eq!(
        stats.restored + stats.recomputed,
        1,
        "exactly one recovery: {stats:?}"
    );
    (recovery, stats.restored == 1)
}

/// Measures kill-to-consumer-completion time for one checkpoint
/// interval: an expensive (200ms) producer on island 0 finishes, a
/// scripted fault kills one device holding its output at 300ms, and a
/// consumer submitted just after binds the lost object. Deterministic
/// for equal arguments.
pub fn recovery_latency(checkpoint_interval: Option<SimDuration>) -> RecoveryPoint {
    let (recovery, restored) = recovery_case(
        checkpoint_interval,
        SimDuration::from_millis(200),
        SHARD_BYTES,
    );
    RecoveryPoint {
        checkpoint_interval,
        recovery,
        restored,
    }
}

/// One point of the restore-vs-recompute frontier: checkpointing fixed
/// at a 10ms interval (a committed epoch always exists by kill time),
/// producer compute and shard size swept. The recovery manager models
/// both paths — restore time is the per-epoch disk latency plus the
/// restore set over disk bandwidth; recompute is the producer's
/// estimated device time — and takes the cheaper, so the sweep locates
/// the frontier. Deterministic for equal arguments.
pub fn recovery_frontier(compute: SimDuration, shard_bytes: u64) -> FrontierPoint {
    let (recovery, restored) =
        recovery_case(Some(SimDuration::from_millis(10)), compute, shard_bytes);
    FrontierPoint {
        compute,
        shard_bytes,
        recovery,
        restored,
    }
}

/// Drives one retained 4-shard object through `epochs` checkpoint
/// commits — one full base epoch then single-shard deltas rotating
/// through the shards — under a keep-last-`keep` GC policy, and
/// returns the disk-footprint accounting. Segments are deliberately
/// small (2 MiB vs 1 MiB shards) so GC'd epochs drain sealed segments
/// and whole-segment reclamation shows up in the curve. Deterministic
/// for equal arguments.
pub fn checkpoint_gc(keep: u32, epochs: u32) -> GcPoint {
    assert!(epochs >= 1, "need at least the base epoch");
    const GC_SHARD_BYTES: u64 = 1 << 20;
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(1, 2, 4),
        NetworkParams::tpu_cluster(),
        PathwaysConfig {
            tiers: Some(TierConfig {
                // Epochs are driven explicitly below; the periodic
                // checkpointer would race extra commits into the train.
                checkpoint_interval: None,
                checkpoint_keep: keep,
                disk_segment_bytes: 2 << 20,
                ..TierConfig::default()
            }),
            ..PathwaysConfig::default()
        },
    );
    let store = rt.core().store.clone();
    let client = rt.client(HostId(0));
    let job = sim.spawn("gc-driver", async move {
        let slice = client
            .virtual_slice(SliceRequest::devices(4))
            .expect("island fits a 4-device slice");
        let mut b = client.trace("state");
        let k = b.computation(
            FnSpec::compute_only("init", SimDuration::from_micros(500))
                .with_output_bytes(GC_SHARD_BYTES),
            &slice,
        );
        let run = client
            .submit(&client.prepare(&b.build().expect("valid program")))
            .await;
        let out = run.object_ref(k).expect("sink exists");
        run.finish().await;
        assert_eq!(out.ready().await, Ok(()), "producer must succeed");
        // Base epoch: all four shards are dirty from production.
        assert!(
            store.checkpoint_now(out.id()).is_some(),
            "base epoch must commit"
        );
        for e in 0..epochs - 1 {
            // Each training "step" re-dirties one shard; the next
            // commit persists just that delta.
            assert!(store.dirty_shard(out.id(), e % 4), "object is live");
            assert!(
                store.checkpoint_now(out.id()).is_some(),
                "delta epoch must commit"
            );
        }
        out
    });
    sim.run_to_quiescence();
    let out = job.try_take().expect("gc driver finished");
    let store = rt.core().store.clone();
    let seg = store.segment_stats();
    let point = GcPoint {
        keep,
        epochs_committed: epochs,
        epochs_retained: store.checkpoint_epochs(out.id()),
        disk_live_bytes: store.disk_used(),
        disk_occupied_bytes: store.disk_occupied(),
        segments_reclaimed: seg.reclaimed,
    };
    drop(out);
    point
}

/// The DAG-chain recovery scenario: upstream producer `A` feeds two
/// downstream objects `B` and `C` on the same 4-device slice, all
/// three refs retained, checkpointing off (pure lineage). A scripted
/// kill of one slice device at 300ms loses a shard of all three at
/// once; the recovery manager absorbs them as one batch, orders the
/// lineage DAG topologically, recomputes `A` exactly once, then
/// rebuilds `B` and `C` against the recovered upstream. A consumer of
/// both downstream objects submitted after the kill times the chain.
/// Deterministic.
pub fn chain_recovery() -> ChainPoint {
    const KILL_US: u64 = 300_000;
    const CHAIN_SHARD_BYTES: u64 = 4 << 20;
    let mut sim = Sim::new(0);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(2, 2, 4),
        NetworkParams::tpu_cluster(),
        PathwaysConfig {
            tiers: Some(TierConfig {
                checkpoint_interval: None,
                ..TierConfig::default()
            }),
            ..PathwaysConfig::default()
        },
    );
    rt.install_fault_plan(FaultPlan::new().at(
        SimTime::ZERO + SimDuration::from_micros(KILL_US),
        FaultSpec::Device(DeviceId(1)),
    ));
    let client = rt.client(HostId(2));
    let job = sim.spawn("client", async move {
        let h = client.handle().clone();
        // One slice for the whole chain: every object shards over the
        // same 4 devices, so the kill loses a shard of each.
        let slice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(0)))
            .expect("island 0 fits the chain");
        let mut b = client.trace("upstream");
        let ka = b.computation(
            FnSpec::compute_only("shared_upstream", SimDuration::from_millis(1))
                .with_output_bytes(CHAIN_SHARD_BYTES),
            &slice,
        );
        let arun = client
            .submit(&client.prepare(&b.build().expect("valid upstream")))
            .await;
        let out_a = arun.object_ref(ka).expect("sink exists");
        arun.finish().await;
        assert_eq!(out_a.ready().await, Ok(()), "upstream must succeed");

        let mut downstream = Vec::new();
        for name in ["left", "right"] {
            let mut b = client.trace(name);
            let x = b.input(InputSpec::new("a", out_a.shards()));
            let k = b.computation(
                FnSpec::compute_only(name, SimDuration::from_micros(500))
                    .with_output_bytes(CHAIN_SHARD_BYTES),
                &slice,
            );
            b.reshard_edge(x, k, 1 << 16);
            let run = client
                .submit_with(
                    &client.prepare(&b.build().expect("valid downstream")),
                    &[(x, out_a.clone())],
                )
                .await
                .expect("binding is valid");
            let out = run.object_ref(k).expect("sink exists");
            run.finish().await;
            assert_eq!(out.ready().await, Ok(()), "downstream must succeed");
            downstream.push(out);
        }
        let out_c = downstream.pop().expect("two downstream objects");
        let out_b = downstream.pop().expect("two downstream objects");

        h.sleep_until(SimTime::ZERO + SimDuration::from_micros(KILL_US + 100))
            .await;
        let t0 = h.now();
        // The consumer runs on island 1: its enqueued kernels wait for
        // B and C, and the recompute of B and C re-lowers onto healed
        // island-0 devices — putting the consumer on those same queues
        // would park it *ahead* of the very kernels it waits on.
        let dslice = client
            .virtual_slice(SliceRequest::devices(4).in_island(IslandId(1)))
            .expect("island 1 is untouched by the kill");
        let mut b = client.trace("consumer");
        let xb = b.input(InputSpec::new("b", out_b.shards()));
        let xc = b.input(InputSpec::new("c", out_c.shards()));
        let d = b.computation(
            FnSpec::compute_only("consume", SimDuration::from_micros(100)),
            &dslice,
        );
        b.reshard_edge(xb, d, 1 << 16);
        b.reshard_edge(xc, d, 1 << 16);
        let drun = client
            .submit_with(
                &client.prepare(&b.build().expect("valid consumer")),
                &[(xb, out_b), (xc, out_c)],
            )
            .await
            .expect("bindings are valid");
        let dout = drun.object_ref(d).expect("sink exists");
        drun.finish().await;
        assert_eq!(dout.ready().await, Ok(()), "chain must recover");
        (h.now() - t0, out_a.id())
    });
    sim.run_to_quiescence();
    let (recovery, a_id) = job.try_take().expect("client finished");
    let stats = rt.faults().recovery_stats();
    assert_eq!(
        stats.restored + stats.recomputed,
        3,
        "the whole 3-object chain recovers: {stats:?}"
    );
    let label = format!("recompute {a_id}");
    let upstream_recomputes = sim
        .take_trace()
        .spans()
        .iter()
        .filter(|s| &*s.track == "tiers" && *s.label == *label)
        .count() as u64;
    ChainPoint {
        recovery,
        recomputed: stats.recomputed,
        upstream_recomputes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinking_hbm_budget_spills_and_costs_throughput() {
        let roomy = spill_throughput(2 << 30, 24);
        let tight = spill_throughput(256 << 20, 24);
        assert_eq!(roomy.spills, 0, "2 GiB fits 24 x 32 MiB shards");
        assert!(tight.spills > 0, "256 MiB cannot hold 768 MiB of outputs");
        assert!(tight.demotions > 0, "spill overflow must demote to disk");
        assert!(
            tight.steps_per_sec < roomy.steps_per_sec,
            "spill transfers must cost virtual time ({} vs {})",
            tight.steps_per_sec,
            roomy.steps_per_sec
        );
    }

    #[test]
    fn frontier_flips_from_recompute_to_restore_with_compute_cost() {
        // 4 x 1 MiB restore set: ~200us disk latency + ~2.1ms transfer.
        // A 200us producer (est. 800us recompute) is cheaper than that;
        // a 4ms producer (est. 16ms) is not.
        let cheap = recovery_frontier(SimDuration::from_micros(200), 1 << 20);
        let dear = recovery_frontier(SimDuration::from_millis(4), 1 << 20);
        assert!(
            !cheap.restored,
            "cheap producer must recompute despite a committed checkpoint"
        );
        assert!(dear.restored, "expensive producer must restore from disk");
        assert!(
            dear.recovery < SimDuration::from_millis(16),
            "restore must dodge the 16ms recompute ({})",
            dear.recovery
        );
    }

    #[test]
    fn gc_keep_k_bounds_durable_disk_bytes() {
        let tight = checkpoint_gc(1, 12);
        let loose = checkpoint_gc(8, 12);
        assert_eq!(tight.epochs_committed, 12);
        // keep=1 still retains the epochs holding the newest durable
        // copy of each of the 4 rotating shards.
        assert!(
            tight.epochs_retained >= 4 && tight.epochs_retained < loose.epochs_retained,
            "retention must scale with K ({} vs {})",
            tight.epochs_retained,
            loose.epochs_retained
        );
        assert!(
            tight.disk_live_bytes < loose.disk_live_bytes,
            "tighter GC keeps fewer live bytes"
        );
        assert!(
            tight.disk_occupied_bytes <= loose.disk_occupied_bytes,
            "tighter GC cannot occupy more disk"
        );
        assert!(
            tight.segments_reclaimed > 0,
            "GC'd delta epochs must drain sealed segments"
        );
    }

    #[test]
    fn chain_recovery_recomputes_shared_upstream_once() {
        let p = chain_recovery();
        assert_eq!(p.recomputed, 3, "A, B and C all rebuild via lineage");
        assert_eq!(
            p.upstream_recomputes, 1,
            "the shared upstream is deduped to one recompute"
        );
        assert!(
            p.recovery > SimDuration::ZERO,
            "chain recovery takes virtual time"
        );
    }

    #[test]
    fn checkpoint_restore_beats_expensive_recompute() {
        let lineage = recovery_latency(None);
        let ckpt = recovery_latency(Some(SimDuration::from_millis(10)));
        assert!(!lineage.restored, "no checkpoint exists to restore");
        assert!(ckpt.restored, "a committed checkpoint must win");
        assert!(
            ckpt.recovery < lineage.recovery,
            "disk read must beat a 200ms recompute ({} vs {})",
            ckpt.recovery,
            lineage.recovery
        );
    }
}
