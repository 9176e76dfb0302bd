//! Refcount-balance property tests (ObjectRef era): across random
//! schedules of plain, chained and abandoned runs — with and without
//! random fault injection — once every `ObjectRef` and `RunResult` has
//! been dropped the object store is empty and every HBM lease has been
//! returned.

use proptest::prelude::*;

use pathways_core::{
    CompId, FaultSpec, FnSpec, InputSpec, ObjectId, ObjectRef, PathwaysConfig, PathwaysRuntime,
    Run, SliceRequest, TierConfig,
};
use pathways_net::{ClientId, ClusterSpec, DeviceId, HostId, NetworkParams};
use pathways_plaque::RunId;
use pathways_sim::{FaultPlan, Sim, SimDuration, SimTime};

/// Per-program action in the random schedule.
///
/// `mode % 3`: 0 = submit and keep the run, 1 = chain on the previous
/// kept output (if any) through an external input, 2 = submit and
/// abandon the run immediately (outputs discarded mid-flight).
fn schedule() -> impl Strategy<Value = Vec<(u8, u16, u8)>> {
    // (slice divisor selector, compute us, mode)
    proptest::collection::vec((1u8..3, 10u16..300, 0u8..3), 1..7)
}

/// Random fault schedule: `(kind, target selector, at_us)`.
/// `kind % 2`: 0 = device failure, 1 = host failure.
fn fault_schedule() -> impl Strategy<Value = Vec<(u8, u8, u16)>> {
    proptest::collection::vec((0u8..2, 0u8..16, 20u16..2_000), 0..4)
}

/// Tight budgets so random schedules actually spill HBM->DRAM and
/// demote DRAM->disk: ~6 64-KiB shards of HBM per device, ~4 of DRAM
/// per host, checkpoints every 100us.
fn tiered_cfg() -> PathwaysConfig {
    PathwaysConfig {
        hbm_per_device: 384 << 10,
        tiers: Some(TierConfig {
            dram_per_host: 256 << 10,
            checkpoint_interval: Some(SimDuration::from_micros(100)),
            ..TierConfig::default()
        }),
        ..PathwaysConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Storage-engine satellite: a random train of single-shard dirty
    /// marks and forced delta-checkpoint commits, under a random
    /// keep-last-K GC policy and segments small enough that the base
    /// epoch seals one. Whatever the train, (a) the restore set always
    /// covers the whole object — GC never reclaims an epoch holding
    /// the newest durable copy of a shard, so base + deltas restore
    /// the same bytes a full checkpoint would; (b) the chain never
    /// holds more epochs than were committed; and (c) dropping the
    /// last ref drains every epoch's disk extent to zero with the tier
    /// ledgers conserved.
    #[test]
    fn delta_checkpoint_chains_stay_restorable_and_drain(
        train in proptest::collection::vec(0u32..4, 1..12),
        keep in 1u32..5,
        seed in any::<u64>(),
    ) {
        const SHARD: u64 = 4 << 10;
        let mut sim = Sim::new(seed);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(1),
            NetworkParams::tpu_cluster(),
            PathwaysConfig {
                tiers: Some(TierConfig {
                    // Epochs are driven explicitly; the base epoch
                    // (4 x 4 KiB) exactly fills and seals one segment.
                    checkpoint_interval: None,
                    checkpoint_keep: keep,
                    disk_segment_bytes: 16 << 10,
                    ..TierConfig::default()
                }),
                ..PathwaysConfig::default()
            },
        );
        let client = rt.client(HostId(0));
        let core = std::sync::Arc::clone(rt.core());
        let store = core.store.clone();
        let train2 = train.clone();
        let committed_bound = train.len() + 1;
        let job = sim.spawn("client", async move {
            let slice = client.virtual_slice(SliceRequest::devices(4)).unwrap();
            let mut b = client.trace("state");
            let k = b.computation(
                FnSpec::compute_only("k", SimDuration::from_micros(100))
                    .with_output_bytes(SHARD),
                &slice,
            );
            let run = client.submit(&client.prepare(&b.build().unwrap())).await;
            let out = run.object_ref(k).unwrap();
            run.finish().await;
            assert_eq!(out.ready().await, Ok(()), "producer never fails here");
            let id = out.id();
            assert!(store.checkpoint_now(id).is_some(), "base epoch commits");
            for s in train2 {
                assert!(store.dirty_shard(id, s), "object is live");
                assert!(store.checkpoint_now(id).is_some(), "delta commits");
            }
            let restorable = store.checkpoint_restorable_bytes(id);
            let epochs = store.checkpoint_epochs(id);
            let live = store.disk_used();
            drop(out);
            (restorable, epochs, live)
        });
        let outcome = sim.run();
        prop_assert!(outcome.is_quiescent(), "wedged: {:?}", outcome);
        let (restorable, epochs, live) = job.try_take().expect("client finished");
        prop_assert_eq!(
            restorable,
            Some(4 * SHARD),
            "restore set must always cover the whole object (train {:?}, keep {})",
            train,
            keep
        );
        prop_assert!(
            epochs >= 1 && epochs <= committed_bound,
            "chain holds {} epochs after {} commits",
            epochs,
            committed_bound
        );
        prop_assert!(
            live >= 4 * SHARD,
            "live disk bytes ({live}) must cover the restore set"
        );
        prop_assert_eq!(
            core.store.disk_used(), 0,
            "epoch extents leaked after the last ref dropped (train {:?}, keep {})",
            &train, keep
        );
        prop_assert!(
            core.store.is_empty(),
            "store leaked {} objects",
            core.store.len()
        );
        prop_assert!(
            core.store.tiers_conserved(),
            "tier byte ledgers drifted (train {:?}, keep {})",
            &train,
            keep
        );
    }

    /// Residency-index satellite: a random train of put / `read_shard`
    /// / release / device-kill / host-kill steps, with waits that let
    /// checkpoint restores land in between, driven straight at the
    /// store under the tight budgets above. After *every* step the
    /// store recounts its residency sets and tier ledgers from the
    /// object table (`tiers_conserved`), and a build with debug
    /// assertions (CI runs one) also compares every victim pick with
    /// the reference scan.
    #[test]
    fn residency_sets_track_every_shard_under_random_trains(
        train in proptest::collection::vec((0u8..24, 0u8..16), 8..64),
        seed in any::<u64>(),
    ) {
        const SHARD: u64 = 192 << 10; // 2 per device HBM, 1 per host DRAM
        let mut sim = Sim::new(seed);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(2),
            NetworkParams::tpu_cluster(),
            tiered_cfg(),
        );
        let core = std::sync::Arc::clone(rt.core());
        let faults = std::sync::Arc::clone(rt.faults());
        let (train2, core2) = (train.clone(), std::sync::Arc::clone(&core));
        let job = sim.spawn("train", async move {
            let (core, store) = (&core2, &core2.store);
            // Two devices on each host take all the pressure.
            let devices = [DeviceId(0), DeviceId(1), DeviceId(8), DeviceId(9)];
            let id = |n: u64| ObjectId { run: RunId(n), comp: CompId(0) };
            let mut live: Vec<u64> = Vec::new();
            for (n, (op, arg)) in train2.into_iter().enumerate() {
                let pick = live.get(usize::from(arg) % live.len().max(1)).copied();
                match op {
                    // Put a ready one-shard object; half of them are
                    // checkpointed, i.e. restorable after a kill.
                    0..=13 => {
                        let d = devices[usize::from(arg) % devices.len()];
                        if !faults.state().device_dead(d) {
                            let n = n as u64;
                            store.declare(id(n), ClientId(0), 1);
                            store.put_shard(id(n), 0, &core.devices[&d], SHARD).await;
                            store.mark_ready(id(n), 0);
                            if arg / 4 % 2 == 0 {
                                store.checkpoint_now(id(n));
                            }
                            live.push(n);
                        }
                    }
                    14..=16 => {
                        if let Some(n) = pick {
                            store.read_shard(id(n), 0);
                        }
                    }
                    17..=19 => {
                        if let Some(n) = pick {
                            store.release(id(n));
                            live.retain(|x| *x != n);
                        }
                    }
                    20 => faults.inject(&FaultSpec::Device(devices[usize::from(arg) % 4])),
                    21 => faults.inject(&FaultSpec::Host(HostId(u32::from(arg) % 2))),
                    _ => core.handle.sleep(SimDuration::from_micros(300)).await,
                }
                assert!(store.tiers_conserved(), "drift after step {n}: {op} {arg}");
            }
            for n in live {
                store.release(id(n));
                assert!(store.tiers_conserved(), "drift releasing {n}");
            }
        });
        let outcome = sim.run();
        prop_assert!(outcome.is_quiescent(), "wedged on {:?}: {:?}", train, outcome);
        prop_assert!(job.try_take().is_some(), "train never finished: {:?}", train);
        prop_assert!(core.store.tiers_conserved());
        prop_assert!(core.store.is_empty(), "store leaked {} objects", core.store.len());
        prop_assert_eq!(core.store.dram_used(), 0);
        prop_assert_eq!(core.store.disk_used(), 0);
    }

    #[test]
    fn refcounts_balance_across_random_chained_schedules(
        hosts in 1u32..3,
        progs in schedule(),
        seed in any::<u64>(),
    ) {
        let mut sim = Sim::new(seed);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(hosts),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let client = rt.client(HostId(0));
        let n_devices = hosts * 8;
        let core = std::sync::Arc::clone(rt.core());
        let progs2 = progs.clone();
        let job = sim.spawn("client", async move {
            let mut kept: Vec<Run> = Vec::new();
            // The most recent kept output, usable as a chain source even
            // if its producing Run was dropped.
            let mut last: Option<ObjectRef> = None;
            for (i, (sel, us, mode)) in progs2.iter().enumerate() {
                let devs = (n_devices / *sel as u32).max(1);
                let slice = client.virtual_slice(SliceRequest::devices(devs)).unwrap();
                let mut b = client.trace(format!("p{i}"));
                let chain_src = if *mode == 1 { last.clone() } else { None };
                let input = chain_src.as_ref().map(|src| {
                    b.input(InputSpec::new("x", src.shards()))
                });
                let k = b.computation(
                    FnSpec::compute_only("k", SimDuration::from_micros(*us as u64))
                        .with_output_bytes(1 << 12),
                    &slice,
                );
                if let Some(x) = input {
                    b.reshard_edge(x, k, 1 << 12);
                }
                let prepared = client.prepare(&b.build().unwrap());
                let run = match (input, chain_src) {
                    (Some(x), Some(src)) => client
                        .submit_with(&prepared, &[(x, src)])
                        .await
                        .unwrap(),
                    _ => client.submit(&prepared).await,
                };
                last = run.object_ref(k);
                if *mode == 2 {
                    drop(run); // abandon: outputs are discarded
                } else {
                    kept.push(run);
                }
            }
            drop(last);
            // Await every kept run; results (and their ObjectRefs) drop
            // immediately.
            for run in kept {
                run.finish().await;
            }
            true
        });
        let outcome = sim.run();
        prop_assert!(outcome.is_quiescent(), "deadlock: {:?}", outcome);
        prop_assert_eq!(job.try_take(), Some(true));
        prop_assert!(
            core.store.is_empty(),
            "store leaked {} objects",
            core.store.len()
        );
        for dev in core.devices.values() {
            prop_assert_eq!(
                dev.hbm().used(),
                0,
                "HBM lease leaked on {:?}",
                dev.id()
            );
        }
    }

    /// Satellite of the fault-injection tentpole: random device/host
    /// fault schedules against the same random plain/chained/abandoned
    /// workloads never leak HBM or store objects, and never wedge a
    /// future — failed runs resolve through typed errors, and refcounts
    /// still balance to an empty store.
    #[test]
    fn refcounts_balance_under_random_faults(
        hosts in 1u32..3,
        progs in schedule(),
        faults in fault_schedule(),
        seed in any::<u64>(),
    ) {
        let mut sim = Sim::new(seed);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(hosts),
            NetworkParams::tpu_cluster(),
            PathwaysConfig::default(),
        );
        let n_devices = hosts * 8;
        let mut plan: FaultPlan<FaultSpec> = FaultPlan::new();
        for (kind, target, at_us) in &faults {
            let at = SimTime::ZERO + SimDuration::from_micros(*at_us as u64);
            let spec = match kind % 2 {
                0 => FaultSpec::Device(DeviceId(u32::from(*target) % n_devices)),
                _ => FaultSpec::Host(HostId(u32::from(*target) % hosts)),
            };
            plan.push(at, spec);
        }
        rt.install_fault_plan(plan);
        let client = rt.client(HostId(0));
        let core = std::sync::Arc::clone(rt.core());
        let progs2 = progs.clone();
        let job = sim.spawn("client", async move {
            let mut kept: Vec<Run> = Vec::new();
            let mut last: Option<ObjectRef> = None;
            let mut resolved = 0u32;
            for (i, (sel, us, mode)) in progs2.iter().enumerate() {
                let devs = (n_devices / *sel as u32).max(1);
                // Dead devices are detached from the resource manager;
                // a cluster that shrank below the request is a
                // legitimate refusal, not a leak — skip the program.
                let Ok(slice) = client.virtual_slice(SliceRequest::devices(devs)) else {
                    continue;
                };
                let mut b = client.trace(format!("p{i}"));
                let chain_src = if *mode == 1 { last.clone() } else { None };
                let input = chain_src.as_ref().map(|src| {
                    b.input(InputSpec::new("x", src.shards()))
                });
                let k = b.computation(
                    FnSpec::compute_only("k", SimDuration::from_micros(*us as u64))
                        .with_allreduce(4)
                        .with_output_bytes(1 << 12),
                    &slice,
                );
                if let Some(x) = input {
                    b.reshard_edge(x, k, 1 << 12);
                }
                let prepared = client.prepare(&b.build().unwrap());
                let run = match (input, chain_src) {
                    (Some(x), Some(src)) => client
                        .submit_with(&prepared, &[(x, src)])
                        .await
                        .unwrap(),
                    _ => client.submit(&prepared).await,
                };
                last = run.object_ref(k);
                if *mode == 2 {
                    drop(run);
                } else {
                    kept.push(run);
                }
            }
            drop(last);
            for run in kept {
                let result = run.finish().await;
                // Every output future resolves, to data or to a typed
                // error — never a hang.
                for (_, objref) in result.refs() {
                    let _ = objref.ready().await;
                    resolved += 1;
                }
            }
            resolved
        });
        let outcome = sim.run();
        prop_assert!(outcome.is_quiescent(), "wedged under faults {:?}: {:?}", faults, outcome);
        prop_assert!(job.try_take().is_some(), "client never finished");
        prop_assert!(
            core.store.is_empty(),
            "store leaked {} objects under faults {:?}",
            core.store.len(),
            faults
        );
        for dev in core.devices.values() {
            prop_assert_eq!(
                dev.hbm().used(),
                0,
                "HBM lease leaked on {:?} under faults {:?}",
                dev.id(),
                &faults
            );
        }
    }

    /// Tiered satellite: random schedules under HBM/DRAM pressure and
    /// random faults — so shards spill, demote, checkpoint, restore and
    /// recompute — always keep the tier byte ledgers conserved, and
    /// drain store, HBM, DRAM and disk to zero once every handle drops.
    ///
    /// Outputs are retained until the end (that is what builds spill
    /// pressure) and submission is sequential (each output awaited
    /// before the next submit), bounding un-spillable in-flight bytes so
    /// back-pressure cannot wedge against the tiny HBM budget.
    #[test]
    fn tiers_conserve_bytes_under_pressure_and_faults(
        hosts in 1u32..3,
        progs in schedule(),
        faults in fault_schedule(),
        seed in any::<u64>(),
    ) {
        let mut sim = Sim::new(seed);
        let rt = PathwaysRuntime::new(
            &sim,
            ClusterSpec::config_b(hosts),
            NetworkParams::tpu_cluster(),
            tiered_cfg(),
        );
        let n_devices = hosts * 8;
        let mut plan: FaultPlan<FaultSpec> = FaultPlan::new();
        for (kind, target, at_us) in &faults {
            let at = SimTime::ZERO + SimDuration::from_micros(*at_us as u64);
            let spec = match kind % 2 {
                0 => FaultSpec::Device(DeviceId(u32::from(*target) % n_devices)),
                _ => FaultSpec::Host(HostId(u32::from(*target) % hosts)),
            };
            plan.push(at, spec);
        }
        rt.install_fault_plan(plan);
        let client = rt.client(HostId(0));
        let core = std::sync::Arc::clone(rt.core());
        let progs2 = progs.clone();
        let job = sim.spawn("client", async move {
            let mut kept: Vec<Run> = Vec::new();
            let mut retained: Vec<ObjectRef> = Vec::new();
            let mut last: Option<ObjectRef> = None;
            for (i, (sel, us, mode)) in progs2.iter().enumerate() {
                let devs = (n_devices / *sel as u32).max(1);
                let Ok(slice) = client.virtual_slice(SliceRequest::devices(devs)) else {
                    continue;
                };
                let mut b = client.trace(format!("p{i}"));
                let chain_src = if *mode == 1 { last.clone() } else { None };
                let input = chain_src.as_ref().map(|src| {
                    b.input(InputSpec::new("x", src.shards()))
                });
                let k = b.computation(
                    FnSpec::compute_only("k", SimDuration::from_micros(*us as u64))
                        .with_output_bytes(64 << 10),
                    &slice,
                );
                if let Some(x) = input {
                    b.reshard_edge(x, k, 64 << 10);
                }
                let prepared = client.prepare(&b.build().unwrap());
                let run = match (input, chain_src) {
                    (Some(x), Some(src)) => client
                        .submit_with(&prepared, &[(x, src)])
                        .await
                        .unwrap(),
                    _ => client.submit(&prepared).await,
                };
                let out = run.object_ref(k);
                if let Some(o) = &out {
                    // Resolve (to data or error) before the next submit.
                    let _ = o.ready().await;
                }
                last = out.clone();
                if *mode == 2 {
                    drop(run);
                } else {
                    kept.push(run);
                    if let Some(o) = out {
                        retained.push(o); // pressure: hold until the end
                    }
                }
            }
            drop(last);
            for run in kept {
                run.finish().await;
            }
            drop(retained);
            true
        });
        let outcome = sim.run();
        prop_assert!(outcome.is_quiescent(), "wedged under faults {:?}: {:?}", faults, outcome);
        prop_assert_eq!(job.try_take(), Some(true));
        prop_assert!(
            core.store.tiers_conserved(),
            "tier byte ledgers drifted under faults {:?}",
            faults
        );
        prop_assert!(
            core.store.is_empty(),
            "store leaked {} objects under faults {:?}",
            core.store.len(),
            faults
        );
        prop_assert_eq!(
            core.store.dram_used(), 0,
            "DRAM-tier bytes leaked under faults {:?}", &faults
        );
        prop_assert_eq!(
            core.store.disk_used(), 0,
            "disk-tier bytes leaked under faults {:?}", &faults
        );
        for dev in core.devices.values() {
            prop_assert_eq!(
                dev.hbm().used(),
                0,
                "HBM lease leaked on {:?} under faults {:?}",
                dev.id(),
                &faults
            );
        }
    }
}
