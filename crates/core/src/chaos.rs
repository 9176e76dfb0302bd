//! Seeded chaos harness: random fault schedules against random
//! chained-`ObjectRef` workloads, with the three invariants the fault
//! subsystem guarantees checked after every run.
//!
//! MLSYSIM-style first-principles argument: the right place to explore
//! failure interleavings is a deterministic simulator, where every fault
//! schedule is replayable bit-for-bit. [`run_chaos`] derives a workload
//! *and* a fault schedule purely from a seed, runs them on one
//! simulation, and returns a [`ChaosReport`] whose fields encode the
//! invariants:
//!
//! 1. **No wedged future** — the simulation reaches quiescence and
//!    every `ObjectRef` resolved (`resolved_ok + resolved_err` equals
//!    the number of sinks awaited); nothing relies on timeouts, only on
//!    error propagation.
//! 2. **Refcounts drain** — after the client drops its handles the
//!    object store is empty and every HBM lease is back
//!    (`store_len == 0`, `hbm_leaked == 0`).
//! 3. **Surviving islands keep making progress** — with
//!    [`ChaosSpec::spare_island`] the last island (and the client host,
//!    placed there) is never targeted, and `survivor_kernels` counts
//!    the kernels its devices executed.
//! 4. **Healed slices heal** — after the fault horizon the client
//!    resubmits one program per slice it allocated (the *heal epoch*).
//!    Slices remapped off dead hardware re-lower transparently; every
//!    resubmission resolves (`healed_ok + healed_err` equals the slice
//!    count) and the spare island's resubmission always succeeds.
//! 5. **Accounting drains** — once the client releases its slices,
//!    every resource-manager use-count is back to zero
//!    (`rm_residual_load == 0`, `rm_live_slices == 0`).
//!
//! Determinism: two [`run_chaos`] calls with the same spec produce
//! identical [`ChaosReport::trace`]s (the fault schedule itself is
//! stamped onto the `faults` trace track, so it is part of the
//! comparison).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use pathways_net::{ClusterSpec, DeviceId, HostId, IslandId, NetworkParams};
use pathways_sim::trace::TraceLog;
use pathways_sim::{Executor, FaultPlan, RunOutcome, SimDuration, SimTime};

use crate::fault::FaultSpec;
use crate::{FnSpec, InputSpec, ObjectRef, PathwaysConfig, PathwaysRuntime, Run, SliceRequest};

/// Shape of one chaos run: cluster size, workload size, fault budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Seed for both the workload and the fault schedule.
    pub seed: u64,
    /// Number of islands.
    pub islands: u32,
    /// Hosts per island.
    pub hosts_per_island: u32,
    /// Devices per host.
    pub devices_per_host: u32,
    /// Programs submitted (randomly plain / chained / abandoned).
    pub programs: u32,
    /// Upper bound on injected faults (the actual count is seeded).
    pub max_faults: u32,
    /// Faults land within `[50us, horizon_us]` of virtual time.
    pub horizon_us: u64,
    /// Keep the last island (and the client host, placed there) out of
    /// every fault's blast radius so surviving-progress is assertable.
    pub spare_island: bool,
    /// Run with storage tiers and recovery enabled
    /// ([`crate::TierConfig::default`]): objects checkpoint to disk and
    /// hardware loss recovers via restore/lineage instead of surfacing
    /// `ProducerFailed`. Adds the tier-conservation invariants to the
    /// report. `false` keeps the single-tier seed semantics.
    pub tiered: bool,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            seed: 0,
            islands: 2,
            hosts_per_island: 2,
            devices_per_host: 4,
            programs: 6,
            max_faults: 3,
            horizon_us: 2_000,
            spare_island: true,
            tiered: false,
        }
    }
}

impl ChaosSpec {
    /// The default shape with a different seed.
    pub fn seeded(seed: u64) -> Self {
        ChaosSpec {
            seed,
            ..Self::default()
        }
    }

    /// The default shape with tiers + recovery enabled.
    pub fn seeded_tiered(seed: u64) -> Self {
        ChaosSpec {
            seed,
            tiered: true,
            ..Self::default()
        }
    }
}

/// What one chaos run did and left behind.
#[derive(Debug)]
pub struct ChaosReport {
    /// Final simulation outcome (quiescent unless something wedged).
    pub outcome: RunOutcome,
    /// Sink `ObjectRef`s that resolved with data.
    pub resolved_ok: u32,
    /// Sink `ObjectRef`s that resolved with `ObjectError::ProducerFailed`.
    pub resolved_err: u32,
    /// The injected fault schedule (nanoseconds, spec), in time order.
    pub faults: Vec<(u64, FaultSpec)>,
    /// The full event trace (device spans + `faults` track).
    pub trace: TraceLog,
    /// Objects left in the store after every handle dropped.
    pub store_len: usize,
    /// HBM bytes still leased across all devices at the end.
    pub hbm_leaked: u64,
    /// Kernels executed by the spare island's devices (0 when
    /// `spare_island` is false).
    pub survivor_kernels: u64,
    /// Heal-epoch resubmissions that completed with data.
    pub healed_ok: u32,
    /// Heal-epoch resubmissions that resolved with a typed error
    /// (pinned island dead, slice unplaceable, ...).
    pub healed_err: u32,
    /// True if the spare island's heal-epoch resubmission succeeded
    /// (vacuously true when `spare_island` is false).
    pub spare_healed: bool,
    /// Programs whose slice allocation succeeded and that were actually
    /// submitted. Always `programs + 1` (the spare) on the
    /// deterministic backend; on the threaded backend a fault can race
    /// ahead of setup and exhaust an island, skipping a program.
    pub launched: u32,
    /// Healing actions the fault injector took (slices remapped off
    /// dead hardware, or recorded unplaceable).
    pub heal_events: u32,
    /// Sum of all resource-manager use-counts after the client released
    /// every slice — nonzero means the accounting ledger drifted.
    pub rm_residual_load: u64,
    /// Live slices left in the resource manager after release.
    pub rm_live_slices: usize,
    /// Tier activity counters ([`crate::TierStats`]; all zero when
    /// [`ChaosSpec::tiered`] is false).
    pub tier_stats: crate::TierStats,
    /// Recovery outcomes ([`crate::RecoveryStats`]; all zero when
    /// untiered).
    pub recovery: crate::RecoveryStats,
    /// DRAM-tier bytes still charged after every handle dropped.
    pub dram_leaked: u64,
    /// Disk-tier bytes still charged after every handle dropped.
    pub disk_leaked: u64,
    /// True iff the tier byte ledgers match a recount of the store's
    /// entries (vacuously true when untiered).
    pub tiers_conserved: bool,
}

impl ChaosReport {
    /// FNV-1a fingerprint of the trace, for compact determinism checks.
    pub fn trace_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for s in self.trace.spans() {
            eat(s.track.as_bytes());
            eat(s.label.as_bytes());
            eat(&s.start.as_nanos().to_le_bytes());
            eat(&s.end.as_nanos().to_le_bytes());
        }
        h
    }
}

struct ProgramShape {
    island: u32,
    devices: u32,
    compute_us: u64,
    allreduce: bool,
    /// Chain on the most recent kept output (if one exists).
    chained: bool,
    /// Drop the run right after submission (outputs discarded).
    abandoned: bool,
}

/// Runs one seeded chaos scenario; see the module docs for the
/// invariants encoded in the returned report.
///
/// # Panics
///
/// Panics only on malformed specs — zero islands, `spare_island` with a
/// single island, or islands of fewer than two devices (the workload
/// generator draws gang sizes of at least 2); the invariants themselves
/// are *reported*, not asserted, so tests can produce useful
/// diagnostics.
#[expect(clippy::expect_used, reason = "static shape, validated by build()")]
pub fn run_chaos(spec: &ChaosSpec) -> ChaosReport {
    assert!(spec.islands >= 1, "chaos needs at least one island");
    assert!(
        !spec.spare_island || spec.islands >= 2,
        "spare_island needs a second island"
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let island_devices = spec.hosts_per_island * spec.devices_per_host;
    assert!(
        island_devices >= 2,
        "chaos islands need at least 2 devices (got {island_devices})"
    );
    let target_islands = if spec.spare_island {
        spec.islands - 1
    } else {
        spec.islands
    };
    let spare = IslandId(spec.islands - 1);

    // --- Workload shape, derived purely from the seed. -----------------
    let mut shapes: Vec<ProgramShape> = (0..spec.programs)
        .map(|_| {
            let island = rng.random_range(0..spec.islands as u64) as u32;
            let max_pow = island_devices.ilog2();
            let devices = 1u32 << rng.random_range(1..u64::from(max_pow) + 1);
            ProgramShape {
                island,
                devices,
                compute_us: rng.random_range(20..300),
                allreduce: rng.random::<bool>(),
                chained: rng.random_range(0..3) == 1,
                abandoned: rng.random_range(0..4) == 3,
            }
        })
        .collect();
    if spec.spare_island {
        // One guaranteed standalone, kept program on the spare island so
        // surviving-progress is observable.
        shapes.push(ProgramShape {
            island: spare.0,
            devices: spec.devices_per_host.max(2),
            compute_us: 100,
            allreduce: true,
            chained: false,
            abandoned: false,
        });
    }

    // --- Fault schedule, also seeded. ----------------------------------
    let n_faults = rng.random_range(0..u64::from(spec.max_faults) + 1) as u32;
    let mut plan: FaultPlan<FaultSpec> = FaultPlan::new();
    let mut faults: Vec<(u64, FaultSpec)> = Vec::new();
    let hosts_in_targets = target_islands * spec.hosts_per_island;
    for _ in 0..n_faults {
        if hosts_in_targets == 0 {
            break;
        }
        let at =
            SimTime::ZERO + SimDuration::from_micros(rng.random_range(50..spec.horizon_us.max(51)));
        let fault = match rng.random_range(0..3) {
            0 => {
                let d = rng.random_range(0..u64::from(target_islands * island_devices)) as u32;
                FaultSpec::Device(DeviceId(d))
            }
            1 => {
                let h = rng.random_range(0..u64::from(hosts_in_targets)) as u32;
                FaultSpec::Host(HostId(h))
            }
            _ => {
                let a = rng.random_range(0..u64::from(hosts_in_targets)) as u32;
                let b = rng.random_range(0..u64::from(hosts_in_targets)) as u32;
                if a == b {
                    FaultSpec::Host(HostId(a))
                } else {
                    FaultSpec::Link(HostId(a), HostId(b))
                }
            }
        };
        faults.push((at.as_nanos(), fault));
        plan.push(at, fault);
    }
    faults.sort();

    // --- Build and run the simulation. ---------------------------------
    // Backend comes from `PATHWAYS_EXECUTOR` so the CI matrix can run
    // the same chaos schedules on the deterministic wheel and on real
    // threads. Invariants hold on both; only the deterministic backend
    // additionally guarantees bit-identical traces.
    let mut sim = Executor::from_env(spec.seed);
    sim.handle().record_trace(true);
    let cfg = PathwaysConfig {
        tiers: spec.tiered.then(crate::TierConfig::default),
        ..PathwaysConfig::default()
    };
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(spec.islands, spec.hosts_per_island, spec.devices_per_host),
        NetworkParams::tpu_cluster(),
        cfg,
    );
    rt.install_fault_plan(plan);
    // The client process lives on the spare island's first host when one
    // exists, so client-host death does not conflate the invariants.
    let client_host = if spec.spare_island {
        HostId(target_islands * spec.hosts_per_island)
    } else {
        HostId(0)
    };
    let client = rt.client(client_host);
    let core = std::sync::Arc::clone(rt.core());
    let rm = std::sync::Arc::clone(rt.resource_manager());
    let spare_slice_idx = shapes.len().saturating_sub(1);
    let has_spare = spec.spare_island;

    let job = sim.spawn("chaos-client", async move {
        let mut kept: Vec<(Run, ObjectRef)> = Vec::new();
        let mut slices: Vec<(usize, crate::VirtualSlice)> = Vec::new();
        let mut last: Option<ObjectRef> = None;
        for (i, shape) in shapes.iter().enumerate() {
            // On the deterministic backend every allocation happens
            // before the first fault (earliest fault: t=50us) and must
            // succeed. On the threaded backend real time passes during
            // setup, so a fault can race ahead of an allocation and
            // legitimately exhaust the island; such programs are skipped
            // and `launched` records how many actually ran.
            let slice = match client.virtual_slice(
                SliceRequest::devices(shape.devices).in_island(IslandId(shape.island)),
            ) {
                Ok(s) => s,
                Err(_) => continue,
            };
            slices.push((i, slice.clone()));
            let mut b = client.trace(format!("p{i}"));
            let chain_src = if shape.chained { last.clone() } else { None };
            let input = chain_src
                .as_ref()
                .map(|src| b.input(InputSpec::new("x", src.shards())));
            let mut f = FnSpec::compute_only("k", SimDuration::from_micros(shape.compute_us))
                .with_output_bytes(1 << 12);
            if shape.allreduce {
                f = f.with_allreduce(4);
            }
            let k = b.computation(f, &slice);
            if let Some(x) = input {
                b.reshard_edge(x, k, 1 << 12);
            }
            let prepared = client.prepare(&b.build().expect("valid chaos program"));
            let run = match (input, chain_src) {
                (Some(x), Some(src)) => client
                    .submit_with(&prepared, &[(x, src)])
                    .await
                    .expect("bindings are valid"),
                _ => client.submit(&prepared).await,
            };
            let out = run.object_ref(k).expect("sink exists");
            last = Some(out.clone());
            if shape.abandoned {
                drop(run); // outputs discarded mid-flight
            } else {
                kept.push((run, out));
            }
        }
        drop(last);
        // Await every kept run and classify every output future: with
        // fault propagation none of these can hang.
        let mut ok = 0u32;
        let mut err = 0u32;
        for (run, out) in kept {
            run.finish().await;
            match out.ready().await {
                Ok(()) => ok += 1,
                Err(_) => err += 1,
            }
        }
        // Heal epoch: every fault has landed (the kept runs resolved
        // after the horizon); resubmit one fresh program per allocated
        // slice. Slices that were remapped off dead hardware re-lower
        // transparently and must complete; slices on dead islands (or
        // left unplaceable) must fail fast with a typed error — either
        // way nothing may hang.
        let mut healed_ok = 0u32;
        let mut healed_err = 0u32;
        let mut spare_healed = !has_spare;
        for (i, slice) in &slices {
            let mut b = client.trace(format!("heal{i}"));
            let k = b.computation(
                FnSpec::compute_only("hk", SimDuration::from_micros(40)).with_output_bytes(1 << 10),
                slice,
            );
            let prepared = client.prepare(&b.build().expect("valid heal program"));
            let run = client.submit(&prepared).await;
            let out = run.object_ref(k).expect("sink exists");
            run.finish().await;
            match out.ready().await {
                Ok(()) => {
                    healed_ok += 1;
                    if has_spare && *i == spare_slice_idx {
                        spare_healed = true;
                    }
                }
                Err(_) => healed_err += 1,
            }
        }
        // Drain: release every slice so the accounting ledger must
        // return to zero.
        let launched = slices.len() as u32;
        for (_, slice) in &slices {
            rm.release(slice);
        }
        (ok, err, healed_ok, healed_err, spare_healed, launched)
    });

    let outcome = sim.run();
    let (resolved_ok, resolved_err, healed_ok, healed_err, spare_healed, launched) =
        job.try_take().unwrap_or((0, 0, 0, 0, false, 0));
    let store_len = core.store.len();
    let hbm_leaked: u64 = core.devices.values().map(|d| d.hbm().used()).sum();
    let survivor_kernels: u64 = if spec.spare_island {
        core.fabric
            .topology()
            .devices_of_island(spare)
            .map(|d| core.devices[&d].stats().kernels)
            .sum()
    } else {
        0
    };
    let rm = rt.resource_manager();
    ChaosReport {
        outcome,
        resolved_ok,
        resolved_err,
        faults,
        trace: sim.take_trace(),
        store_len,
        hbm_leaked,
        survivor_kernels,
        healed_ok,
        healed_err,
        spare_healed,
        launched,
        heal_events: rt.faults().heal_events().len() as u32,
        rm_residual_load: rm.total_load(),
        rm_live_slices: rm.live_slice_count(),
        tier_stats: core.store.tier_stats(),
        recovery: rt.faults().recovery_stats(),
        dram_leaked: core.store.dram_used(),
        disk_leaked: core.store.disk_used(),
        tiers_conserved: core.store.tiers_conserved(),
    }
}
