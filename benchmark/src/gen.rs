//! The workload generator: `--seed` in, plain-data operation lists out.
//! The runtime never sees the seed, only these lists (and `Sim::new`).
//!
//! Two rules keep ten different seeds comparable. The *multiset* of
//! work is fixed per workload (so every seed submits the same number of
//! programs of each size) and the seed only permutes it and jitters
//! compute times by a fraction of a percent. And the op counts below
//! are frozen: they were calibrated once so a rep takes 1–2 s on the
//! 2-core sandbox, and changing them is a `benchmark` issue.

use crate::rng::Rng;

/// Compute-time jitter, parts per million either way, where a window
/// has thousands of programs to average over.
const JITTER_PPM: u64 = 5_000;
/// The same for the workloads whose window is a handful of steps, or
/// whose variants are already spread out on purpose.
const FINE_JITTER_PPM: u64 = 1_000;

// ---------------------------------------------------------------- spmd_wide

pub const SPMD_STEPS: usize = 8;
pub const SPMD_VARIANTS: usize = 2;
pub const SPMD_COMPUTE_NS: u64 = 500_000;

/// One client stepping a prepared one-computation gang program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmdOps {
    /// Compute time of each prepared program variant.
    pub variant_compute_ns: Vec<u64>,
    /// Which variant each step runs.
    pub steps: Vec<u8>,
}

pub fn spmd_wide(seed: u64) -> SpmdOps {
    let mut r = Rng::new(seed, "spmd_wide");
    let variant_compute_ns = (0..SPMD_VARIANTS)
        .map(|_| r.jitter(SPMD_COMPUTE_NS, FINE_JITTER_PPM))
        .collect();
    SpmdOps {
        variant_compute_ns,
        steps: balanced_picks(&mut r, SPMD_STEPS, SPMD_VARIANTS),
    }
}

/// `n` picks from `0..k`, each value used as equally often as `n`
/// allows, in seeded order.
fn balanced_picks(r: &mut Rng, n: usize, k: usize) -> Vec<u8> {
    let mut picks: Vec<u8> = (0..n).map(|i| (i % k) as u8).collect();
    r.shuffle(&mut picks);
    picks
}

// ------------------------------------------------------------ pipeline_deep

pub const PIPELINE_STAGES: u32 = 16;
pub const PIPELINE_MICROBATCHES: u32 = 16;
pub const PIPELINE_STEPS: usize = 4;
pub const PIPELINE_VARIANTS: usize = 2;
pub const PIPELINE_TOKENS: u64 = 65_536;

/// One client stepping prepared GPipe programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineOps {
    /// Tokens per step of each prepared program variant.
    pub variant_tokens: Vec<u64>,
    pub steps: Vec<u8>,
}

pub fn pipeline_deep(seed: u64) -> PipelineOps {
    let mut r = Rng::new(seed, "pipeline_deep");
    PipelineOps {
        variant_tokens: (0..PIPELINE_VARIANTS)
            .map(|_| r.jitter(PIPELINE_TOKENS, FINE_JITTER_PPM))
            .collect(),
        steps: balanced_picks(&mut r, PIPELINE_STEPS, PIPELINE_VARIANTS),
    }
}

// ----------------------------------------------------------- dispatch_fresh

pub const DISPATCH_TENANTS: usize = 8;
pub const DISPATCH_PROGRAMS_PER_TENANT: usize = 448;
pub const DISPATCH_REALLOC_EVERY: usize = 32;
pub const DISPATCH_MIN_KERNELS: usize = 4;
pub const DISPATCH_MAX_KERNELS: usize = 12;
pub const DISPATCH_KERNEL_NS: u64 = 20_000;

/// Per tenant, per program: the compute time of each kernel of a fresh
/// chain (its length is the number of entries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchOps {
    pub tenants: Vec<Vec<Vec<u64>>>,
}

pub fn dispatch_fresh(seed: u64) -> DispatchOps {
    dispatch_fresh_sized(seed, DISPATCH_PROGRAMS_PER_TENANT)
}

/// The same generator at another program count (the threaded replay
/// runs a shorter list).
pub fn dispatch_fresh_sized(seed: u64, programs_per_tenant: usize) -> DispatchOps {
    let lengths = DISPATCH_MAX_KERNELS - DISPATCH_MIN_KERNELS + 1;
    let tenants = (0..DISPATCH_TENANTS)
        .map(|t| {
            let mut r = Rng::new(seed, &format!("dispatch_fresh/{t}"));
            balanced_picks(&mut r, programs_per_tenant, lengths)
                .into_iter()
                .map(|l| {
                    (0..DISPATCH_MIN_KERNELS + l as usize)
                        .map(|_| r.jitter(DISPATCH_KERNEL_NS, JITTER_PPM))
                        .collect()
                })
                .collect()
        })
        .collect();
    DispatchOps { tenants }
}

// ----------------------------------------------------------- tenants_shared

pub const TENANTS_CLIENTS: usize = 16;
/// Runs each client keeps outstanding, so a backlog forms at the
/// scheduler and the weights decide who waits.
pub const TENANTS_OUTSTANDING: usize = 4;
/// The WFQ weights handed out (in seeded order) to the clients.
pub const TENANTS_WEIGHTS: [u32; TENANTS_CLIENTS] =
    [8, 8, 8, 4, 4, 4, 4, 4, 4, 2, 2, 2, 2, 1, 1, 1];
/// A client of weight `w` runs `w` x this many programs, so every
/// client stays backlogged until about the same virtual time and the
/// contention is stationary over the window.
pub const TENANTS_PROGRAMS_PER_WEIGHT: usize = 68;
/// Compute times of the program variants every client cycles through;
/// spread out so queue waits smear over more than one program length.
pub const TENANTS_COMPUTE_NS: [u64; 4] = [70_000, 90_000, 110_000, 130_000];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantsOps {
    /// WFQ weight of each client.
    pub weights: Vec<u32>,
    /// Compute time of each prepared program variant.
    pub variant_compute_ns: Vec<u64>,
    /// Per client, which variant each of its programs runs.
    pub programs: Vec<Vec<u8>>,
}

pub fn tenants_shared(seed: u64) -> TenantsOps {
    let mut r = Rng::new(seed, "tenants_shared");
    let mut weights = TENANTS_WEIGHTS.to_vec();
    r.shuffle(&mut weights);
    let variant_compute_ns = TENANTS_COMPUTE_NS
        .iter()
        .map(|&ns| r.jitter(ns, FINE_JITTER_PPM))
        .collect();
    let programs = weights
        .iter()
        .map(|&w| {
            balanced_picks(
                &mut r,
                w as usize * TENANTS_PROGRAMS_PER_WEIGHT,
                TENANTS_COMPUTE_NS.len(),
            )
        })
        .collect();
    TenantsOps {
        weights,
        variant_compute_ns,
        programs,
    }
}

// ------------------------------------------------------------ chain_islands

pub const CHAIN_LEN: usize = 8;
pub const CHAIN_CHAINS: usize = 1000;
/// Stage compute times. They are spread over ±20 % so that chain
/// latencies smear over more than one DCN hop (34 µs): with equal
/// stages every chain's latency sits on one of two values an event
/// reordering apart, and the median flips between them from seed to
/// seed.
pub const CHAIN_STAGE_NS: [u64; 4] = [80_000, 95_000, 105_000, 120_000];
pub const CHAIN_VARIANTS: usize = CHAIN_STAGE_NS.len();
pub const CHAIN_PAYLOAD_BYTES: u64 = 1 << 20;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainOps {
    /// Compute time of each prepared stage variant.
    pub variant_compute_ns: Vec<u64>,
    /// Per chain, which variant each of its stages runs.
    pub chains: Vec<[u8; CHAIN_LEN]>,
}

pub fn chain_islands(seed: u64) -> ChainOps {
    let mut r = Rng::new(seed, "chain_islands");
    let variant_compute_ns = CHAIN_STAGE_NS
        .iter()
        .map(|&ns| r.jitter(ns, FINE_JITTER_PPM))
        .collect();
    let picks = balanced_picks(&mut r, CHAIN_CHAINS * CHAIN_LEN, CHAIN_VARIANTS);
    let chains = picks
        .chunks_exact(CHAIN_LEN)
        .map(|c| c.try_into().expect("chunk has CHAIN_LEN picks"))
        .collect();
    ChainOps {
        variant_compute_ns,
        chains,
    }
}

// -------------------------------------------------------------- store_spill

pub const SPILL_STEPS: usize = 24_000;
pub const SPILL_WINDOW: usize = 256;
pub const SPILL_VARIANTS: usize = 2;
pub const SPILL_COMPUTE_NS: u64 = 500_000;
pub const SPILL_SHARD_BYTES: u64 = 32 << 20;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillOps {
    pub variant_compute_ns: Vec<u64>,
    pub steps: Vec<u8>,
}

pub fn store_spill(seed: u64) -> SpillOps {
    let mut r = Rng::new(seed, "store_spill");
    SpillOps {
        variant_compute_ns: (0..SPILL_VARIANTS)
            .map(|_| r.jitter(SPILL_COMPUTE_NS, JITTER_PPM))
            .collect(),
        steps: balanced_picks(&mut r, SPILL_STEPS, SPILL_VARIANTS),
    }
}

// ------------------------------------------------------------ store_recover

pub const RECOVER_SCENARIOS: usize = 800;

/// One recovery scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scenario {
    /// No fault: `objects` large outputs are produced and retained under
    /// an HBM budget of four, so the older ones spill; a consumer then
    /// binds object `bind` (an old, spilled one) and pays the read
    /// penalties.
    SpilledRead {
        objects: u32,
        bind: u32,
        compute_ns: u64,
        shard_bytes: u64,
    },
    /// A producer finishes and its checkpoint becomes durable, device
    /// `victim` of its slice is killed, and a consumer binds the lost
    /// object. The producer's compute cost decides whether the recovery
    /// manager restores from the checkpoint or recomputes.
    Kill {
        victim: u32,
        compute_ns: u64,
        shard_bytes: u64,
    },
    /// A shared upstream feeds two downstream objects on one slice; the
    /// kill loses a shard of all three, and a consumer binds both
    /// downstream objects (the upstream must be rebuilt exactly once).
    KillChain {
        victim: u32,
        compute_ns: u64,
        shard_bytes: u64,
    },
}

impl Scenario {
    /// Objects the recovery manager has to rebuild for this scenario.
    pub fn expected_recoveries(&self) -> u64 {
        match self {
            Scenario::SpilledRead { .. } => 0,
            Scenario::Kill { .. } => 1,
            Scenario::KillChain { .. } => 3,
        }
    }
}

/// Producer compute costs either side of the restore-vs-recompute
/// frontier for 4 x 1 MiB objects under a 10 ms checkpoint interval.
pub const RECOVER_CHEAP_NS: u64 = 200_000;
pub const RECOVER_DEAR_NS: u64 = 4_000_000;
pub const RECOVER_KILL_SHARD_BYTES: u64 = 1 << 20;
pub const RECOVER_CHAIN_SHARD_BYTES: u64 = 4 << 20;

/// `base` shrunk by up to 1 %: object sizes carry the seed into the
/// read, restore and transfer times (which compute jitter never
/// reaches) without ever exceeding the size the budgets assume.
fn shrink(r: &mut Rng, base: u64) -> u64 {
    r.jitter(base - base / 200, 5_000)
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverOps {
    pub scenarios: Vec<Scenario>,
}

pub fn store_recover(seed: u64) -> RecoverOps {
    store_recover_sized(seed, RECOVER_SCENARIOS)
}

/// Every 20 scenarios hold 5 spilled reads, 7 restores, 5 recomputes
/// and 3 chains, in seeded order with seeded victims and bindings.
pub fn store_recover_sized(seed: u64, n: usize) -> RecoverOps {
    let mut r = Rng::new(seed, "store_recover");
    let mut kinds: Vec<u8> = (0..n)
        .map(|i| match i % 20 {
            0..=4 => 0,
            5..=11 => 1,
            12..=16 => 2,
            _ => 3,
        })
        .collect();
    r.shuffle(&mut kinds);
    // Object counts and victims are dealt evenly too, so every seed
    // produces, spills and kills the same totals.
    let spilled_reads = kinds.iter().filter(|k| **k == 0).count();
    let mut counts = balanced_picks(&mut r, spilled_reads, 3).into_iter();
    let mut victims = balanced_picks(&mut r, n, 4).into_iter();
    let mut victim = move || u32::from(victims.next().expect("one victim per scenario"));
    let scenarios = kinds
        .into_iter()
        .map(|k| match k {
            0 => {
                let objects = 6 + u32::from(counts.next().expect("one count per spilled read"));
                Scenario::SpilledRead {
                    objects,
                    // Objects 0..objects-4 have been pushed out of HBM.
                    bind: r.below(u64::from(objects) - 4) as u32,
                    compute_ns: r.jitter(SPILL_COMPUTE_NS, JITTER_PPM),
                    shard_bytes: shrink(&mut r, SPILL_SHARD_BYTES),
                }
            }
            1 => Scenario::Kill {
                victim: victim(),
                compute_ns: r.jitter(RECOVER_DEAR_NS, JITTER_PPM),
                shard_bytes: shrink(&mut r, RECOVER_KILL_SHARD_BYTES),
            },
            2 => Scenario::Kill {
                victim: victim(),
                compute_ns: r.jitter(RECOVER_CHEAP_NS, JITTER_PPM),
                shard_bytes: shrink(&mut r, RECOVER_KILL_SHARD_BYTES),
            },
            _ => Scenario::KillChain {
                victim: victim(),
                compute_ns: r.jitter(RECOVER_CHEAP_NS, JITTER_PPM),
                shard_bytes: shrink(&mut r, RECOVER_CHAIN_SHARD_BYTES),
            },
        })
        .collect();
    RecoverOps { scenarios }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generator_repeats_for_a_seed_and_differs_across_seeds() {
        macro_rules! check {
            ($f:expr) => {
                assert_eq!($f(11), $f(11));
                assert_ne!($f(11), $f(12));
            };
        }
        check!(spmd_wide);
        check!(pipeline_deep);
        check!(dispatch_fresh);
        check!(tenants_shared);
        check!(chain_islands);
        check!(store_spill);
        check!(store_recover);
    }

    #[test]
    fn the_multiset_of_work_does_not_depend_on_the_seed() {
        let lengths = |seed| {
            let mut v: Vec<usize> = dispatch_fresh(seed).tenants[0]
                .iter()
                .map(Vec::len)
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(lengths(1), lengths(2));
        assert_eq!(lengths(1).len(), DISPATCH_PROGRAMS_PER_TENANT);
        assert_eq!(*lengths(1).first().unwrap(), DISPATCH_MIN_KERNELS);
        assert_eq!(*lengths(1).last().unwrap(), DISPATCH_MAX_KERNELS);

        let mut w = tenants_shared(5).weights;
        w.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(w, TENANTS_WEIGHTS);
        let t = tenants_shared(6);
        for (w, programs) in t.weights.iter().zip(&t.programs) {
            assert_eq!(programs.len(), *w as usize * TENANTS_PROGRAMS_PER_WEIGHT);
        }

        let recoveries = |seed| -> u64 {
            store_recover(seed)
                .scenarios
                .iter()
                .map(Scenario::expected_recoveries)
                .sum()
        };
        assert_eq!(recoveries(1), recoveries(2));
        assert_eq!(store_recover(1).scenarios.len(), RECOVER_SCENARIOS);
    }

    #[test]
    fn spmd_steps_use_every_variant_equally() {
        let ops = spmd_wide(3);
        assert_eq!(ops.steps.len(), SPMD_STEPS);
        for v in 0..SPMD_VARIANTS as u8 {
            assert_eq!(
                ops.steps.iter().filter(|s| **s == v).count(),
                SPMD_STEPS / SPMD_VARIANTS
            );
        }
    }

    #[test]
    fn spilled_reads_bind_an_object_that_left_hbm() {
        for s in store_recover(9).scenarios {
            if let Scenario::SpilledRead {
                objects,
                bind,
                shard_bytes,
                ..
            } = s
            {
                assert!((6..=8).contains(&objects));
                assert!(bind + 4 < objects);
                // Four shards fit the HBM budget, five do not.
                assert!(shard_bytes <= SPILL_SHARD_BYTES);
                assert!(5 * shard_bytes > 4 * SPILL_SHARD_BYTES);
            }
        }
    }
}
