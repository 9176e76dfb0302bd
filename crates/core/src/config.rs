//! Runtime configuration.

use pathways_sim::SimDuration;

use crate::sched::SchedPolicy;
use crate::storage::TierConfig;

/// Host-side dispatch strategy (§4.5, Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Parallel asynchronous dispatch: host-side work for every node of
    /// a program runs as soon as the (single) scheduler grant arrives,
    /// in parallel with predecessors' device execution.
    #[default]
    Parallel,
    /// Sequential asynchronous dispatch: a node's host-side work starts
    /// only after its predecessors have been enqueued and their output
    /// futures received — the Figure 4a baseline that Figure 7 compares
    /// against.
    Sequential,
}

/// Tunable parameters of the Pathways runtime.
#[derive(Debug, Clone)]
pub struct PathwaysConfig {
    /// Host-side dispatch strategy.
    pub dispatch: DispatchMode,
    /// Island-scheduler policy. A constructor facade: each island
    /// scheduler builds its own policy-engine instance from this value
    /// (see [`crate::sched::policy`]), so accounting state is never
    /// shared across islands. Use [`SchedPolicy::custom`] to plug in an
    /// out-of-tree policy.
    pub policy: SchedPolicy,
    /// Client-side cost per program submission (Python call, tracing
    /// cache lookup, serialization).
    pub client_overhead: SimDuration,
    /// Additional client-side cost per computation node submitted.
    pub client_per_comp: SimDuration,
    /// Scheduler policy work per program.
    pub sched_decision: SimDuration,
    /// How far ahead of estimated device availability the scheduler
    /// grants work. Smaller values make scheduling policies (e.g.
    /// proportional share) bite sooner; larger values deepen pipelining.
    pub sched_horizon: SimDuration,
    /// HBM capacity per device (TPUv3: 16 GiB).
    pub hbm_per_device: u64,
    /// Batch all of a program's grants for one host into a single DCN
    /// message (§4.5's "single message describing the entire subgraph").
    /// `false` sends one message per computation — the ablation.
    pub batch_grants: bool,
    /// Storage tiers and object recovery. `None` (the default) keeps
    /// the single-tier seed semantics: HBM only, no spill, no
    /// checkpoints, `ProducerFailed` terminal. `Some` enables host-DRAM
    /// and disk tiers with LRU spill under HBM pressure, periodic disk
    /// checkpoints, and (if [`TierConfig::recovery`]) lineage-based
    /// object recovery.
    pub tiers: Option<TierConfig>,
}

impl Default for PathwaysConfig {
    fn default() -> Self {
        PathwaysConfig {
            dispatch: DispatchMode::Parallel,
            policy: SchedPolicy::Fifo,
            client_overhead: SimDuration::from_micros(20),
            client_per_comp: SimDuration::from_micros(2),
            sched_decision: SimDuration::from_micros(4),
            sched_horizon: SimDuration::from_millis(3),
            hbm_per_device: 16 << 30,
            batch_grants: true,
            tiers: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = PathwaysConfig::default();
        assert_eq!(c.dispatch, DispatchMode::Parallel);
        assert_eq!(c.policy, SchedPolicy::Fifo);
        assert!(c.hbm_per_device >= 1 << 30);
        assert!(c.tiers.is_none(), "seed semantics by default");
    }
}
