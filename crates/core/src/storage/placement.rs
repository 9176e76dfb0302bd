//! Cross-host DRAM placement: which host's DRAM receives a spilled or
//! restored shard.
//!
//! The seed behavior is [`PlacementPolicy::LocalFirst`]: a spill lands
//! in the pressured device's own host (zero extra cost, trace-identical
//! to the pre-policy store). The other policies trade a cross-host DCN
//! staging leg ([`TierConfig::cross_host_bw`](super::tiers::TierConfig))
//! for aggregate DRAM headroom: [`PlacementPolicy::Spread`]
//! round-robins spills over all live hosts (deterministic cursor), and
//! [`PlacementPolicy::CapacityWeighted`] targets the host with the most
//! free DRAM (ties break on the lowest host id). Hosts the fault
//! injector declared dead are never targeted.

use pathways_net::{DeviceId, HostId};

use super::index::ObjectStore;
use super::tiers::TierState;

/// Which host's DRAM receives spilled and restored shards (selected via
/// [`TierConfig::placement`](super::tiers::TierConfig)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// Always the local host (the pressured device's own, or the restore
    /// target's). No cross-host cost — the seed behavior.
    #[default]
    LocalFirst,
    /// Round-robin over all live hosts: spreads spill pressure at the
    /// price of a DCN staging leg for remote placements.
    Spread,
    /// The live host with the most free DRAM (ties break on the lowest
    /// host id): balances bytes instead of placements.
    CapacityWeighted,
}

impl TierState {
    /// Live hosts, ascending — the deterministic candidate list every
    /// non-local policy draws from.
    fn live_hosts(&self) -> Vec<HostId> {
        let mut hosts: Vec<HostId> = self
            .env
            .topo
            .hosts()
            .filter(|h| !self.down_hosts.contains(h))
            .collect();
        hosts.sort_unstable();
        hosts
    }

    /// The host whose DRAM receives a spill from a device on `local`.
    pub(crate) fn spill_host(&mut self, local: HostId) -> HostId {
        match self.env.cfg.placement {
            PlacementPolicy::LocalFirst => local,
            PlacementPolicy::Spread => {
                let hosts = self.live_hosts();
                if hosts.is_empty() {
                    return local;
                }
                let idx = (self.placement_cursor as usize) % hosts.len();
                self.placement_cursor += 1;
                hosts[idx]
            }
            PlacementPolicy::CapacityWeighted => {
                let budget = self.env.cfg.dram_per_host;
                self.live_hosts()
                    .into_iter()
                    .max_by_key(|h| {
                        (
                            budget.saturating_sub(self.dram.used_on(*h)),
                            std::cmp::Reverse(*h),
                        )
                    })
                    .unwrap_or(local)
            }
        }
    }
}

impl ObjectStore {
    /// Records that `host` died: non-local placement policies stop
    /// targeting its DRAM. (Its in-DRAM shards are separately absorbed
    /// or failed by the fault injector.)
    pub(crate) fn set_host_down(&self, host: HostId) {
        if let Some(ts) = self.inner.lock().tier.as_mut() {
            ts.down_hosts.insert(host);
        }
    }

    /// Picks the restore target from `candidates` (`(device, host)`
    /// pairs, ascending host order, dead hardware already excluded) per
    /// the placement policy. `LocalFirst` keeps the seed choice — the
    /// first candidate.
    pub(crate) fn choose_restore_target(
        &self,
        candidates: &[(DeviceId, HostId)],
    ) -> Option<(DeviceId, HostId)> {
        if candidates.is_empty() {
            return None;
        }
        let mut inner = self.inner.lock();
        let Some(ts) = inner.tier.as_mut() else {
            return Some(candidates[0]);
        };
        let pick = match ts.env.cfg.placement {
            PlacementPolicy::LocalFirst => 0,
            PlacementPolicy::Spread => {
                let idx = (ts.placement_cursor as usize) % candidates.len();
                ts.placement_cursor += 1;
                idx
            }
            PlacementPolicy::CapacityWeighted => {
                let budget = ts.env.cfg.dram_per_host;
                candidates
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, (_, h))| {
                        (
                            budget.saturating_sub(ts.dram.used_on(*h)),
                            std::cmp::Reverse(*i),
                        )
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
        };
        Some(candidates[pick])
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{device, obj, tiered_with};
    use super::*;
    use pathways_net::ClientId;
    use pathways_sim::Sim;

    use crate::storage::tiers::TierConfig;

    /// Two hosts, tight HBM: consecutive spills alternate hosts under
    /// `Spread` (and pay the DCN leg for the remote one).
    #[test]
    fn spread_round_robins_spills_across_hosts() {
        let mut sim = Sim::new(0);
        let store = tiered_with(
            &sim,
            TierConfig {
                placement: PlacementPolicy::Spread,
                ..TierConfig::default()
            },
        );
        let dev = device(&sim, 0, 100);
        let store2 = store.clone();
        sim.spawn("t", async move {
            for run in 0..3u64 {
                store2.create(obj(run, 0), ClientId(0));
                store2.put_shard(obj(run, 0), 0, &dev, 80).await;
                store2.mark_ready(obj(run, 0), 0);
            }
            let spills: Vec<HostId> = store2.spill_events().iter().map(|e| e.host).collect();
            assert_eq!(spills, vec![HostId(0), HostId(1)], "cursor alternates");
            assert!(store2.tiers_conserved());
            for run in 0..3u64 {
                store2.release(obj(run, 0));
            }
            assert_eq!(store2.dram_used(), 0);
            assert!(store2.tiers_conserved());
        });
        sim.run_to_quiescence();
    }

    /// CapacityWeighted sends the spill to the emptier host.
    #[test]
    fn capacity_weighted_targets_freest_host() {
        let mut sim = Sim::new(0);
        let store = tiered_with(
            &sim,
            TierConfig {
                placement: PlacementPolicy::CapacityWeighted,
                dram_per_host: 1_000,
                ..TierConfig::default()
            },
        );
        let dev = device(&sim, 0, 100);
        let store2 = store.clone();
        sim.spawn("t", async move {
            for run in 0..3u64 {
                store2.create(obj(run, 0), ClientId(0));
                store2.put_shard(obj(run, 0), 0, &dev, 80).await;
                store2.mark_ready(obj(run, 0), 0);
            }
            let spills: Vec<HostId> = store2.spill_events().iter().map(|e| e.host).collect();
            // Both hosts start empty: ties break on the lowest id, then
            // the 80 bytes on host 0 make host 1 the freer target.
            assert_eq!(spills, vec![HostId(0), HostId(1)]);
            assert!(store2.tiers_conserved());
            for run in 0..3u64 {
                store2.release(obj(run, 0));
            }
            assert!(store2.tiers_conserved());
        });
        sim.run_to_quiescence();
    }

    /// Dead hosts are never placement targets.
    #[test]
    fn down_hosts_are_excluded_from_placement() {
        let mut sim = Sim::new(0);
        let store = tiered_with(
            &sim,
            TierConfig {
                placement: PlacementPolicy::Spread,
                ..TierConfig::default()
            },
        );
        let dev = device(&sim, 0, 100);
        let store2 = store.clone();
        sim.spawn("t", async move {
            store2.set_host_down(HostId(1));
            for run in 0..3u64 {
                store2.create(obj(run, 0), ClientId(0));
                store2.put_shard(obj(run, 0), 0, &dev, 80).await;
                store2.mark_ready(obj(run, 0), 0);
            }
            let spills: Vec<HostId> = store2.spill_events().iter().map(|e| e.host).collect();
            assert_eq!(spills, vec![HostId(0), HostId(0)], "host 1 is dead");
            for run in 0..3u64 {
                store2.release(obj(run, 0));
            }
        });
        sim.run_to_quiescence();
    }

    /// LocalFirst is byte- and host-identical to the seed spill path.
    #[test]
    fn local_first_spills_stay_on_the_local_host() {
        let mut sim = Sim::new(0);
        let store = tiered_with(&sim, TierConfig::default());
        let dev = device(&sim, 0, 100);
        let store2 = store.clone();
        sim.spawn("t", async move {
            for run in 0..2u64 {
                store2.create(obj(run, 0), ClientId(0));
                store2.put_shard(obj(run, 0), 0, &dev, 80).await;
                store2.mark_ready(obj(run, 0), 0);
            }
            let spills: Vec<HostId> = store2.spill_events().iter().map(|e| e.host).collect();
            assert_eq!(spills, vec![HostId(0)]);
            for run in 0..2u64 {
                store2.release(obj(run, 0));
            }
        });
        sim.run_to_quiescence();
    }
}
