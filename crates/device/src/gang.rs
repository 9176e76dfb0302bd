//! Collective rendezvous — where inconsistent enqueue orders become
//! deadlocks, and where device failures turn would-be hangs into typed
//! gang aborts.
//!
//! TPUs "are single-threaded and only run non-preemptible kernels, so the
//! system will deadlock if communicating computations are not enqueued in
//! a consistent order" (§2). We reproduce that hazard faithfully: a
//! collective kernel blocks its device's queue until *every* participant
//! has reached the same [`GangTag`](crate::GangTag). If two devices
//! enqueue two collectives in opposite orders, each blocks at the head of
//! its queue waiting for the other, no timer can fire, and the simulation
//! reports a deadlock naming the stuck devices — exactly the failure the
//! centralized gang scheduler (pathways-core) exists to prevent.
//!
//! Failure semantics: a dead device never reaches its collective, so its
//! partners would block forever. When an arrival declares its gang's
//! membership (the scheduler knows it; the grant carries it), the
//! rendezvous checks the member list against the island's dead set and
//! aborts the whole gang with [`GangAborted`] instead of blocking —
//! either immediately at arrival, or retroactively when
//! [`CollectiveRendezvous::mark_dead`] hits a tag with waiters. Arrivals
//! with an *empty* member list opt out of failure detection (legacy
//! call sites and tests that never inject faults).

use pathways_sim::Lock;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use pathways_net::{DeviceId, FxHashMap, FxHashSet};
use pathways_sim::channel::{self, OneshotSender};
use pathways_sim::{SimDuration, SimHandle};

use crate::kernel::GangTag;

/// A gang collective was aborted because a participating device died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GangAborted {
    /// The aborted collective instance.
    pub tag: GangTag,
    /// The dead participant that doomed the gang, when known (a gang can
    /// also be aborted by a tag poisoned before this arrival).
    pub dead: Option<DeviceId>,
}

impl fmt::Display for GangAborted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dead {
            Some(d) => write!(f, "{} aborted: participant {d} is dead", self.tag),
            None => write!(f, "{} aborted: gang includes a dead device", self.tag),
        }
    }
}

impl std::error::Error for GangAborted {}

struct Pending {
    expected: u32,
    duration: SimDuration,
    waiters: Vec<OneshotSender<Result<(), GangAborted>>>,
    /// Union of the member lists declared by arrivals so far. Used by
    /// [`CollectiveRendezvous::mark_dead`] to find doomed gangs.
    members: BTreeSet<DeviceId>,
    /// Owning run of the gang (0 = unknown), for
    /// [`CollectiveRendezvous::mark_owner_failed`].
    owner: u64,
}

struct RzState {
    pending: FxHashMap<GangTag, Pending>,
    /// Reverse index: declared member -> pending tags naming it. Keeps
    /// [`CollectiveRendezvous::mark_dead`] proportional to the gangs
    /// that actually include the dead device, not all in-flight gangs.
    /// A plain `Vec` per key: the happy path (every collective of every
    /// step) maintains it with O(1) pushes and swap-removes, and the
    /// rare abort path sorts its snapshot into the ascending tag order
    /// the old full scan produced. Empty lists stay in the map so their
    /// capacity is reused — a steady-state step allocates nothing here.
    by_member: FxHashMap<DeviceId, Vec<GangTag>>,
    /// Reverse index: owning run -> pending tags, for
    /// [`CollectiveRendezvous::mark_owner_failed`]. Owner 0 (unknown)
    /// is never indexed. Unlike `by_member`'s, an owner's entry goes
    /// with its last pending tag: owner ids never recur, so an emptied
    /// list would never be reused.
    by_owner: FxHashMap<u64, Vec<GangTag>>,
    dead: FxHashSet<DeviceId>,
    /// Owners (runs) whose gangs must abort: members that were never
    /// enqueued (grants lost to a dead host or severed link) would
    /// otherwise leave arrived partners waiting forever.
    failed_owners: FxHashSet<u64>,
    /// Tags aborted by a death or owner failure; later arrivals fail
    /// immediately.
    poisoned: FxHashMap<GangTag, Option<DeviceId>>,
}

/// Removes one occurrence of `tag` (insertions and removals are 1:1).
fn unindex(list: &mut Vec<GangTag>, tag: GangTag) {
    if let Some(pos) = list.iter().position(|x| *x == tag) {
        list.swap_remove(pos);
    }
}

impl RzState {
    /// Removes `tag` from `pending` and both reverse indexes.
    fn remove_pending(&mut self, tag: GangTag) -> Option<Pending> {
        let p = self.pending.remove(&tag)?;
        for m in &p.members {
            if let Some(tags) = self.by_member.get_mut(m) {
                unindex(tags, tag);
            }
        }
        if p.owner != 0 {
            if let Some(tags) = self.by_owner.get_mut(&p.owner) {
                unindex(tags, tag);
                if tags.is_empty() {
                    self.by_owner.remove(&p.owner);
                }
            }
        }
        Some(p)
    }
}

/// Rendezvous point shared by all devices of one island.
#[derive(Clone)]
pub struct CollectiveRendezvous {
    handle: SimHandle,
    state: Arc<Lock<RzState>>,
}

impl fmt::Debug for CollectiveRendezvous {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("CollectiveRendezvous")
            .field("pending", &st.pending.len())
            .field("dead", &st.dead.len())
            .finish()
    }
}

impl CollectiveRendezvous {
    /// Creates an empty rendezvous table.
    pub fn new(handle: SimHandle) -> Self {
        CollectiveRendezvous {
            handle,
            state: Arc::new(Lock::named(
                "device.rendezvous",
                RzState {
                    pending: FxHashMap::default(),
                    by_member: FxHashMap::default(),
                    by_owner: FxHashMap::default(),
                    dead: FxHashSet::default(),
                    failed_owners: FxHashSet::default(),
                    poisoned: FxHashMap::default(),
                },
            )),
        }
    }

    /// Number of collectives with at least one arrived participant that
    /// have not yet released (useful for deadlock diagnosis).
    pub fn in_flight(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Declares `device` dead: gangs whose declared membership includes
    /// it abort — pending waiters wake with [`GangAborted`] now, future
    /// arrivals at poisoned tags fail immediately, and future arrivals
    /// whose member list contains a dead device fail up front.
    #[expect(clippy::expect_used, reason = "tags exist before any arrival")]
    pub fn mark_dead(&self, device: DeviceId) {
        let doomed_waiters = {
            let mut st = self.state.lock();
            if !st.dead.insert(device) {
                return;
            }
            // The member index yields exactly the gangs naming this
            // device; sorting restores the deterministic ascending
            // abort order the old sorted full scan produced.
            let mut doomed: Vec<GangTag> = st
                .by_member
                .get(&device)
                .map(|tags| tags.to_vec())
                .unwrap_or_default();
            doomed.sort_unstable();
            let mut all = Vec::new();
            for tag in doomed {
                let p = st.remove_pending(tag).expect("tag is indexed");
                st.poisoned.insert(tag, Some(device));
                all.push((tag, p.waiters));
            }
            all
        };
        for (tag, waiters) in doomed_waiters {
            for w in waiters {
                let _ = w.send(Err(GangAborted {
                    tag,
                    dead: Some(device),
                }));
            }
        }
    }

    /// Declares run `owner` failed: its pending gangs abort now, and
    /// its future arrivals fail immediately. This is what prevents a
    /// partially-enqueued gang — some members' grants lost to a dead
    /// host or severed link — from blocking its arrived members forever.
    /// `owner` 0 (unknown) is ignored.
    #[expect(clippy::expect_used, reason = "tags exist before any arrival")]
    pub fn mark_owner_failed(&self, owner: u64) {
        if owner == 0 {
            return;
        }
        let doomed_waiters = {
            let mut st = self.state.lock();
            if !st.failed_owners.insert(owner) {
                return;
            }
            let mut doomed: Vec<GangTag> = st
                .by_owner
                .get(&owner)
                .map(|tags| tags.to_vec())
                .unwrap_or_default();
            doomed.sort_unstable();
            let mut all = Vec::new();
            for tag in doomed {
                let p = st.remove_pending(tag).expect("tag is indexed");
                st.poisoned.insert(tag, None);
                all.push((tag, p.waiters));
            }
            all
        };
        for (tag, waiters) in doomed_waiters {
            for w in waiters {
                let _ = w.send(Err(GangAborted { tag, dead: None }));
            }
        }
    }

    /// Arrives at collective `tag` expecting `participants` devices in
    /// total; resolves after all have arrived *and* the collective's wire
    /// time `duration` has elapsed.
    ///
    /// `members` is the gang's device list as known to the caller (the
    /// scheduler's grant carries it); an empty slice opts out of failure
    /// detection for this arrival.
    ///
    /// # Errors
    ///
    /// [`GangAborted`] if the tag was poisoned by an earlier death, a
    /// declared member is already dead, or a member dies while waiting.
    ///
    /// # Panics
    ///
    /// Panics if participants disagree on `participants` or `duration`
    /// for the same tag (a malformed program, not a scheduling hazard).
    #[expect(clippy::expect_used, reason = "tags exist before any arrival")]
    pub async fn arrive(
        &self,
        tag: GangTag,
        participants: u32,
        duration: SimDuration,
        members: &[DeviceId],
        owner: u64,
    ) -> Result<(), GangAborted> {
        assert!(participants > 0, "collective needs participants");
        // `Ok(waiters)`: last to arrive, release everyone. `Err(rx)`:
        // wait for the releaser. The state borrow ends with this block,
        // before any await.
        let outcome = {
            let mut st = self.state.lock();
            if let Some(&dead) = st.poisoned.get(&tag) {
                return Err(GangAborted { tag, dead });
            }
            if owner != 0 && st.failed_owners.contains(&owner) {
                let waiters = st.remove_pending(tag).map(|p| p.waiters);
                st.poisoned.insert(tag, None);
                drop(st);
                for w in waiters.into_iter().flatten() {
                    let _ = w.send(Err(GangAborted { tag, dead: None }));
                }
                return Err(GangAborted { tag, dead: None });
            }
            if let Some(&d) = members.iter().find(|d| st.dead.contains(d)) {
                // A member is already dead: poison the tag and abort any
                // waiters that raced us in.
                let waiters = st.remove_pending(tag).map(|p| p.waiters);
                st.poisoned.insert(tag, Some(d));
                drop(st);
                for w in waiters.into_iter().flatten() {
                    let _ = w.send(Err(GangAborted { tag, dead: Some(d) }));
                }
                return Err(GangAborted { tag, dead: Some(d) });
            }
            let st = &mut *st;
            let entry = st.pending.entry(tag).or_insert_with(|| Pending {
                expected: participants,
                duration,
                waiters: Vec::new(),
                members: BTreeSet::new(),
                owner: 0,
            });
            assert_eq!(
                entry.expected, participants,
                "{tag}: participants disagree on gang size"
            );
            assert_eq!(
                entry.duration, duration,
                "{tag}: participants disagree on collective duration"
            );
            for m in members {
                if entry.members.insert(*m) {
                    st.by_member.entry(*m).or_default().push(tag);
                }
            }
            if entry.owner == 0 && owner != 0 {
                entry.owner = owner;
                st.by_owner.entry(owner).or_default().push(tag);
            }
            if entry.waiters.len() as u32 + 1 == participants {
                // Last to arrive: release everyone.
                let entry = st.remove_pending(tag).expect("entry exists");
                Ok(entry.waiters)
            } else {
                let (tx, rx) = channel::oneshot();
                entry.waiters.push(tx);
                Err(rx)
            }
        };
        match outcome {
            Ok(waiters) => {
                for w in waiters {
                    let _ = w.send(Ok(()));
                }
            }
            Err(rx) => rx.await.expect("rendezvous dropped mid-collective")?,
        }
        // All participants resume here at the same instant, then sleep
        // the collective's wire time together.
        self.handle.sleep(duration).await;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathways_sim::Sim;

    #[test]
    fn all_participants_finish_together() {
        let mut sim = Sim::new(0);
        let rz = CollectiveRendezvous::new(sim.handle());
        let mut ends = Vec::new();
        for i in 0..4u64 {
            let rz = rz.clone();
            let h = sim.handle();
            ends.push(sim.spawn(format!("d{i}"), async move {
                // Stagger arrivals.
                h.sleep(SimDuration::from_micros(i * 10)).await;
                rz.arrive(GangTag(1), 4, SimDuration::from_micros(5), &[], 0)
                    .await
                    .unwrap();
                h.now().as_nanos()
            }));
        }
        sim.run_to_quiescence();
        for e in ends {
            // Last arrival at 30us + 5us collective.
            assert_eq!(e.try_take().unwrap(), 35_000);
        }
        assert_eq!(rz.in_flight(), 0);
    }

    #[test]
    fn missing_participant_deadlocks() {
        let mut sim = Sim::new(0);
        let rz = CollectiveRendezvous::new(sim.handle());
        for i in 0..2 {
            let rz = rz.clone();
            sim.spawn(format!("d{i}"), async move {
                rz.arrive(GangTag(9), 3, SimDuration::ZERO, &[], 0)
                    .await
                    .unwrap();
            });
        }
        let out = sim.run();
        assert!(out.is_deadlock(), "expected deadlock, got {out:?}");
        assert_eq!(rz.in_flight(), 1);
    }

    #[test]
    fn inconsistent_order_across_two_collectives_deadlocks() {
        let mut sim = Sim::new(0);
        let rz = CollectiveRendezvous::new(sim.handle());
        // Device A runs collective 1 then 2; device B runs 2 then 1.
        // Each blocks at its head-of-queue collective: deadlock.
        let rz_a = rz.clone();
        sim.spawn("devA", async move {
            rz_a.arrive(GangTag(1), 2, SimDuration::ZERO, &[], 0)
                .await
                .unwrap();
            rz_a.arrive(GangTag(2), 2, SimDuration::ZERO, &[], 0)
                .await
                .unwrap();
        });
        let rz_b = rz.clone();
        sim.spawn("devB", async move {
            rz_b.arrive(GangTag(2), 2, SimDuration::ZERO, &[], 0)
                .await
                .unwrap();
            rz_b.arrive(GangTag(1), 2, SimDuration::ZERO, &[], 0)
                .await
                .unwrap();
        });
        match sim.run() {
            pathways_sim::RunOutcome::Deadlock { stuck_tasks, .. } => {
                assert_eq!(stuck_tasks, vec!["devA".to_string(), "devB".to_string()]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn consistent_order_completes() {
        let mut sim = Sim::new(0);
        let rz = CollectiveRendezvous::new(sim.handle());
        for name in ["devA", "devB"] {
            let rz = rz.clone();
            sim.spawn(name, async move {
                rz.arrive(GangTag(1), 2, SimDuration::from_micros(1), &[], 0)
                    .await
                    .unwrap();
                rz.arrive(GangTag(2), 2, SimDuration::from_micros(1), &[], 0)
                    .await
                    .unwrap();
            });
        }
        assert!(sim.run().is_quiescent());
    }

    #[test]
    #[should_panic(expected = "participants disagree on gang size")]
    fn gang_size_mismatch_panics() {
        let mut sim = Sim::new(0);
        let rz = CollectiveRendezvous::new(sim.handle());
        let rz_a = rz.clone();
        sim.spawn("a", async move {
            let _ = rz_a.arrive(GangTag(3), 2, SimDuration::ZERO, &[], 0).await;
        });
        let rz_b = rz.clone();
        sim.spawn("b", async move {
            let _ = rz_b.arrive(GangTag(3), 5, SimDuration::ZERO, &[], 0).await;
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn death_aborts_waiting_partners_instead_of_hanging() {
        let mut sim = Sim::new(0);
        let rz = CollectiveRendezvous::new(sim.handle());
        let gang = [DeviceId(0), DeviceId(1)];
        // Device 0 arrives and waits for device 1, which dies instead.
        let rz_a = rz.clone();
        let waiter = sim.spawn("dev0", async move {
            rz_a.arrive(GangTag(7), 2, SimDuration::from_micros(5), &gang, 0)
                .await
        });
        let rz_k = rz.clone();
        let h = sim.handle();
        sim.spawn("fault", async move {
            h.sleep(SimDuration::from_micros(10)).await;
            rz_k.mark_dead(DeviceId(1));
        });
        assert!(sim.run().is_quiescent(), "abort must unwedge the waiter");
        let err = waiter.try_take().unwrap().unwrap_err();
        assert_eq!(err.tag, GangTag(7));
        assert_eq!(err.dead, Some(DeviceId(1)));
        assert_eq!(rz.in_flight(), 0);
    }

    #[test]
    fn arrival_with_dead_member_fails_immediately() {
        let mut sim = Sim::new(0);
        let rz = CollectiveRendezvous::new(sim.handle());
        rz.mark_dead(DeviceId(3));
        let gang = [DeviceId(2), DeviceId(3)];
        let rz_a = rz.clone();
        let t = sim.spawn("dev2", async move {
            rz_a.arrive(GangTag(1), 2, SimDuration::ZERO, &gang, 0)
                .await
        });
        sim.run_to_quiescence();
        assert!(t.try_take().unwrap().is_err());
        // The poisoned tag also rejects later arrivals without members.
        let rz_b = rz.clone();
        let late = sim.spawn("late", async move {
            rz_b.arrive(GangTag(1), 2, SimDuration::ZERO, &[], 0).await
        });
        sim.run_to_quiescence();
        assert!(late.try_take().unwrap().is_err());
    }

    #[test]
    fn completed_gangs_leave_no_owner_entries() {
        let mut sim = Sim::new(0);
        let rz = CollectiveRendezvous::new(sim.handle());
        let gang = [DeviceId(0), DeviceId(1)];
        // Each run (owner) arrives at one gang of its own; owners never
        // recur.
        for owner in 1..=64u64 {
            for d in gang {
                let rz = rz.clone();
                sim.spawn(format!("run{owner}-{d}"), async move {
                    rz.arrive(GangTag(owner), 2, SimDuration::ZERO, &gang, owner)
                        .await
                        .unwrap();
                });
            }
            sim.run_to_quiescence();
        }
        assert_eq!(rz.in_flight(), 0);
        assert!(rz.state.lock().by_owner.is_empty());
    }

    #[test]
    fn unrelated_gangs_survive_a_death() {
        let mut sim = Sim::new(0);
        let rz = CollectiveRendezvous::new(sim.handle());
        rz.mark_dead(DeviceId(9));
        let gang = [DeviceId(0), DeviceId(1)];
        for i in 0..2u32 {
            let rz = rz.clone();
            sim.spawn(format!("d{i}"), async move {
                rz.arrive(GangTag(4), 2, SimDuration::from_micros(1), &gang, 0)
                    .await
                    .unwrap();
            });
        }
        assert!(sim.run().is_quiescent());
    }
}
