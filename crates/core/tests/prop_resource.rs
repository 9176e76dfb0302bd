//! Resource-manager accounting property test.
//!
//! Drives random schedules of allocate / remap / detach / release (plus
//! heal, which is a detach and remaps under the hood) and asserts the
//! ledger invariant after *every* step:
//!
//! > each device's use-count equals the number of live slices currently
//! > mapping it (with multiplicity), attached or not,
//!
//! and, after releasing everything, that all counts drain to zero.
//! The seed repo masked ledger drift with a `saturating_sub`; the
//! manager now moves counts on every mapping change and `assert!`s on
//! underflow in every build profile, so any drift fails this test
//! loudly.
//!
//! After every step the test also calls
//! [`ResourceManager::assert_indexes_consistent`], which recounts every
//! device's use-count from the live slices' mappings under the
//! manager's own lock and panics on any drift.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use pathways_core::{ResourceManager, SliceRequest, VirtualSlice};
use pathways_net::{ClientId, ClusterSpec, DeviceId, IslandId};

/// One schedule step: `(op, a, b)` with op-specific selectors.
fn schedule() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..6, any::<u8>(), any::<u8>()), 1..50)
}

/// The ground truth: use-counts recomputed from the live slices.
fn expected_counts(slices: &[VirtualSlice]) -> BTreeMap<DeviceId, u32> {
    let mut counts = BTreeMap::new();
    for s in slices {
        for d in s.physical_devices() {
            *counts.entry(d).or_insert(0) += 1;
        }
    }
    counts
}

fn assert_ledger_matches(rm: &ResourceManager, slices: &[VirtualSlice], step: usize) {
    let expected = expected_counts(slices);
    for d in rm.topology().devices() {
        let want = expected.get(&d).copied().unwrap_or(0);
        let got = rm.device_load(d);
        assert_eq!(
            got, want,
            "step {step}: {d} carries load {got}, live slices map it {want} times"
        );
    }
    assert_eq!(rm.live_slice_count(), slices.len(), "step {step}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn use_counts_equal_live_slice_mappings(
        islands in 1u32..3,
        ops in schedule(),
    ) {
        let topo = Arc::new(ClusterSpec::islands_of(islands, 1, 8).build());
        let rm = ResourceManager::new(Arc::clone(&topo));
        let n_devices = islands * 8;
        let client = ClientId(0);
        let mut live: Vec<VirtualSlice> = Vec::new();

        for (step, (op, a, b)) in ops.iter().enumerate() {
            match op % 6 {
                // Allocate (two opcodes: allocation should dominate the
                // schedule so remap/detach have something to chew on).
                0 | 1 => {
                    let devices = u32::from(a % 8) + 1;
                    let mut req = SliceRequest::devices(devices);
                    if b % 3 == 0 {
                        req = req.contiguous();
                    }
                    if b % 3 == 1 {
                        req = req.in_island(IslandId(u32::from(*b) % islands));
                    }
                    // Failure (fragmented / detached-out capacity) is a
                    // legal outcome; the invariant just must hold.
                    if let Ok(s) = rm.allocate(client, req) {
                        live.push(s);
                    }
                }
                // Release a random live slice.
                2 => {
                    if !live.is_empty() {
                        let idx = usize::from(*a) % live.len();
                        let s = live.swap_remove(idx);
                        rm.release(&s);
                    }
                }
                // Remap a random live slice onto a rotated window of its
                // island (attached or not — remap is unconditional, the
                // ledger must follow the mapping wherever it goes).
                3 => {
                    if !live.is_empty() {
                        let idx = usize::from(*a) % live.len();
                        let s = &live[idx];
                        let island = topo.island_of_device(s.physical_devices()[0]);
                        let devs: Vec<DeviceId> = topo.devices_of_island(island).collect();
                        let start = usize::from(*b) % devs.len();
                        let new: Vec<DeviceId> = (0..s.len())
                            .map(|i| devs[(start + i) % devs.len()])
                            .collect();
                        rm.remap(s, new);
                    }
                }
                // Detach a random device: counts must survive.
                4 => rm.detach_device(DeviceId(u32::from(*a) % n_devices)),
                // Heal as if the device died: every touched slice is
                // remapped onto spare capacity or left in place — either
                // way the ledger tracks the final mappings.
                _ => {
                    let dead = DeviceId(u32::from(*a) % n_devices);
                    let _ = rm.heal(&[dead], &[]);
                }
            }
            assert_ledger_matches(&rm, &live, step);
            rm.assert_indexes_consistent();
        }

        // Full drain: releasing everything zeroes every count.
        for s in live.drain(..) {
            rm.release(&s);
        }
        assert_eq!(rm.total_load(), 0, "ledger did not drain to zero");
        assert_eq!(rm.live_slice_count(), 0);
        for d in topo.devices() {
            assert_eq!(rm.device_load(d), 0, "{d} still charged after drain");
        }
        rm.assert_indexes_consistent();
    }
}
