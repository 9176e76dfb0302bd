//! The centralized resource manager (§4.1).
//!
//! Owns every device across all islands, hands out *virtual slices*
//! whose virtual devices map 1:1 onto physical devices, and detaches
//! the devices that die. The virtual→physical layer of indirection is
//! what lets the single controller remap a client's computation without
//! the client's cooperation: a slice can be remapped and programs simply
//! re-lower.
//!
//! ## Accounting invariant
//!
//! The manager keeps one use-count per physical device — exactly the
//! number of live slices whose current mapping contains it (with
//! multiplicity). Every mapping change moves counts atomically:
//! [`ResourceManager::allocate`] charges, [`ResourceManager::release`]
//! uncharges, and [`ResourceManager::remap`] / [`ResourceManager::heal`]
//! uncharge the old devices and charge the new ones. Counts live in a
//! ledger that spans *all* devices of the topology, attached or not, so
//! a detach never drops the load a detached device still carries from
//! live slices (an unhealable slice keeps charging its dead device until
//! it is released). Underflow
//! is a hard `assert!` in every build profile: drift aborts, and is
//! never silently saturated away.
//!
//! ## Elasticity
//!
//! [`ResourceManager::heal`] closes the fault loop: given a set of dead
//! devices it remaps every live slice touching them onto spare attached
//! capacity, honoring the slice's original island and contiguity
//! constraints (contiguity is validated against real torus adjacency,
//! not id order).

use pathways_sim::Lock;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use pathways_net::{ClientId, DeviceId, IslandId, Topology};

/// Identifier of an allocated virtual slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SliceId(pub u64);

impl fmt::Display for SliceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slice{}", self.0)
    }
}

/// Constraints a client may put on a slice request (§4.1: "virtual
/// slices with specific 2D or 3D mesh shapes ... interconnect topology,
/// memory capacity, etc.").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceRequest {
    /// Number of virtual devices.
    pub devices: u32,
    /// Require all devices in this island (collectives need one island).
    pub island: Option<IslandId>,
    /// Require the devices to form a connected submesh of the torus (a
    /// "mesh shaped" slice rather than scattered devices).
    pub contiguous: bool,
}

impl SliceRequest {
    /// A request for `devices` devices anywhere in one island.
    pub fn devices(devices: u32) -> Self {
        SliceRequest {
            devices,
            island: None,
            contiguous: false,
        }
    }

    /// Pins the request to an island (builder style).
    #[must_use]
    pub fn in_island(mut self, island: IslandId) -> Self {
        self.island = Some(island);
        self
    }

    /// Requires torus-contiguous devices (builder style).
    #[must_use]
    pub fn contiguous(mut self) -> Self {
        self.contiguous = true;
        self
    }
}

/// Errors from slice allocation and healing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// No island has enough attached devices.
    InsufficientDevices {
        /// Devices requested.
        requested: u32,
        /// Largest island's attached device count.
        largest_island: u32,
    },
    /// The requested island does not exist, or is excluded from
    /// placement (e.g. its scheduler died). An existing island whose
    /// devices are all detached reports `InsufficientDevices` instead.
    UnknownIsland {
        /// The island asked for.
        island: IslandId,
    },
    /// Enough devices are attached, but no torus-connected window of the
    /// requested size survives the current detach pattern.
    Fragmented {
        /// Devices requested (contiguously).
        requested: u32,
    },
    /// A zero-device slice was requested.
    EmptyRequest,
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::InsufficientDevices {
                requested,
                largest_island,
            } => write!(
                f,
                "requested {requested} devices but the largest island has {largest_island}"
            ),
            ResourceError::UnknownIsland { island } => write!(f, "unknown {island}"),
            ResourceError::Fragmented { requested } => write!(
                f,
                "no torus-connected window of {requested} attached devices (fragmented)"
            ),
            ResourceError::EmptyRequest => write!(f, "slice request for zero devices"),
        }
    }
}

impl std::error::Error for ResourceError {}

/// The shared, remappable state behind a slice: the current physical
/// mapping plus a generation counter bumped on every remap, so lowered
/// programs can detect staleness and re-lower.
#[derive(Debug)]
struct MappingState {
    devices: Vec<DeviceId>,
    generation: u64,
}

/// A slice of virtual devices with their current physical mapping.
///
/// Cloneable; all clones observe remappings (the mapping is shared).
#[derive(Clone)]
pub struct VirtualSlice {
    id: SliceId,
    state: Arc<Lock<MappingState>>,
}

impl fmt::Debug for VirtualSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("VirtualSlice")
            .field("id", &self.id)
            .field("devices", &state.devices.len())
            .field("generation", &state.generation)
            .finish()
    }
}

impl VirtualSlice {
    fn new(id: SliceId, devices: Vec<DeviceId>) -> Self {
        VirtualSlice {
            id,
            state: Arc::new(Lock::new(MappingState {
                devices,
                generation: 0,
            })),
        }
    }

    /// The slice id.
    pub fn id(&self) -> SliceId {
        self.id
    }

    /// Number of virtual devices.
    pub fn len(&self) -> usize {
        self.state.lock().devices.len()
    }

    /// True if the slice has no devices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current physical device for each virtual device.
    pub fn physical_devices(&self) -> Vec<DeviceId> {
        self.state.lock().devices.clone()
    }

    /// The mapping generation: starts at 0 and is bumped by every
    /// [`ResourceManager::remap`] / [`ResourceManager::heal`] that moves
    /// this slice. A program
    /// lowered against generation `g` is stale once the slice's
    /// generation differs — [`Client::submit_with`](crate::Client)
    /// re-lowers automatically.
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// Test-only constructor with a fixed mapping.
    #[doc(hidden)]
    pub fn for_tests(devices: Vec<DeviceId>) -> Self {
        VirtualSlice::new(SliceId(u64::MAX), devices)
    }
}

struct Allocation {
    owner: ClientId,
    request: SliceRequest,
    state: Arc<Lock<MappingState>>,
}

/// What healing did to one slice that touched dead hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealEvent {
    /// The affected slice.
    pub slice: SliceId,
    /// Its owning client (to notify for re-lower + resubmit).
    pub owner: ClientId,
    /// The mapping before healing (contains dead devices).
    pub from: Vec<DeviceId>,
    /// The new mapping, or why no placement was possible (the slice
    /// keeps its broken mapping and future submits fail fast).
    pub to: Result<Vec<DeviceId>, ResourceError>,
}

impl HealEvent {
    /// True if the slice was successfully remapped onto live capacity.
    pub fn healed(&self) -> bool {
        self.to.is_ok()
    }
}

/// The global resource manager.
///
/// **Locking.** All mutable state sits in one `RmState` behind one lock
/// (`core.rm.slices` in the contention profile) that every public method
/// takes exactly once, so each call sees and leaves a consistent ledger
/// under real threads, and the manager's fields have no order among
/// them to get wrong. The one order left: manager state before a
/// slice's `MappingState` (mapping locks are private to this module and
/// never held while calling into the manager).
///
/// **One source of truth.** The state is the attach table, the
/// use-count ledger and the live slices; nothing derived from them is
/// kept alongside. Placement sums each candidate island's attached
/// counts and sorts the chosen island's `(use-count, id)` pairs, and
/// `heal` filters the live slices by mapping, on the call that needs
/// them: O(candidate devices) per allocation, O(live slices) per heal.
pub struct ResourceManager {
    topo: Arc<Topology>,
    state: Lock<RmState>,
}

/// Everything behind [`ResourceManager`]'s one lock.
struct RmState {
    topo: Arc<Topology>,
    /// Attached devices per island (placement candidates).
    attached: BTreeMap<IslandId, BTreeSet<DeviceId>>,
    /// Use-count ledger covering every device of the topology, attached
    /// or not: `counts[d]` == live slices currently mapping `d`.
    use_counts: BTreeMap<DeviceId, u32>,
    slices: BTreeMap<SliceId, Allocation>,
    next_slice: u64,
}

impl fmt::Debug for ResourceManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("ResourceManager")
            .field("islands", &st.attached.len())
            .field("live_slices", &st.slices.len())
            .field("total_load", &st.total_load())
            .finish()
    }
}

impl ResourceManager {
    /// Creates a manager with every device of `topo` attached.
    pub fn new(topo: Arc<Topology>) -> Self {
        let attached = topo
            .islands()
            .map(|island| (island, topo.devices_of_island(island).collect()))
            .collect();
        let state = RmState {
            topo: Arc::clone(&topo),
            attached,
            use_counts: topo.devices().map(|d| (d, 0)).collect(),
            slices: BTreeMap::new(),
            next_slice: 0,
        };
        ResourceManager {
            topo,
            state: Lock::named("core.rm.slices", state),
        }
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Detaches a device for good: it is no longer a placement
    /// candidate. Existing slices keep their mapping (and the device
    /// keeps the use-count they charge) until they are remapped or
    /// released — see [`ResourceManager::heal`] for moving them off.
    pub fn detach_device(&self, device: DeviceId) {
        self.state.lock().detach_device(device);
    }

    /// Allocates a virtual slice for `client`.
    ///
    /// The placement heuristic is the paper's "simple heuristic that
    /// attempts to statically balance load by spreading computations
    /// across all available devices": devices with the lowest use-count
    /// are preferred, and islands are tried from least-loaded to
    /// most-loaded. Virtual devices map 1:1 onto physical devices.
    /// Contiguous requests only accept windows that form a connected
    /// submesh of the island's torus — after a detach, an id-consecutive
    /// window can span a torus gap and is skipped.
    ///
    /// # Errors
    ///
    /// See [`ResourceError`].
    pub fn allocate(
        &self,
        client: ClientId,
        request: SliceRequest,
    ) -> Result<VirtualSlice, ResourceError> {
        let mut st = self.state.lock();
        let chosen = st.place(&request, &[])?;
        let id = SliceId(st.next_slice);
        st.next_slice += 1;
        st.charge(&chosen);
        let slice = VirtualSlice::new(id, chosen);
        st.slices.insert(
            id,
            Allocation {
                owner: client,
                request,
                state: Arc::clone(&slice.state),
            },
        );
        Ok(slice)
    }

    /// Releases a slice, decrementing device use-counts.
    pub fn release(&self, slice: &VirtualSlice) {
        self.state.lock().release(slice.id());
    }

    /// Releases every slice owned by `client` (used when a client fails).
    pub fn release_client(&self, client: ClientId) {
        let mut st = self.state.lock();
        let ids: Vec<SliceId> = st
            .slices
            .iter()
            .filter(|(_, a)| a.owner == client)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            st.release(id);
        }
    }

    /// Remaps a slice's virtual devices onto new physical devices (the
    /// suspend/resume and migration hook enabled by the virtual-device
    /// indirection). Existing clones of the slice observe the change;
    /// programs lowered against the old mapping become stale (the
    /// generation bumps) and re-lower on their next submit.
    ///
    /// Use-counts move with the mapping: the old devices are uncharged
    /// and the new ones charged.
    ///
    /// # Panics
    ///
    /// Panics if the new mapping's length differs from the slice size.
    pub fn remap(&self, slice: &VirtualSlice, new_devices: Vec<DeviceId>) {
        assert_eq!(
            new_devices.len(),
            slice.len(),
            "remap must preserve slice size"
        );
        let mut st = self.state.lock();
        // Only live (tracked) slices are charged in the ledger; test
        // slices built with `for_tests` are not.
        if st.slices.contains_key(&slice.id()) {
            let old = slice.state.lock().devices.clone();
            st.uncharge(&old);
            st.adopt_mapping(&slice.state, new_devices);
        } else {
            set_mapping(&slice.state, new_devices);
        }
    }

    /// Remaps every live slice that touches any of `dead` onto spare
    /// attached capacity (the dead devices are detached first), honoring
    /// each slice's original island and contiguity constraints. Islands
    /// in `excluded_islands` are never chosen as a new home (the fault
    /// injector passes islands whose scheduler died).
    ///
    /// Slices are healed in id order (deterministic). A slice that
    /// cannot be placed keeps its broken mapping — future submits on it
    /// fail fast with a typed error — and its [`HealEvent::to`] carries
    /// the placement error. Either way, accounting stays exact: a healed
    /// slice's counts move to its new devices; an unhealable slice keeps
    /// charging its old ones until released.
    pub fn heal(&self, dead: &[DeviceId], excluded_islands: &[IslandId]) -> Vec<HealEvent> {
        let mut st = self.state.lock();
        for d in dead {
            st.detach_device(*d);
        }
        let victims: Vec<SliceId> = st
            .slices
            .iter()
            .filter(|(_, a)| a.state.lock().devices.iter().any(|d| dead.contains(d)))
            .map(|(id, _)| *id)
            .collect();
        let mut events = Vec::new();
        for id in victims {
            let a = &st.slices[&id];
            let (owner, request, state) = (a.owner, a.request, Arc::clone(&a.state));
            let from = state.lock().devices.clone();
            let to = st.try_replace(&state, &request, excluded_islands);
            events.push(HealEvent {
                slice: id,
                owner,
                from,
                to,
            });
        }
        events
    }

    /// Current use-count of a device (how many live slices map to it,
    /// whether or not the device is attached).
    pub fn device_load(&self, device: DeviceId) -> u32 {
        let st = self.state.lock();
        st.use_counts.get(&device).copied().unwrap_or(0)
    }

    /// Sum of all device use-counts. Zero exactly when no live slice
    /// exists — the drain invariant chaos tests assert.
    pub fn total_load(&self) -> u64 {
        self.state.lock().total_load()
    }

    /// Number of live (unreleased) slices.
    pub fn live_slice_count(&self) -> usize {
        self.state.lock().slices.len()
    }

    /// Asserts that the use-count ledger equals a recount of the live
    /// slices' current mappings (with multiplicity), device by device,
    /// taken under the manager's lock. Test-only hook for the
    /// resource-manager property tests; panics on any drift.
    #[doc(hidden)]
    pub fn assert_indexes_consistent(&self) {
        let st = self.state.lock();
        let mut recount: BTreeMap<DeviceId, u32> = st.use_counts.keys().map(|d| (*d, 0)).collect();
        for alloc in st.slices.values() {
            for d in &alloc.state.lock().devices {
                *recount.entry(*d).or_insert(0) += 1;
            }
        }
        assert_eq!(st.use_counts, recount, "use-count ledger drift");
    }
}

fn set_mapping(state: &Lock<MappingState>, new: Vec<DeviceId>) {
    let mut st = state.lock();
    st.devices = new;
    st.generation += 1;
}

impl RmState {
    fn total_load(&self) -> u64 {
        self.use_counts.values().map(|c| u64::from(*c)).sum()
    }

    /// Summed use-count of `devs`.
    fn load<'a>(&self, devs: impl IntoIterator<Item = &'a DeviceId>) -> u64 {
        devs.into_iter()
            .map(|d| u64::from(self.use_counts[d]))
            .sum()
    }

    fn detach_device(&mut self, device: DeviceId) {
        let island = self.topo.island_of_device(device);
        if let Some(m) = self.attached.get_mut(&island) {
            m.remove(&device);
        }
    }

    fn release(&mut self, id: SliceId) {
        if let Some(alloc) = self.slices.remove(&id) {
            let devices = alloc.state.lock().devices.clone();
            self.uncharge(&devices);
        }
    }

    /// Installs `new` as a tracked slice's mapping: charges the new
    /// devices (the caller has already uncharged the old mapping) and
    /// bumps the generation so lowered programs go stale. The single
    /// place where a mapping change and the ledger meet — `remap` and
    /// `heal` both move slices through here.
    fn adopt_mapping(&mut self, state: &Lock<MappingState>, new: Vec<DeviceId>) {
        self.charge(&new);
        set_mapping(state, new);
    }

    /// `heal`'s ledger-safe re-placement of one slice: uncharges it (so
    /// its own load does not skew placement), places `request` against
    /// the remaining load, and either adopts the new mapping or, when no
    /// placement exists, recharges the old one. The uncharge/recharge
    /// pairing lives only here — the ledger is exact on both exit paths.
    fn try_replace(
        &mut self,
        state: &Lock<MappingState>,
        request: &SliceRequest,
        excluded_islands: &[IslandId],
    ) -> Result<Vec<DeviceId>, ResourceError> {
        let from = state.lock().devices.clone();
        self.uncharge(&from);
        match self.place(request, excluded_islands) {
            Ok(to) => {
                self.adopt_mapping(state, to.clone());
                Ok(to)
            }
            Err(e) => {
                self.charge(&from);
                Err(e)
            }
        }
    }

    #[expect(clippy::expect_used, reason = "the ledger covers every device")]
    fn charge(&mut self, devs: &[DeviceId]) {
        for d in devs {
            *self
                .use_counts
                .get_mut(d)
                .expect("device is in the topology") += 1;
        }
    }

    #[expect(clippy::expect_used, reason = "the ledger covers every device")]
    fn uncharge(&mut self, devs: &[DeviceId]) {
        for d in devs {
            let c = self
                .use_counts
                .get_mut(d)
                .expect("device is in the topology");
            // A hard invariant in every profile: saturating here would
            // mask accounting drift in release builds.
            assert!(*c > 0, "use-count underflow on {d}: accounting drift");
            *c -= 1;
        }
    }

    /// Pure placement: picks devices for `request` against the current
    /// attach table and ledger, without mutating anything.
    fn place(
        &self,
        request: &SliceRequest,
        excluded_islands: &[IslandId],
    ) -> Result<Vec<DeviceId>, ResourceError> {
        if request.devices == 0 {
            return Err(ResourceError::EmptyRequest);
        }
        let candidates: Vec<IslandId> = match request.island {
            Some(i) => {
                if !self.attached.contains_key(&i) || excluded_islands.contains(&i) {
                    return Err(ResourceError::UnknownIsland { island: i });
                }
                vec![i]
            }
            None => self
                .attached
                .keys()
                .copied()
                .filter(|i| !excluded_islands.contains(i))
                .collect(),
        };
        // Islands with enough attached devices, least-loaded first (ties
        // broken by id for determinism); an island's load is the sum of
        // its attached devices' use-counts.
        let mut ranked: Vec<(u64, IslandId)> = candidates
            .into_iter()
            .map(|i| (i, &self.attached[&i]))
            .filter(|(_, devs)| devs.len() as u32 >= request.devices)
            .map(|(i, devs)| (self.load(devs), i))
            .collect();
        ranked.sort();
        if ranked.is_empty() {
            let largest = self
                .attached
                .values()
                .map(|m| m.len() as u32)
                .max()
                .unwrap_or(0);
            return Err(ResourceError::InsufficientDevices {
                requested: request.devices,
                largest_island: largest,
            });
        }
        for (_, island) in &ranked {
            if let Some(devs) = self.place_in_island(request, *island) {
                return Ok(devs);
            }
        }
        // Capacity exists but no valid (torus-connected) window does.
        Err(ResourceError::Fragmented {
            requested: request.devices,
        })
    }

    fn place_in_island(&self, request: &SliceRequest, island: IslandId) -> Option<Vec<DeviceId>> {
        let devs = &self.attached[&island];
        let w = request.devices as usize;
        if request.contiguous {
            // Windows over the attached ids in torus order, keeping only
            // those that are a connected submesh of the real torus, then
            // the one with the lowest aggregate load (ties: lowest
            // start, for determinism). Window loads are prefix-sum
            // differences — O(n) total instead of O(n·w) re-summing.
            let ids: Vec<DeviceId> = devs.iter().copied().collect();
            let mut prefix = Vec::with_capacity(ids.len() + 1);
            let mut sum = 0u64;
            prefix.push(sum);
            for d in &ids {
                sum += u64::from(self.use_counts[d]);
                prefix.push(sum);
            }
            let mut best: Option<(u64, usize)> = None;
            for start in 0..=(ids.len() - w) {
                let win = &ids[start..start + w];
                if !self.topo.is_connected_submesh(win) {
                    continue;
                }
                let load = prefix[start + w] - prefix[start];
                if best.is_none_or(|(bl, _)| load < bl) {
                    best = Some((load, start));
                }
            }
            best.map(|(_, start)| ids[start..start + w].to_vec())
        } else {
            // Least-used devices first; ties broken by id.
            let mut order: Vec<(u32, DeviceId)> =
                devs.iter().map(|d| (self.use_counts[d], *d)).collect();
            order.sort_unstable();
            Some(order.iter().take(w).map(|(_, d)| *d).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathways_net::ClusterSpec;

    fn rm(spec: ClusterSpec) -> ResourceManager {
        ResourceManager::new(Arc::new(spec.build()))
    }

    #[test]
    fn allocates_least_loaded_devices() {
        let rm = rm(ClusterSpec::config_b(2)); // 16 devices
        let c = ClientId(0);
        let s1 = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        let s2 = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        // The two slices should not overlap: load balancing spreads them.
        let d1 = s1.physical_devices();
        let d2 = s2.physical_devices();
        assert!(d1.iter().all(|d| !d2.contains(d)));
    }

    #[test]
    fn oversubscription_shares_devices() {
        let rm = rm(ClusterSpec::config_b(1)); // 8 devices
        let c = ClientId(0);
        let s1 = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        let s2 = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        // Time-multiplexing: both slices cover the same 8 devices.
        assert_eq!(s1.physical_devices(), s2.physical_devices());
        assert_eq!(rm.device_load(DeviceId(0)), 2);
    }

    #[test]
    #[should_panic(expected = "use-count underflow")]
    fn uncharge_underflow_is_a_hard_invariant_in_release() {
        let rm = rm(ClusterSpec::config_b(1));
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(2)).unwrap();
        let devs = s.physical_devices();
        let mut st = rm.state.lock();
        st.uncharge(&devs);
        // The ledger is at zero for these devices; a second uncharge
        // must abort in every build profile (this suite runs in release
        // on CI) rather than saturate and silently drift.
        st.uncharge(&devs);
    }

    #[test]
    fn island_constraint_is_respected() {
        let rm = rm(ClusterSpec::config_c());
        let c = ClientId(0);
        let s = rm
            .allocate(c, SliceRequest::devices(32).in_island(IslandId(2)))
            .unwrap();
        for d in s.physical_devices() {
            assert_eq!(rm.topology().island_of_device(d), IslandId(2));
        }
    }

    #[test]
    fn slice_never_spans_islands() {
        let rm = rm(ClusterSpec::config_c()); // 4 islands x 32
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(32)).unwrap();
        let islands: std::collections::BTreeSet<_> = s
            .physical_devices()
            .iter()
            .map(|d| rm.topology().island_of_device(*d))
            .collect();
        assert_eq!(islands.len(), 1);
        // Bigger than any island: refused.
        assert!(matches!(
            rm.allocate(c, SliceRequest::devices(33)),
            Err(ResourceError::InsufficientDevices { .. })
        ));
    }

    #[test]
    fn contiguous_slices_are_torus_windows() {
        let rm = rm(ClusterSpec::config_b(4)); // 32 devices
        let c = ClientId(0);
        let s = rm
            .allocate(c, SliceRequest::devices(4).contiguous())
            .unwrap();
        let devs = s.physical_devices();
        for w in devs.windows(2) {
            assert_eq!(w[1].0, w[0].0 + 1, "not contiguous: {devs:?}");
        }
        assert!(rm.topology().is_connected_submesh(&devs));
    }

    #[test]
    fn contiguous_skips_windows_spanning_detach_gaps() {
        // 4x8 torus. Detaching device 1 leaves [0, 2, 3, 4, ...]: the
        // id-window {0, 2, 3, 4} is NOT a connected submesh (0 = (0,0)
        // and 2 = (0,2) are two hops apart), so the allocator must skip
        // it rather than hand out a slice with a torus gap.
        let rm = rm(ClusterSpec::config_b(4));
        rm.detach_device(DeviceId(1));
        let c = ClientId(0);
        let s = rm
            .allocate(c, SliceRequest::devices(4).contiguous())
            .unwrap();
        let devs = s.physical_devices();
        assert!(
            rm.topology().is_connected_submesh(&devs),
            "allocator returned a disconnected 'contiguous' slice: {devs:?}"
        );
        assert!(!devs.contains(&DeviceId(1)));
    }

    #[test]
    fn contiguous_reports_fragmentation() {
        // 2x4 torus (8 devices). Detach every other device: plenty of
        // capacity for 2, but no two attached devices are adjacent.
        let rm = rm(ClusterSpec::config_b(1));
        for d in [1u32, 3, 4, 6] {
            rm.detach_device(DeviceId(d));
        }
        // Attached: {0, 2, 5, 7}. 0=(0,0), 2=(0,2), 5=(1,1), 7=(1,3):
        // pairwise non-adjacent.
        let err = rm
            .allocate(ClientId(0), SliceRequest::devices(2).contiguous())
            .unwrap_err();
        assert_eq!(err, ResourceError::Fragmented { requested: 2 });
        // Non-contiguous requests still succeed on the scattered devices.
        assert!(rm.allocate(ClientId(0), SliceRequest::devices(2)).is_ok());
    }

    #[test]
    fn release_returns_capacity() {
        let rm = rm(ClusterSpec::config_b(1));
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        assert_eq!(rm.device_load(DeviceId(0)), 1);
        rm.release(&s);
        assert_eq!(rm.device_load(DeviceId(0)), 0);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn release_client_frees_everything() {
        let rm = rm(ClusterSpec::config_b(1));
        let c0 = ClientId(0);
        let c1 = ClientId(1);
        let _s0 = rm.allocate(c0, SliceRequest::devices(4)).unwrap();
        let _s1 = rm.allocate(c0, SliceRequest::devices(4)).unwrap();
        let _s2 = rm.allocate(c1, SliceRequest::devices(4)).unwrap();
        rm.release_client(c0);
        let total_load: u32 = (0..8).map(|d| rm.device_load(DeviceId(d))).sum();
        assert_eq!(total_load, 4); // only c1's slice remains
    }

    #[test]
    fn remap_is_visible_through_clones() {
        let rm = rm(ClusterSpec::config_b(2));
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(2)).unwrap();
        let clone = s.clone();
        assert_eq!(clone.generation(), 0);
        let new = vec![DeviceId(14), DeviceId(15)];
        rm.remap(&s, new.clone());
        assert_eq!(clone.physical_devices(), new);
        assert_eq!(clone.generation(), 1);
    }

    #[test]
    fn remap_moves_use_counts() {
        let rm = rm(ClusterSpec::config_b(2)); // 16 devices
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(2)).unwrap();
        let old = s.physical_devices();
        assert_eq!(old, vec![DeviceId(0), DeviceId(1)]);
        rm.remap(&s, vec![DeviceId(14), DeviceId(15)]);
        // Old devices are no longer charged; new devices are.
        assert_eq!(rm.device_load(DeviceId(0)), 0);
        assert_eq!(rm.device_load(DeviceId(1)), 0);
        assert_eq!(rm.device_load(DeviceId(14)), 1);
        assert_eq!(rm.device_load(DeviceId(15)), 1);
        // A fresh allocation prefers the now-idle original devices.
        let s2 = rm.allocate(c, SliceRequest::devices(2)).unwrap();
        assert_eq!(s2.physical_devices(), vec![DeviceId(0), DeviceId(1)]);
        // Release decrements the *post-remap* devices, exactly once.
        rm.release(&s);
        rm.release(&s2);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn detach_attach_preserves_use_counts() {
        let rm = rm(ClusterSpec::config_b(1));
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        rm.detach_device(DeviceId(0));
        assert_eq!(rm.device_load(DeviceId(0)), 1, "count survives detach");
        rm.release(&s);
        assert_eq!(rm.device_load(DeviceId(0)), 0, "no underflow, no drift");
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn detach_prevents_new_allocations_on_device() {
        let rm = rm(ClusterSpec::config_b(1)); // 8 devices
        for d in 0..4 {
            rm.detach_device(DeviceId(d));
        }
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(4)).unwrap();
        assert!(s.physical_devices().iter().all(|d| d.0 >= 4));
        assert_eq!(
            rm.allocate(c, SliceRequest::devices(5)).unwrap_err(),
            ResourceError::InsufficientDevices {
                requested: 5,
                largest_island: 4
            }
        );
    }

    #[test]
    fn heal_remaps_off_dead_devices() {
        let rm = rm(ClusterSpec::config_b(1)); // 8 devices, one island
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(4)).unwrap();
        assert_eq!(
            s.physical_devices(),
            vec![DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(3)]
        );
        let events = rm.heal(&[DeviceId(2)], &[]);
        assert_eq!(events.len(), 1);
        assert!(events[0].healed());
        assert_eq!(events[0].slice, s.id());
        let new = s.physical_devices();
        assert!(!new.contains(&DeviceId(2)), "dead device still mapped");
        assert_eq!(new.len(), 4);
        assert_eq!(s.generation(), 1);
        // Accounting: dead device uncharged, new devices charged once.
        assert_eq!(rm.device_load(DeviceId(2)), 0);
        for d in &new {
            assert_eq!(rm.device_load(*d), 1);
        }
        rm.release(&s);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn heal_honors_contiguity() {
        let rm = rm(ClusterSpec::config_b(4)); // 4x8 torus
        let c = ClientId(0);
        let s = rm
            .allocate(c, SliceRequest::devices(4).contiguous())
            .unwrap();
        let events = rm.heal(&[s.physical_devices()[1]], &[]);
        assert!(events[0].healed());
        assert!(
            rm.topology().is_connected_submesh(&s.physical_devices()),
            "healed mapping must stay a connected submesh"
        );
        rm.release(&s);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn heal_unplaceable_keeps_charge_and_reports_error() {
        let rm = rm(ClusterSpec::config_b(1)); // 8 devices, one island
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        // Killing one device leaves only 7 attached: an 8-wide slice
        // cannot be healed in place.
        let events = rm.heal(&[DeviceId(5)], &[]);
        assert_eq!(events.len(), 1);
        assert!(!events[0].healed());
        assert!(matches!(
            events[0].to,
            Err(ResourceError::InsufficientDevices { .. })
        ));
        // The broken mapping still charges its devices (no leak, no
        // double-free on release).
        assert_eq!(rm.device_load(DeviceId(5)), 1);
        rm.release(&s);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn heal_respects_excluded_islands() {
        let rm = rm(ClusterSpec::islands_of(2, 1, 8));
        let c = ClientId(0);
        let s = rm
            .allocate(c, SliceRequest::devices(8).in_island(IslandId(0)))
            .unwrap();
        // Island 0 cannot re-fit the slice once a device dies; the
        // request is pinned there and island 1 is excluded anyway.
        let events = rm.heal(&[DeviceId(0)], &[IslandId(0)]);
        assert!(!events[0].healed());
        assert_eq!(
            events[0].to,
            Err(ResourceError::UnknownIsland {
                island: IslandId(0)
            })
        );
        // An unpinned slice moves to the other island instead.
        let s2 = rm.allocate(c, SliceRequest::devices(4)).unwrap();
        let first = s2.physical_devices();
        let dead = first[0];
        let events = rm.heal(&[dead], &[rm.topology().island_of_device(dead)]);
        let healed_ev = events.iter().find(|e| e.slice == s2.id()).unwrap();
        assert!(healed_ev.healed());
        let other = rm.topology().island_of_device(s2.physical_devices()[0]);
        assert_ne!(other, rm.topology().island_of_device(dead));
        rm.release(&s);
        rm.release(&s2);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn zero_device_request_rejected() {
        let rm = rm(ClusterSpec::config_b(1));
        assert!(matches!(
            rm.allocate(ClientId(0), SliceRequest::devices(0)),
            Err(ResourceError::EmptyRequest)
        ));
    }
}
