//! Static cluster topology: islands of hosts with locally attached
//! devices, matching Figure 3 of the paper.
//!
//! The evaluation uses three configurations (§5):
//!
//! * **(A)** 4 TPUs/host, up to 512 hosts (2048 TPUs) in one island;
//! * **(B)** 8 TPUs/host, up to 64 hosts (512 TPUs) in one island;
//! * **(C)** four islands of 4 hosts × 8 TPUs (32 TPUs each).
//!
//! Constructors for all three are provided.

use pathways_sim::hash::FxHashSet;

use serde::{Deserialize, Serialize};

use crate::ids::{DeviceId, HostId, IslandId, TorusCoord};

/// Specification of one island.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IslandSpec {
    /// Number of hosts in the island.
    pub hosts: u32,
    /// Devices attached to each host.
    pub devices_per_host: u32,
}

impl IslandSpec {
    /// Total devices in the island.
    pub fn devices(&self) -> u32 {
        self.hosts * self.devices_per_host
    }
}

/// Specification of a whole cluster (one entry per island).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Islands, in id order.
    pub islands: Vec<IslandSpec>,
}

impl ClusterSpec {
    /// A single-island cluster.
    pub fn single_island(hosts: u32, devices_per_host: u32) -> Self {
        ClusterSpec {
            islands: vec![IslandSpec {
                hosts,
                devices_per_host,
            }],
        }
    }

    /// Paper configuration (A): 4 TPUs per host, one island.
    pub fn config_a(hosts: u32) -> Self {
        Self::single_island(hosts, 4)
    }

    /// Paper configuration (B): 8 TPUs per host, one island.
    pub fn config_b(hosts: u32) -> Self {
        Self::single_island(hosts, 8)
    }

    /// Paper configuration (C): four islands of 4 hosts x 8 TPUs.
    pub fn config_c() -> Self {
        ClusterSpec {
            islands: vec![
                IslandSpec {
                    hosts: 4,
                    devices_per_host: 8,
                };
                4
            ],
        }
    }

    /// `n` identical islands.
    pub fn islands_of(n: u32, hosts: u32, devices_per_host: u32) -> Self {
        ClusterSpec {
            islands: vec![
                IslandSpec {
                    hosts,
                    devices_per_host,
                };
                n as usize
            ],
        }
    }

    /// Builds the dense topology tables.
    pub fn build(&self) -> Topology {
        Topology::new(self)
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct IslandInfo {
    first_host: u32,
    hosts: u32,
    devices_per_host: u32,
    first_device: u32,
    torus_rows: u32,
    torus_cols: u32,
}

/// Immutable lookup tables for a built cluster.
///
/// # Examples
///
/// ```
/// use pathways_net::{ClusterSpec, DeviceId, HostId};
///
/// let topo = ClusterSpec::config_b(4).build();
/// assert_eq!(topo.num_devices(), 32);
/// assert_eq!(topo.host_of_device(DeviceId(9)), HostId(1));
/// assert_eq!(topo.devices_of_host(HostId(0)).len(), 8);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    spec: ClusterSpec,
    islands: Vec<IslandInfo>,
    num_hosts: u32,
    num_devices: u32,
    /// `device_island[d]` is the island index of device `d` — O(1)
    /// `island_of_device` instead of a binary search per lookup, which
    /// dominates `ici_hops`/`torus_coord` on placement hot paths.
    device_island: Vec<u32>,
    /// `host_island[h]` is the island index of host `h`.
    host_island: Vec<u32>,
}

impl Topology {
    fn new(spec: &ClusterSpec) -> Self {
        assert!(
            !spec.islands.is_empty(),
            "cluster must have at least one island"
        );
        let mut islands = Vec::with_capacity(spec.islands.len());
        let mut host_cursor = 0u32;
        let mut device_cursor = 0u32;
        for isl in &spec.islands {
            assert!(isl.hosts > 0, "island must have at least one host");
            assert!(
                isl.devices_per_host > 0,
                "island hosts must have at least one device"
            );
            let devices = isl.devices();
            let (rows, cols) = squarest_factors(devices);
            islands.push(IslandInfo {
                first_host: host_cursor,
                hosts: isl.hosts,
                devices_per_host: isl.devices_per_host,
                first_device: device_cursor,
                torus_rows: rows,
                torus_cols: cols,
            });
            host_cursor += isl.hosts;
            device_cursor += devices;
        }
        let mut device_island = Vec::with_capacity(device_cursor as usize);
        let mut host_island = Vec::with_capacity(host_cursor as usize);
        for (idx, info) in islands.iter().enumerate() {
            device_island.extend(std::iter::repeat_n(
                idx as u32,
                (info.hosts * info.devices_per_host) as usize,
            ));
            host_island.extend(std::iter::repeat_n(idx as u32, info.hosts as usize));
        }
        Topology {
            spec: spec.clone(),
            islands,
            num_hosts: host_cursor,
            num_devices: device_cursor,
            device_island,
            host_island,
        }
    }

    /// The spec this topology was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total islands.
    pub fn num_islands(&self) -> u32 {
        self.islands.len() as u32
    }

    /// Total hosts across all islands.
    pub fn num_hosts(&self) -> u32 {
        self.num_hosts
    }

    /// Total devices across all islands.
    pub fn num_devices(&self) -> u32 {
        self.num_devices
    }

    /// All island ids.
    pub fn islands(&self) -> impl Iterator<Item = IslandId> + '_ {
        (0..self.num_islands()).map(IslandId)
    }

    /// All host ids.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.num_hosts).map(HostId)
    }

    /// All device ids.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.num_devices).map(DeviceId)
    }

    fn island_info(&self, island: IslandId) -> &IslandInfo {
        &self.islands[island.index()]
    }

    /// Island containing `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn island_of_host(&self, host: HostId) -> IslandId {
        assert!(host.0 < self.num_hosts, "{host} out of range");
        IslandId(self.host_island[host.index()])
    }

    /// Island containing `device`.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn island_of_device(&self, device: DeviceId) -> IslandId {
        assert!(device.0 < self.num_devices, "{device} out of range");
        IslandId(self.device_island[device.index()])
    }

    /// Host that `device` is attached to (PCIe).
    pub fn host_of_device(&self, device: DeviceId) -> HostId {
        let island = self.island_of_device(device);
        let info = self.island_info(island);
        let local = device.0 - info.first_device;
        HostId(info.first_host + local / info.devices_per_host)
    }

    /// Hosts of one island, in id order.
    ///
    /// Islands are id-contiguous, so this is a plain range — no
    /// allocation per call.
    pub fn hosts_of_island(
        &self,
        island: IslandId,
    ) -> impl DoubleEndedIterator<Item = HostId> + ExactSizeIterator + Clone {
        let info = self.island_info(island);
        (info.first_host..info.first_host + info.hosts).map(HostId)
    }

    /// Devices of one island, in id order.
    ///
    /// Islands are id-contiguous, so this is a plain range — no
    /// allocation per call.
    pub fn devices_of_island(
        &self,
        island: IslandId,
    ) -> impl DoubleEndedIterator<Item = DeviceId> + ExactSizeIterator + Clone {
        let info = self.island_info(island);
        let n = info.hosts * info.devices_per_host;
        (info.first_device..info.first_device + n).map(DeviceId)
    }

    /// Devices attached to one host, in id order.
    ///
    /// A host's devices are id-contiguous, so this is a plain range —
    /// no allocation per call.
    pub fn devices_of_host(
        &self,
        host: HostId,
    ) -> impl DoubleEndedIterator<Item = DeviceId> + ExactSizeIterator + Clone {
        let island = self.island_of_host(host);
        let info = self.island_info(island);
        let local_host = host.0 - info.first_host;
        let first = info.first_device + local_host * info.devices_per_host;
        (first..first + info.devices_per_host).map(DeviceId)
    }

    /// Coordinates of `device` in its island's ICI torus.
    pub fn torus_coord(&self, device: DeviceId) -> TorusCoord {
        let island = self.island_of_device(device);
        let info = self.island_info(island);
        let local = device.0 - info.first_device;
        TorusCoord {
            row: local / info.torus_cols,
            col: local % info.torus_cols,
        }
    }

    /// Torus dimensions `(rows, cols)` of an island's ICI mesh.
    pub fn torus_shape(&self, island: IslandId) -> (u32, u32) {
        let info = self.island_info(island);
        (info.torus_rows, info.torus_cols)
    }

    /// ICI hop distance between two devices in the same island.
    ///
    /// # Panics
    ///
    /// Panics if the devices are in different islands (there is no ICI
    /// path between islands; use the DCN).
    pub fn ici_hops(&self, a: DeviceId, b: DeviceId) -> u32 {
        let ia = self.island_of_device(a);
        let ib = self.island_of_device(b);
        assert_eq!(
            ia, ib,
            "no ICI path between islands: {a} is in {ia}, {b} is in {ib}"
        );
        let (rows, cols) = self.torus_shape(ia);
        self.torus_coord(a)
            .torus_distance(self.torus_coord(b), rows, cols)
    }

    /// True if both devices share an island (and hence an ICI mesh).
    pub fn same_island(&self, a: DeviceId, b: DeviceId) -> bool {
        self.island_of_device(a) == self.island_of_device(b)
    }

    /// True if `a` and `b` are directly wired on the ICI torus (one hop
    /// apart in the same island).
    pub fn ici_adjacent(&self, a: DeviceId, b: DeviceId) -> bool {
        self.same_island(a, b) && self.ici_hops(a, b) == 1
    }

    /// True if `devs` forms a single connected submesh of one island's
    /// ICI torus: every device is reachable from every other through
    /// torus-adjacent devices *of the set*. This is the physical meaning
    /// of a "contiguous" (mesh-shaped) slice — a set of device ids that
    /// happens to be consecutive in id order can still be disconnected
    /// once devices in between have been detached.
    ///
    /// An empty set and a singleton are trivially connected; a set
    /// spanning islands is never connected (there is no ICI between
    /// islands).
    pub fn is_connected_submesh(&self, devs: &[DeviceId]) -> bool {
        if devs.len() <= 1 {
            return true;
        }
        let island = self.island_of_device(devs[0]);
        if devs.iter().any(|d| self.island_of_device(*d) != island) {
            return false;
        }
        // BFS over torus coordinates with O(1) 4-neighbor lookups:
        // O(w) for a w-device window, replacing the seed's all-pairs
        // adjacency probe (O(w²) with a binary search per probe).
        let (rows, cols) = self.torus_shape(island);
        let coord = |d: &DeviceId| {
            let c = self.torus_coord(*d);
            (c.row, c.col)
        };
        let set: FxHashSet<(u32, u32)> = devs.iter().map(coord).collect();
        let mut seen = FxHashSet::with_capacity_and_hasher(set.len(), Default::default());
        let start = coord(&devs[0]);
        let mut frontier = vec![start];
        seen.insert(start);
        while let Some((r, c)) = frontier.pop() {
            let neighbors = [
                ((r + rows - 1) % rows, c),
                ((r + 1) % rows, c),
                (r, (c + cols - 1) % cols),
                (r, (c + 1) % cols),
            ];
            for n in neighbors {
                if set.contains(&n) && seen.insert(n) {
                    frontier.push(n);
                }
            }
        }
        seen.len() == set.len()
    }
}

/// Factors `n` into `(rows, cols)` with `rows <= cols`, as square as
/// possible — the shape used for the island's 2-D torus.
fn squarest_factors(n: u32) -> (u32, u32) {
    assert!(n > 0);
    let mut best = (1, n);
    let mut r = 1;
    while r * r <= n {
        if n.is_multiple_of(r) {
            best = (r, n / r);
        }
        r += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_counts_match_paper() {
        let a = ClusterSpec::config_a(512).build();
        assert_eq!(a.num_devices(), 2048);
        assert_eq!(a.num_hosts(), 512);
        let b = ClusterSpec::config_b(64).build();
        assert_eq!(b.num_devices(), 512);
        let c = ClusterSpec::config_c().build();
        assert_eq!(c.num_islands(), 4);
        assert_eq!(c.num_devices(), 128);
        assert_eq!(c.devices_of_island(IslandId(0)).len(), 32);
    }

    #[test]
    fn host_device_mappings_are_consistent() {
        let topo = ClusterSpec::config_c().build();
        for d in topo.devices() {
            let h = topo.host_of_device(d);
            assert!(topo.devices_of_host(h).any(|x| x == d));
            assert_eq!(topo.island_of_host(h), topo.island_of_device(d));
        }
        for h in topo.hosts() {
            for d in topo.devices_of_host(h) {
                assert_eq!(topo.host_of_device(d), h);
            }
        }
    }

    #[test]
    fn island_boundaries() {
        let topo = ClusterSpec::islands_of(3, 2, 4).build();
        assert_eq!(topo.island_of_device(DeviceId(0)), IslandId(0));
        assert_eq!(topo.island_of_device(DeviceId(7)), IslandId(0));
        assert_eq!(topo.island_of_device(DeviceId(8)), IslandId(1));
        assert_eq!(topo.island_of_device(DeviceId(23)), IslandId(2));
        assert_eq!(topo.island_of_host(HostId(0)), IslandId(0));
        assert_eq!(topo.island_of_host(HostId(2)), IslandId(1));
        assert_eq!(topo.island_of_host(HostId(5)), IslandId(2));
    }

    #[test]
    fn torus_is_square_for_powers_of_two() {
        let topo = ClusterSpec::config_b(8).build(); // 64 devices
        assert_eq!(topo.torus_shape(IslandId(0)), (8, 8));
        let topo = ClusterSpec::config_a(512).build(); // 2048 devices
        assert_eq!(topo.torus_shape(IslandId(0)), (32, 64));
    }

    #[test]
    fn ici_hops_within_island() {
        let topo = ClusterSpec::config_b(8).build(); // 8x8 torus
        assert_eq!(topo.ici_hops(DeviceId(0), DeviceId(0)), 0);
        // dev0 at (0,0), dev63 at (7,7): torus distance 1+1.
        assert_eq!(topo.ici_hops(DeviceId(0), DeviceId(63)), 2);
    }

    #[test]
    #[should_panic(expected = "no ICI path between islands")]
    fn ici_across_islands_panics() {
        let topo = ClusterSpec::config_c().build();
        let _ = topo.ici_hops(DeviceId(0), DeviceId(32));
    }

    #[test]
    fn adjacency_matches_torus_wiring() {
        let topo = ClusterSpec::config_b(4).build(); // 32 devices, 4x8 torus
                                                     // Same row, consecutive columns: one hop.
        assert!(topo.ici_adjacent(DeviceId(0), DeviceId(1)));
        // Same column, consecutive rows: one hop.
        assert!(topo.ici_adjacent(DeviceId(0), DeviceId(8)));
        // Row wrap-around: (0,0) and (0,7) are neighbors on the torus.
        assert!(topo.ici_adjacent(DeviceId(0), DeviceId(7)));
        // Diagonal: two hops, not adjacent.
        assert!(!topo.ici_adjacent(DeviceId(0), DeviceId(9)));
        assert!(!topo.ici_adjacent(DeviceId(0), DeviceId(0)));
    }

    #[test]
    fn connected_submesh_detects_gaps() {
        let topo = ClusterSpec::config_b(4).build(); // 4x8 torus
        let ids = |v: &[u32]| v.iter().map(|d| DeviceId(*d)).collect::<Vec<_>>();
        assert!(topo.is_connected_submesh(&ids(&[])));
        assert!(topo.is_connected_submesh(&ids(&[5])));
        // A row prefix is a path.
        assert!(topo.is_connected_submesh(&ids(&[0, 1, 2, 3])));
        // Two full rows form a 2x8 submesh.
        assert!(topo.is_connected_submesh(&ids(&[
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15
        ])));
        // A detach gap in the middle disconnects the window: 3=(0,3)
        // and 5=(0,5) are two hops apart with nothing bridging them.
        assert!(!topo.is_connected_submesh(&ids(&[1, 2, 3, 5])));
        assert!(!topo.is_connected_submesh(&ids(&[0, 1, 4, 5])));
        // {2,3} and {9} are not wired: (1,1) touches (0,1), not (0,2)/(0,3).
        assert!(!topo.is_connected_submesh(&ids(&[2, 3, 9])));
        // Devices from different islands are never connected.
        let c = ClusterSpec::config_c().build();
        assert!(!c.is_connected_submesh(&[DeviceId(31), DeviceId(32)]));
    }

    #[test]
    fn squarest_factors_examples() {
        assert_eq!(squarest_factors(1), (1, 1));
        assert_eq!(squarest_factors(12), (3, 4));
        assert_eq!(squarest_factors(13), (1, 13));
        assert_eq!(squarest_factors(64), (8, 8));
    }
}
