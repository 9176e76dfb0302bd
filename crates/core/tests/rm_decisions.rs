//! Decision pins for the resource manager.
//!
//! One seeded schedule over a 4-island cluster mixes plain, contiguous
//! and island-pinned allocations, detach/attach, heals with an excluded
//! island, rebalances and releases, and writes down every decision the
//! manager makes: each placement, each `HealEvent`, each rebalance count
//! and the final mapping of every live slice. A change to any tie-break
//! — island ranking, device order inside an island, the contiguous
//! window picked, heal order or the rebalance verdict — moves a line of
//! the log.

use std::fmt::Write;
use std::sync::Arc;

use pathways_core::{ResourceManager, SliceRequest, VirtualSlice};
use pathways_net::{ClientId, ClusterSpec, DeviceId, IslandId};

/// xorshift64: the schedule's only source of choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

fn ids(devs: &[DeviceId]) -> String {
    let ids: Vec<String> = devs.iter().map(|d| d.0.to_string()).collect();
    ids.join(",")
}

fn request(req: &SliceRequest) -> String {
    let mut s = format!("n{}", req.devices);
    if req.contiguous {
        s.push('c');
    }
    if let Some(i) = req.island {
        write!(s, "@{}", i.0).unwrap();
    }
    s
}

fn run_schedule() -> String {
    // Four islands of 2 hosts x 4 devices: each island is a 2x4 torus.
    let rm = ResourceManager::new(Arc::new(ClusterSpec::islands_of(4, 2, 4).build()));
    let devices = rm.topology().num_devices();
    let mut rng = Rng(0x5eed_0004);
    let mut live: Vec<VirtualSlice> = Vec::new();
    let mut log = String::new();
    for step in 0..60 {
        match rng.below(10) {
            op @ 0..=3 => {
                let mut req = SliceRequest::devices(1 + rng.below(6) as u32);
                if op % 2 == 1 {
                    req = req.contiguous();
                }
                if op >= 2 {
                    req = req.in_island(IslandId(rng.below(4) as u32));
                }
                let client = ClientId(rng.below(2) as u32);
                let what = request(&req);
                match rm.allocate(client, req) {
                    Ok(s) => {
                        let devs = ids(&s.physical_devices());
                        writeln!(log, "{step} alloc {what} {client} -> {} [{devs}]", s.id())
                            .unwrap();
                        live.push(s);
                    }
                    Err(e) => writeln!(log, "{step} alloc {what} {client} -> {e}").unwrap(),
                }
            }
            4 if !live.is_empty() => {
                let s = live.remove(rng.below(live.len() as u64) as usize);
                rm.release(&s);
                writeln!(log, "{step} release {}", s.id()).unwrap();
            }
            5 => {
                let d = DeviceId(rng.below(u64::from(devices)) as u32);
                rm.detach_device(d);
                writeln!(log, "{step} detach {d}").unwrap();
            }
            6 => {
                let d = DeviceId(rng.below(u64::from(devices)) as u32);
                rm.attach_device(d);
                writeln!(log, "{step} attach {d}").unwrap();
            }
            7 | 8 if !live.is_empty() => {
                // Kill a device some live slice maps, mostly with one
                // island excluded as a new home.
                let victim = &live[rng.below(live.len() as u64) as usize];
                let devs = victim.physical_devices();
                let dead = devs[rng.below(devs.len() as u64) as usize];
                let excluded: Vec<IslandId> = match rng.below(3) {
                    0 => vec![],
                    _ => vec![IslandId(rng.below(4) as u32)],
                };
                writeln!(log, "{step} heal {dead} excluding {excluded:?}").unwrap();
                for e in rm.heal(&[dead], &excluded) {
                    let to = match &e.to {
                        Ok(to) => format!("[{}]", ids(to)),
                        Err(err) => err.to_string(),
                    };
                    writeln!(log, "  {} {} [{}] -> {to}", e.slice, e.owner, ids(&e.from)).unwrap();
                }
            }
            _ => writeln!(log, "{step} rebalance moved {}", rm.rebalance()).unwrap(),
        }
        rm.assert_indexes_consistent();
    }
    live.sort_by_key(VirtualSlice::id);
    for s in &live {
        let devs = ids(&s.physical_devices());
        writeln!(log, "final {} gen {} [{devs}]", s.id(), s.generation()).unwrap();
    }
    writeln!(log, "total load {}", rm.total_load()).unwrap();
    log
}

const EXPECTED: &str = "\
0 attach dev18
1 alloc n6c client0 -> slice0 [0,1,2,3,4,5]
2 heal dev0 excluding [IslandId(0)]
  slice0 client0 [0,1,2,3,4,5] -> [8,9,10,11,12,13]
3 alloc n3@2 client0 -> slice1 [16,17,18]
4 detach dev30
5 alloc n4@3 client1 -> slice2 [24,25,26,27]
6 release slice1
7 alloc n1@1 client0 -> slice3 [14]
8 heal dev25 excluding [IslandId(0)]
  slice2 client1 [24,25,26,27] -> [24,26,27,28]
9 release slice3
10 alloc n5c@2 client1 -> slice4 [16,17,18,19,20]
11 alloc n5 client0 -> slice5 [1,2,3,4,5]
12 alloc n1c client1 -> slice6 [29]
13 rebalance moved 0
14 alloc n6c client1 -> slice7 [2,3,4,5,6,7]
15 alloc n6 client1 -> slice8 [21,22,23,16,17,18]
16 heal dev29 excluding []
  slice6 client1 [29] -> [31]
17 release slice4
18 detach dev22
19 heal dev31 excluding [IslandId(3)]
  slice6 client1 [31] -> [19]
20 heal dev18 excluding []
  slice8 client1 [21,22,23,16,17,18] -> [16,17,20,21,23,19]
21 alloc n4c client1 -> slice9 [24,26,27,28]
22 heal dev24 excluding [IslandId(1)]
  slice2 client1 [24,26,27,28] -> requested 4 devices but the largest island has 8
  slice9 client1 [24,26,27,28] -> [16,17,19,20]
23 alloc n4c client0 -> slice10 [12,13,14,15]
24 alloc n4c client1 -> slice11 [8,9,10,11]
25 detach dev18
26 alloc n6c client1 -> slice12 [1,2,3,4,5,6]
27 alloc n3c client0 -> slice13 [20,21,23]
28 rebalance moved 2
29 attach dev9
30 release slice9
31 rebalance moved 1
32 alloc n3@2 client0 -> slice14 [16,17,19]
33 detach dev28
34 alloc n3@3 client0 -> requested 3 devices but the largest island has 8
35 alloc n2c@0 client0 -> slice15 [1,2]
36 alloc n4c client0 -> slice16 [4,5,6,7]
37 detach dev31
38 heal dev20 excluding []
  slice5 client0 [16,17,19,20,21] -> [16,17,19,21,23]
  slice8 client1 [16,17,20,21,23,19] -> [14,15,8,9,10,11]
  slice13 client0 [20,21,23] -> [16,17,19]
39 attach dev6
40 alloc n4@3 client1 -> requested 4 devices but the largest island has 8
41 alloc n5c@0 client1 -> slice17 [1,2,3,4,5]
42 detach dev25
43 alloc n1 client1 -> slice18 [27]
44 release slice8
45 alloc n3 client1 -> slice19 [21,23,16]
46 alloc n2c@3 client1 -> slice20 [26,27]
47 detach dev20
48 heal dev24 excluding [IslandId(0)]
  slice2 client1 [24,26,27,28] -> requested 4 devices but the largest island has 8
49 alloc n4c@3 client1 -> requested 4 devices but the largest island has 8
50 alloc n5 client1 -> slice21 [14,15,8,9,10]
51 release slice17
52 rebalance moved 1
53 heal dev19 excluding [IslandId(1)]
  slice5 client0 [16,17,19,21,23] -> [1,3,7,2,4]
  slice13 client0 [16,17,19] -> [16,17,21]
  slice14 client0 [17,19,21] -> [17,23,16]
54 alloc n3c@2 client1 -> slice22 [16,17,21]
55 heal dev21 excluding []
  slice13 client0 [16,17,21] -> [12,13,14]
  slice19 client1 [21,23,16] -> [23,16,17]
  slice22 client1 [16,17,21] -> no torus-connected window of 3 attached devices (fragmented)
56 alloc n2@2 client0 -> slice23 [23,16]
57 heal dev11 excluding [IslandId(3)]
  slice0 client0 [8,9,10,11,12,13] -> [8,9,10,12,13,14]
  slice11 client1 [8,9,10,11] -> [8,9,10,12]
58 attach dev15
59 heal dev16 excluding [IslandId(3)]
  slice14 client0 [17,23,16] -> requested 3 devices but the largest island has 7
  slice19 client1 [23,16,17] -> [15,8,9]
  slice22 client1 [16,17,21] -> requested 3 devices but the largest island has 7
  slice23 client0 [23,16] -> [23,17]
final slice0 gen 2 [8,9,10,12,13,14]
final slice2 gen 1 [24,26,27,28]
final slice5 gen 4 [1,3,7,2,4]
final slice6 gen 3 [26]
final slice7 gen 0 [2,3,4,5,6,7]
final slice10 gen 0 [12,13,14,15]
final slice11 gen 1 [8,9,10,12]
final slice12 gen 0 [1,2,3,4,5,6]
final slice13 gen 3 [12,13,14]
final slice14 gen 2 [17,23,16]
final slice15 gen 0 [1,2]
final slice16 gen 0 [4,5,6,7]
final slice18 gen 0 [27]
final slice19 gen 2 [15,8,9]
final slice20 gen 0 [26,27]
final slice21 gen 0 [14,15,8,9,10]
final slice22 gen 0 [16,17,21]
final slice23 gen 1 [23,17]
total load 64
";

#[test]
fn seeded_schedule_makes_the_pinned_decisions() {
    let log = run_schedule();
    assert_eq!(log, EXPECTED, "decision log moved; got:\n{log}");
}
