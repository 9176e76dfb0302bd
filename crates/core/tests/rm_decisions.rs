//! Decision pins for the resource manager.
//!
//! One seeded schedule over a 4-island cluster mixes plain, contiguous
//! and island-pinned allocations, detaches, heals with an excluded
//! island and releases, and writes down every decision the manager
//! makes: each placement, each `HealEvent` and the final mapping of
//! every live slice. A change to any tie-break — island ranking, device
//! order inside an island, the contiguous window picked or heal order —
//! moves a line of the log.

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
        match rng.below(8) {
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
            _ if !live.is_empty() => {
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
            _ => writeln!(log, "{step} nothing to release or heal").unwrap(),
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
0 nothing to release or heal
1 alloc n2@3 client0 -> slice0 [24,25]
2 heal dev24 excluding [IslandId(0)]
  slice0 client0 [24,25] -> [25,26]
3 alloc n3 client0 -> slice1 [0,1,2]
4 heal dev2 excluding [IslandId(1)]
  slice1 client0 [0,1,2] -> [0,1,3]
5 heal dev0 excluding [IslandId(2)]
  slice1 client0 [0,1,3] -> [1,3,4]
6 alloc n4 client0 -> slice2 [8,9,10,11]
7 heal dev1 excluding [IslandId(0)]
  slice1 client0 [1,3,4] -> [16,17,18]
8 alloc n6 client1 -> slice3 [27,28,29,30,31,25]
9 alloc n1@1 client0 -> slice4 [12]
10 alloc n1 client1 -> slice5 [3]
11 alloc n4 client1 -> slice6 [4,5,6,7]
12 alloc n6c client1 -> slice7 [18,19,20,21,22,23]
13 heal dev30 excluding []
  slice3 client1 [27,28,29,30,31,25] -> [27,28,29,31,25,26]
14 alloc n5c client1 -> slice8 [3,4,5,6,7]
15 heal dev3 excluding []
  slice5 client1 [3] -> [13]
  slice8 client1 [3,4,5,6,7] -> [11,12,13,14,15]
16 release slice0
17 heal dev11 excluding []
  slice2 client0 [8,9,10,11] -> [4,5,6,7]
  slice8 client1 [11,12,13,14,15] -> [8,9,10,12,13]
18 heal dev4 excluding []
  slice2 client0 [4,5,6,7] -> [25,26,27,28]
  slice6 client1 [4,5,6,7] -> [14,15,8,9]
19 detach dev31
20 release slice6
21 alloc n2 client1 -> slice9 [5,6]
22 alloc n4c@2 client1 -> slice10 [20,21,22,23]
23 alloc n6c@1 client0 -> slice11 [9,10,12,13,14,15]
24 detach dev21
25 alloc n4c@0 client0 -> requested 4 devices but the largest island has 7
26 alloc n3c@1 client0 -> slice12 [8,9,10]
27 alloc n6c client0 -> slice13 [16,17,18,19,20,22]
28 alloc n3 client0 -> slice14 [7,5,6]
29 alloc n1c@0 client0 -> slice15 [7]
30 alloc n3c@3 client1 -> slice16 [25,26,27]
31 release slice2
32 alloc n4c client0 -> slice17 [12,13,14,15]
33 alloc n6c@0 client1 -> requested 6 devices but the largest island has 7
34 alloc n1c@2 client0 -> slice18 [16]
35 alloc n4@3 client1 -> slice19 [28,29,25,26]
36 detach dev18
37 release slice4
38 alloc n2c client0 -> slice20 [5,6]
39 release slice19
40 alloc n6@2 client0 -> slice21 [17,19,23,16,20,22]
41 heal dev28 excluding [IslandId(3)]
  slice3 client1 [27,28,29,31,25,26] -> [8,14,15,9,10,12]
42 alloc n1c client0 -> slice22 [29]
43 alloc n5c client0 -> slice23 [10,12,13,14,15]
44 release slice15
45 heal dev12 excluding [IslandId(0)]
  slice3 client1 [8,14,15,9,10,12] -> [8,9,14,15,10,13]
  slice8 client1 [8,9,10,12,13] -> [8,9,10,13,14]
  slice11 client0 [9,10,12,13,14,15] -> [8,9,10,13,14,15]
  slice17 client0 [12,13,14,15] -> [25,26,27,29]
  slice23 client0 [10,12,13,14,15] -> [9,10,13,14,15]
46 detach dev10
47 alloc n6c client1 -> slice24 [16,17,19,20,22,23]
48 alloc n1@2 client1 -> slice25 [17]
49 alloc n3c@2 client1 -> slice26 [16,17,19]
50 heal dev6 excluding []
  slice9 client1 [5,6] -> [7,5]
  slice14 client0 [7,5,6] -> [25,26,27]
  slice20 client0 [5,6] -> [25,26]
51 alloc n2 client0 -> slice27 [5,7]
52 release slice13
53 alloc n4 client1 -> slice28 [29,27,25,26]
54 heal dev17 excluding [IslandId(3)]
  slice1 client0 [16,17,18] -> [16,19,20]
  slice21 client0 [17,19,23,16,20,22] -> requested 6 devices but the largest island has 5
  slice24 client1 [16,17,19,20,22,23] -> requested 6 devices but the largest island has 5
  slice25 client1 [17] -> [22]
  slice26 client1 [16,17,19] -> [16,19,20]
55 alloc n6c@3 client1 -> requested 6 devices but the largest island has 5
56 detach dev10
57 release slice18
58 heal dev20 excluding [IslandId(2)]
  slice1 client0 [16,19,20] -> [29,27,25]
  slice7 client1 [18,19,20,21,22,23] -> requested 6 devices but the largest island has 5
  slice10 client1 [20,21,22,23] -> unknown island2
  slice21 client0 [17,19,23,16,20,22] -> unknown island2
  slice24 client1 [16,17,19,20,22,23] -> requested 6 devices but the largest island has 5
  slice26 client1 [16,19,20] -> unknown island2
59 detach dev10
final slice1 gen 5 [29,27,25]
final slice3 gen 3 [8,9,14,15,10,13]
final slice5 gen 1 [13]
final slice7 gen 0 [18,19,20,21,22,23]
final slice8 gen 3 [8,9,10,13,14]
final slice9 gen 1 [7,5]
final slice10 gen 0 [20,21,22,23]
final slice11 gen 1 [8,9,10,13,14,15]
final slice12 gen 0 [8,9,10]
final slice14 gen 1 [25,26,27]
final slice16 gen 0 [25,26,27]
final slice17 gen 1 [25,26,27,29]
final slice20 gen 1 [25,26]
final slice21 gen 0 [17,19,23,16,20,22]
final slice22 gen 0 [29]
final slice23 gen 1 [9,10,13,14,15]
final slice24 gen 0 [16,17,19,20,22,23]
final slice25 gen 1 [22]
final slice26 gen 1 [16,19,20]
final slice27 gen 0 [5,7]
final slice28 gen 0 [29,27,25,26]
total load 76
";

#[test]
fn seeded_schedule_makes_the_pinned_decisions() {
    let log = run_schedule();
    assert_eq!(log, EXPECTED, "decision log moved; got:\n{log}");
}
