//! Integration tests: sharded dataflow programs running over the
//! simulated DCN.

use pathways_sim::Lock;
use std::sync::Arc;

use pathways_net::{ClusterSpec, Fabric, HostId, NetworkParams};
use pathways_plaque::{
    EdgeId, GraphBuilder, NullOperator, Operator, PlaqueRuntime, ShardCtx, Tuple,
};
use pathways_sim::{Sim, SimDuration};

fn make_runtime(sim: &Sim, hosts: u32) -> PlaqueRuntime {
    let fabric = Fabric::new(
        sim.handle(),
        Arc::new(ClusterSpec::config_b(hosts).build()),
        NetworkParams::tpu_cluster(),
    );
    PlaqueRuntime::new(fabric)
}

/// Source operator: emits `count` tuples round-robin over destination
/// shards, then halts.
struct Source {
    edge: EdgeId,
    count: u32,
}

impl Operator for Source {
    fn on_all_inputs_complete(&mut self, ctx: &mut ShardCtx<'_>) {
        let dsts = ctx.dst_shards(self.edge);
        for i in 0..self.count {
            ctx.send(self.edge, i % dsts, Tuple::new(i, 8));
        }
        ctx.halt();
    }
}

/// Sink operator: records received values into a shared vec.
struct Sink {
    got: Arc<Lock<Vec<u32>>>,
}

impl Operator for Sink {
    fn on_tuple(&mut self, _ctx: &mut ShardCtx<'_>, _edge: EdgeId, _src: u32, tuple: Tuple) {
        self.got.lock().push(*tuple.expect::<u32>());
    }
}

#[test]
fn tuples_flow_from_source_to_sharded_sink() {
    let mut sim = Sim::new(0);
    let rt = make_runtime(&sim, 4);
    let got = Arc::new(Lock::new(Vec::new()));
    let mut g = GraphBuilder::new("flow");
    let src = g.node("src", vec![HostId(0)], |_| Box::new(NullOperator));
    let dst = g.node("dst", vec![HostId(1), HostId(2)], {
        let got = Arc::clone(&got);
        move |_| {
            Box::new(Sink {
                got: Arc::clone(&got),
            })
        }
    });
    let e = g.edge(src, dst);
    // Rebuild with a real source now that we know the edge id.
    let mut g2 = GraphBuilder::new("flow");
    let _src = g2.node("src", vec![HostId(0)], move |_| {
        Box::new(Source { edge: e, count: 10 })
    });
    let _dst = g2.node("dst", vec![HostId(1), HostId(2)], {
        let got = Arc::clone(&got);
        move |_| {
            Box::new(Sink {
                got: Arc::clone(&got),
            })
        }
    });
    let e2 = g2.edge(_src, _dst);
    assert_eq!(e, e2);
    let graph = g2.build().unwrap();
    let run = rt.launch(&graph, HostId(0));
    sim.spawn("client", async move { run.await_done().await });
    sim.run_to_quiescence();
    let mut vals = got.lock().clone();
    vals.sort_unstable();
    assert_eq!(vals, (0..10).collect::<Vec<u32>>());
}

/// A chain Arg -> A -> B -> Result where A and B have N shards each; each
/// shard of A forwards to the same shard of B. Checks both values and the
/// compact-representation claim.
struct Forward {
    out: EdgeId,
}

impl Operator for Forward {
    fn on_tuple(&mut self, ctx: &mut ShardCtx<'_>, _edge: EdgeId, _src: u32, tuple: Tuple) {
        let v = *tuple.expect::<u32>();
        let dst = ctx.shard() % ctx.dst_shards(self.out);
        ctx.send(self.out, dst, Tuple::new(v + 1, 8));
    }
}

struct Scatter {
    out: EdgeId,
}

impl Operator for Scatter {
    fn on_all_inputs_complete(&mut self, ctx: &mut ShardCtx<'_>) {
        for d in 0..ctx.dst_shards(self.out) {
            ctx.send(self.out, d, Tuple::new(d * 100, 8));
        }
        ctx.halt();
    }
}

struct Gather {
    got: Arc<Lock<Vec<u32>>>,
}

impl Operator for Gather {
    fn on_tuple(&mut self, _ctx: &mut ShardCtx<'_>, _e: EdgeId, _s: u32, tuple: Tuple) {
        self.got.lock().push(*tuple.expect::<u32>());
    }
}

#[test]
fn chained_sharded_computation_produces_n_parallel_flows() {
    const N: u32 = 8;
    let mut sim = Sim::new(0);
    let rt = make_runtime(&sim, 16);
    let got = Arc::new(Lock::new(Vec::new()));

    let hosts_a: Vec<HostId> = (0..N).map(HostId).collect();
    let hosts_b: Vec<HostId> = (N..2 * N).map(HostId).collect();

    let mut g = GraphBuilder::new("chain");
    let arg = g.node("Arg", vec![HostId(0)], |_| Box::new(NullOperator));
    let a = g.node("A", hosts_a, |_| Box::new(NullOperator));
    let b = g.node("B", hosts_b, |_| Box::new(NullOperator));
    let result = g.node("Result", vec![HostId(0)], |_| Box::new(NullOperator));
    let e_arg = g.edge(arg, a);
    let e_ab = g.edge(a, b);
    let e_res = g.edge(b, result);

    // Now rebuild with the real operators (edge ids are deterministic).
    let mut g = GraphBuilder::new("chain");
    let arg = g.node("Arg", vec![HostId(0)], move |_| {
        Box::new(Scatter { out: e_arg })
    });
    let a = g.node("A", (0..N).map(HostId).collect::<Vec<_>>(), move |_| {
        Box::new(Forward { out: e_ab })
    });
    let b = g.node("B", (N..2 * N).map(HostId).collect::<Vec<_>>(), move |_| {
        Box::new(Forward { out: e_res })
    });
    let result = g.node("Result", vec![HostId(0)], {
        let got = Arc::clone(&got);
        move |_| {
            Box::new(Gather {
                got: Arc::clone(&got),
            })
        }
    });
    assert_eq!(g.edge(arg, a), e_arg);
    assert_eq!(g.edge(a, b), e_ab);
    assert_eq!(g.edge(b, result), e_res);
    let graph = g.build().unwrap();

    // Compact representation: 4 nodes, 3 edges, independent of N.
    assert_eq!(graph.num_nodes(), 4);
    assert_eq!(graph.num_edges(), 3);

    let run = rt.launch(&graph, HostId(0));
    sim.spawn("client", async move { run.await_done().await });
    sim.run_to_quiescence();

    let mut vals = got.lock().clone();
    vals.sort_unstable();
    let want: Vec<u32> = (0..N).map(|d| d * 100 + 2).collect();
    assert_eq!(vals, want);
}

/// Sparse exchange: the source sends to a single dynamically chosen shard
/// out of many; all other shards still terminate via progress tracking.
#[test]
fn sparse_exchange_completes_all_shards() {
    const N: u32 = 16;
    struct SparseSource {
        out: EdgeId,
    }
    impl Operator for SparseSource {
        fn on_all_inputs_complete(&mut self, ctx: &mut ShardCtx<'_>) {
            // Only shard 13 gets data.
            ctx.send(self.out, 13, Tuple::new(99u32, 8));
            ctx.halt();
        }
    }
    let mut sim = Sim::new(0);
    let rt = make_runtime(&sim, 17);
    let got = Arc::new(Lock::new(Vec::new()));
    let mut g = GraphBuilder::new("sparse");
    let src = g.node("src", vec![HostId(16)], |_| Box::new(NullOperator));
    let dst = g.node("dst", (0..N).map(HostId).collect::<Vec<_>>(), |_| {
        Box::new(NullOperator)
    });
    let e = g.edge(src, dst);
    let mut g = GraphBuilder::new("sparse");
    let src = g.node("src", vec![HostId(16)], move |_| {
        Box::new(SparseSource { out: e })
    });
    let dst = g.node("dst", (0..N).map(HostId).collect::<Vec<_>>(), {
        let got = Arc::clone(&got);
        move |_| {
            Box::new(Gather {
                got: Arc::clone(&got),
            })
        }
    });
    assert_eq!(g.edge(src, dst), e);
    let graph = g.build().unwrap();
    let run = rt.launch(&graph, HostId(16));
    let client = sim.spawn("client", async move { run.await_done().await });
    sim.run_to_quiescence();
    assert!(client.is_finished());
    assert_eq!(*got.lock(), vec![99]);
}

/// Two launches of the same graph run concurrently without interference
/// (the runtime is multi-tenant).
#[test]
fn concurrent_runs_are_isolated() {
    let mut sim = Sim::new(0);
    let rt = make_runtime(&sim, 4);
    let got = Arc::new(Lock::new(Vec::new()));
    let mut g = GraphBuilder::new("t");
    let src = g.node("src", vec![HostId(0)], |_| Box::new(NullOperator));
    let dst = g.node("dst", vec![HostId(1)], |_| Box::new(NullOperator));
    let e = g.edge(src, dst);
    let mut g = GraphBuilder::new("t");
    let src = g.node("src", vec![HostId(0)], move |_| {
        Box::new(Source { edge: e, count: 5 })
    });
    let dst = g.node("dst", vec![HostId(1)], {
        let got = Arc::clone(&got);
        move |_| {
            Box::new(Gather {
                got: Arc::clone(&got),
            })
        }
    });
    assert_eq!(g.edge(src, dst), e);
    let graph = g.build().unwrap();

    let r1 = rt.launch(&graph, HostId(0));
    let r2 = rt.launch(&graph, HostId(0));
    assert_ne!(r1.id(), r2.id());
    sim.spawn("c1", async move { r1.await_done().await });
    sim.spawn("c2", async move { r2.await_done().await });
    sim.run_to_quiescence();
    assert_eq!(rt.live_runs(), 0);
    let mut vals = got.lock().clone();
    vals.sort_unstable();
    assert_eq!(vals, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
}

/// Asynchronous emission through an Emitter: the operator spawns a task
/// that emits after simulated device work, then halts the shard.
#[test]
fn async_emitter_sends_after_spawned_work() {
    struct AsyncSource {
        out: EdgeId,
    }
    impl Operator for AsyncSource {
        fn on_all_inputs_complete(&mut self, ctx: &mut ShardCtx<'_>) {
            let emitter = ctx.emitter();
            let h = ctx.handle().clone();
            let out = self.out;
            ctx.handle().spawn("async-emit", async move {
                h.sleep(SimDuration::from_millis(1)).await;
                emitter.send(out, 0, Tuple::new(7u32, 8));
                emitter.halt();
            });
            // Note: no ctx.halt() here — the spawned task halts.
        }
    }
    let mut sim = Sim::new(0);
    let rt = make_runtime(&sim, 4);
    let got = Arc::new(Lock::new(Vec::new()));
    let mut g = GraphBuilder::new("a");
    let src = g.node("src", vec![HostId(0)], |_| Box::new(NullOperator));
    let dst = g.node("dst", vec![HostId(1)], |_| Box::new(NullOperator));
    let e = g.edge(src, dst);
    let mut g = GraphBuilder::new("a");
    let src = g.node("src", vec![HostId(0)], move |_| {
        Box::new(AsyncSource { out: e })
    });
    let dst = g.node("dst", vec![HostId(1)], {
        let got = Arc::clone(&got);
        move |_| {
            Box::new(Gather {
                got: Arc::clone(&got),
            })
        }
    });
    assert_eq!(g.edge(src, dst), e);
    let graph = g.build().unwrap();
    let run = rt.launch(&graph, HostId(0));
    sim.spawn("client", async move { run.await_done().await });
    let end = sim.run_to_quiescence();
    assert_eq!(*got.lock(), vec![7]);
    // The emission waited for the 1ms of simulated work.
    assert!(end >= pathways_sim::SimTime::ZERO + SimDuration::from_millis(1));
}

/// Every batch an emitter queues on a host is sent by that host's one
/// `plaque-flush-{host}` service: nothing is spawned per flush (the old
/// runtime spawned a flush task per host-instant), and a second run
/// finds the services of the first.
#[test]
fn one_flusher_per_host_serves_every_batch() {
    struct Dripper {
        out: EdgeId,
    }
    impl Operator for Dripper {
        fn on_all_inputs_complete(&mut self, ctx: &mut ShardCtx<'_>) {
            let (emitter, h, out) = (ctx.emitter(), ctx.handle().clone(), self.out);
            ctx.handle().spawn("drip", async move {
                for i in 0..5u32 {
                    h.sleep(SimDuration::from_millis(1)).await;
                    emitter.send(out, 0, Tuple::new(i, 8));
                }
                emitter.halt();
            });
        }
    }
    let mut sim = Sim::new(0);
    let rt = make_runtime(&sim, 4);
    let got = Arc::new(Lock::new(Vec::new()));
    let mut g = GraphBuilder::new("drip");
    let src = g.node("src", vec![HostId(0), HostId(2)], |_| {
        Box::new(Dripper { out: EdgeId(0) })
    });
    let dst = g.node("dst", vec![HostId(1)], {
        let got = Arc::clone(&got);
        move |_| {
            Box::new(Gather {
                got: Arc::clone(&got),
            })
        }
    });
    assert_eq!(g.edge(src, dst), EdgeId(0));
    let graph = g.build().unwrap();
    for round in 1..=2 {
        let run = rt.launch(&graph, HostId(0));
        sim.spawn("client", async move { run.await_done().await });
        sim.run_to_quiescence();
        assert_eq!(got.lock().len(), 10 * round);
        // Three plaque workers; a flusher and a DCN egress actor on each
        // of the two hosts that emit.
        assert_eq!(sim.live_tasks(), 3 + 2 + 2, "round {round}");
    }
}

/// Messages to one destination host within a round are batched: the NIC
/// is occupied once, not once per tuple.
#[test]
fn same_host_messages_batch_into_one_dcn_message() {
    struct FanSource {
        out: EdgeId,
        n: u32,
    }
    impl Operator for FanSource {
        fn on_all_inputs_complete(&mut self, ctx: &mut ShardCtx<'_>) {
            for i in 0..self.n {
                ctx.send(self.out, i, Tuple::new(i, 0));
            }
            ctx.halt();
        }
    }
    // All 32 destination shards live on host 1: with batching the whole
    // fan-out costs ~1 NIC occupancy; unbatched it would cost 32.
    let mut sim = Sim::new(0);
    let rt = make_runtime(&sim, 2);
    let mut g = GraphBuilder::new("fan");
    let src = g.node("src", vec![HostId(0)], |_| Box::new(NullOperator));
    let dst = g.node("dst", vec![HostId(1); 32], |_| Box::new(NullOperator));
    let e = g.edge(src, dst);
    let mut g = GraphBuilder::new("fan");
    let src = g.node("src", vec![HostId(0)], move |_| {
        Box::new(FanSource { out: e, n: 32 })
    });
    let _dst = g.node("dst", vec![HostId(1); 32], |_| Box::new(NullOperator));
    assert_eq!(g.edge(src, _dst), e);
    let graph = g.build().unwrap();
    let run = rt.launch(&graph, HostId(0));
    sim.spawn("client", async move { run.await_done().await });
    let end = sim.run_to_quiescence();
    let p = NetworkParams::tpu_cluster();
    // Unbatched lower bound: 32 per-message overheads on the NIC.
    let unbatched_floor = p.dcn_send_overhead * 32;
    assert!(
        end.as_nanos() < unbatched_floor.as_nanos() + p.dcn_latency.as_nanos(),
        "fan-out did not batch: took {end}"
    );
}
