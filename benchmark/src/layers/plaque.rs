//! Layer `plaque`: the sharded-dataflow coordination substrate (graph
//! representation, per-shard operator slots, progress tracking).

use std::sync::Arc;

use pathways::net::{Fabric, HostId};
use pathways::plaque::{Graph, GraphBuilder, NodeId, NullOperator, PlaqueRuntime, ProgressTracker};
use pathways::sim::Sim;

use super::{net, Named, Shape, PLAQUE};
use crate::clock::{ns_per_op, Stopwatch};
use crate::span;

/// A `NullOperator` graph of the workload's lowered shape: `comps`
/// nodes of `gang` shards placed round-robin over the gang's hosts,
/// chained, the first `reshard_edges` edges all-to-all and the rest
/// one-to-one. Returns the graph and its node + edge count.
fn lowered_shape(shape: &Shape) -> (Graph, u32) {
    let hosts = shape.gang_hosts();
    let placement: Vec<HostId> = (0..shape.gang).map(|s| HostId(s % hosts)).collect();
    let mut b = GraphBuilder::new("probe");
    let mut prev: Option<NodeId> = None;
    let mut edges = 0;
    for c in 0..shape.comps {
        let n = b.node(format!("n{c}"), placement.clone(), |_| {
            Box::new(NullOperator)
        });
        if let Some(p) = prev {
            if edges < shape.reshard_edges {
                b.edge(p, n);
            } else {
                b.one_to_one_edge(p, n);
            }
            edges += 1;
        }
        prev = Some(n);
    }
    (
        b.build().expect("probe graph is valid"),
        shape.comps + edges,
    )
}

pub fn probe(shape: &Shape) -> Vec<Named> {
    let shards = f64::from(shape.comps * shape.gang);
    let reps = (200_000.0 / shards).clamp(2.0, 2_000.0) as u64;

    let graph_build_ns = span::sync("probe.graph_build", PLAQUE, || {
        let (_, parts) = lowered_shape(shape);
        ns_per_op(reps, |_| lowered_shape(shape).0) / f64::from(parts)
    });

    // Launch to completion of the NullOperator graph: slot install,
    // Start fan-out, punctuation and halt of every shard.
    let launch_ns = span::sync("probe.launch", PLAQUE, || {
        let (graph, _) = lowered_shape(shape);
        let topo = Arc::new(net::cluster(shape).build());
        let mut sim = Sim::new(0);
        let fabric = Fabric::new(sim.handle(), topo, net::params());
        let rt = PlaqueRuntime::new(fabric);
        let sw = Stopwatch::start();
        for _ in 0..reps {
            std::hint::black_box(rt.launch(&graph, HostId(0)));
            let _ = sim.run();
        }
        sw.nanos() / (reps as f64 * shards)
    });

    // One tuple and one punctuation from each of `gang` sources.
    let progress_ns = span::sync("probe.progress", PLAQUE, || {
        let srcs = shape.gang;
        let iters = (400_000 / u64::from(srcs)).clamp(4, 100_000);
        ns_per_op(iters, |_| {
            let mut t = ProgressTracker::new(srcs);
            for s in 0..srcs {
                t.record_data(s);
                t.record_done(s, 1);
            }
            t.take_completion()
        }) / f64::from(srcs)
    });

    vec![
        ("plaque.graph_build_ns", graph_build_ns),
        ("plaque.launch_ns", launch_ns),
        ("plaque.progress_ns", progress_ns),
    ]
}
