//! The traced run's product: every per-layer metric, the attribution
//! of the rep's host time to layers, and the trace file.
//!
//! Three sources feed the metrics, all outside the program under test:
//! *counts* read from the layers' public counters around the timed
//! window (they repeat exactly), *probes* (each layer's public
//! functions run in isolation at the workload's sizes), and the
//! *boundary spans* recorded around every call the driver makes.
//!
//! `<layer>.est_share` = Σ count x probe ns ÷ rep wall. A probe is
//! inclusive: it contains the executor (and network) work the probed
//! call triggers, so shares of stacked layers overlap, `sim.est_share`
//! (the executor's own poll/wake floor) is reported beside the others
//! rather than added to them, and `unattributed_share` = 1 − Σ of the
//! non-`sim` shares is printed as it comes out — it is the target of
//! the in-program tracing a later issue adds.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::layers::{self, Named, Shape};
use crate::metrics::PER_LAYER;
use crate::provenance::Provenance;
use crate::runner::{programs_per_s, Value};
use crate::span::{self, Span, SpanTotal};
use crate::stats;
use crate::workloads::{dispatch_fresh, Rep, Workload};

/// Spans written to the trace file at most (earliest first); a long
/// workload records several times this many.
const TRACE_FILE_SPANS: usize = 20_000;

pub struct Layered {
    pub metrics: Vec<Value>,
    pub notes: Vec<String>,
    pub failures: Vec<String>,
}

/// Where run artefacts go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn probes(shape: &Shape) -> BTreeMap<&'static str, f64> {
    let mut all: Vec<Named> = Vec::new();
    all.extend(layers::sim::probe(shape));
    all.extend(layers::net::probe(shape));
    all.extend(layers::device::probe(shape));
    all.extend(layers::plaque::probe(shape));
    all.extend(layers::core_sched::probe(shape));
    all.extend(layers::core_resource::probe(shape));
    all.extend(layers::core_storage::probe(shape));
    all.extend(layers::models::probe());
    all.extend(layers::baselines::probe(shape));
    all.into_iter().collect()
}

/// Probes whose cost is reported per item of gang width (member,
/// shard, source, message): flat when the layer scales linearly.
const PER_WIDTH_ITEM: &[&str] = &[
    "net.route_msg_ns",
    "device.gang_arrive_ns",
    "plaque.launch_ns",
    "plaque.progress_ns",
];
/// Probes reported per call whose call handles the whole gang (a cost
/// lookup over its members, a node placed on its hosts, a slice of its
/// size): linear scaling multiplies them by the width ratio.
const PER_GANG_CALL: &[&str] = &[
    "net.collective_cost_ns",
    "plaque.graph_build_ns",
    "core.resource.allocate_ns",
];

/// Re-probes the gang-dependent layers at a quarter of the workload's
/// gang width and reports how each probe's *total* cost grew over the
/// 4x step; more than 4x (with slack) is faster than linear.
fn scaling_notes(shape: &Shape, at_full: &BTreeMap<&'static str, f64>) -> Vec<String> {
    if shape.gang < 64 {
        return Vec::new();
    }
    let quarter = Shape {
        gang: shape.gang / 4,
        hosts_per_island: (shape.hosts_per_island / 4).max(2),
        ..*shape
    };
    let mut at_quarter: Vec<Named> = Vec::new();
    at_quarter.extend(layers::net::probe(&quarter));
    at_quarter.extend(layers::device::probe(&quarter));
    at_quarter.extend(layers::plaque::probe(&quarter));
    at_quarter.extend(layers::core_resource::probe(&quarter));
    let mut notes = vec![format!(
        "scaling: total probe cost at gang width {} vs {} (linear = 4.00x)",
        shape.gang, quarter.gang
    )];
    for (name, small) in at_quarter {
        let Some(&big) = at_full.get(name) else {
            continue;
        };
        let growth = if PER_WIDTH_ITEM.contains(&name) {
            4.0 * big / small
        } else if PER_GANG_CALL.contains(&name) {
            big / small
        } else {
            continue;
        };
        let verdict = if growth > 5.0 {
            "FASTER THAN LINEAR"
        } else {
            "linear or better"
        };
        notes.push(format!(
            "scaling: {name:<28} {small:>10.1} -> {big:>10.1} per op, total x{growth:.2}  {verdict}"
        ));
    }
    notes
}

fn span_total<'a>(totals: &'a [SpanTotal], layer: &str, name: &str) -> Option<&'a SpanTotal> {
    totals.iter().find(|t| t.layer == layer && t.name == name)
}

/// Host ns of the synchronous spans of `layer` that started inside the
/// timed window (self time, so nested calls are not counted twice).
fn in_window_host_ns(rep: &Rep, layer: &str) -> f64 {
    let selfs = span::self_times(&rep.spans);
    rep.spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.layer == layer && !s.awaits && s.start_ns >= rep.window_start_ns)
        .map(|(_, own)| own as f64)
        .fold(0.0, |a, b| a + b)
}

pub fn assemble(
    w: &Workload,
    seed: u64,
    prov: &Provenance,
    plain: &[Rep],
    traced: &[Rep],
) -> Layered {
    let shape = &w.shape;
    let mut notes = Vec::new();
    let mut failures = Vec::new();

    span::enable(true);
    let probe = probes(shape);
    let scaling = scaling_notes(shape, &probe);
    let probe_spans = span::take();
    span::enable(false);

    let rep = &traced[0];
    let wall_ns = rep.wall_s * 1e9;
    let count = |k: &str| rep.counts.get(k).copied().unwrap_or(0.0);
    let p = |k: &str| probe.get(k).copied().unwrap_or(f64::NAN);
    let totals = span::totals(&rep.spans);
    let per_unit = |layer: &str, names: &[&str]| {
        let (total, units) = names
            .iter()
            .filter_map(|n| span_total(&totals, layer, n))
            .fold((0u64, 0u64), |(t, u), s| (t + s.total, u + s.units));
        if units == 0 {
            0.0
        } else {
            total as f64 / units as f64
        }
    };

    let mut m: BTreeMap<&'static str, f64> = probe.clone();

    // ---- counts
    m.insert("sim.trace_spans", count("sim.trace_spans"));
    m.insert("net.link_checks", count("lock.net.fabric.faults"));
    m.insert("device.kernels", count("device.kernels"));
    m.insert("device.rendezvous_ops", count("lock.device.rendezvous"));
    m.insert(
        "device.sim_util",
        count("device.busy_ns") / (f64::from(shape.devices()) * rep.sim_ns.max(1) as f64),
    );
    m.insert("plaque.runs_ops", count("lock.plaque.runs"));
    m.insert("plaque.shard_map_ops", count("lock.plaque.shard_map"));
    m.insert(
        "core.sched.granted_programs",
        count("core.sched.granted_programs"),
    );
    m.insert("core.sched.state_ops", count("lock.core.sched.state"));
    m.insert("core.resource.slices_ops", count("lock.core.rm.slices"));
    m.insert("core.storage.store_ops", count("lock.core.store"));
    m.insert(
        "core.storage.input_slot_ops",
        count("lock.core.input_slots"),
    );
    m.insert("core.storage.binding_ops", count("lock.core.bindings"));
    for k in [
        "core.storage.spills",
        "core.storage.demotions",
        "core.storage.spilled_bytes",
        "core.storage.checkpoints",
        "core.storage.segments_reclaimed",
        "core.storage.disk_occupied_bytes",
        "core.storage.restored",
        "core.storage.recomputed",
        "core.storage.abandoned",
    ] {
        m.insert(k, count(k));
    }
    let recovered = count("core.storage.restored") + count("core.storage.recomputed");
    let attempts = recovered + count("core.storage.abandoned");
    m.insert(
        "core.storage.recovered_ratio",
        if attempts == 0.0 {
            1.0
        } else {
            recovered / attempts
        },
    );

    // ---- boundary spans
    m.insert(
        "core.client.trace_ns",
        per_unit(layers::CLIENT, &["trace+build"])
            .max(per_unit(layers::MODELS, &["gpipe_program"])),
    );
    m.insert(
        "core.client.prepare_ns",
        per_unit(layers::CLIENT, &["prepare"]),
    );
    let submits = span_total(&totals, layers::CLIENT, "submit");
    m.insert(
        "core.client.sim_submit_us",
        submits.map_or(0.0, |s| s.total as f64 / s.count.max(1) as f64 / 1e3),
    );
    m.insert(
        "core.client.programs",
        submits.map_or(0.0, |s| s.count as f64),
    );
    let t = &rep.tally;
    let per_sample = |ns: u64| {
        if t.sched_samples == 0 {
            0.0
        } else {
            ns as f64 / t.sched_samples as f64 / 1e3
        }
    };
    m.insert(
        "core.sched.sim_submit_to_arrival_us",
        per_sample(t.submit_to_arrival_ns),
    );
    m.insert(
        "core.sched.sim_arrival_to_ready_us",
        per_sample(t.arrival_to_ready_ns),
    );

    // ---- threaded replay (the one metric off the deterministic executor)
    if prov.host_cores < 2 {
        notes.push(
            "WARNING: 1 host core: sim.threaded_w2_ratio is not measured (reported as 0)"
                .to_string(),
        );
        m.insert("sim.threaded_w2_ratio", 0.0);
        m.insert("sim.lock_contended", 0.0);
    } else if let Some(r) = dispatch_fresh::threaded_replay_guarded(seed) {
        notes.push(format!(
            "sim.threaded_w2_ratio base: deterministic {:.1} programs/s, threaded(2) {:.1} programs/s over {} programs",
            r.deterministic_pps, r.threaded_pps, r.programs
        ));
        if !r.completed {
            failures.push("threaded replay did not reach quiescence".to_string());
        }
        m.insert(
            "sim.threaded_w2_ratio",
            r.threaded_pps / r.deterministic_pps,
        );
        m.insert("sim.lock_contended", r.contended as f64);
    } else {
        // The threaded pool stalled (or its child gave no result): the
        // gated metrics never touch that backend, so say so and go on.
        notes.push(
            "WARNING: the threaded replay's child process was stopped at its deadline or printed \
             no result: sim.threaded_w2_ratio is not measured (reported as 0)"
                .to_string(),
        );
        m.insert("sim.threaded_w2_ratio", 0.0);
        m.insert("sim.lock_contended", 0.0);
    }

    // ---- attribution
    let mean_index_op_ns = (p("core.storage.declare_ns")
        + p("core.storage.ready_ns")
        + p("core.storage.retain_release_ns") / 2.0)
        / 3.0;
    let shares: [(&'static str, f64); 8] = [
        ("sim.est_share", count("sim.polls") * p("sim.wake_ns")),
        (
            "net.est_share",
            count("lock.net.fabric.faults") * p("net.route_msg_ns"),
        ),
        (
            "device.est_share",
            count("device.kernels") * p("device.enqueue_ns")
                + count("lock.device.rendezvous") * p("device.gang_arrive_ns"),
        ),
        (
            "plaque.est_share",
            t.plaque_shards as f64 * p("plaque.launch_ns"),
        ),
        (
            "core.client.est_share",
            in_window_host_ns(rep, layers::CLIENT) + in_window_host_ns(rep, layers::MODELS),
        ),
        (
            "core.sched.est_share",
            count("core.sched.granted_programs") * p("core.sched.policy_pick_ns"),
        ),
        (
            "core.resource.est_share",
            in_window_host_ns(rep, layers::RESOURCE)
                + count("core.resource.heal_events") * p("core.resource.heal_us_per_slice") * 1e3,
        ),
        (
            "core.storage.est_share",
            count("lock.core.store") * mean_index_op_ns
                + count("core.storage.checkpoints") * p("core.storage.checkpoint_now_us") * 1e3
                + in_window_host_ns(rep, layers::STORAGE),
        ),
    ];
    let mut attributed = 0.0;
    for (name, ns) in shares {
        let share = ns / wall_ns;
        m.insert(name, share);
        if name != "sim.est_share" {
            attributed += share;
        }
    }
    m.insert("unattributed_share", 1.0 - attributed);

    let plain_pps: Vec<f64> = plain.iter().map(programs_per_s).collect();
    let traced_pps: Vec<f64> = traced.iter().map(programs_per_s).collect();
    let (base, with) = (stats::median(&plain_pps), stats::median(&traced_pps));
    m.insert("trace_overhead_pct", 100.0 * (base - with) / base);
    notes.push(format!(
        "trace_overhead_pct base: untraced {base:.2} programs/s, traced {with:.2} programs/s"
    ));

    // ---- notes: where the rep's host time is estimated to go
    notes.push(format!(
        "attribution of the traced rep ({:.3} s host, {} kernels, {} polls):",
        rep.wall_s,
        rep.kernels,
        count("sim.polls")
    ));
    for (name, _) in shares {
        notes.push(format!("  {name:<26} {:>7.3}", m[name]));
    }
    notes.push(format!(
        "  {:<26} {:>7.3}  (1 - shares above except sim.est_share, which overlaps them)",
        "unattributed_share", m["unattributed_share"]
    ));
    notes.push(
        "boundary spans of the traced rep (host µs for sync spans, virtual µs for awaiting ones):"
            .to_string(),
    );
    for s in &totals {
        notes.push(format!(
            "  {:<14} {:<22} {} n={:<7} total={:>12.1} self={:>12.1}",
            s.layer,
            s.name,
            if s.awaits { "virt" } else { "host" },
            s.count,
            s.total as f64 / 1e3,
            s.self_total as f64 / 1e3
        ));
    }
    notes.extend(scaling);

    // ---- trace file: the last traced rep, then the probe calls
    let last = traced.last().expect("a traced rep exists");
    let mut spans: Vec<Span> = last.spans.iter().take(TRACE_FILE_SPANS).cloned().collect();
    let kept = spans.len();
    // Probe spans have no parents inside the rep; re-base theirs.
    spans.extend(probe_spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + kept as u32);
        s
    }));
    let path = out_dir().join(format!("{}.trace.json", w.name));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, span::trace_events(&spans, usize::MAX).render()));
    match written {
        Ok(()) => notes.push(format!(
            "trace file: {} ({} of the rep's {} spans, plus probe spans)",
            path.display(),
            kept,
            last.spans.len()
        )),
        Err(e) => failures.push(format!("writing {}: {e}", path.display())),
    }

    let metrics = PER_LAYER
        .iter()
        .map(|d| {
            let value = m.get(d.name).copied().unwrap_or_else(|| {
                failures.push(format!("per-layer metric {} was not produced", d.name));
                f64::NAN
            });
            Value::single(d.name, d.unit, value, 1)
        })
        .collect();
    Layered {
        metrics,
        notes,
        failures,
    }
}
