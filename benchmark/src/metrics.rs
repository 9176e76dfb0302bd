//! The metric tables: what `BENCHMARK.json` declares, in code, so the
//! checked-in file can be regenerated (`pwbench manifest`) and a unit
//! test can hold the two together.

use crate::json::Json;
use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: something a user of the system sees. Host
/// metrics are wall-clock; `sim_*` metrics are virtual time and repeat
/// exactly for one seed.
///
/// The bounds are sized from measurement, over ten *different* seeds
/// (the driver compares medians over ten seeds). Across seeds the
/// `sim_*` metrics move by up to 0.7 % / 1.7 % / 3.4 % on their
/// noisiest workload, and their bounds are three times that. Raw wall
/// clock on the 2-core sandbox drifts between speed states that outlast
/// a run, so the host metrics spread 3-14 % from run to run whatever is
/// measured; they carry the widest bound the benchmark contract allows.
/// For one seed the `sim_*` metrics have no spread at all, and any
/// difference between two builds is a change of the modelled system.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub definition: &'static str,
}

impl EndToEnd {
    /// Whether two runs of one seed must report the identical value:
    /// virtual-time results and the failed share do, host time and
    /// memory do not.
    pub fn repeats_exactly(&self) -> bool {
        self.name.starts_with("sim_") || self.name == "ok_ops_share"
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "programs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "programs whose sinks all became ready / wall seconds of the timed window (first submit to quiescence), median over the reps",
    },
    EndToEnd {
        name: "wall_us_per_kernel",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        definition: "wall microseconds of the window / device kernels executed, median over the reps; the cross-workload comparable",
    },
    EndToEnd {
        name: "sim_programs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.03,
        definition: "the same programs / virtual seconds: the paper's throughput axis",
    },
    EndToEnd {
        name: "sim_latency_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.06,
        definition: "median virtual time from the submit call to every sink ready (store_recover: kill to consumer ready)",
    },
    EndToEnd {
        name: "sim_latency_us_tail",
        unit: "us",
        better: Better::Lower,
        bound: 0.12,
        definition: "the highest percentile of that latency with at least 10 samples beyond it",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "wall seconds before a timed window: topology, runtime, clients, slices, trace + prepare, warm-up programs (median over the reps' set-ups)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        definition: "VmHWM of the workload's process after its first rep",
    },
    EndToEnd {
        name: "ok_ops_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        definition: "1 - failed_ops_share: programs (or recoveries) that resolved Ok / attempted",
    },
];

/// A per-layer metric: a count, a probe, or a share. Not gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // sim
    lower("sim.spawn_ns", "ns"),
    lower("sim.timer_ns", "ns"),
    lower("sim.wake_ns", "ns"),
    lower("sim.channel_msg_ns", "ns"),
    lower("sim.trace_spans", "count"),
    higher("sim.threaded_w2_ratio", "ratio"),
    lower("sim.lock_contended", "count"),
    lower("sim.est_share", "ratio"),
    // net
    lower("net.route_msg_ns", "ns"),
    lower("net.ici_transfer_ns", "ns"),
    lower("net.dcn_send_ns", "ns"),
    lower("net.collective_cost_ns", "ns"),
    lower("net.topology_lookup_ns", "ns"),
    lower("net.link_checks", "count"),
    lower("net.est_share", "ratio"),
    // device
    lower("device.enqueue_ns", "ns"),
    lower("device.gang_arrive_ns", "ns"),
    lower("device.hbm_alloc_ns", "ns"),
    lower("device.kernels", "count"),
    lower("device.rendezvous_ops", "count"),
    higher("device.sim_util", "ratio"),
    lower("device.est_share", "ratio"),
    // plaque
    lower("plaque.graph_build_ns", "ns"),
    lower("plaque.launch_ns", "ns"),
    lower("plaque.progress_ns", "ns"),
    lower("plaque.runs_ops", "count"),
    lower("plaque.shard_map_ops", "count"),
    lower("plaque.est_share", "ratio"),
    // core.client
    lower("core.client.trace_ns", "ns"),
    lower("core.client.prepare_ns", "ns"),
    lower("core.client.sim_submit_us", "us"),
    higher("core.client.programs", "count"),
    lower("core.client.est_share", "ratio"),
    // core.sched
    lower("core.sched.policy_pick_ns", "ns"),
    lower("core.sched.sim_submit_to_arrival_us", "us"),
    lower("core.sched.sim_arrival_to_ready_us", "us"),
    higher("core.sched.granted_programs", "count"),
    lower("core.sched.state_ops", "count"),
    lower("core.sched.est_share", "ratio"),
    // core.resource
    lower("core.resource.allocate_ns", "ns"),
    lower("core.resource.release_ns", "ns"),
    lower("core.resource.heal_us_per_slice", "us"),
    lower("core.resource.slices_ops", "count"),
    lower("core.resource.est_share", "ratio"),
    // core.storage: index
    lower("core.storage.declare_ns", "ns"),
    lower("core.storage.ready_ns", "ns"),
    lower("core.storage.retain_release_ns", "ns"),
    lower("core.storage.gc_client_us", "us"),
    lower("core.storage.store_ops", "count"),
    lower("core.storage.input_slot_ops", "count"),
    lower("core.storage.binding_ops", "count"),
    // core.storage: tiers and checkpoints
    lower("core.storage.spills", "count"),
    lower("core.storage.demotions", "count"),
    lower("core.storage.spilled_bytes", "bytes"),
    lower("core.storage.checkpoints", "count"),
    lower("core.storage.checkpoint_now_us", "us"),
    higher("core.storage.segments_reclaimed", "count"),
    lower("core.storage.disk_occupied_bytes", "bytes"),
    // core.storage: reads and recovery
    lower("core.storage.read_shard_ns", "ns"),
    higher("core.storage.restored", "count"),
    lower("core.storage.recomputed", "count"),
    lower("core.storage.abandoned", "count"),
    higher("core.storage.recovered_ratio", "ratio"),
    lower("core.storage.est_share", "ratio"),
    // models / baselines
    lower("models.program_build_us", "us"),
    higher("baselines.jax_parity_ratio", "ratio"),
    // run level
    lower("unattributed_share", "ratio"),
    lower("trace_overhead_pct", "%"),
];

/// How long one driver run measures, and the command that starts it.
pub const RUN_SECONDS: u64 = 10;
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// The content of `BENCHMARK.json`: one top-level key per line, one
/// workload or metric per line.
pub fn manifest() -> String {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::str(*s)).collect());
    let workloads = workloads::all()
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    let fields = [
        ("command", strs(COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::uint(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ];
    let mut out = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        out.push_str(&format!("  {}: ", Json::str(*key).render()));
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                let lines: Vec<String> = items
                    .iter()
                    .map(|it| format!("    {}", it.render()))
                    .collect();
                out.push_str(&format!("[\n{}\n  ]", lines.join(",\n")));
            }
            scalar_or_strings => out.push_str(&scalar_or_strings.render()),
        }
        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_inside_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let workloads = workloads::all();
        names.extend(workloads.iter().map(|w| w.name));
        let total = names.len();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&workloads.len()));
        for w in &workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            manifest(),
            "BENCHMARK.json is stale: regenerate it with `pwbench manifest`"
        );
    }
}
