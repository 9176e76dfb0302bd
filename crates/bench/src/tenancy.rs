//! Figure 9 / Figure 11 harness: gang-scheduled interleaving traces of
//! concurrent client programs under proportional-share scheduling.

use std::collections::BTreeMap;

use pathways_core::{FnSpec, PathwaysConfig, PathwaysRuntime, SchedPolicy, SliceRequest};
use pathways_net::{ClientId, ClusterSpec, HostId, NetworkParams};
use pathways_sim::{Sim, SimDuration, SimTime, TraceLog};

/// Result of a multi-tenancy trace run.
#[derive(Debug)]
pub struct TenancyTrace {
    /// ASCII rendering of a sample of device timelines.
    pub ascii: String,
    /// Device busy time per client label on device 0.
    pub busy_by_label: BTreeMap<String, SimDuration>,
    /// Fraction of the window device 0 was busy.
    pub utilization: f64,
}

/// Which weighted policy engine a tenancy trace drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenancyPolicy {
    /// Stride scheduling ([`SchedPolicy::ProportionalShare`]).
    Stride,
    /// Gang-aware weighted-fair queueing ([`SchedPolicy::WeightedFair`]).
    WeightedFair,
}

impl TenancyPolicy {
    fn to_sched_policy(self, weights: BTreeMap<ClientId, u32>) -> SchedPolicy {
        match self {
            TenancyPolicy::Stride => SchedPolicy::ProportionalShare(weights),
            TenancyPolicy::WeightedFair => SchedPolicy::WeightedFair {
                weights,
                // Roughly one short program of gang time per turn, so
                // the interleaving stays millisecond-scale like stride.
                quantum: SimDuration::from_micros(500),
            },
        }
    }
}

/// Runs `weights.len()` clients with the given proportional-share
/// weights submitting `compute`-sized programs for `window`, and
/// returns the device-0 trace and accounting. Stride policy; see
/// [`tenancy_trace_with_policy`] to choose the engine.
pub fn tenancy_trace(
    hosts: u32,
    devices_per_host: u32,
    weights: &[u32],
    compute: SimDuration,
    window: SimDuration,
) -> TenancyTrace {
    tenancy_trace_with_policy(
        TenancyPolicy::Stride,
        hosts,
        devices_per_host,
        weights,
        compute,
        window,
    )
}

/// [`tenancy_trace`] with an explicit policy engine.
pub fn tenancy_trace_with_policy(
    policy: TenancyPolicy,
    hosts: u32,
    devices_per_host: u32,
    weights: &[u32],
    compute: SimDuration,
    window: SimDuration,
) -> TenancyTrace {
    let mut sim = Sim::new(0);
    sim.handle().record_trace(true);
    let weight_map: BTreeMap<ClientId, u32> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| (ClientId(i as u32), *w))
        .collect();
    let cfg = PathwaysConfig {
        policy: policy.to_sched_policy(weight_map),
        sched_horizon: SimDuration::from_micros(600),
        ..PathwaysConfig::default()
    };
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::single_island(hosts, devices_per_host),
        NetworkParams::tpu_cluster(),
        cfg,
    );
    let n_devices = hosts * devices_per_host;
    let labels = ["A", "B", "C", "D", "E", "F", "G", "H"];
    for (i, _w) in weights.iter().enumerate() {
        let client = rt.client_labeled(HostId(i as u32 % hosts), labels[i % labels.len()]);
        let slice = client
            .virtual_slice(SliceRequest::devices(n_devices))
            .unwrap();
        let mut b = client.trace(format!("w{i}"));
        b.computation(
            FnSpec::compute_only("step", compute).with_allreduce(4),
            &slice,
        );
        let program = b.build().unwrap();
        let prepared = std::sync::Arc::new(client.prepare(&program));
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        crate::stream::spawn_program_stream(&mut sim, client, prepared, 12, counter);
    }
    sim.run_until_time(SimTime::ZERO + window);
    let trace = sim.take_trace();
    // Sample up to 8 device rows for the rendering, over the middle of
    // the window (skipping warm-up).
    let start = SimTime::ZERO + SimDuration::from_nanos(window.as_nanos() / 4);
    let end = SimTime::ZERO + window;
    let mut sample = TraceLog::new();
    for d in 0..8.min(n_devices) {
        let track = format!("d{d:04}");
        for s in trace.track(&track) {
            sample.record(track.clone(), s.label.clone(), s.start, s.end);
        }
    }
    TenancyTrace {
        ascii: sample.render_ascii(start, end, 96),
        busy_by_label: trace.busy_by_label("d0000"),
        utilization: trace.utilization("d0000", start, end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_weights_split_evenly() {
        let t = tenancy_trace(
            1,
            8,
            &[1, 1, 1, 1],
            SimDuration::from_micros(330),
            SimDuration::from_millis(40),
        );
        let busys: Vec<f64> = t.busy_by_label.values().map(|d| d.as_secs_f64()).collect();
        assert_eq!(busys.len(), 4);
        let max = busys.iter().cloned().fold(0.0, f64::max);
        let min = busys.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.4, "shares uneven: {busys:?}");
        assert!(t.utilization > 0.9, "utilization {:.2}", t.utilization);
    }

    #[test]
    fn weighted_shares_follow_ratios() {
        let t = tenancy_trace(
            1,
            8,
            &[1, 2, 4, 8],
            SimDuration::from_micros(330),
            SimDuration::from_millis(60),
        );
        let a = t.busy_by_label["A"].as_secs_f64();
        let d = t.busy_by_label["D"].as_secs_f64();
        assert!(d / a > 3.0, "D/A ratio {:.2} too small", d / a);
    }

    #[test]
    fn weighted_fair_shares_follow_ratios() {
        // The same 1:2:4:8 scenario as stride, under the WFQ engine:
        // device time still follows the weights.
        let t = tenancy_trace_with_policy(
            TenancyPolicy::WeightedFair,
            1,
            8,
            &[1, 2, 4, 8],
            SimDuration::from_micros(330),
            SimDuration::from_millis(60),
        );
        let a = t.busy_by_label["A"].as_secs_f64();
        let d = t.busy_by_label["D"].as_secs_f64();
        assert!(d / a > 3.0, "D/A ratio {:.2} too small", d / a);
        assert!(t.utilization > 0.9, "utilization {:.2}", t.utilization);
    }

    #[test]
    fn trace_renders_interleaving() {
        let t = tenancy_trace(
            1,
            8,
            &[1, 1],
            SimDuration::from_micros(330),
            SimDuration::from_millis(20),
        );
        assert!(
            t.ascii.contains('A') && t.ascii.contains('B'),
            "{}",
            t.ascii
        );
    }
}
