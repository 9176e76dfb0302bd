//! Figure 9 / Figure 11 harness: gang-scheduled interleaving traces of
//! concurrent client programs under weighted-fair scheduling.

use std::collections::BTreeMap;
use std::sync::Arc;

use pathways_core::{FnSpec, PathwaysConfig, SchedPolicy, SliceRequest};
use pathways_models::{gang_program, spawn_windowed};
use pathways_net::{ClientId, ClusterSpec, HostId};
use pathways_sim::{SimDuration, SimTime, TraceLog};

use crate::runtime;

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

/// Runs `weights.len()` clients with the given weighted-fair weights,
/// each keeping 12 runs of a `compute`-sized program outstanding for
/// `window`, and returns the device-0 trace and accounting.
pub fn tenancy_trace(
    hosts: u32,
    devices_per_host: u32,
    weights: &[u32],
    compute: SimDuration,
    window: SimDuration,
) -> TenancyTrace {
    let weight_map: BTreeMap<ClientId, u32> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| (ClientId(i as u32), *w))
        .collect();
    let cfg = PathwaysConfig {
        policy: SchedPolicy::WeightedFair {
            weights: weight_map,
            // Roughly one short program of gang time per turn, so the
            // interleaving stays millisecond-scale.
            quantum: SimDuration::from_micros(500),
        },
        sched_horizon: SimDuration::from_micros(600),
        ..PathwaysConfig::default()
    };
    let spec = ClusterSpec::single_island(hosts, devices_per_host);
    let (mut sim, rt) = runtime(0, spec, cfg);
    sim.handle().record_trace(true);
    let n_devices = hosts * devices_per_host;
    let labels = ["A", "B", "C", "D", "E", "F", "G", "H"];
    for i in 0..weights.len() {
        let client = rt.client_labeled(HostId(i as u32 % hosts), labels[i % labels.len()]);
        let slice = client
            .virtual_slice(SliceRequest::devices(n_devices))
            .unwrap();
        let step = FnSpec::compute_only("step", compute).with_allreduce(4);
        let (prepared, _) = gang_program(&client, format!("w{i}"), step, &slice).unwrap();
        spawn_windowed(client, prepared, 12, Arc::default());
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
        assert!(t.utilization > 0.9, "utilization {:.2}", t.utilization);
    }

    #[test]
    fn weighted_fair_shares_follow_ratios() {
        // Every tenant's share of device 0 rises with its weight, and
        // D's is within 5 points of its ideal 8/15.
        let t = tenancy_trace(
            1,
            8,
            &[1, 2, 4, 8],
            SimDuration::from_micros(330),
            SimDuration::from_millis(60),
        );
        let busy: Vec<f64> = ["A", "B", "C", "D"]
            .iter()
            .map(|l| t.busy_by_label[*l].as_secs_f64())
            .collect();
        assert!(busy.windows(2).all(|w| w[0] < w[1]), "shares {busy:?}");
        let d_share = busy[3] / busy.iter().sum::<f64>();
        assert!(
            (d_share - 8.0 / 15.0).abs() < 0.05,
            "D's share {d_share:.3} (shares {busy:?})"
        );
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
