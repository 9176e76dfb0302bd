//! Analytic cost models for collective operations.
//!
//! TPU collectives execute on the dedicated ICI mesh without host
//! involvement (Appendix A.5). We model their completion time with the
//! standard alpha-beta formulation: a latency term proportional to the
//! number of sequential hops, and a bandwidth term proportional to the
//! data each link must carry. Two algorithms are provided — a 1-D ring
//! and a 2-D torus (rows-then-columns) — the torus being what TPU
//! hardware actually uses and what keeps latency sublinear in device
//! count.

use serde::{Deserialize, Serialize};

use pathways_sim::SimDuration;

use crate::params::Bandwidth;

/// The collective patterns used by the workloads in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// Reduce + broadcast: every participant ends with the full sum.
    AllReduce,
    /// Every participant ends with the concatenation of all inputs.
    AllGather,
    /// The reduction is left sharded across participants.
    ReduceScatter,
    /// Every participant sends a distinct shard to every other.
    AllToAll,
}

impl std::fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CollectiveKind::AllReduce => "all-reduce",
            CollectiveKind::AllGather => "all-gather",
            CollectiveKind::ReduceScatter => "reduce-scatter",
            CollectiveKind::AllToAll => "all-to-all",
        };
        f.write_str(s)
    }
}

/// Completion time of a ring all-reduce over `n` participants carrying
/// `bytes` per participant.
///
/// Classic result: `2 (n-1)` steps each moving `bytes / n` and paying one
/// hop latency.
pub fn ring_allreduce(
    n: u32,
    bytes: u64,
    bandwidth: Bandwidth,
    hop_latency: SimDuration,
) -> SimDuration {
    assert!(n > 0, "collective needs at least one participant");
    if n == 1 {
        return SimDuration::ZERO;
    }
    let steps = 2 * (n as u64 - 1);
    let chunk = (bytes as f64 / n as f64).ceil();
    let per_step = hop_latency + SimDuration::from_secs_f64(chunk / bandwidth.bytes_per_sec());
    per_step * steps
}

/// Completion time of a 2-D torus all-reduce on a `rows x cols` mesh
/// carrying `bytes` per participant.
///
/// Reduce-scatter + all-gather along rows, then along columns: the
/// latency term is `2 ((rows-1) + (cols-1))` hops and the bandwidth term
/// approaches `4 bytes / link_bw` (each dimension moves ~`2 bytes`).
pub fn torus_allreduce(
    rows: u32,
    cols: u32,
    bytes: u64,
    bandwidth: Bandwidth,
    hop_latency: SimDuration,
) -> SimDuration {
    assert!(rows > 0 && cols > 0, "torus dimensions must be positive");
    let n = rows as u64 * cols as u64;
    if n == 1 {
        return SimDuration::ZERO;
    }
    let latency_hops = 2 * ((rows as u64 - 1) + (cols as u64 - 1));
    let latency_term = hop_latency * latency_hops;
    // Each of the two dimension passes is ring-optimal within its
    // dimension: 2 * (d-1)/d * bytes; summed over dims this is < 4*bytes.
    let row_frac = 2.0 * (cols as f64 - 1.0) / cols as f64;
    let col_frac = 2.0 * (rows as f64 - 1.0) / rows as f64;
    let bw_bytes = (row_frac + col_frac) * bytes as f64;
    latency_term + SimDuration::from_secs_f64(bw_bytes / bandwidth.bytes_per_sec())
}

/// Completion time of an all-gather on a `rows x cols` torus where each
/// participant contributes `bytes`.
pub fn torus_allgather(
    rows: u32,
    cols: u32,
    bytes: u64,
    bandwidth: Bandwidth,
    hop_latency: SimDuration,
) -> SimDuration {
    // All-gather is half of the all-reduce exchange.
    torus_allreduce(rows, cols, bytes, bandwidth, hop_latency) / 2
}

/// Completion time of a reduce-scatter on a `rows x cols` torus.
pub fn torus_reduce_scatter(
    rows: u32,
    cols: u32,
    bytes: u64,
    bandwidth: Bandwidth,
    hop_latency: SimDuration,
) -> SimDuration {
    torus_allreduce(rows, cols, bytes, bandwidth, hop_latency) / 2
}

/// Completion time of the collective `kind` on a torus.
pub fn torus_collective(
    kind: CollectiveKind,
    rows: u32,
    cols: u32,
    bytes: u64,
    bandwidth: Bandwidth,
    hop_latency: SimDuration,
) -> SimDuration {
    match kind {
        CollectiveKind::AllReduce => torus_allreduce(rows, cols, bytes, bandwidth, hop_latency),
        CollectiveKind::AllGather => torus_allgather(rows, cols, bytes, bandwidth, hop_latency),
        CollectiveKind::ReduceScatter => {
            torus_reduce_scatter(rows, cols, bytes, bandwidth, hop_latency)
        }
        // All-to-all moves n-1 distinct chunks per participant; on a torus
        // the bisection constrains it to roughly the all-reduce cost
        // scaled by sqrt(n)/2. We use a conservative ring bound.
        CollectiveKind::AllToAll => ring_allreduce(rows * cols, bytes, bandwidth, hop_latency),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw() -> Bandwidth {
        Bandwidth::from_gbps(100.0)
    }
    fn lat() -> SimDuration {
        SimDuration::from_micros(1)
    }

    #[test]
    fn single_participant_is_free() {
        assert_eq!(ring_allreduce(1, 1 << 20, bw(), lat()), SimDuration::ZERO);
        assert_eq!(
            torus_allreduce(1, 1, 1 << 20, bw(), lat()),
            SimDuration::ZERO
        );
    }

    #[test]
    fn small_allreduce_is_latency_bound() {
        // 4 bytes over an 8x8 torus: bandwidth term is negligible.
        let t = torus_allreduce(8, 8, 4, bw(), lat());
        let hops = 2 * (7 + 7);
        assert!(t >= lat() * hops);
        assert!(t < lat() * (hops + 1));
    }

    #[test]
    fn large_allreduce_is_bandwidth_bound() {
        // 1 GB over a 2x2 torus at 100 GB/s: ~3 * 10ms.
        let t = torus_allreduce(2, 2, 1_000_000_000, bw(), lat());
        let secs = t.as_secs_f64();
        assert!((0.015..0.045).contains(&secs), "got {secs}");
    }

    #[test]
    fn torus_latency_scales_with_mesh_perimeter_not_size() {
        let small = torus_allreduce(8, 8, 4, bw(), lat());
        let large = torus_allreduce(32, 64, 4, bw(), lat());
        // 64x more devices but only ~6.6x more latency.
        let ratio = large.as_secs_f64() / small.as_secs_f64();
        assert!(ratio < 8.0, "ratio {ratio}");
        // Ring latency over the same 2048 devices would be ~146x.
        let ring = ring_allreduce(2048, 4, bw(), lat());
        assert!(ring > large * 10);
    }

    #[test]
    fn allgather_is_half_allreduce() {
        let ar = torus_allreduce(4, 4, 1 << 20, bw(), lat());
        let ag = torus_allgather(4, 4, 1 << 20, bw(), lat());
        assert_eq!(ag, ar / 2);
    }

    #[test]
    fn collective_kind_dispatch() {
        for kind in [
            CollectiveKind::AllReduce,
            CollectiveKind::AllGather,
            CollectiveKind::ReduceScatter,
            CollectiveKind::AllToAll,
        ] {
            let t = torus_collective(kind, 4, 4, 1024, bw(), lat());
            assert!(!t.is_zero(), "{kind} cost should be positive");
        }
    }

    #[test]
    fn allreduce_monotone_in_bytes_and_participants() {
        let t1 = torus_allreduce(4, 4, 1 << 10, bw(), lat());
        let t2 = torus_allreduce(4, 4, 1 << 20, bw(), lat());
        assert!(t2 > t1);
        let t3 = torus_allreduce(8, 8, 1 << 10, bw(), lat());
        assert!(t3 > t1);
    }
}
