//! Hardware calibration constants for the analytic cost model.
//!
//! Absolute throughput depends on constants we cannot measure (the
//! paper's testbed), so these are calibrated to public TPUv3 figures:
//! ~61 TFLOP/s bf16 per core, 16 GiB HBM per core. The achieved-FLOPs
//! fraction (MFU) is set to land Table 1's T5-3B/11B rows in the right
//! range; `bench table1` prints paper-vs-measured for every row, and
//! `perf/baselines/BENCH_table1.json` records the measured side.

use serde::{Deserialize, Serialize};

use pathways_sim::SimDuration;

use crate::transformer::TransformerConfig;

/// TPU-like device calibration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// Peak bf16 FLOP/s per core.
    pub peak_flops_per_core: f64,
    /// Achieved fraction of peak for large-matmul training steps.
    pub mfu: f64,
    /// Bytes transferred per parameter during a data-parallel gradient
    /// exchange. Calibrated from §5.3: the paper reports 457 GB for the
    /// 64B model and 1030 GB for 136B, i.e. ~7.2 bytes/param (gradients
    /// plus optimizer-state exchange).
    pub grad_bytes_per_param: f64,
    /// Fixed per-kernel launch overhead folded into each computation.
    pub kernel_overhead: SimDuration,
    /// Fraction of an SPMD training step spent in non-overlapped
    /// collective communication (per-layer activation exchanges the
    /// analytic torus model cannot see). Calibrated so Table 2's
    /// SPMD-vs-pipelining crossover reproduces: the paper's pipeline
    /// slightly out-performs SPMD because "collective communication
    /// within the SPMD computation incurs higher overhead than pipeline
    /// bubble overhead".
    pub spmd_comm_fraction: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            peak_flops_per_core: 61.0e12,
            mfu: 0.18,
            grad_bytes_per_param: 7.2,
            kernel_overhead: SimDuration::from_micros(25),
            spmd_comm_fraction: 0.28,
        }
    }
}

impl Calibration {
    /// Effective FLOP/s per core.
    pub fn effective_flops(&self) -> f64 {
        self.peak_flops_per_core * self.mfu
    }

    /// Device time for one training step of `model` over `tokens`
    /// processed by `cores` cores (perfect FLOP partitioning; the
    /// communication terms are added by the program builders).
    pub fn step_compute_time(
        &self,
        model: &TransformerConfig,
        tokens: u64,
        cores: u32,
    ) -> SimDuration {
        assert!(cores > 0, "at least one core required");
        let flops = model.train_flops_per_token() * tokens as f64;
        let per_core = flops / cores as f64 / self.effective_flops();
        self.kernel_overhead + SimDuration::from_secs_f64(per_core)
    }

    /// Bytes each island exchanges in a cross-island data-parallel
    /// gradient reduction.
    pub fn grad_exchange_bytes(&self, model: &TransformerConfig) -> u64 {
        (model.params() as f64 * self.grad_bytes_per_param) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grad_exchange_matches_paper_transfer_sizes() {
        let c = Calibration::default();
        let b64 = c.grad_exchange_bytes(&TransformerConfig::decoder_64b()) as f64 / 1e9;
        let b136 = c.grad_exchange_bytes(&TransformerConfig::decoder_136b()) as f64 / 1e9;
        // Paper: 457 GB and 1030 GB.
        assert!((b64 - 457.0).abs() / 457.0 < 0.05, "64B: {b64} GB");
        assert!((b136 - 1030.0).abs() / 1030.0 < 0.05, "136B: {b136} GB");
    }

    #[test]
    fn step_time_scales_inversely_with_cores() {
        let c = Calibration::default();
        let m = TransformerConfig::decoder_3b();
        let t128 = c.step_compute_time(&m, 2048 * 1024, 128);
        let t512 = c.step_compute_time(&m, 2048 * 1024, 512);
        let ratio = t128.as_secs_f64() / t512.as_secs_f64();
        assert!((3.5..4.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn more_tokens_take_longer() {
        let c = Calibration::default();
        let m = TransformerConfig::t5_base();
        assert!(c.step_compute_time(&m, 2_000_000, 32) > c.step_compute_time(&m, 1_000_000, 32));
    }
}
