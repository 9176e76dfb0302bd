//! A FIFO store-and-forward link model.
//!
//! Transfers occupy the link exclusively for their serialization time
//! (`bytes / bandwidth` plus a fixed per-message occupancy), then incur a
//! propagation latency *after* releasing the link, so back-to-back
//! messages pipeline: the wire can carry message `k+1` while message `k`
//! is still in flight. This is the standard LogP-style model and is what
//! makes high-fanout sends from one NIC serialize — the effect behind the
//! paper's single-controller dispatch overheads (Figures 5 and 6).

use std::fmt;
use std::sync::Arc;

use pathways_sim::{Lock, SimDuration, SimHandle, SimTime};

use crate::params::Bandwidth;

/// An exclusive FIFO link with bandwidth, per-message occupancy and
/// propagation latency.
///
/// Such a link has a closed form, so it is one instant, `free_at`: a
/// transfer first polled at `now` starts at `max(now, free_at)` and
/// moves `free_at` to the end of its [`occupancy`](Self::occupancy).
/// Service order is first-poll order, as under the FIFO-fair semaphore
/// this replaced (kept as the reference in `tests/link_contract.rs`),
/// at one timer per transfer. Unlike a permit, a slot is never handed
/// back: a future dropped before it resolves still holds the wire for
/// it. Nothing in the workspace cancels a link future.
#[derive(Clone)]
pub struct FifoLink {
    /// When the wire is next free; shared by clones of the link.
    free_at: Arc<Lock<SimTime>>,
    latency: SimDuration,
    bandwidth: Bandwidth,
    per_message: SimDuration,
}

impl fmt::Debug for FifoLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FifoLink")
            .field("latency", &self.latency)
            .field("bandwidth_Bps", &self.bandwidth.bytes_per_sec())
            .field("per_message", &self.per_message)
            .finish()
    }
}

impl FifoLink {
    /// Creates a link.
    pub fn new(latency: SimDuration, bandwidth: Bandwidth, per_message: SimDuration) -> Self {
        FifoLink {
            free_at: Arc::new(Lock::new(SimTime::ZERO)),
            latency,
            bandwidth,
            per_message,
        }
    }

    /// Propagation latency of the link.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Time the link is occupied by a message of `bytes`.
    pub fn occupancy(&self, bytes: u64) -> SimDuration {
        self.per_message + self.bandwidth.transfer_time(bytes)
    }

    /// Books the wire's next free slot for `bytes` and returns the
    /// instant that slot ends (when the last byte has left the sender).
    pub(crate) fn reserve(&self, handle: &SimHandle, bytes: u64) -> SimTime {
        let mut free_at = self.free_at.lock();
        *free_at = (*free_at).max(handle.now()) + self.occupancy(bytes);
        *free_at
    }

    /// Transmits `bytes`; resolves when the last byte arrives at the far
    /// end. FIFO under contention, in order of first poll.
    pub async fn transmit(&self, handle: &SimHandle, bytes: u64) {
        let sent = self.reserve(handle, bytes);
        handle.sleep_until(sent + self.latency).await;
    }

    /// Occupies the link without the trailing propagation delay; used
    /// when the caller only needs to model sender-side cost (e.g. a CPU
    /// enqueueing work over PCIe and immediately continuing).
    pub async fn occupy(&self, handle: &SimHandle, bytes: u64) {
        let sent = self.reserve(handle, bytes);
        handle.sleep_until(sent).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Bandwidth;
    use pathways_sim::Sim;

    fn test_link() -> FifoLink {
        // 1 GB/s, 10us latency, 1us per message.
        FifoLink::new(
            SimDuration::from_micros(10),
            Bandwidth::from_gbps(1.0),
            SimDuration::from_micros(1),
        )
    }

    #[test]
    fn single_transfer_time_is_occupancy_plus_latency() {
        let mut sim = Sim::new(0);
        let link = test_link();
        let h = sim.handle();
        sim.spawn("t", async move {
            // 1000 bytes at 1 GB/s = 1us serialization.
            link.transmit(&h, 1_000).await;
        });
        // 1us per-message + 1us serialize + 10us latency.
        assert_eq!(sim.run_to_quiescence().as_nanos(), 12_000);
    }

    #[test]
    fn concurrent_transfers_serialize_but_pipeline_latency() {
        let mut sim = Sim::new(0);
        let link = test_link();
        let mut ends = Vec::new();
        for i in 0..3 {
            let link = link.clone();
            let h = sim.handle();
            ends.push(sim.spawn(format!("t{i}"), async move {
                link.transmit(&h, 1_000).await;
                h.now().as_nanos()
            }));
        }
        sim.run_to_quiescence();
        let ends: Vec<u64> = ends.iter().map(|e| e.try_take().unwrap()).collect();
        // Message k occupies [2k, 2k+2)us then lands at 2k+12us.
        assert_eq!(ends, vec![12_000, 14_000, 16_000]);
    }

    #[test]
    fn occupy_skips_propagation() {
        let mut sim = Sim::new(0);
        let link = test_link();
        let h = sim.handle();
        sim.spawn("t", async move {
            link.occupy(&h, 1_000).await;
        });
        assert_eq!(sim.run_to_quiescence().as_nanos(), 2_000);
    }
}
