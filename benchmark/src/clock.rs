//! The one place wall-clock time is read. Everything the benchmark
//! calls "host time" comes from here; "sim time" comes from the
//! simulation's own clock (`layers::sim`).

// The repository bans `Instant` (clippy.toml, pathlint) so the runtime
// stays deterministic; measuring host time is this module's whole job.
#![allow(clippy::disallowed_types)]

use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A started stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Self {
        // Pin the epoch first so `now_ns` never predates a stopwatch.
        epoch();
        Stopwatch(Instant::now())
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn nanos(&self) -> f64 {
        self.0.elapsed().as_nanos() as f64
    }
}

/// Times `iters` calls of `f` and returns host nanoseconds per call.
/// `f` receives the iteration index so probes can vary their input and
/// must return something for `black_box` to keep alive.
pub fn ns_per_op<T>(iters: u64, mut f: impl FnMut(u64) -> T) -> f64 {
    assert!(iters > 0);
    let sw = Stopwatch::start();
    for i in 0..iters {
        std::hint::black_box(f(std::hint::black_box(i)));
    }
    sw.nanos() / iters as f64
}
