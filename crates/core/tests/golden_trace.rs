//! Golden-trace determinism pins: seeded chaos runs must replay
//! bit-identically *across revisions of the executor*, not just across
//! two runs of the same binary. The fingerprints below were captured on
//! the `BinaryHeap` timer-queue revision; the hierarchical timer wheel
//! (and every later hot-path rework) must reproduce them exactly.

use pathways_core::chaos::{run_chaos, ChaosSpec};

/// `(seed, trace_fingerprint)` pairs captured at the seed revision.
/// Regenerate (only when an *intentional* behavior change lands) with:
/// `cargo test -p pathways-core --test golden_trace -- --nocapture`
/// after flipping `CAPTURE` to true.
const GOLDEN: &[(u64, u64)] = &[
    (1, 0x48b78a61714ce995),
    (2, 0x60b02cf85594b1f0),
    (3, 0xb49665f70fa17dac),
    (7, 0x42bba7147e1a8c4a),
];

const CAPTURE: bool = false;

#[test]
fn chaos_traces_match_seed_revision_fingerprints() {
    if pathways_sim::ExecutorKind::from_env() != pathways_sim::ExecutorKind::Deterministic {
        eprintln!("skipping: golden fingerprints pin the deterministic backend only");
        return;
    }
    if CAPTURE {
        for seed in [1u64, 2, 3, 7] {
            let report = run_chaos(&ChaosSpec::seeded(seed));
            println!("({seed}, 0x{:016x}),", report.trace_fingerprint());
        }
        return;
    }
    for (seed, want) in GOLDEN {
        let report = run_chaos(&ChaosSpec::seeded(*seed));
        assert_eq!(
            report.trace_fingerprint(),
            *want,
            "seed {seed}: trace diverged from the seed revision"
        );
    }
}
