//! Keeps the clippy.toml bans that no exempt site exercises honest.
//!
//! Each item below is one deliberate violation under an `#[expect]`: if
//! its ban is dropped from clippy.toml (or the lint stops firing), the
//! expectation goes unfulfilled and `cargo clippy --all-targets -- -D
//! warnings` fails. The other bans are pinned by the `#[expect]`s at
//! their exempt sites (`hash.rs`, `exec/threaded.rs`, the bench
//! wall-time modules, the parking_lot shim and the OS-thread tests).
//! Nothing here is called.

use pathways_sim::{Lock, SimHandle};

#[expect(clippy::disallowed_types, reason = "pins the SystemTime ban")]
fn _wall_clock(_: std::time::SystemTime) {}

#[expect(clippy::disallowed_methods, reason = "pins the thread::sleep ban")]
fn _blocking_sleep() {
    std::thread::sleep(std::time::Duration::ZERO);
}

#[expect(clippy::disallowed_types, reason = "pins the RwLock ban")]
fn _blocking_lock(_: &std::sync::RwLock<()>) {}

#[expect(clippy::disallowed_types, reason = "pins the thread::Builder ban")]
fn _raw_thread(_: std::thread::Builder) {}

#[expect(clippy::await_holding_invalid_type, reason = "pins the LockGuard ban")]
async fn _lock_across_await(lock: &Lock<u32>, handle: &SimHandle) {
    let guard = lock.lock();
    handle.yield_now().await;
    drop(guard);
}
