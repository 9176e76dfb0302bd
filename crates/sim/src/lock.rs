//! Interior mutability for runtime state, on both executor backends.
//!
//! [`Lock`] is the workspace's one sanctioned interior-mutability
//! primitive outside the executor itself (`clippy.toml` bans direct
//! `std::sync::Mutex`/`RwLock`/`Condvar` elsewhere).
//! It is a mutex with two additions tuned for this codebase:
//!
//! * **Re-entrancy detection.** The deterministic backend runs every
//!   task on one thread, where a re-entrant `lock()` would silently
//!   deadlock (the `RefCell` it replaced would have panicked). `Lock`
//!   tracks the owning thread and panics with the lock's name instead
//!   of deadlocking, preserving the fail-fast behavior golden tests
//!   rely on.
//! * **Contention profiling.** Locks created with [`Lock::named`]
//!   register themselves in a process-wide table; every acquisition
//!   and every contended acquisition (the fast-path `try_lock` lost)
//!   is counted. A dropped lock's counts fold into a per-name total
//!   and its entry leaves the table, so the table grows with the live
//!   named locks, not with every one ever made. [`contention_profile`]
//!   snapshots the table — this is what pwbench's `lock.*` counts and
//!   `sim.lock_contended` read.
//!
//! Counting is skipped entirely for anonymous locks, so fine-grained
//! per-object state pays only the owner-tracking store.

use std::collections::BTreeMap;
use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

/// Per-thread token used for re-entrancy detection (0 = no owner): the
/// address of a thread-local, which is non-zero, distinct among live
/// threads, and costs one TLS address computation — every `lock()` pays
/// for it.
fn current_thread_token() -> u64 {
    thread_local! {
        static MARK: u8 = const { 0 };
    }
    MARK.with(|m| std::ptr::from_ref(m) as usize as u64)
}

/// Acquisition counters of one named [`Lock`] (or one name shared by
/// several locks — the profile aggregates by name).
#[derive(Debug)]
pub struct LockStats {
    name: &'static str,
    /// Written only by the thread holding the owning [`Lock`] (see
    /// [`Lock::note_acquired`]); read by anyone.
    acquires: AtomicU64,
    contended: AtomicU64,
}

/// Process-wide registry of named-lock stats: the live locks' counters,
/// and per name the final counts of locks already dropped.
#[derive(Default)]
struct Registry {
    live: Vec<Arc<LockStats>>,
    retired: BTreeMap<&'static str, (u64, u64)>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: std::sync::OnceLock<Mutex<Registry>> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

/// A named lock's handle on its registry entry. Dropping it (with the
/// lock) folds the final counts into the name's retired total and
/// removes the entry, so the registry holds one entry per *live* named
/// lock plus one total per name.
struct StatsHandle(Arc<LockStats>);

impl StatsHandle {
    fn register(name: &'static str) -> Self {
        let stats = Arc::new(LockStats {
            name,
            acquires: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        });
        registry().lock().live.push(Arc::clone(&stats));
        StatsHandle(stats)
    }
}

impl Deref for StatsHandle {
    type Target = LockStats;
    fn deref(&self) -> &LockStats {
        &self.0
    }
}

impl Drop for StatsHandle {
    fn drop(&mut self) {
        // The lock is being dropped, so nobody holds it and the counts
        // are final. Folding and removing under one registry lock means
        // a concurrent profile counts them exactly once.
        let mut reg = registry().lock();
        let total = reg.retired.entry(self.0.name).or_insert((0, 0));
        total.0 += self.0.acquires.load(Ordering::Relaxed);
        total.1 += self.0.contended.load(Ordering::Relaxed);
        if let Some(i) = reg.live.iter().position(|s| Arc::ptr_eq(s, &self.0)) {
            reg.live.swap_remove(i);
        }
    }
}

/// One row of [`contention_profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockProfile {
    /// The name given to [`Lock::named`].
    pub name: String,
    /// Total acquisitions since the process started.
    pub acquires: u64,
    /// Acquisitions that lost the uncontended fast path and blocked.
    pub contended: u64,
}

/// Snapshot of every named lock's counters, dropped locks included,
/// aggregated by name and sorted by contended count (most contended
/// first). Counts are process-wide and never decrease.
pub fn contention_profile() -> Vec<LockProfile> {
    let reg = registry().lock();
    let mut by_name = reg.retired.clone();
    for s in &reg.live {
        let e = by_name.entry(s.name).or_insert((0, 0));
        e.0 += s.acquires.load(Ordering::Relaxed);
        e.1 += s.contended.load(Ordering::Relaxed);
    }
    drop(reg);
    let mut out: Vec<LockProfile> = by_name
        .into_iter()
        .map(|(name, (acquires, contended))| LockProfile {
            name: name.to_string(),
            acquires,
            contended,
        })
        .collect();
    out.sort_by(|a, b| b.contended.cmp(&a.contended).then(a.name.cmp(&b.name)));
    out
}

/// A mutex with re-entrancy detection and optional contention counting.
///
/// Replaces the `RefCell`s the runtime used when it was single-threaded
/// only: semantics under the deterministic backend are identical
/// (including panicking on re-entrant acquisition, where a plain mutex
/// would deadlock), and under the threaded backend it is an ordinary
/// blocking mutex.
#[derive(Default)]
pub struct Lock<T: ?Sized> {
    stats: Option<StatsHandle>,
    /// Thread token of the current owner (0 when unlocked). Written
    /// only by the owner, read by would-be acquirers for re-entrancy
    /// diagnosis.
    owner: AtomicU64,
    inner: Mutex<T>,
}

impl<T> Lock<T> {
    /// Creates an anonymous lock (no contention counting).
    pub fn new(value: T) -> Self {
        Lock {
            stats: None,
            owner: AtomicU64::new(0),
            inner: Mutex::new(value),
        }
    }

    /// Creates a named lock registered in the contention profile.
    ///
    /// Use for the runtime's shared hot structures (store, scheduler
    /// state, fabric) so [`contention_profile`] can count their
    /// acquisitions and report where the threaded backend contends.
    pub fn named(name: &'static str, value: T) -> Self {
        Lock {
            stats: Some(StatsHandle::register(name)),
            owner: AtomicU64::new(0),
            inner: Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: Clone> Clone for Lock<T> {
    /// Clones the current value into a fresh, anonymous, unlocked lock.
    fn clone(&self) -> Self {
        Lock::new(self.lock().clone())
    }
}

impl<T: ?Sized> Lock<T> {
    /// Acquires the lock.
    ///
    /// # Panics
    ///
    /// Panics (instead of deadlocking) if the calling thread already
    /// holds this lock — the moral equivalent of `RefCell`'s
    /// borrow-while-borrowed panic.
    #[expect(clippy::panic, reason = "re-entry panics by contract (`# Panics`)")]
    pub fn lock(&self) -> LockGuard<'_, T> {
        let guard = match self.inner.try_lock() {
            Some(g) => g,
            None => {
                // Only the slow path needs to know who we are.
                if self.owner.load(Ordering::Relaxed) == current_thread_token() {
                    panic!(
                        "re-entrant Lock::lock on {:?} (would deadlock; the RefCell this \
                         replaced would have panicked here too)",
                        self.stats.as_ref().map_or("<anonymous>", |s| s.name)
                    );
                }
                if let Some(s) = &self.stats {
                    s.contended.fetch_add(1, Ordering::Relaxed);
                }
                self.inner.lock()
            }
        };
        self.note_acquired();
        LockGuard {
            lock: self,
            guard: ManuallyDrop::new(guard),
        }
    }

    /// Bookkeeping of a successful acquisition; the caller holds `inner`.
    ///
    /// The count is a plain load + store, not a read-modify-write: each
    /// `LockStats` belongs to exactly one `Lock`, so only the thread that
    /// holds the mutex writes it, and the mutex orders successive
    /// holders. Counts stay exact without a locked instruction per
    /// acquisition.
    #[inline]
    fn note_acquired(&self) {
        if let Some(s) = &self.stats {
            s.acquires
                .store(s.acquires.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
        self.owner.store(current_thread_token(), Ordering::Relaxed);
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Lock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Some(g) => f.debug_tuple("Lock").field(&&*g).finish(),
            None => f.write_str("Lock(<locked>)"),
        }
    }
}

/// RAII guard returned by [`Lock::lock`].
pub struct LockGuard<'a, T: ?Sized> {
    lock: &'a Lock<T>,
    guard: ManuallyDrop<MutexGuard<'a, T>>,
}

impl<T: ?Sized> Drop for LockGuard<'_, T> {
    fn drop(&mut self) {
        // Clear ownership before releasing: between the store and the
        // unlock other threads merely see "locked by nobody" and block
        // normally.
        self.lock.owner.store(0, Ordering::Relaxed);
        // SAFETY: dropped exactly once, here.
        unsafe { ManuallyDrop::drop(&mut self.guard) };
    }
}

impl<T: ?Sized> Deref for LockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for LockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for LockGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_guards_exclusive_access() {
        let l = Lock::new(1u32);
        {
            let mut g = l.lock();
            *g += 1;
            assert!(l.inner.try_lock().is_none());
        }
        assert_eq!(*l.lock(), 2);
    }

    #[test]
    #[should_panic(expected = "re-entrant")]
    fn reentrant_lock_panics_not_deadlocks() {
        let l = Lock::named("reentry-test", ());
        let _g = l.lock();
        let _g2 = l.lock();
    }

    #[test]
    fn named_locks_count_acquisitions() {
        let l = Lock::named("count-test", 0u32);
        let before = contention_profile()
            .into_iter()
            .find(|p| p.name == "count-test")
            .map_or(0, |p| p.acquires);
        *l.lock() += 1;
        *l.lock() += 1;
        let after = contention_profile()
            .into_iter()
            .find(|p| p.name == "count-test")
            .unwrap();
        assert_eq!(after.acquires - before, 2);
    }

    /// A dropped named lock leaves the registry but not the profile.
    #[test]
    fn dropped_named_locks_retire_their_counts() {
        for _ in 0..100 {
            let l = Lock::named("retire-test", ());
            drop(l.lock());
        }
        assert!(registry()
            .lock()
            .live
            .iter()
            .all(|s| s.name != "retire-test"));
        let profile = contention_profile();
        let row = profile.iter().find(|p| p.name == "retire-test").unwrap();
        assert_eq!(row.acquires, 100);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "needs a second OS thread")]
    fn contended_acquisition_is_counted() {
        let l = std::sync::Arc::new(Lock::named("contend-test", ()));
        let l2 = std::sync::Arc::clone(&l);
        let g = l.lock();
        let t = std::thread::spawn(move || {
            let _g = l2.lock();
        });
        // Give the spawned thread time to lose the fast path.
        while contention_profile()
            .iter()
            .find(|p| p.name == "contend-test")
            .map_or(0, |p| p.contended)
            == 0
        {
            std::thread::yield_now();
        }
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn get_mut_and_into_inner() {
        let mut l = Lock::new(5u32);
        *l.get_mut() = 7;
        assert_eq!(l.into_inner(), 7);
    }
}
