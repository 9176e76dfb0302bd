//! Offline shim of `parking_lot`: a `Mutex` with the non-poisoning
//! `lock()` signature, backed by `std::sync::Mutex`. Only the API this
//! workspace uses is provided.

// Wrapping std's mutex is this shim's job; the ban holds elsewhere.
#![expect(clippy::disallowed_types)]

use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// A mutual-exclusion lock whose `lock` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

/// RAII guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = StdMutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available. Poisoning is
    /// ignored (parking_lot has no poisoning either).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}
