//! Data tuples flowing along sharded edges.
//!
//! §4.3: *"each node generates output data tuples tagged with a
//! destination shard."* A [`Tuple`] carries an opaque payload (any Rust
//! value) plus the number of bytes it represents on the wire, which is
//! what the DCN cost model charges.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// An immutable, cheaply-cloneable payload.
pub type Payload = Arc<dyn Any + Send + Sync>;

/// One data tuple.
#[derive(Clone)]
pub struct Tuple {
    payload: Payload,
    bytes: u64,
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tuple").field("bytes", &self.bytes).finish()
    }
}

impl Tuple {
    /// Wraps `value` as a tuple of simulated wire size `bytes`.
    pub fn new<T: Send + Sync + 'static>(value: T, bytes: u64) -> Self {
        Tuple {
            payload: Arc::new(value),
            bytes,
        }
    }

    /// A tuple of simulated wire size `bytes` over an existing payload.
    /// Allocates nothing, so a signal sent once per shard pair can share
    /// one payload across every message.
    pub fn shared(payload: &Payload, bytes: u64) -> Self {
        Tuple {
            payload: Arc::clone(payload),
            bytes,
        }
    }

    /// A zero-byte control tuple.
    pub fn control<T: Send + Sync + 'static>(value: T) -> Self {
        Self::new(value, 0)
    }

    /// Simulated wire size.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Borrows the payload as `T`, if it is one.
    pub fn get<T: 'static>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    /// Borrows the payload as `T`.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if the payload is not a `T`.
    #[expect(clippy::panic, reason = "a checked downcast panics by contract")]
    pub fn expect<T: 'static>(&self) -> &T {
        self.payload
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("tuple payload is not a {}", std::any::type_name::<T>()))
    }

    /// The raw payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downcasting_round_trips() {
        let t = Tuple::new(vec![1u32, 2, 3], 12);
        assert_eq!(t.bytes(), 12);
        assert_eq!(t.get::<Vec<u32>>().unwrap(), &vec![1, 2, 3]);
        assert!(t.get::<String>().is_none());
        assert_eq!(t.expect::<Vec<u32>>()[2], 3);
    }

    #[test]
    #[should_panic(expected = "tuple payload is not a alloc::string::String")]
    fn expect_panics_with_type_name() {
        let t = Tuple::control(7u8);
        let _ = t.expect::<String>();
    }

    #[test]
    fn shared_tuples_reuse_the_payload() {
        let payload: Payload = Arc::new(7u8);
        let (t, u) = (Tuple::shared(&payload, 16), Tuple::shared(&payload, 0));
        assert!(Arc::ptr_eq(t.payload(), &payload) && Arc::ptr_eq(u.payload(), &payload));
        assert_eq!((t.bytes(), u.bytes(), *t.expect::<u8>()), (16, 0, 7));
    }

    #[test]
    fn clone_shares_payload() {
        let t = Tuple::new(String::from("x"), 1);
        let u = t.clone();
        assert!(Arc::ptr_eq(t.payload(), u.payload()));
    }
}
