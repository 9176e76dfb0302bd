//! A fast, deterministic hasher for hot-path index maps.
//!
//! The warehouse-scale indexes (store owner/device maps, gang member
//! maps, …) are keyed by small fixed-width ids and hit a dozen-plus
//! times per scheduled kernel. `std`'s default SipHash is designed to
//! resist hash-flooding from untrusted keys; simulation-internal ids
//! are trusted, so those maps use this Fx-style multiply-rotate hasher
//! instead (the scheme rustc itself uses for its interner tables) and
//! get lookups several times cheaper.
//!
//! Determinism note: unlike `RandomState`, this hasher is *stable
//! across processes*, so even accidental reliance on iteration order
//! would replay identically. (The index users never iterate their
//! maps; ordered reads go through explicit sorts.)

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by trusted fixed-width ids, hashed with [`FxHasher`].
// The deterministic aliases are the one legitimate naming of the std
// containers (clippy.toml bans them everywhere else).
#[expect(clippy::disallowed_types)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` of trusted fixed-width ids, hashed with [`FxHasher`].
#[expect(clippy::disallowed_types)]
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher for trusted, fixed-width keys.
///
/// Not flood-resistant — never use it for keys an adversary controls.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut m1: FxHashMap<u32, &str> = FxHashMap::default();
        m1.insert(7, "seven");
        let mut m2: FxHashMap<u32, &str> = FxHashMap::default();
        m2.insert(7, "seven");
        assert_eq!(m1.get(&7), m2.get(&7));
    }

    #[test]
    fn distinct_ids_spread() {
        // Sanity: sequential ids must not collapse onto one bucket hash.
        let hashes: FxHashSet<u64> = (0u32..1000)
            .map(|i| {
                let mut h = FxHasher::default();
                h.write_u32(i);
                h.finish()
            })
            .collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn byte_slices_hash_stably() {
        let mut a = FxHasher::default();
        a.write(b"warehouse-scale");
        let mut b = FxHasher::default();
        b.write(b"warehouse-scale");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"warehouse-scalf");
        assert_ne!(a.finish(), c.finish());
    }
}
