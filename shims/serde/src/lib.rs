//! Offline shim of `serde`: marker traits and derives. The workspace
//! tags its config/ID types `Serialize`/`Deserialize` so a future PR
//! can swap in real serde without touching every type; until then the
//! traits carry no methods and the derives emit marker impls only.

pub use serde_derive::{Deserialize, Serialize};

/// Marker: this type is serializable once a real serde is wired in.
pub trait Serialize {}

/// Marker: this type is deserializable once a real serde is wired in.
pub trait Deserialize {}

macro_rules! impl_markers {
    ($($t:ty),* $(,)?) => {
        $(impl Serialize for $t {} impl Deserialize for $t {})*
    };
}

impl_markers!(
    (),
    bool,
    char,
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    String,
);

impl<T: Serialize> Serialize for Vec<T> {}
impl<T: Deserialize> Deserialize for Vec<T> {}
impl<T: Serialize> Serialize for Option<T> {}
impl<T: Deserialize> Deserialize for Option<T> {}
impl<T: Serialize + ?Sized> Serialize for &T {}
impl<T: Serialize + ?Sized> Serialize for Box<T> {}
impl<T: Deserialize + ?Sized> Deserialize for Box<T> {}
impl Serialize for str {}
impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {}
impl<K: Deserialize, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {}
// Marker impls must cover the std container the real serde covers;
// the workspace-wide HashMap ban (clippy.toml) targets usage, not
// trait coverage.
#[expect(clippy::disallowed_types)]
impl<K: Serialize, V: Serialize> Serialize for std::collections::HashMap<K, V> {}
#[expect(clippy::disallowed_types)]
impl<K: Deserialize, V: Deserialize> Deserialize for std::collections::HashMap<K, V> {}
impl<A: Serialize, B: Serialize> Serialize for (A, B) {}
impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {}
impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {}
impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {}
impl<T: Serialize, const N: usize> Serialize for [T; N] {}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {}
impl<T: Serialize> Serialize for [T] {}
