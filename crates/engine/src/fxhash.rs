//! A small FxHash-style hasher (the Firefox/rustc multiply-rotate hash)
//! plus `HashMap`/`HashSet` aliases built on it.
//!
//! The engine's dedup and index probes hash tiny keys — a handful of
//! 16-byte [`Value`](semrec_datalog::term::Value)s — where SipHash's
//! per-hash setup cost dominates. FxHash is not DoS-resistant, which is
//! fine here: keys come from the workload being evaluated, not from an
//! adversary with oracle access to the table layout.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-style multiply-rotate hasher.
#[derive(Clone, Copy, Default)]
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
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hashes a slice of hashable items (e.g. a tuple of `Value`s) to a `u64`
/// with [`FxHasher`]. Used by the flat relation storage, which buckets rows
/// by precomputed hash instead of by owned key vectors.
#[inline]
pub fn hash_slice<T: Hash>(items: &[T]) -> u64 {
    let mut h = FxHasher::default();
    for it in items {
        it.hash(&mut h);
    }
    h.finish()
}

/// Hashes one 64-bit word with [`FxHasher`] — the single-key variant of
/// [`hash_slice`], for callers whose key is already a machine word (the
/// dictionary microbenchmark's synthetic keys, packed row ids).
#[inline]
pub fn hash_one(x: u64) -> u64 {
    let mut h = FxHasher::default();
    x.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_hash_is_order_sensitive() {
        let a = hash_slice(&[1u64, 2]);
        let b = hash_slice(&[2u64, 1]);
        assert_ne!(a, b);
        assert_eq!(a, hash_slice(&[1u64, 2]));
    }

    #[test]
    fn fx_map_works() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        m.insert(1, 2);
        m.insert(3, 4);
        assert_eq!(m.get(&1), Some(&2));
        assert_eq!(m.len(), 2);
    }
}
