//! Deterministic hashing: a fast hasher for simulator-internal maps,
//! and the workspace's one FNV-1a.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 with a random
//! per-process key — the right choice against adversarial keys, but the
//! simulator hot path hashes nothing but its own [`Line`](crate::Line)
//! numbers and thread ids, millions of times per run. This is the
//! FxHash construction (a rotate, xor, multiply per word, as used by
//! rustc's interners): a few cycles per key, and crucially *stateless*,
//! so hash-dependent iteration order is identical across processes.
//! Nothing simulated may depend on map iteration order anyway — results
//! must be reproducible from `(scale, seed)` alone — but a deterministic
//! hasher turns any accidental dependence into a stable, testable bug
//! instead of a flaky one.
//!
//! Not for untrusted input: FxHash is trivially collidable on purpose-
//! built keys. Every key type in this workspace is simulator-generated.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash construction (`π`-derived odd constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: one `u64`, folded a word at a time.
#[derive(Debug, Default, Clone, Copy)]
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
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Builds [`FxHasher`]s; zero-sized, so maps cost nothing extra.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// FNV-1a (64-bit), fed incrementally — fixed and seedless, so a value
/// hashes identically across processes and restarts: persistent hash
/// tables route keys with it, and digests of simulator state compare
/// with it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    hash: u64,
    prime: u64,
}

impl Default for Fnv1a {
    /// The standard parameters (offset basis, 64-bit FNV prime).
    fn default() -> Fnv1a {
        Fnv1a::with_prime(0x0000_0100_0000_01b3)
    }
}

impl Fnv1a {
    /// The standard offset basis with a non-standard multiplier — for a
    /// hash whose values are already baked into persistent layouts.
    pub fn with_prime(prime: u64) -> Fnv1a {
        Fnv1a {
            hash: 0xcbf2_9ce4_8422_2325,
            prime,
        }
    }

    /// Fold in `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv1a {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(self.prime);
        }
        self
    }

    /// Fold in `v`'s little-endian bytes.
    pub fn u64(&mut self, v: u64) -> &mut Fnv1a {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// FNV-1a (64-bit) of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::default().bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let hash = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_eq!(hash(0xdead_beef), hash(0xdead_beef));
        assert_ne!(hash(1), hash(2));
    }

    #[test]
    fn byte_stream_matches_itself_regardless_of_chunking() {
        let mut a = FxHasher::default();
        a.write(b"0123456789abcdef");
        let mut b = FxHasher::default();
        b.write(b"0123456789abcdef");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_works_like_std() {
        let mut m: FxHashMap<crate::Line, u64> = FxHashMap::default();
        m.insert(crate::Line(7), 1);
        *m.entry(crate::Line(7)).or_insert(0) += 1;
        assert_eq!(m[&crate::Line(7)], 2);
        assert_eq!(m.len(), 1);
    }
}
