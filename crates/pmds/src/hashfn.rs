//! Deterministic hashing for persistent structures.

use pmem::hash::Fnv1a;

/// The multiplier the structures have always hashed with: the 64-bit
/// FNV prime `0x100_0000_01b3` short two zero nibbles. Every persistent
/// table's bucket placement — so every trace and golden — depends on
/// it, so it stays.
const PRIME: u64 = 0x1_0000_01b3;

/// FNV-1a 64-bit hash, over `PRIME` (`pmem`'s [`Fnv1a`] fold).
///
/// Persistent hash tables must hash identically across restarts, so the
/// function is fixed and seedless (unlike `std`'s randomized hasher).
///
/// ```
/// let h1 = pmds::fnv1a(b"key");
/// let h2 = pmds::fnv1a(b"key");
/// assert_eq!(h1, h2);
/// assert_ne!(pmds::fnv1a(b"a"), pmds::fnv1a(b"b"));
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::with_prime(PRIME).bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("") is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn spreads_sequential_keys() {
        let hashes: std::collections::HashSet<u64> =
            (0..1000u64).map(|i| fnv1a(&i.to_le_bytes())).collect();
        assert_eq!(hashes.len(), 1000);
    }
}
