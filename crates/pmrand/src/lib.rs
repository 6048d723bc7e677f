//! Self-contained deterministic PRNG for the whole workspace.
//!
//! The suite's determinism guarantee ("same seed, same trace") needs a
//! generator whose stream is fixed forever, independent of any external
//! crate's version bumps — and the build environment vendors no
//! external crates at all. This module implements xoshiro256++ seeded
//! through SplitMix64 (both public domain, Blackman & Vigna), exposing
//! the small slice of the `rand` API the workspace uses: `SmallRng`,
//! `seed_from_u64`, `gen`, `gen_range`, and `gen_bool`.
//!
//! The traits [`Rng`] and [`SeedableRng`] exist so call sites written
//! against `rand`'s prelude (`use pmrand::{Rng, SeedableRng}`) compile
//! unchanged.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Deterministic small-state generator (xoshiro256++).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

/// Seeding interface, mirroring `rand::SeedableRng`'s `seed_from_u64`.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed. Equal seeds give equal
    /// streams, on every platform, forever.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64: advance `state` by the golden-ratio increment and return
/// the next mixed 64-bit output — the workspace's one seed scrambler.
/// It expands [`SmallRng`] seeds, drives `memsim`'s scheduler, and
/// derives independent per-purpose streams from one master seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(mut seed: u64) -> Self {
        // SplitMix64 expands the seed into the 256-bit state; it cannot
        // produce the all-zero state xoshiro forbids.
        SmallRng {
            s: std::array::from_fn(|_| splitmix64(&mut seed)),
        }
    }
}

impl SmallRng {
    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Types producible by [`Rng::gen`] — the equivalent of sampling
/// `rand`'s `Standard` distribution.
pub trait Standard: Sized {
    /// Draw one uniformly-distributed value.
    fn sample(rng: &mut SmallRng) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample(rng: &mut SmallRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample(rng: &mut SmallRng) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn sample(rng: &mut SmallRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample(rng: &mut SmallRng) -> f64 {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample(rng: &mut SmallRng) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges samplable by [`Rng::gen_range`], mirroring
/// `rand::distributions::uniform::SampleRange`.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics on an empty range, like `rand`.
    fn sample_from(self, rng: &mut SmallRng) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i32, i64);

/// Unbiased uniform draw in `[0, span)` by rejection (Lemire-style
/// threshold on the low word).
fn uniform_u64(rng: &mut SmallRng, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Rejection sampling over the widened product keeps the draw exact.
    let zone = span.wrapping_neg() % span; // (2^64 - span) mod span
    loop {
        let v = rng.next_u64();
        let hi = ((v as u128 * span as u128) >> 64) as u64;
        let lo = (v as u128 * span as u128) as u64;
        if lo >= zone || zone == 0 {
            return hi;
        }
    }
}

/// The sampling interface, mirroring the `rand::Rng` methods the
/// workspace uses.
pub trait Rng {
    /// Uniform value of an inferrable type (`rand`'s `gen`).
    fn gen<T: Standard>(&mut self) -> T;
    /// Uniform value in a range (`rand`'s `gen_range`).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;
    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool;
}

impl Rng for SmallRng {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        <f64 as Standard>::sample(self) < p
    }
}

/// `rand`-style module aliases so `use pmrand::rngs::SmallRng` also
/// works at call sites that kept the two-level path.
pub mod rngs {
    pub use super::SmallRng;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_change_stream() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_bounds_exclusive() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn gen_range_bounds_inclusive() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v: u8 = rng.gen_range(0..=3);
            assert!(v <= 3);
            seen_hi |= v == 3;
        }
        assert!(seen_hi, "inclusive upper bound reachable");
    }

    #[test]
    fn gen_range_covers_small_domain_uniformly() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[rng.gen_range(0usize..4)] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(6);
        let _: u32 = rng.gen_range(5..5);
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(9);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&heads), "p=0.25 gave {heads}/10000");
    }

    #[test]
    fn full_u64_inclusive_range() {
        let mut rng = SmallRng::seed_from_u64(10);
        // Must not loop forever or panic.
        let _: u64 = rng.gen_range(0..=u64::MAX);
    }
}
