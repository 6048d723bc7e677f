//! Minimal property-testing harness with a `proptest`-shaped API.
//!
//! The workspace's property tests were written against `proptest`; the
//! build environment vendors no external crates, so this crate
//! re-implements the slice of its surface those tests use — the
//! [`Strategy`] trait, range/tuple/`any`/`Just`/`prop_map`/`prop_oneof`
//! strategies, `collection::vec`, the [`proptest!`] macro, and the
//! `prop_assert*` macros — over [`pmrand`]'s deterministic generator.
//!
//! Differences from real proptest, by design:
//! - no shrinking: a failing case reports its seed and case index via
//!   the panic message instead of a minimized input;
//! - deterministic: each test function derives its stream from the
//!   test's name (override with `MINIPROP_SEED` for exploration).

#![forbid(unsafe_code)]

use pmrand::SeedableRng;
pub use pmrand::SmallRng;

/// Number of cases run when the test does not set a config.
pub const DEFAULT_CASES: u32 = 48;

/// Subset of proptest's run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to execute.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases (the constructor the tests use).
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: DEFAULT_CASES,
        }
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The type of values produced.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    /// Transform produced values (proptest's `prop_map`).
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Erase the concrete strategy type (proptest's `boxed`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated, type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut SmallRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _: &mut SmallRng) -> T {
        self.0.clone()
    }
}

/// Uniform values of a type (proptest's `any::<T>()`).
pub fn any<T: pmrand::Standard>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// See [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: pmrand::Standard> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        pmrand::Rng::gen(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                pmrand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                pmrand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{SmallRng, Strategy};

    /// Lengths acceptable to [`vec()`]: a fixed size or a range of sizes.
    pub trait SizeRange {
        /// Draw a length.
        fn pick(&self, rng: &mut SmallRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _: &mut SmallRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut SmallRng) -> usize {
            pmrand::Rng::gen_range(rng, self.clone())
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut SmallRng) -> usize {
            pmrand::Rng::gen_range(rng, self.clone())
        }
    }

    /// `Vec`s of values from `element`, with a length from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Uniform choice among same-valued strategies (proptest's
/// `prop_oneof!`). Weights are not supported; every arm is equally
/// likely.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        $crate::OneOf {
            arms: vec![$($crate::Strategy::boxed($arm)),+],
        }
    }};
}

/// See [`prop_oneof!`].
pub struct OneOf<T> {
    /// The equally-weighted alternatives.
    pub arms: Vec<BoxedStrategy<T>>,
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        let i = pmrand::Rng::gen_range(rng, 0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

/// Seed for a named test: `MINIPROP_SEED` if set, else an FNV-1a hash
/// of the test name, so every test gets a distinct, stable stream.
pub fn seed_for(test_name: &str) -> u64 {
    if let Ok(s) = std::env::var("MINIPROP_SEED") {
        if let Ok(v) = s.parse() {
            return v;
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Run `cases` deterministic cases of `body`, labelling any panic with
/// the failing seed and case index (the no-shrinking substitute for
/// proptest's minimized counterexamples).
pub fn run_cases(test_name: &str, cases: u32, mut body: impl FnMut(&mut SmallRng)) {
    let seed = seed_for(test_name);
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..cases {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!(
                "miniprop: {test_name} failed at case {case}/{cases} \
                 (rerun with MINIPROP_SEED={seed})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Define property tests: `proptest! { #[test] fn f(x in strat) {..} }`.
///
/// Accepts an optional `#![proptest_config(ProptestConfig::with_cases(N))]`
/// header, exactly like proptest.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__miniprop_fns! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__miniprop_fns! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __miniprop_fns {
    (($cfg:expr); $($(#[$attr:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                $crate::run_cases(stringify!($name), cfg.cases, |rng| {
                    $(let $pat = $crate::Strategy::generate(&($strat), rng);)*
                    $body
                });
            }
        )*
    };
}

/// proptest's `prop_assert!`, minus the early-return plumbing.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// proptest's `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// proptest's `prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Drop-in for `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy,
        Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0u8..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y <= 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn config_header_accepted(v in collection::vec(any::<u8>(), 1..10)) {
            prop_assert!(!v.is_empty() && v.len() < 10);
        }
    }

    proptest! {
        #[test]
        fn combinators_compose(
            v in collection::vec(
                prop_oneof![
                    (0u8..4).prop_map(|n| n as u64),
                    Just(99u64),
                    any::<bool>().prop_map(|b| b as u64),
                ],
                1..20,
            )
        ) {
            for x in v {
                prop_assert!(x < 4 || x == 99);
            }
        }
    }

    #[test]
    fn seed_is_stable_and_per_test() {
        assert_eq!(crate::seed_for("a"), crate::seed_for("a"));
        assert_ne!(crate::seed_for("a"), crate::seed_for("b"));
    }

    #[test]
    #[should_panic]
    fn failing_property_panics() {
        crate::run_cases("failing_property_panics", 4, |_| panic!("boom"));
    }
}
