//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the subset of proptest's API its property tests use: the [`proptest!`]
//! macro, `prop_assert*` / `prop_assume!`, range and tuple strategies,
//! [`any`], `option::of`, and [`Strategy::prop_map`]. Cases are sampled
//! from a generator seeded deterministically from the test name, so runs
//! are reproducible; there is no shrinking — a failing case panics with
//! the sampled values' debug representation instead.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::ops::{Range, RangeInclusive};

/// Runner configuration (the `cases` subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// The deterministic case generator handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// Seeds a generator from a test's name so each property gets a
    /// stable, distinct stream.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self {
            inner: StdRng::seed_from_u64(h),
        }
    }
}

/// A value generator: the sampling core of proptest's `Strategy`.
pub trait Strategy {
    /// The type of the generated values.
    type Value: std::fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: std::fmt::Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: std::fmt::Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.inner.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.inner.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategies!(u8, u16, u32, u64, usize, i32, i64, f64);

macro_rules! impl_tuple_strategies {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategies! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6);
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized + std::fmt::Debug {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.inner.gen_bool(0.5)
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.inner.gen()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.inner.gen()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite, sign-symmetric, spanning several orders of magnitude.
        let mag: f64 = rng.inner.gen_range(0.0..1.0);
        let exp: f64 = rng.inner.gen_range(-8.0..8.0);
        let v = mag * 10f64.powf(exp);
        if rng.inner.gen_bool(0.5) {
            v
        } else {
            -v
        }
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy producing any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Strategies over `Option`.
pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng as _;

    /// The strategy returned by [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.inner.gen_bool(0.5) {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }

    /// Yields `None` half the time and a value of `inner` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

/// Strategies over collections.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng as _;
    use std::ops::Range;

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.inner.gen_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Yields a `Vec` whose length is drawn from `len` and whose elements
    /// are drawn independently from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };

    /// Namespaced strategy combinators (`prop::option::of`,
    /// `prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Asserts a condition inside a property, reporting the formatted message
/// on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Skips the current case when its sampled inputs are not interesting.
/// Expands to `continue` in the per-case loop generated by [`proptest!`].
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat_param in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::deterministic(stringify!($name));
            for _ in 0..__config.cases {
                $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)*
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u32..10, y in 0.25..0.75f64, z in 5u64..=6) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.25..0.75).contains(&y));
            prop_assert!(z == 5 || z == 6, "z = {z}");
        }

        #[test]
        fn tuples_and_maps_compose(
            pair in (1u32..5, 0.0..1.0f64).prop_map(|(n, f)| (n * 2, f / 2.0)),
            opt in prop::option::of(1u32..3),
        ) {
            prop_assert!(pair.0 % 2 == 0);
            prop_assert!(pair.1 < 0.5);
            if let Some(v) = opt {
                prop_assert_eq!(v.min(2), v);
            }
        }

        #[test]
        fn assume_skips_cases(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::deterministic("t");
        let mut b = crate::TestRng::deterministic("t");
        let s = 0u32..1000;
        for _ in 0..100 {
            assert_eq!(
                crate::Strategy::generate(&s, &mut a),
                crate::Strategy::generate(&s, &mut b)
            );
        }
    }

    #[test]
    fn any_produces_varied_values() {
        let mut rng = crate::TestRng::deterministic("any");
        let bools: Vec<bool> = (0..64)
            .map(|_| crate::Arbitrary::arbitrary(&mut rng))
            .collect();
        assert!(bools.iter().any(|&b| b) && bools.iter().any(|&b| !b));
        let a: u64 = crate::Arbitrary::arbitrary(&mut rng);
        let b: u64 = crate::Arbitrary::arbitrary(&mut rng);
        assert_ne!(a, b);
    }
}
