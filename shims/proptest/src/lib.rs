//! Offline shim for `proptest`: a miniature property-testing runner.
//!
//! Supports the subset the DICE test suites use: the [`proptest!`] macro,
//! `prop_assert*` macros, range / tuple / `collection::vec` /
//! `sample::select` strategies, `any::<T>()`, and `prop_map`. Each test runs
//! a fixed number of cases (overridable via `PROPTEST_CASES`) from a
//! deterministic per-test seed. No shrinking is performed — a failing case
//! panics with the ordinary assertion message.

use std::ops::{Range, RangeInclusive};

/// Number of generated cases per property unless `PROPTEST_CASES` overrides
/// it.
pub const DEFAULT_CASES: u32 = 32;

/// Resolves the case count for this process.
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CASES)
}

/// The runner's generator: SplitMix64 seeded from the test name, so every
/// property replays the same cases on every run.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator whose stream is a pure function of `name`.
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the test name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "cannot sample an empty domain");
        (self.next_u64() % bound as u64) as usize
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The value type produced.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `map`.
    fn prop_map<O, F>(self, map: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map {
            strategy: self,
            map,
        }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    strategy: S,
    map: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.map)(self.strategy.generate(rng))
    }
}

/// A strategy that always yields clones of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + offset) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128 % span) as i128;
                (start as i128 + offset) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range strategy");
        start + rng.next_f64() * (end - start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical "anything" strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite values only: uniform in a wide symmetric range.
        (rng.next_f64() - 0.5) * 2e9
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy for arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// An inclusive-exclusive size domain for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_exclusive: *r.end() + 1,
            }
        }
    }

    /// The strategy returned by [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi_exclusive - self.size.lo;
            let len = self.size.lo + if span > 1 { rng.next_index(span) } else { 0 };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for vectors whose length falls in `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Sampling strategies (`prop::sample`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// The strategy returned by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        choices: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.choices[rng.next_index(self.choices.len())].clone()
        }
    }

    /// A strategy drawing uniformly from `choices`.
    ///
    /// # Panics
    ///
    /// The returned strategy panics on generation if `choices` is empty.
    pub fn select<T: Clone>(choices: Vec<T>) -> Select<T> {
        Select { choices }
    }
}

/// The customary glob import, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, Arbitrary, Just, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running [`cases`] generated cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut prop_rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for _prop_case in 0..$crate::cases() {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut prop_rng);)+
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    #[test]
    fn ranges_and_vecs_stay_in_bounds() {
        let mut rng = TestRng::deterministic("bounds");
        let strat = prop::collection::vec((0u32..6, 0i64..7200), 0..200);
        for _ in 0..100 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!(v.len() < 200);
            for (a, b) in v {
                assert!(a < 6);
                assert!((0..7200).contains(&b));
            }
        }
    }

    #[test]
    fn select_draws_from_choices() {
        let mut rng = TestRng::deterministic("select");
        let strat = prop::sample::select(vec![2, 4, 8]);
        for _ in 0..50 {
            assert!([2, 4, 8].contains(&Strategy::generate(&strat, &mut rng)));
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        assert_eq!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    /// The `bool` values `macro_smoke_cases` drew, one bit each.
    static FLAGS_DRAWN: AtomicU8 = AtomicU8::new(0);

    proptest! {
        fn macro_smoke_cases(x in 1u32..10, flag in any::<bool>()) {
            prop_assert!((1..10).contains(&x));
            prop_assert_ne!(x, 0);
            FLAGS_DRAWN.fetch_or(1 << u8::from(flag), Ordering::Relaxed);
        }
    }

    #[test]
    fn macro_smoke() {
        macro_smoke_cases();
        assert_eq!(
            FLAGS_DRAWN.load(Ordering::Relaxed),
            0b11,
            "both bool values are drawn over the run"
        );
    }
}
