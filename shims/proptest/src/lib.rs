//! Offline stand-in for [`proptest`].
//!
//! This build environment has no access to a crate registry, so the
//! workspace vendors the API subset its property tests actually use:
//! range and tuple strategies, [`any`], `prop::collection::vec`,
//! [`prop_oneof!`], [`proptest!`] (with `#![proptest_config(..)]`), and
//! the `prop_assert*` macros.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports the full generated input
//!   instead of a minimized one (`max_shrink_iters` is accepted and
//!   ignored).
//! * **Deterministic.** The RNG is seeded from the test's name, so a
//!   failure reproduces on every run and on every machine. Set
//!   `PROPTEST_SEED=<u64>` to perturb the stream when hunting for more
//!   counterexamples.
//! * Only the strategy combinators used by this workspace exist.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

pub mod collection;

/// A deterministic 64-bit RNG (SplitMix64), seeded per test.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// An RNG with an explicit seed.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The RNG for a named test: FNV-1a of the name, optionally
    /// perturbed by the `PROPTEST_SEED` environment variable.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        if let Ok(s) = std::env::var("PROPTEST_SEED") {
            if let Ok(extra) = s.parse::<u64>() {
                h ^= extra;
            }
        }
        Self::from_seed(h)
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift rejection-free mapping: negligible bias for the
        // small ranges property tests use.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// A uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An error signalled by a `prop_assert*` macro inside a property test.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// A failed-assertion error with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// How a generated value is produced. The only operation is
/// [`Strategy::generate`]: no shrinking trees.
pub trait Strategy {
    /// The type of generated values.
    type Value: fmt::Debug;

    /// Draws one value from this strategy.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: fmt::Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Erases the strategy's type (used by [`prop_oneof!`] to unify
    /// heterogeneous arms).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        Self(Rc::clone(&self.0))
    }
}

impl<T: fmt::Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// The strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
    O: fmt::Debug,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between type-erased arms (built by [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T: fmt::Debug> Union<T> {
    /// A union over `arms`; must be non-empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Self { arms }
    }
}

impl<T: fmt::Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

/// Types with a canonical "any value" strategy (see [`any`]).
pub trait Arbitrary: fmt::Debug + Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

/// A strategy over every value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end as u64 - self.start as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_strategies!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.next_f64()
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Per-`proptest!`-block configuration (subset of the real crate's).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
    /// Accepted for compatibility; this shim never shrinks.
    pub max_shrink_iters: u32,
    /// Accepted for compatibility; this shim never rejects values.
    pub max_local_rejects: u32,
    /// Accepted for compatibility.
    pub verbose: u32,
}

impl Default for ProptestConfig {
    /// 256 cases, or `PROPTEST_CASES` when set (as the real crate reads
    /// it); a block that names `cases` itself is not affected.
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(256);
        Self {
            cases,
            max_shrink_iters: 1024,
            max_local_rejects: 65_536,
            verbose: 0,
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRng, Union,
    };
}

/// Uniform choice between strategies producing a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Like `assert!`, but fails the current property-test case (the macro
/// `return`s a `TestCaseError`, so it only works inside [`proptest!`]).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Like `assert_eq!`, but fails the current property-test case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)+), l, r
        );
    }};
}

/// Like `assert_ne!`, but fails the current property-test case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ..) { .. }`
/// becomes a `#[test]` running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr) ) => {};
    ( ($config:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                let rendered_input = format!(
                    concat!($("  ", stringify!($arg), " = {:?}\n"),+),
                    $(&$arg),+
                );
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest case {}/{} failed: {}\ninput (shrinking not supported by the offline shim):\n{}",
                        case + 1, config.cases, e, rendered_input
                    );
                }
            }
        }
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn determinism() {
        let mut a = TestRng::for_test("determinism");
        let mut b = TestRng::for_test("determinism");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_seed(7);
        let s = 3u32..17;
        for _ in 0..1000 {
            let v = s.generate(&mut rng);
            assert!((3..17).contains(&v));
        }
        let f = 0.25f64..0.75;
        for _ in 0..1000 {
            let v = f.generate(&mut rng);
            assert!((0.25..0.75).contains(&v));
        }
    }

    #[test]
    fn oneof_and_map_and_vec() {
        let strat = crate::collection::vec(
            prop_oneof![(0usize..4).prop_map(|n| n * 10), Just(99usize),],
            5..9,
        );
        let mut rng = TestRng::from_seed(42);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((5..9).contains(&v.len()));
            assert!(v.iter().all(|&x| x == 99 || (x % 10 == 0 && x < 40)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn macro_generates_runnable_tests(
            x in 1u64..100,
            pair in (0u32..10, any::<bool>()),
        ) {
            prop_assert!((1..100).contains(&x));
            prop_assert_eq!(pair.0 < 10, true);
        }
    }
}
