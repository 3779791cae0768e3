//! Property-based testing for the `hdp-osr` workspace.
//!
//! Self-contained stand-in for the subset of the `proptest 1.x` API the
//! workspace's test suites use. The build environment has no access to
//! crates.io, so the real `proptest` cannot be fetched; this shim keeps the
//! same surface — [`Strategy`](strategy::Strategy), `prop::collection::vec`,
//! [`Just`](strategy::Just), `prop_map`, `prop_oneof!`, `prop_compose!`, the
//! `proptest!` test macro and the `prop_assert*` family — backed by a
//! deterministic random-case runner.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! - **No shrinking.** A failing case reports its inputs (via the assertion
//!   message) and the case seed, but is not minimized.
//! - **Fixed derivation of case seeds** from the test's module path and case
//!   index, so failures reproduce exactly without a persistence file
//!   (`.proptest-regressions` files are ignored).
//! - `ProptestConfig` carries only the knobs this workspace sets (`cases`).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use rand;

/// Strategies: how to draw random values of a type.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A recipe for sampling values of type [`Strategy::Value`].
    pub trait Strategy {
        /// The type of values this strategy produces.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Transform every sampled value with `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    /// Always produce a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(f64, usize, u64, u32, i64, i32);

    macro_rules! impl_tuple_strategy {
        ($(($($n:tt $s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$n.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (0 A)
        (0 A, 1 B)
        (0 A, 1 B, 2 C)
        (0 A, 1 B, 2 C, 3 D)
        (0 A, 1 B, 2 C, 3 D, 4 E)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn sample(&self, rng: &mut StdRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Strategy over a closure — the engine behind `prop_compose!`.
    pub struct SampleFn<F>(F);

    impl<T, F: Fn(&mut StdRng) -> T> Strategy for SampleFn<F> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            (self.0)(rng)
        }
    }

    /// Wrap a sampling closure as a [`Strategy`].
    pub fn sample_fn<T, F: Fn(&mut StdRng) -> T>(f: F) -> SampleFn<F> {
        SampleFn(f)
    }

    /// Object-safe sampling, so strategies of different concrete types can
    /// share one [`Union`] (`prop_oneof!`).
    pub trait SampleDyn<V> {
        /// Draw one value.
        fn sample_dyn(&self, rng: &mut StdRng) -> V;
    }

    impl<S: Strategy> SampleDyn<S::Value> for S {
        fn sample_dyn(&self, rng: &mut StdRng) -> S::Value {
            self.sample(rng)
        }
    }

    /// Box one `prop_oneof!` arm.
    pub fn union_arm<S: Strategy + 'static>(s: S) -> Box<dyn SampleDyn<S::Value>> {
        Box::new(s)
    }

    /// Uniform choice among heterogeneous strategies with a common value
    /// type — the engine behind `prop_oneof!`.
    pub struct Union<V> {
        arms: Vec<Box<dyn SampleDyn<V>>>,
    }

    impl<V> Union<V> {
        /// Build from boxed arms.
        ///
        /// # Panics
        /// Panics when `arms` is empty.
        pub fn new(arms: Vec<Box<dyn SampleDyn<V>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn sample(&self, rng: &mut StdRng) -> V {
            let arm = rng.gen_range(0..self.arms.len());
            self.arms[arm].sample_dyn(rng)
        }
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Inclusive length bounds for a generated collection.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            Self { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty collection size range");
            Self { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy for `Vec<S::Value>` with lengths drawn from a [`SizeRange`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate vectors of values drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = rng.gen_range(self.size.lo..=self.size.hi);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Test-runner plumbing used by the generated test bodies.
pub mod test_runner {
    /// Outcome of one property case (other than plain success).
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// A `prop_assume!` filter rejected the inputs; draw a fresh case.
        Reject,
        /// A `prop_assert*!` failed with this message.
        Fail(String),
    }

    /// Runner configuration; only the knobs this workspace sets.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of accepted (non-rejected) cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run `cases` accepted cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real default (256) makes some of the heavier suites in this
            // workspace needlessly slow; 32 keeps tier-1 runs snappy while
            // still exercising varied inputs. Tests that need more set it
            // explicitly via `proptest_config`.
            Self { cases: 32 }
        }
    }

    /// Deterministic per-case seed: failures reproduce without a persistence
    /// file because the stream depends only on the test's identity and the
    /// attempt index.
    pub fn case_seed(test_ident: &str, attempt: u64) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        // DefaultHasher::new() is specified to be stable across calls within
        // a process and across processes (SipHash-1-3 with fixed keys).
        test_ident.hash(&mut h);
        attempt.hash(&mut h);
        h.finish()
    }
}

/// Everything a property-test module needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_compose,
                    prop_oneof, proptest};

    /// The `prop::` namespace (`prop::collection::vec(...)`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Define property tests. Each `#[test] fn name(bindings in strategies)`
/// item becomes a normal test that samples its inputs
/// [`ProptestConfig::cases`](test_runner::ProptestConfig) times.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal recursion of [`proptest!`] over its test items.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut accepted: u32 = 0;
            let mut attempt: u64 = 0;
            while accepted < config.cases {
                attempt += 1;
                assert!(
                    attempt <= u64::from(config.cases) * 64 + 256,
                    "proptest {}: too many cases rejected by prop_assume!",
                    stringify!($name),
                );
                let seed = $crate::test_runner::case_seed(
                    concat!(module_path!(), "::", stringify!($name)),
                    attempt,
                );
                #[allow(clippy::redundant_closure_call)]
                let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    let mut __proptest_rng =
                        <$crate::rand::rngs::StdRng as $crate::rand::SeedableRng>::seed_from_u64(
                            seed,
                        );
                    $(
                        let $p = $crate::strategy::Strategy::sample(&($s), &mut __proptest_rng);
                    )+
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {} failed (case seed {seed:#x}): {msg}",
                            stringify!($name),
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { @cfg ($cfg) $($rest)* }
    };
}

/// Compose strategies: draw named intermediate values, then produce a final
/// value from them. Supports proptest's one- and two-binding-group forms.
#[macro_export]
macro_rules! prop_compose {
    (
        $(#[$meta:meta])* $vis:vis fn $name:ident($($args:tt)*)
        ($($p1:pat in $s1:expr),+ $(,)?)
        ($($p2:pat in $s2:expr),+ $(,)?)
        -> $ret:ty $body:block
    ) => {
        $(#[$meta])* $vis fn $name($($args)*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $crate::strategy::sample_fn(move |__proptest_rng: &mut $crate::rand::rngs::StdRng| {
                $(let $p1 = $crate::strategy::Strategy::sample(&($s1), __proptest_rng);)+
                $(let $p2 = $crate::strategy::Strategy::sample(&($s2), __proptest_rng);)+
                $body
            })
        }
    };
    (
        $(#[$meta:meta])* $vis:vis fn $name:ident($($args:tt)*)
        ($($p:pat in $s:expr),+ $(,)?)
        -> $ret:ty $body:block
    ) => {
        $(#[$meta])* $vis fn $name($($args)*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $crate::strategy::sample_fn(move |__proptest_rng: &mut $crate::rand::rngs::StdRng| {
                $(let $p = $crate::strategy::Strategy::sample(&($s), __proptest_rng);)+
                $body
            })
        }
    };
}

/// Uniform choice among strategies that produce the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![$($crate::strategy::union_arm($arm)),+])
    };
}

/// Reject the current case (draw fresh inputs) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fail the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (__left, __right) => {
                if !(*__left == *__right) {
                    return ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(::std::format!(
                            "assertion failed: `{:?} == {:?}`",
                            __left,
                            __right
                        )),
                    );
                }
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        match (&$a, &$b) {
            (__left, __right) => {
                if !(*__left == *__right) {
                    return ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(::std::format!(
                            "assertion failed: `{:?} == {:?}`: {}",
                            __left,
                            __right,
                            ::std::format!($($fmt)+)
                        )),
                    );
                }
            }
        }
    };
}

/// Fail the current case unless the two expressions differ.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (__left, __right) => {
                if *__left == *__right {
                    return ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(::std::format!(
                            "assertion failed: `{:?} != {:?}`",
                            __left,
                            __right
                        )),
                    );
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    prop_compose! {
        fn pair_with_sum()(n in 2usize..10)(
            n in Just(n),
            parts in prop::collection::vec(1usize..5, n),
        ) -> (usize, Vec<usize>) {
            (n, parts)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in -3.0..3.0f64, n in 1usize..12) {
            prop_assert!((-3.0..3.0).contains(&x));
            prop_assert!((1..12).contains(&n));
        }

        #[test]
        fn vec_strategy_obeys_size((n, parts) in pair_with_sum()) {
            prop_assert_eq!(parts.len(), n);
            prop_assert!(parts.iter().all(|&p| (1..5).contains(&p)));
        }

        #[test]
        fn prop_map_and_oneof_compose(
            v in prop_oneof![Just(0usize), (1usize..4).prop_map(|x| x * 10)],
        ) {
            prop_assert!(v == 0 || (10..40).contains(&v), "v = {v}");
        }

        #[test]
        fn assume_filters_cases(a in 0usize..10, b in 0usize..10) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }
    }

    #[test]
    fn cases_are_deterministic_per_attempt() {
        let a = crate::test_runner::case_seed("mod::test", 3);
        let b = crate::test_runner::case_seed("mod::test", 3);
        let c = crate::test_runner::case_seed("mod::test", 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
