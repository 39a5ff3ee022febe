//! Vendored offline shim for the subset of the `proptest` API used by this
//! workspace's property-based tests.
//!
//! Implements a miniature property-testing harness behind the real crate's
//! macro surface: the [`proptest!`] test wrapper, `prop_assert!` /
//! `prop_assert_eq!`, range and tuple strategies, [`strategy::Just`],
//! `prop_oneof!`, [`collection::vec`], and `any::<T>()` for the primitive
//! types the tests draw.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports its case index and message but
//!   is not minimised. Failures are deterministic (see below), so a failing
//!   case can be re-run and debugged directly.
//! * **Deterministic seeding.** Each test derives its RNG seed from the test
//!   name and case index, so every run explores the same cases — failures
//!   are always reproducible and there is no persistence file.
//! * Strategies are generators only (`Strategy::generate`), not trees.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_methods,
    reason = "test-only: each case seeds its own StdRng from the test name and case index"
)]

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

pub use arbitrary::{any, Arbitrary};

pub mod prelude {
    //! One-stop imports for tests, mirroring `proptest::prelude`.
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Wraps property-test functions into `#[test]` cases.
///
/// Supported grammar (the subset the workspace uses):
///
/// ```text
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]   // optional
///     #[test]
///     fn name(arg in strategy, arg2 in strategy2) { body }
///     ...
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`]; do not invoke directly.
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (config = $config:expr;
     $( $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $config;
                let __base = $crate::test_runner::seed_for_test(stringify!($name));
                for __case in 0..__config.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(__base, __case);
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                    let __outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || {
                            $body
                            #[allow(unreachable_code)]
                            return ::core::result::Result::Ok(());
                        })();
                    if let ::core::result::Result::Err(err) = __outcome {
                        panic!(
                            "proptest case {}/{} of `{}` failed: {}",
                            __case + 1,
                            __config.cases,
                            stringify!($name),
                            err
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the current property-test case if the condition does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)),
            ));
        }
    };
}

/// Fails the current property-test case if the two values are not equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                            stringify!($left), stringify!($right), __l, __r
                        ),
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n  {}",
                            stringify!($left), stringify!($right), __l, __r, format!($($fmt)+)
                        ),
                    ));
                }
            }
        }
    };
}

/// Fails the current property-test case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if *__l == *__r {
                    return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `{} != {}`\n  both: {:?}",
                            stringify!($left),
                            stringify!($right),
                            __l
                        ),
                    ));
                }
            }
        }
    };
}

/// Picks uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $({
                // Real proptest call sites often parenthesise range arms
                // (`(0.2f64..5.0)`); don't lint that style through the
                // expansion.
                #[allow(unused_parens)]
                let __arm = $strategy;
                $crate::strategy::Strategy::boxed(__arm)
            }),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0.25f64..0.75, k in 1usize..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.25..0.75).contains(&y));
            prop_assert!((1..=4).contains(&k));
        }

        #[test]
        fn tuples_and_maps_compose(pair in (0u32..10, 0u32..10).prop_map(|(a, b)| a + b)) {
            prop_assert!(pair < 20);
        }

        #[test]
        fn collections_have_requested_length(v in crate::collection::vec(0u64..100, 7)) {
            prop_assert_eq!(v.len(), 7);
            for item in &v {
                prop_assert!(*item < 100, "item {} out of range", item);
            }
        }

        #[test]
        fn oneof_hits_every_arm(x in prop_oneof![Just(-1.0f64), (0.0f64..1.0)]) {
            prop_assert!(x == -1.0 || (0.0..1.0).contains(&x));
            if x > 0.5 {
                return Ok(());
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let base = crate::test_runner::seed_for_test("deterministic_across_runs");
        let mut a = crate::test_runner::TestRng::for_case(base, 3);
        let mut b = crate::test_runner::TestRng::for_case(base, 3);
        let s = 0u64..1000;
        assert_eq!(
            Strategy::generate(&s, &mut a),
            Strategy::generate(&s, &mut b)
        );
    }
}
