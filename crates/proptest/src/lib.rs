//! A dependency-free, deterministic re-implementation of the subset of
//! the `proptest` API this workspace uses.
//!
//! The build environment has no network access to crates.io, so the real
//! `proptest` cannot be fetched; this crate vendors the pieces the test
//! suites rely on — range and tuple strategies, [`collection::vec`],
//! [`strategy::Just`], `prop_map`, the [`proptest!`] macro and the
//! `prop_assert*` assertions — behind the same paths and names.
//!
//! Differences from upstream, by design:
//!
//! * Cases are generated from a deterministic per-test seed (FNV hash of
//!   the test's module path and name), so failures reproduce exactly on
//!   every platform and run.
//! * There is no shrinking: a failing case panics with the ordinary
//!   assertion message. With deterministic seeds a failure is already
//!   reproducible, which is what shrinking mostly buys.
//! * The default number of cases is 64 (upstream: 256) to keep
//!   simulation-heavy properties fast in CI.
//!
//! ```text
//! use proptest::prelude::*;
//!
//! proptest! {
//!     #[test]
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub use strategy::{Just, Strategy};

/// Per-`proptest!` block configuration.
///
/// Only the `cases` knob is implemented; it is the only one the
/// workspace uses.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Everything a property-test module normally imports.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property, reporting the failing
/// expression.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "property assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        assert_eq!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*);
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        assert_ne!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_ne!($left, $right, $($fmt)*);
    };
}

/// Declares property tests: each `#[test] fn name(pattern in strategy,
/// ...) { body }` item expands to an ordinary `#[test]` that runs the
/// body over `cases` deterministic random inputs. Further attributes,
/// such as `#[ignore]`, carry over to the generated test.
///
/// An optional leading `#![proptest_config(expr)]` overrides the
/// default [`ProptestConfig`].
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr) $($(#[$meta:meta])+ fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let __seed_base = $crate::test_runner::fnv1a(
                    concat!(::core::module_path!(), "::", ::core::stringify!($name)),
                );
                for __case in 0..__config.cases {
                    let mut __rng = $crate::test_runner::TestRng::from_seed(
                        __seed_base ^ u64::from(__case).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = TestRng::from_seed(42);
        let mut b = TestRng::from_seed(42);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn range_strategy_respects_bounds() {
        let mut rng = TestRng::from_seed(7);
        let strat = 10u64..20;
        for _ in 0..1_000 {
            let v = strat.generate(&mut rng);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn signed_range_strategy_respects_bounds() {
        let mut rng = TestRng::from_seed(8);
        let strat = -5i64..5;
        let mut seen_negative = false;
        for _ in 0..1_000 {
            let v = strat.generate(&mut rng);
            assert!((-5..5).contains(&v));
            seen_negative |= v < 0;
        }
        assert!(seen_negative);
    }

    #[test]
    fn f64_range_strategy_respects_bounds() {
        let mut rng = TestRng::from_seed(9);
        let strat = -50.0f64..150.0;
        for _ in 0..1_000 {
            let v = strat.generate(&mut rng);
            assert!((-50.0..150.0).contains(&v));
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = TestRng::from_seed(10);
        let strat = collection::vec(0u8..4, 1..120);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((1..120).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn tuple_and_map_strategies_compose() {
        let mut rng = TestRng::from_seed(11);
        let strat = (0u64..100, Just("fixed")).prop_map(|(n, s)| format!("{s}:{n}"));
        let v = strat.generate(&mut rng);
        assert!(v.starts_with("fixed:"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_runs_with_custom_config(xs in collection::vec(0u64..50, 0..10)) {
            prop_assert!(xs.len() < 10);
        }

        #[test]
        fn macro_supports_mut_patterns(mut xs in collection::vec(0u32..9, 1..6)) {
            xs.sort_unstable();
            prop_assert!(xs.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    proptest! {
        #[test]
        fn macro_default_config_runs(a in 0usize..3, b in 0usize..3) {
            prop_assert!(a + b < 6, "a={a} b={b}");
        }
    }
}
