//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! Implements the API subset the workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait (ranges, tuples, [`strategy::Just`], `prop_map`,
//! `prop_flat_map`, [`prop_oneof!`]), [`collection::vec`], [`any`], the
//! [`proptest!`] macro, and the `prop_assert*` family.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports the seed-derived case index in
//!   the panic message instead of a minimised input.
//! * **Deterministic.** Case `i` of test `t` draws from an RNG seeded by
//!   `hash(module_path::t, i)`, so failures reproduce exactly across runs
//!   and machines — there is no persistence file because none is needed.
//! * `prop_assert*` panic immediately (they are `assert*` plus case
//!   context) rather than returning `TestCaseError`.
//!
//! Swap for the registry crate when network access is available; the tests
//! are written against the intersection of the two APIs.

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

pub use strategy::any;

/// Expands `#[test]` functions whose arguments are drawn from strategies.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(8))]
///
///     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// addition_commutes();
/// ```
///
/// (In a test module each function carries `#[test]` before `fn`, as usual.)
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @config($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            @config($crate::test_runner::Config::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@config($cfg:expr)
     $( $(#[$meta:meta])* fn $name:ident(
            $($pat:pat in $strat:expr),* $(,)?
        ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::Config = $cfg;
                let __test_name = concat!(module_path!(), "::", stringify!($name));
                for __case in 0..__config.cases {
                    $crate::test_runner::CASE_CONTEXT.with(|c| {
                        *c.borrow_mut() = Some((__test_name, __case))
                    });
                    let mut __rng = $crate::test_runner::TestRng::for_case(__test_name, __case);
                    $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)*
                    $body
                }
                $crate::test_runner::CASE_CONTEXT.with(|c| *c.borrow_mut() = None);
            }
        )*
    };
}

/// `assert!` with the failing case index prepended to the panic message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            panic!("{}{}", $crate::test_runner::case_context(), format_args!($($fmt)*));
        }
    };
}

/// `assert_eq!` with the failing case index prepended to the panic message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: `(left == right)`\n  left: `{:?}`,\n right: `{:?}`",
            lhs,
            rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: `(left == right)`\n  left: `{:?}`,\n right: `{:?}`: {}",
            lhs,
            rhs,
            format_args!($($fmt)*)
        );
    }};
}

/// `assert_ne!` with the failing case index prepended to the panic message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs != rhs,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            lhs
        );
    }};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
