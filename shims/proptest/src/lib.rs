//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest surface this workspace's property
//! tests use: the `proptest!` macro (with `#![proptest_config(...)]`),
//! numeric range strategies, tuple strategies, `prop::collection::vec`,
//! and the `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//! `prop_assume!` macros. There is no shrinking: a failing case reports
//! its case index and the runner's fixed seed, which together make the
//! failure exactly reproducible (the generator is deterministic per test
//! name).

pub mod test_runner {
    /// Runner configuration. Only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Why a generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` filtered the inputs out; the case is not counted.
        Reject,
        /// A `prop_assert*!` failed.
        Fail(String),
    }

    /// Deterministic SplitMix64 generator used to drive strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn from_name(name: &str) -> Self {
            // FNV-1a over the test name so every test gets its own stream.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            Self { state: h }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, span)` via widening multiply.
        pub fn below(&mut self, span: u64) -> u64 {
            ((self.next_u64() as u128 * span as u128) >> 64) as u64
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of random values of one type.
    pub trait Strategy {
        type Value;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    (lo + rng.below((hi - lo + 1) as u64) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + rng.unit_f64() as $t * (self.end - self.start)
                }
            }
        )*};
    }
    float_range_strategy!(f32, f64);

    impl Strategy for bool {
        type Value = bool;
        fn new_value(&self, _rng: &mut TestRng) -> bool {
            *self
        }
    }

    /// Constant strategy, mirroring `proptest::strategy::Just`.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! tuple_strategy {
        ($(($($n:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($n,)+) = self;
                    ($($n.new_value(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy!((A)(A, B)(A, B, C)(A, B, C, D)(A, B, C, D, E)(
        A, B, C, D, E, F
    ));

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            (**self).new_value(rng)
        }
    }

    /// Boxes a strategy, erasing its concrete type so heterogeneous
    /// strategies of the same `Value` can share a collection (the
    /// building block of [`prop_oneof!`](crate::prop_oneof)).
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    /// Weighted choice among boxed strategies, built by
    /// [`prop_oneof!`](crate::prop_oneof).
    pub struct Union<V> {
        /// `(weight, strategy)` pairs; weights need not sum to anything.
        pub options: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            let total: u64 = self.options.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! needs at least one positive weight");
            let mut pick = rng.below(total);
            for (w, s) in &self.options {
                if pick < u64::from(*w) {
                    return s.new_value(rng);
                }
                pick -= u64::from(*w);
            }
            unreachable!("weighted pick out of range")
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specification for [`vec()`]: an exact size or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<::std::ops::Range<usize>> for SizeRange {
        fn from(r: ::std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<::std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: ::std::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Strategy for a `Vec` whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.lo + rng.below((self.size.hi - self.size.lo) as u64) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Namespace mirroring `proptest::prop` as used via the prelude
/// (`prop::collection::vec`).
pub mod prop {
    pub use crate::collection;
    pub use crate::strategy;
}

pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Weighted (`w => strategy`) or uniform (`strategy, strategy, …`)
/// choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union {
            options: vec![$(($weight, $crate::strategy::boxed($strategy))),+],
        }
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1u32 => $strategy),+]
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, $($fmt)+);
    }};
}

/// The `proptest!` block macro: zero or more `#[test]` functions whose
/// arguments are drawn from strategies, optionally preceded by
/// `#![proptest_config(...)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_name(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let mut accepted: u32 = 0;
            let mut rejected: u32 = 0;
            let mut case: u64 = 0;
            while accepted < config.cases {
                case += 1;
                $(let $arg = $crate::strategy::Strategy::new_value(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {
                        rejected += 1;
                        assert!(
                            rejected < 4096,
                            "prop_assume! rejected too many cases in {}",
                            stringify!($name),
                        );
                    }
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "property {} failed on case {case}: {msg}",
                            stringify!($name),
                        );
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..9, y in -2.0f64..2.0) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn vec_sizes(v in prop::collection::vec(0u32..10, 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
            for e in &v {
                prop_assert!(*e < 10);
            }
        }

        #[test]
        fn tuples_and_assume((a, b) in (0i32..100, 0i32..100)) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }
    }
}
