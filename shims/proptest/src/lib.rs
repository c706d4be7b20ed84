//! Offline stand-in for `proptest`.
//!
//! Implements the strategy combinators, `any::<T>()`, and the `proptest!`
//! macro family this workspace's property suites use. Cases are generated
//! from a deterministic per-test RNG (seeded from the test name), so runs
//! are reproducible; failing inputs are reported but **not shrunk**.

pub mod strategy;
pub mod test_runner;

pub mod arbitrary {
    //! `any::<T>()`: the canonical strategy for a type.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// The strategy type returned by [`any`].
        type Strategy: Strategy<Value = Self>;

        /// The canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }

    /// Strategy generating values from a whole-domain sampler function.
    #[derive(Clone, Copy)]
    pub struct AnyStrategy<T> {
        sampler: fn(&mut TestRng) -> T,
    }

    impl<T> Strategy for AnyStrategy<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            (self.sampler)(rng)
        }
    }

    macro_rules! impl_arbitrary {
        ($($t:ty => $sampler:expr;)*) => {$(
            impl Arbitrary for $t {
                type Strategy = AnyStrategy<$t>;

                fn arbitrary() -> AnyStrategy<$t> {
                    AnyStrategy { sampler: $sampler }
                }
            }
        )*};
    }

    impl_arbitrary! {
        bool => |rng| rng.next() & 1 == 1;
        u8 => |rng| rng.next() as u8;
        u16 => |rng| rng.next() as u16;
        u32 => |rng| rng.next() as u32;
        u64 => |rng| rng.next();
        usize => |rng| rng.next() as usize;
        i8 => |rng| rng.next() as i8;
        i16 => |rng| rng.next() as i16;
        i32 => |rng| rng.next() as i32;
        i64 => |rng| rng.next() as i64;
        isize => |rng| rng.next() as isize;
        f64 => |rng| crate::test_runner::TestRng::unit_f64(rng.next());
        f32 => |rng| crate::test_runner::TestRng::unit_f64(rng.next()) as f32;
        char => |rng| {
            let c = (rng.next() % 0x7f) as u8;
            if c < 0x20 { '?' } else { c as char }
        };
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        type Strategy = AnyStrategy<[u8; N]>;

        fn arbitrary() -> AnyStrategy<[u8; N]> {
            AnyStrategy {
                sampler: |rng| {
                    let mut out = [0u8; N];
                    for b in &mut out {
                        *b = rng.next() as u8;
                    }
                    out
                },
            }
        }
    }

    impl Arbitrary for crate::sample_mod::Index {
        type Strategy = AnyStrategy<crate::sample_mod::Index>;

        fn arbitrary() -> AnyStrategy<crate::sample_mod::Index> {
            AnyStrategy { sampler: |rng| crate::sample_mod::Index { raw: rng.next() as usize } }
        }
    }
}

#[doc(hidden)]
pub mod sample_mod {
    //! Backing module for `prop::sample`.

    /// A position into a collection of as-yet-unknown length.
    #[derive(Debug, Clone, Copy)]
    pub struct Index {
        pub(crate) raw: usize,
    }

    impl Index {
        /// Maps the index into `0..len`.
        ///
        /// # Panics
        ///
        /// Panics when `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "cannot index an empty collection");
            self.raw % len
        }
    }
}

pub mod collection {
    //! `prop::collection`: sized collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Ranges of collection sizes.
    pub trait SizeRange {
        /// Draws a size.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + (rng.next() as usize) % (self.end - self.start)
        }
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    /// Strategy producing `Vec`s whose elements come from `element`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// The `prop::` namespace (`prop::collection::vec`, `prop::sample::Index`).
pub mod prop {
    pub use crate::collection;

    pub mod sample {
        pub use crate::sample_mod::Index;
    }
}

pub mod prelude {
    //! Everything a `proptest!` suite needs in scope.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
          $(#[$meta:meta])+
          fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])+
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                for __case in 0..__cfg.cases {
                    $(
                        let $arg =
                            $crate::strategy::Strategy::new_value(&($strat), &mut __rng);
                    )+
                    let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || { { $body } ::std::result::Result::Ok(()) })();
                    match __outcome {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {}
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(__msg),
                        ) => panic!(
                            "proptest `{}` failed at case {}/{}: {}",
                            stringify!($name), __case + 1, __cfg.cases, __msg
                        ),
                    }
                }
            }
        )*
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` == `{:?}`", __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` == `{:?}`: {}", __l, __r, format!($($fmt)+)
        );
    }};
}

/// Fails the current case unless the operands compare unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?}` != `{:?}`", __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?}` != `{:?}`: {}", __l, __r, format!($($fmt)+)
        );
    }};
}

/// Skips the current case when `cond` does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond),
            ));
        }
    };
}

/// Uniform choice between strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_collections_obey_bounds(
            x in 3usize..9,
            v in prop::collection::vec(any::<u8>(), 2..5),
            f in -1.5f64..1.5,
        ) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!((-1.5..1.5).contains(&f));
        }

        #[test]
        fn oneof_maps_and_tuples_compose(
            tag in prop_oneof![Just(1u8), Just(2u8), 3u8..5],
            pair in (any::<bool>(), 0i64..10),
        ) {
            prop_assert!(matches!(tag, 1..=4));
            prop_assert!((0..10).contains(&pair.1));
        }
    }

    proptest! {
        #[test]
        fn string_patterns_match_their_class(s in "[a-zA-Z0-9 _.-]{0,12}") {
            prop_assert!(s.len() <= 12);
            prop_assert!(s.chars().all(|c| c.is_ascii_alphanumeric()
                || matches!(c, ' ' | '_' | '.' | '-')));
        }
    }

    #[test]
    fn index_maps_into_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic("index");
        for len in [1usize, 2, 17] {
            let idx = crate::strategy::Strategy::new_value(&any::<prop::sample::Index>(), &mut rng);
            assert!(idx.index(len) < len);
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(#[allow(dead_code)] i64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(xs) => 1 + xs.iter().map(depth).max().unwrap_or(0),
            }
        }
        let leaf = any::<i64>().prop_map(Tree::Leaf);
        let strat = leaf.prop_recursive(3, 8, 4, |inner| {
            prop::collection::vec(inner, 0..3).prop_map(Tree::Node)
        });
        let mut rng = crate::test_runner::TestRng::deterministic("tree");
        for _ in 0..200 {
            let t = crate::strategy::Strategy::new_value(&strat, &mut rng);
            assert!(depth(&t) <= 4 + 1);
        }
    }
}
