//! A hermetic property-testing shim exposing the subset of the
//! `proptest` API this workspace's tests use.
//!
//! Like the `rand` shim, this exists so `cargo test` works with
//! `--offline` on machines with no crates.io mirror. It keeps proptest's
//! *interface* — [`Strategy`], `proptest::collection::vec`, the
//! [`proptest!`]/[`prop_assert!`]/[`prop_assume!`] macros — and a basic
//! greedy shrinker: when a case fails, [`Strategy::shrink`] proposes
//! simplifications (integers halve toward the range floor, vectors drop
//! halves and single elements, tuples shrink componentwise) and the
//! runner descends into the first candidate that still fails, reporting
//! both the original and the minimal failing input.
//!
//! Case generation is deterministic: each test's RNG is seeded from a
//! hash of its fully-qualified name, so failures reproduce across runs
//! and machines.

#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The per-test deterministic RNG handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng(SmallRng);

impl TestRng {
    /// Seeds the RNG from a test's fully-qualified name (FNV-1a), so
    /// every test draws an independent, reproducible stream.
    pub fn from_name(name: &str) -> TestRng {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01B3);
        }
        TestRng(SmallRng::seed_from_u64(h))
    }

    /// The next uniform 64-bit word (used by strategy impls).
    pub fn next_u64(&mut self) -> u64 {
        self.0.gen()
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.0.gen_range(0.0..1.0)
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn below(&mut self, lo: usize, hi: usize) -> usize {
        self.0.gen_range(lo..hi)
    }
}

/// How a generated case ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The case's assumptions were not met; draw another.
    Reject,
    /// An assertion failed.
    Fail(String),
}

/// Runner configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Candidate simplifications of a failing `value`, simplest first.
    /// The runner descends into the first candidate that still fails
    /// the property. The default proposes nothing (no shrinking) —
    /// sound for any strategy, just unhelpfully verbose.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Boxed strategies compose through references too.
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &S::Value) -> Vec<S::Value> {
        (**self).shrink(value)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &S::Value) -> Vec<S::Value> {
        (**self).shrink(value)
    }
}

/// The [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed strategies (built by [`prop_oneof!`]).
pub struct OneOf<T>(pub Vec<Box<dyn Strategy<Value = T>>>);

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
        let i = rng.below(0, self.0.len());
        self.0[i].generate(rng)
    }
    /// Every arm may propose shrinks; arms validate their own
    /// candidates (a range arm only proposes in-range values), so
    /// suggestions from the arm that did not generate `value` are still
    /// sound — just possibly useless.
    fn shrink(&self, value: &T) -> Vec<T> {
        self.0.iter().flat_map(|arm| arm.shrink(value)).collect()
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u64;
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + v as $t
            }
            /// Binary descent toward the range floor: the floor itself,
            /// the midpoint, and one step down.
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let mut out = Vec::new();
                if self.contains(value) && *value > self.start {
                    out.push(self.start);
                    let mid = self.start + (*value - self.start) / 2;
                    out.push(mid);
                    out.push(*value - 1);
                    out.dedup();
                }
                out
            }
        }
    )*};
}
int_strategy!(u64, u32, usize, i64, i32);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
    fn shrink(&self, value: &f64) -> Vec<f64> {
        let mut out = Vec::new();
        if self.contains(value) && *value > self.start {
            out.push(self.start);
            let mid = self.start + (*value - self.start) / 2.0;
            if mid > self.start && mid < *value {
                out.push(mid);
            }
        }
        out
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident . $idx:tt),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+)
        where
            $($name::Value: Clone),+
        {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            /// Componentwise: each component's candidates with the
            /// others held fixed.
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )+};
}
tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Element-count specification: a fixed size or a `usize` range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of another strategy's values.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.below(self.size.lo, self.size.hi);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
        /// Structural shrinks first (keep either half, drop one
        /// element), then elementwise shrinks — all respecting the size
        /// floor.
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            let n = value.len();
            if n > self.size.lo {
                let target = self.size.lo.max(n / 2);
                if target < n {
                    out.push(value[..target].to_vec());
                    out.push(value[n - target..].to_vec());
                }
                for i in 0..n {
                    let mut next = value.clone();
                    next.remove(i);
                    out.push(next);
                }
            }
            for (i, v) in value.iter().enumerate() {
                for cand in self.elem.shrink(v) {
                    let mut next = value.clone();
                    next[i] = cand;
                    out.push(next);
                }
            }
            out
        }
    }

    /// `vec(strategy, len)` / `vec(strategy, lo..hi)`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// Evaluation budget of the greedy shrink loop: total candidates tried
/// across all rounds, so a slow property can't hang minimization.
const SHRINK_BUDGET: u32 = 500;

/// Greedy minimization: repeatedly take the first [`Strategy::shrink`]
/// candidate that still fails, until none does or the budget runs out.
/// Returns the minimal failing value, its failure message, and how many
/// shrink steps were taken.
fn shrink_failure<S, F>(
    strategy: &S,
    test: &F,
    mut current: S::Value,
    mut msg: String,
) -> (S::Value, String, u32)
where
    S: Strategy,
    S::Value: Clone,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    let mut steps = 0u32;
    let mut budget = SHRINK_BUDGET;
    'descend: loop {
        for cand in strategy.shrink(&current) {
            if budget == 0 {
                break 'descend;
            }
            budget -= 1;
            if let Err(TestCaseError::Fail(m)) = test(cand.clone()) {
                current = cand;
                msg = m;
                steps += 1;
                continue 'descend;
            }
        }
        break;
    }
    (current, msg, steps)
}

/// Runs one proptest-style test over `strategy`, minimizing any failure
/// before reporting it. Used by the [`proptest!`] macro expansion; not
/// part of the public proptest API.
pub fn run_cases<S, F>(name: &str, config: ProptestConfig, strategy: S, test: F)
where
    S: Strategy,
    S::Value: Clone + core::fmt::Debug,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    let mut rng = TestRng::from_name(name);
    let mut accepted = 0u32;
    let mut attempts = 0u32;
    let max_attempts = config.cases.saturating_mul(10).max(config.cases);
    while accepted < config.cases {
        attempts += 1;
        assert!(
            attempts <= max_attempts,
            "{name}: too many rejected cases ({accepted}/{} accepted after {attempts} attempts)",
            config.cases
        );
        let value = strategy.generate(&mut rng);
        match test(value.clone()) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject) => continue,
            Err(TestCaseError::Fail(msg)) => {
                let (minimal, min_msg, steps) =
                    shrink_failure(&strategy, &test, value.clone(), msg.clone());
                if steps == 0 {
                    panic!(
                        "{name}: case {} failed: {msg}\n    input: {value:?}",
                        accepted + 1
                    );
                }
                panic!(
                    "{name}: case {} failed: {min_msg}\n    \
                     minimal input (after {steps} shrinks): {minimal:?}\n    \
                     original input: {value:?}\n    \
                     original failure: {msg}",
                    accepted + 1
                );
            }
        }
    }
}

/// Declares property tests: `proptest! { #[test] fn name(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let full_name = concat!(module_path!(), "::", stringify!($name));
            // All arguments bundle into one tuple strategy so the
            // runner can shrink the whole input vector componentwise.
            let __strategy = ($($strat,)*);
            $crate::run_cases(full_name, $cfg, __strategy, |__value| {
                #[allow(unused_parens, reason = "a one-argument case binds `(x,)` as `(x)`")]
                let ($($arg,)*) = __value;
                $body
                ::core::result::Result::Ok(())
            });
        }
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}`", l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
}

/// Rejects the current case unless `cond` holds (draws a fresh one).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf(vec![
            $(::std::boxed::Box::new($strat) as ::std::boxed::Box<dyn $crate::Strategy<Value = _>>,)+
        ])
    };
}

/// Everything tests import (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
    pub use crate::{Just, ProptestConfig, Strategy, TestCaseError};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = TestRng::from_name("ranges");
        for _ in 0..1000 {
            let x = Strategy::generate(&(3usize..9), &mut rng);
            assert!((3..9).contains(&x));
            let f = Strategy::generate(&(0.5f64..2.0), &mut rng);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_honors_fixed_and_ranged_sizes() {
        let mut rng = TestRng::from_name("vecs");
        let fixed = crate::collection::vec(0u64..10, 7);
        assert_eq!(Strategy::generate(&fixed, &mut rng).len(), 7);
        let ranged = crate::collection::vec(0u64..10, 2..5);
        for _ in 0..100 {
            let v = Strategy::generate(&ranged, &mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn prop_map_and_tuples_compose() {
        let mut rng = TestRng::from_name("compose");
        let s = (1u64..5, 0.0f64..1.0).prop_map(|(n, f)| n as f64 + f);
        for _ in 0..100 {
            let v = Strategy::generate(&s, &mut rng);
            assert!((1.0..5.0).contains(&v));
        }
    }

    #[test]
    fn oneof_picks_every_arm() {
        let mut rng = TestRng::from_name("oneof");
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[Strategy::generate(&s, &mut rng) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let strat = crate::collection::vec(0u64..1_000_000, 10);
        let a = Strategy::generate(&strat, &mut TestRng::from_name("same"));
        let b = Strategy::generate(&strat, &mut TestRng::from_name("same"));
        let c = Strategy::generate(&strat, &mut TestRng::from_name("other"));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro pipeline itself: args bind, assume rejects, asserts
        /// pass.
        #[test]
        fn macro_roundtrip(x in 0u64..100, ys in crate::collection::vec(0u64..10, 1..4)) {
            prop_assume!(x != 13);
            prop_assert!(x < 100);
            prop_assert_eq!(ys.len(), ys.len());
            prop_assert_ne!(x, 13);
        }
    }

    #[test]
    #[should_panic(expected = "case")]
    fn failing_property_panics() {
        crate::run_cases(
            "always_fails",
            ProptestConfig::with_cases(4),
            (0u64..100,),
            |_| Err(TestCaseError::Fail("expected".to_string())),
        );
    }

    #[test]
    fn integer_shrink_is_binary_descent_to_the_floor() {
        let strat = 3u64..1000;
        // Candidates: floor, midpoint, one step down — all in range.
        let cands = Strategy::shrink(&strat, &97);
        assert_eq!(cands, vec![3, 50, 96]);
        // The floor itself has nowhere to go.
        assert!(Strategy::shrink(&strat, &3).is_empty());
    }

    #[test]
    fn vec_shrink_respects_the_size_floor() {
        let strat = crate::collection::vec(0u64..10, 2..9);
        let cands = Strategy::shrink(&strat, &vec![7, 8, 9, 1]);
        // Halves first: keep-front and keep-back of length max(2, 4/2).
        assert_eq!(cands[0], vec![7, 8]);
        assert_eq!(cands[1], vec![9, 1]);
        // Then drop-one at every position.
        assert!(cands.contains(&vec![8, 9, 1]));
        assert!(cands.contains(&vec![7, 8, 9]));
        // Every structural candidate meets the floor.
        assert!(cands.iter().all(|v| v.len() >= 2));
        // At the floor, only elementwise shrinks remain.
        let at_floor = Strategy::shrink(&strat, &vec![5, 0]);
        assert!(at_floor.iter().all(|v| v.len() == 2));
    }

    #[test]
    fn greedy_shrink_finds_the_minimal_integer() {
        // Property: x < 10 holds. The minimal counterexample is 10.
        let strat = (0u64..1000,);
        let test = |(x,): (u64,)| -> Result<(), TestCaseError> {
            if x >= 10 {
                Err(TestCaseError::Fail(format!("{x} too big")))
            } else {
                Ok(())
            }
        };
        let (minimal, msg, steps) =
            crate::shrink_failure(&strat, &test, (977,), "977 too big".to_string());
        assert_eq!(minimal, (10,));
        assert_eq!(msg, "10 too big");
        assert!(steps > 0);
    }

    #[test]
    fn greedy_shrink_minimizes_vectors_structurally() {
        // Property: fewer than 3 elements. Minimal length is 3.
        let strat = (crate::collection::vec(0u64..100, 0..20),);
        let test = |(v,): (Vec<u64>,)| -> Result<(), TestCaseError> {
            if v.len() >= 3 {
                Err(TestCaseError::Fail("too long".to_string()))
            } else {
                Ok(())
            }
        };
        let start = vec![17, 4, 99, 23, 56, 8, 71, 42];
        let (minimal, _, _) =
            crate::shrink_failure(&strat, &test, (start,), "too long".to_string());
        assert_eq!(minimal.0.len(), 3);
    }

    #[test]
    #[should_panic(expected = "minimal input")]
    fn failing_property_reports_minimal_input() {
        crate::run_cases(
            "shrinks_to_minimum",
            ProptestConfig::with_cases(16),
            (0u64..1_000_000,),
            |(x,)| {
                if x >= 5 {
                    Err(TestCaseError::Fail(format!("{x} >= 5")))
                } else {
                    Ok(())
                }
            },
        );
    }
}
