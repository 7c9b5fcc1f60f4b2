//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no registry access, so this crate vendors the
//! slice of proptest's API the workspace's tests use: the `Strategy` trait
//! with `prop_map` / `prop_filter` / `prop_recursive`, `BoxedStrategy`,
//! `Just`, range and tuple strategies, a mini-regex string generator,
//! `collection::{vec, btree_map}`, `option::of`, `any::<T>()`, and the
//! `proptest!` / `prop_oneof!` / `prop_assert*!` macros.
//!
//! Differences from upstream: generation is deterministic (seeded from the
//! test name and case index), there is no shrinking and no failure
//! persistence. A failing case panics with the case index so it can be
//! replayed by re-running the test.

pub mod test_runner {
    /// Run-loop configuration (subset of upstream's many knobs).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Why a test case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        Fail(String),
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }

    /// Deterministic per-case generator (xorshift64*, seeded from the test
    /// name and case index so every `cargo test` run explores the same
    /// sequence).
    #[derive(Clone, Debug)]
    pub struct TestRng(u64);

    impl TestRng {
        pub fn deterministic(name: &str, case: u32) -> Self {
            // FNV-1a over the fully-qualified test name, mixed with the case
            // index and finalized with splitmix64.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            TestRng(z | 1)
        }

        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform in `0..n` (`0` when `n == 0`).
        pub fn below(&mut self, n: usize) -> usize {
            if n == 0 {
                return 0;
            }
            (self.next_u64() % n as u64) as usize
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform in the half-open range `lo..hi`.
        pub fn int_in(&mut self, lo: i128, hi: i128) -> i128 {
            assert!(lo < hi, "empty range strategy");
            let span = (hi - lo) as u128;
            lo + ((self.next_u64() as u128) % span) as i128
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream there is no value tree / shrinking: `new_value`
    /// produces a finished value directly.
    pub trait Strategy {
        type Value;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason,
                pred,
            }
        }

        /// Build a recursive strategy: `self` is the leaf case and `f` maps
        /// an inner strategy to the composite case. The recursion is
        /// unrolled `depth` times up front, which bounds generated depth.
        /// `_desired_size` and `_expected_branch` are accepted for API
        /// compatibility but unused (no size-driven generation here).
        fn prop_recursive<S2, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            S2: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S2,
        {
            let mut cur = self.boxed();
            for _ in 0..depth {
                cur = f(cur.clone()).boxed();
            }
            cur
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// Type-erased, cheaply cloneable strategy handle.
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            self.0.new_value(rng)
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn new_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.new_value(rng))
        }
    }

    pub struct Filter<S, F> {
        inner: S,
        reason: &'static str,
        pred: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn new_value(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1_000 {
                let v = self.inner.new_value(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!("prop_filter '{}' rejected 1000 candidates", self.reason)
        }
    }

    /// Uniform choice among boxed arms — what `prop_oneof!` builds.
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len());
            self.arms[i].new_value(rng)
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.int_in(self.start as i128, self.end as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;
        fn new_value(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
    }

    /// String literals act as generation-only regexes (see `crate::string`).
    impl Strategy for &'static str {
        type Value = String;
        fn new_value(&self, rng: &mut TestRng) -> String {
            crate::string::generate(self, rng)
        }
    }

    macro_rules! tuple_strategy {
        ($($s:ident . $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($( self.$idx.new_value(rng), )+)
                }
            }
        };
    }

    tuple_strategy!(A.0);
    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        fn arbitrary_with(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T>(PhantomData<T>);

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary_with(rng)
        }
    }

    impl Arbitrary for bool {
        fn arbitrary_with(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_with(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for f64 {
        fn arbitrary_with(rng: &mut TestRng) -> f64 {
            rng.unit_f64() * 2e6 - 1e6
        }
    }

    impl Arbitrary for char {
        fn arbitrary_with(rng: &mut TestRng) -> char {
            loop {
                if let Some(c) = char::from_u32(rng.below(0x11_0000) as u32) {
                    return c;
                }
            }
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeMap;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `Vec` of `size.start..size.end` elements (length chosen uniformly).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.start + rng.below(self.size.end - self.size.start);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }

    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    /// `BTreeMap` built from up to `size` generated pairs (duplicate keys
    /// collapse, so the final map may be smaller than the drawn size).
    pub fn btree_map<K, V>(key: K, value: V, size: Range<usize>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord,
    {
        assert!(size.start < size.end, "empty size range");
        BTreeMapStrategy { key, value, size }
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn new_value(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let n = self.size.start + rng.below(self.size.end - self.size.start);
            let mut out = BTreeMap::new();
            for _ in 0..n {
                out.insert(self.key.new_value(rng), self.value.new_value(rng));
            }
            out
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some` or `None` with equal probability.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 1 {
                Some(self.inner.new_value(rng))
            } else {
                None
            }
        }
    }
}

/// Generation-only mini-regex used by `&str` strategies. Supports literal
/// chars, `.`, character classes `[a-z0-9_]` (ranges and literals), and the
/// quantifiers `{m}`, `{m,n}`, `*`, `+`, `?`. That covers every pattern in
/// this workspace's tests; anything fancier panics loudly.
mod string {
    use crate::test_runner::TestRng;

    enum Atom {
        Any,
        Class(Vec<(u32, u32)>),
    }

    pub(crate) fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for (atom, lo, hi) in parse(pattern) {
            let n = lo + rng.below(hi - lo + 1);
            for _ in 0..n {
                out.push(sample(&atom, rng));
            }
        }
        out
    }

    fn parse(pattern: &str) -> Vec<(Atom, usize, usize)> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let atom = match chars[i] {
                '[' => {
                    i += 1;
                    let mut ranges = Vec::new();
                    while i < chars.len() && chars[i] != ']' {
                        let c = if chars[i] == '\\' {
                            i += 1;
                            chars[i]
                        } else {
                            chars[i]
                        };
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            ranges.push((c as u32, chars[i + 2] as u32));
                            i += 3;
                        } else {
                            ranges.push((c as u32, c as u32));
                            i += 1;
                        }
                    }
                    assert!(i < chars.len(), "unterminated class in pattern {pattern:?}");
                    i += 1; // ']'
                    Atom::Class(ranges)
                }
                '.' => {
                    i += 1;
                    Atom::Any
                }
                '\\' => {
                    i += 1;
                    assert!(i < chars.len(), "trailing escape in pattern {pattern:?}");
                    let c = chars[i];
                    i += 1;
                    Atom::Class(vec![(c as u32, c as u32)])
                }
                c => {
                    assert!(
                        !"(){}|^$".contains(c),
                        "unsupported regex construct {c:?} in pattern {pattern:?}"
                    );
                    i += 1;
                    Atom::Class(vec![(c as u32, c as u32)])
                }
            };
            let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                i += 1;
                let mut lo = 0usize;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    lo = lo * 10 + (chars[i] as usize - '0' as usize);
                    i += 1;
                }
                let hi = if i < chars.len() && chars[i] == ',' {
                    i += 1;
                    let mut hi = 0usize;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        hi = hi * 10 + (chars[i] as usize - '0' as usize);
                        i += 1;
                    }
                    hi
                } else {
                    lo
                };
                assert!(
                    i < chars.len() && chars[i] == '}' && lo <= hi,
                    "bad quantifier in pattern {pattern:?}"
                );
                i += 1; // '}'
                (lo, hi)
            } else if i < chars.len() && chars[i] == '*' {
                i += 1;
                (0, 8)
            } else if i < chars.len() && chars[i] == '+' {
                i += 1;
                (1, 8)
            } else if i < chars.len() && chars[i] == '?' {
                i += 1;
                (0, 1)
            } else {
                (1, 1)
            };
            out.push((atom, lo, hi));
        }
        out
    }

    fn sample(atom: &Atom, rng: &mut TestRng) -> char {
        match atom {
            Atom::Any => {
                if rng.below(10) == 0 {
                    // occasionally exercise the full unicode scalar space
                    loop {
                        if let Some(c) = char::from_u32(rng.below(0x11_0000) as u32) {
                            return c;
                        }
                    }
                } else {
                    // printable ASCII 0x20..=0x7E
                    char::from_u32(0x20 + rng.below(0x5F) as u32).unwrap()
                }
            }
            Atom::Class(ranges) => {
                let (lo, hi) = ranges[rng.below(ranges.len())];
                char::from_u32(lo + rng.below((hi - lo + 1) as usize) as u32)
                    .expect("invalid char range in pattern")
            }
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Uniform choice among strategies with a common `Value` type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($arm) ),+
        ])
    };
}

/// Like `assert!` but returns a `TestCaseError` instead of panicking, so
/// the runner can report the failing case index.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// `prop_assert!` for equality, printing both sides on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left_val, right_val) = (&$left, &$right);
        $crate::prop_assert!(
            *left_val == *right_val,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            left_val,
            right_val
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left_val, right_val) = (&$left, &$right);
        $crate::prop_assert!(
            *left_val == *right_val,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            left_val,
            right_val,
            format!($($fmt)*)
        );
    }};
}

/// `prop_assert!` for inequality.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left_val, right_val) = (&$left, &$right);
        $crate::prop_assert!(
            *left_val != *right_val,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            left_val
        );
    }};
}

/// Declare property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs `config.cases` deterministic cases,
/// generating fresh `arg` values per case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let __strats = ( $( $crate::strategy::Strategy::boxed($strat), )+ );
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                let ( $( ref $arg, )+ ) = __strats;
                $( let $arg = $crate::strategy::Strategy::new_value($arg, &mut __rng); )+
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body;
                        ::std::result::Result::Ok(())
                    })();
                match __outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err(__e) => panic!(
                        "proptest '{}' failed at case {}: {}",
                        stringify!($name),
                        __case,
                        __e
                    ),
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    fn rng() -> TestRng {
        TestRng::deterministic("shim::tests", 0)
    }

    #[test]
    fn ranges_and_maps() {
        let s = (0i64..10).prop_map(|v| v * 2);
        let mut r = rng();
        for _ in 0..200 {
            let v = s.new_value(&mut r);
            assert!((0..20).contains(&v) && v % 2 == 0);
        }
    }

    #[test]
    fn filter_retries() {
        let s = (0i64..100).prop_filter("even", |v| v % 2 == 0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(s.new_value(&mut r) % 2, 0);
        }
    }

    #[test]
    fn regex_patterns() {
        let mut r = rng();
        for _ in 0..100 {
            let s = "[a-z][a-z0-9_]{0,5}".new_value(&mut r);
            assert!((1..=6).contains(&s.chars().count()), "{s:?}");
            let first = s.chars().next().unwrap();
            assert!(first.is_ascii_lowercase());
            let t = "x{3}".new_value(&mut r);
            assert_eq!(t, "xxx");
            let g = ".{0,10}".new_value(&mut r);
            assert!(g.chars().count() <= 10);
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let s = prop_oneof![Just(1i64), Just(2i64), Just(3i64)];
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(s.new_value(&mut r));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug)]
        enum Tree {
            Leaf(#[allow(dead_code)] i64),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(l, r) => 1 + depth(l).max(depth(r)),
            }
        }
        let s = (0i64..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 2, |inner| {
                (inner.clone(), inner).prop_map(|(l, r)| Tree::Node(Box::new(l), Box::new(r)))
            });
        let mut r = rng();
        for _ in 0..50 {
            assert!(depth(&s.new_value(&mut r)) <= 3);
        }
    }

    #[test]
    fn collections_and_options() {
        let v = crate::collection::vec(0i64..5, 2..6);
        let m = crate::collection::btree_map(0i64..5, 0.0f64..1.0, 0..8);
        let o = crate::option::of(0i64..5);
        let mut r = rng();
        let (mut some, mut none) = (0, 0);
        for _ in 0..200 {
            let xs = v.new_value(&mut r);
            assert!((2..6).contains(&xs.len()));
            assert!(m.new_value(&mut r).len() < 8);
            match o.new_value(&mut r) {
                Some(_) => some += 1,
                None => none += 1,
            }
        }
        assert!(some > 40 && none > 40);
    }

    #[test]
    fn deterministic_across_runs() {
        let s = crate::collection::vec("[a-z]{1,6}", 1..10);
        let mut a = TestRng::deterministic("same", 7);
        let mut b = TestRng::deterministic("same", 7);
        assert_eq!(s.new_value(&mut a), s.new_value(&mut b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: args bind per case, asserts return Err.
        #[test]
        fn macro_smoke(x in 0i64..50, y in 0i64..50) {
            prop_assert!(x < 50 && y < 50);
            prop_assert_eq!(x + y, y + x);
            prop_assert_ne!(x - 1, x);
            if x > 1000 {
                return Err(TestCaseError::fail("unreachable"));
            }
        }
    }
}
