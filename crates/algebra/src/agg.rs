//! Aggregate functions and accumulators.
//!
//! Table 2 of the paper lists the aggregation each graph algorithm relies
//! on: `max` (BFS, Keyword-Search), `min` (Bellman-Ford, Floyd-Warshall,
//! Connected-Component), `sum` (PageRank, SimRank, HITS, RWR), `count`
//! (Label-Propagation, K-core). These five (plus `avg` for completeness)
//! are the `⊕` half of every semiring used in MM-join/MV-join.

use aio_storage::{ColumnVec, NullMask, Value};
use std::cmp::Ordering;
use std::fmt;

/// An aggregate function (the `⊕` of a semiring, or a plain SQL aggregate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Sum,
    Min,
    Max,
    Count,
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Count => "count",
            AggFunc::Avg => "avg",
        };
        f.write_str(s)
    }
}

impl AggFunc {
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "count" => AggFunc::Count,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }

    pub(crate) fn accumulator(self) -> Accumulator {
        Accumulator {
            func: self,
            state: State::Empty,
        }
    }
}

#[derive(Clone, Debug)]
enum State {
    Empty,
    Int(i64),
    Float(f64),
    /// running (sum, count) for AVG
    Avg(f64, i64),
    Count(i64),
    Val(Value),
}

/// Streaming accumulator for one aggregate over one group.
#[derive(Clone, Debug)]
pub struct Accumulator {
    func: AggFunc,
    state: State,
}

impl Accumulator {
    /// Fold one input value. SQL semantics: NULLs are ignored by every
    /// aggregate (and `count` counts only non-NULL arguments).
    pub fn update(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        match self.func {
            AggFunc::Count => {
                let c = match self.state {
                    State::Count(c) => c,
                    _ => 0,
                };
                self.state = State::Count(c + 1);
            }
            AggFunc::Sum => {
                let f = v.as_f64().unwrap_or(0.0);
                match (&mut self.state, v) {
                    (State::Empty, Value::Int(i)) => self.state = State::Int(*i),
                    (State::Empty, _) => self.state = State::Float(f),
                    (State::Int(a), Value::Int(i)) => *a = a.wrapping_add(*i),
                    (State::Int(a), _) => self.state = State::Float(*a as f64 + f),
                    (State::Float(a), _) => *a += f,
                    _ => {}
                }
            }
            AggFunc::Avg => {
                let (s, c) = match self.state {
                    State::Avg(s, c) => (s, c),
                    _ => (0.0, 0),
                };
                self.state = State::Avg(s + v.as_f64().unwrap_or(0.0), c + 1);
            }
            AggFunc::Min | AggFunc::Max => match &mut self.state {
                State::Empty => self.state = State::Val(v.clone()),
                // assign only on replacement: a kept `Text` minimum is not
                // re-allocated for every row that fails to beat it
                State::Val(cur) if !keeps_current(self.func, cur, v) => *cur = v.clone(),
                _ => {}
            },
        }
    }

    /// Combine a partial aggregate into this one, as if `other`'s inputs had
    /// been folded after this accumulator's own. Used by morsel-parallel
    /// group-by to merge thread-local partials; merging partials in morsel
    /// order reproduces the serial fold exactly (modulo float addition
    /// grouping for `sum`/`avg`, which is still deterministic for a fixed
    /// morsel split).
    pub fn merge(&mut self, other: Accumulator) {
        debug_assert_eq!(self.func, other.func);
        match other.state {
            State::Empty => {}
            s if matches!(self.state, State::Empty) => self.state = s,
            State::Count(c) => {
                if let State::Count(a) = self.state {
                    self.state = State::Count(a + c);
                }
            }
            State::Int(i) => match &mut self.state {
                State::Int(a) => *a = a.wrapping_add(i),
                State::Float(a) => *a += i as f64,
                _ => {}
            },
            State::Float(f) => match &mut self.state {
                State::Int(a) => self.state = State::Float(*a as f64 + f),
                State::Float(a) => *a += f,
                _ => {}
            },
            State::Avg(s, c) => {
                if let State::Avg(a, n) = self.state {
                    self.state = State::Avg(a + s, n + c);
                }
            }
            State::Val(v) => {
                // same keep-current rule as a single update() with v
                if let State::Val(cur) = &mut self.state {
                    if !keeps_current(self.func, cur, &v) {
                        *cur = v;
                    }
                }
            }
        }
    }

    /// The aggregate result. Empty groups: `count` is 0, the rest NULL
    /// (SQL semantics).
    pub fn finish(self) -> Value {
        match (self.func, self.state) {
            (AggFunc::Count, State::Count(c)) => Value::Int(c),
            (AggFunc::Count, State::Empty) => Value::Int(0),
            (_, State::Empty) => Value::Null,
            (_, State::Int(i)) => Value::Int(i),
            (_, State::Float(f)) => Value::Float(f),
            (_, State::Avg(s, c)) => Value::Float(s / c as f64),
            (_, State::Val(v)) => v,
            (f, s) => unreachable!("accumulator {f} in state {s:?}"),
        }
    }
}

/// `min`/`max` keep the current extreme on a tie and whenever `sql_cmp` is
/// unknown (a NaN operand, incomparable types): only a strictly better
/// value replaces it.
fn keeps_current(func: AggFunc, cur: &Value, v: &Value) -> bool {
    match cur.sql_cmp(v) {
        Some(Ordering::Less) => func == AggFunc::Min,
        Some(Ordering::Greater) => func == AggFunc::Max,
        _ => true,
    }
}

/// A number the typed kernel aggregates: `i64` (wrapping) or `f64`.
pub(crate) trait AggNum: Copy + Default + PartialOrd {
    fn add(self, other: Self) -> Self;
    fn mul(self, other: Self) -> Self;
    fn to_f64(self) -> f64;
    fn column(vals: Vec<Self>, nulls: NullMask) -> ColumnVec;
}

impl AggNum for i64 {
    fn add(self, other: i64) -> i64 {
        self.wrapping_add(other)
    }
    fn mul(self, other: i64) -> i64 {
        self.wrapping_mul(other)
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn column(vals: Vec<i64>, nulls: NullMask) -> ColumnVec {
        ColumnVec::Int { vals, nulls }
    }
}

impl AggNum for f64 {
    fn add(self, other: f64) -> f64 {
        self + other
    }
    fn mul(self, other: f64) -> f64 {
        self * other
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn column(vals: Vec<f64>, nulls: NullMask) -> ColumnVec {
        ColumnVec::Float { vals, nulls }.canonical()
    }
}

/// One aggregate over a dense `T` argument column, for every group at once:
/// [`Accumulator`]'s `update` / `merge` / `finish` on two flat arrays
/// instead of one boxed state per group. Bit-identical to it by
/// construction — `sum` starts from the first value (not `0 + v`), `avg`
/// from `0.0`, `min`/`max` replace only on a strict `<` / `>` (false on
/// NaN, so the current value survives ties and unknowns) — and `n`, the
/// count of folded non-NULL values, doubles as the "group has a value"
/// flag. The Int→Float switch of [`Accumulator`] is static here: a dense
/// column has one type.
pub(crate) struct TypedAcc<T> {
    func: AggFunc,
    acc: Vec<T>,
    n: Vec<i64>,
}

impl<T: AggNum> TypedAcc<T> {
    pub(crate) fn new(func: AggFunc, groups: usize) -> Self {
        TypedAcc {
            func,
            acc: vec![T::default(); groups],
            n: vec![0; groups],
        }
    }

    /// Fold `(group, non-NULL value)` pairs in row order.
    pub(crate) fn fold(&mut self, rows: impl Iterator<Item = (u32, T)>) {
        let (acc, n) = (&mut self.acc, &mut self.n);
        match self.func {
            AggFunc::Count => {
                for (g, _) in rows {
                    n[g as usize] += 1;
                }
            }
            AggFunc::Sum => {
                for (g, v) in rows {
                    let g = g as usize;
                    acc[g] = if n[g] == 0 { v } else { acc[g].add(v) };
                    n[g] += 1;
                }
            }
            AggFunc::Avg => {
                for (g, v) in rows {
                    let g = g as usize;
                    acc[g] = acc[g].add(v);
                    n[g] += 1;
                }
            }
            AggFunc::Min => {
                for (g, v) in rows {
                    let g = g as usize;
                    if n[g] == 0 || acc[g] > v {
                        acc[g] = v;
                    }
                    n[g] += 1;
                }
            }
            AggFunc::Max => {
                for (g, v) in rows {
                    let g = g as usize;
                    if n[g] == 0 || acc[g] < v {
                        acc[g] = v;
                    }
                    n[g] += 1;
                }
            }
        }
    }

    /// Values folded into each group.
    pub(crate) fn counts(&self) -> &[i64] {
        &self.n
    }

    /// Fold group `og` of a later morsel's partial into group `g`.
    pub(crate) fn merge_group(&mut self, g: usize, other: &Self, og: usize) {
        let (v, c) = (other.acc[og], other.n[og]);
        if c == 0 {
            return;
        }
        let cur = self.acc[g];
        self.acc[g] = if self.n[g] == 0 {
            v
        } else {
            match self.func {
                AggFunc::Count => cur,
                AggFunc::Sum | AggFunc::Avg => cur.add(v),
                AggFunc::Min => {
                    if cur > v {
                        v
                    } else {
                        cur
                    }
                }
                AggFunc::Max => {
                    if cur < v {
                        v
                    } else {
                        cur
                    }
                }
            }
        };
        self.n[g] += c;
    }

    /// The result column over groups `live`, in that order. A group that
    /// folded no value is NULL (`count`: 0); its `acc` slot still holds the
    /// zero it was created with, which is the column's NULL placeholder.
    fn finish(&self, live: &[u32]) -> ColumnVec {
        let counts = live.iter().map(|&g| self.n[g as usize]);
        if self.func == AggFunc::Count {
            return ColumnVec::Int {
                vals: counts.collect(),
                nulls: NullMask::none(),
            };
        }
        let mut nulls = NullMask::none();
        for (o, c) in counts.clone().enumerate() {
            if c == 0 {
                nulls.set(o);
            }
        }
        let accs = live.iter().map(|&g| self.acc[g as usize]);
        if self.func == AggFunc::Avg {
            let avg = |(s, c): (T, i64)| if c == 0 { 0.0 } else { s.to_f64() / c as f64 };
            return f64::column(accs.zip(counts).map(avg).collect(), nulls);
        }
        T::column(accs.collect(), nulls)
    }
}

/// Per-group state of one aggregate inside the batch group-by: flat typed
/// arrays when the argument vectorized to a dense Int/Float column, one
/// boxed [`Accumulator`] per group otherwise (Str/Mixed arguments,
/// expressions the column evaluator declines).
pub(crate) enum GroupAcc {
    Int(TypedAcc<i64>),
    Float(TypedAcc<f64>),
    Boxed(Vec<Accumulator>),
}

impl GroupAcc {
    /// Append one empty group.
    pub(crate) fn push_group(&mut self, func: AggFunc) {
        match self {
            GroupAcc::Int(a) => {
                a.acc.push(0);
                a.n.push(0);
            }
            GroupAcc::Float(a) => {
                a.acc.push(0.0);
                a.n.push(0);
            }
            GroupAcc::Boxed(a) => a.push(func.accumulator()),
        }
    }

    /// [`Accumulator::merge`] for one group pair: `other`'s group `og`
    /// folded after this state's group `g`.
    pub(crate) fn merge_group(&mut self, g: usize, other: &GroupAcc, og: usize) {
        match (self, other) {
            (GroupAcc::Int(a), GroupAcc::Int(b)) => a.merge_group(g, b, og),
            (GroupAcc::Float(a), GroupAcc::Float(b)) => a.merge_group(g, b, og),
            (GroupAcc::Boxed(a), GroupAcc::Boxed(b)) => a[g].merge(b[og].clone()),
            _ => unreachable!("an aggregate's state layout is the same in every morsel"),
        }
    }

    /// The aggregate's result column over groups `live`, in that order.
    pub(crate) fn finish(self, live: &[u32]) -> ColumnVec {
        match self {
            GroupAcc::Int(a) => a.finish(live),
            GroupAcc::Float(a) => a.finish(live),
            GroupAcc::Boxed(a) => {
                let vals: Vec<Value> = live
                    .iter()
                    .map(|&g| a[g as usize].clone().finish())
                    .collect();
                ColumnVec::from_values(vals.iter())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(f: AggFunc, vals: &[Value]) -> Value {
        let mut acc = f.accumulator();
        for v in vals {
            acc.update(v);
        }
        acc.finish()
    }

    #[test]
    fn sum_stays_integer_until_float_appears() {
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(1), Value::Int(2)]),
            Value::Int(3)
        );
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(1), Value::Float(0.5)]),
            Value::Float(1.5)
        );
    }

    #[test]
    fn nulls_ignored() {
        assert_eq!(
            run(AggFunc::Sum, &[Value::Null, Value::Int(2), Value::Null]),
            Value::Int(2)
        );
        assert_eq!(
            run(AggFunc::Count, &[Value::Null, Value::Int(2), Value::Int(3)]),
            Value::Int(2)
        );
    }

    #[test]
    fn min_max_mixed_numeric() {
        assert_eq!(
            run(
                AggFunc::Min,
                &[Value::Int(3), Value::Float(2.5), Value::Int(4)]
            ),
            Value::Float(2.5)
        );
        assert_eq!(
            run(AggFunc::Max, &[Value::Int(3), Value::Float(2.5)]),
            Value::Int(3)
        );
    }

    #[test]
    fn empty_group_semantics() {
        assert_eq!(run(AggFunc::Count, &[]), Value::Int(0));
        assert_eq!(run(AggFunc::Sum, &[]), Value::Null);
        assert_eq!(run(AggFunc::Min, &[]), Value::Null);
    }

    #[test]
    fn avg_divides() {
        assert_eq!(
            run(AggFunc::Avg, &[Value::Int(1), Value::Int(2), Value::Int(3)]),
            Value::Float(2.0)
        );
    }

    #[test]
    fn merge_matches_serial_fold_at_every_split() {
        let vals = [
            Value::Int(3),
            Value::Null,
            Value::Float(1.5),
            Value::Int(-2),
            Value::Int(7),
        ];
        for f in [
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Count,
            AggFunc::Avg,
        ] {
            let serial = run(f, &vals);
            for split in 0..=vals.len() {
                let mut a = f.accumulator();
                for v in &vals[..split] {
                    a.update(v);
                }
                let mut b = f.accumulator();
                for v in &vals[split..] {
                    b.update(v);
                }
                a.merge(b);
                assert_eq!(a.finish(), serial, "{f} split={split}");
            }
        }
    }

    #[test]
    fn merge_empty_partials_is_identity() {
        for f in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Avg] {
            let mut a = f.accumulator();
            a.update(&Value::Int(5));
            let before = a.clone().finish();
            a.merge(f.accumulator());
            assert_eq!(a.finish(), before);
            let mut e = f.accumulator();
            let mut full = f.accumulator();
            full.update(&Value::Int(5));
            e.merge(full);
            assert_eq!(e.finish(), before);
        }
    }

    /// The flat typed state is `Accumulator` without the boxing: same bits
    /// for every function, fold order and morsel split — ties between
    /// `0.0` and `-0.0`, NaN-first and NaN-later groups, empty partials.
    #[test]
    fn typed_state_matches_accumulator_at_every_split() {
        use AggFunc::*;
        fn check<T: AggNum>(funcs: &[AggFunc], vals: &[Option<T>], boxed: impl Fn(T) -> Value) {
            let folded = |f: AggFunc, part: &[Option<T>]| {
                let mut typed = TypedAcc::new(f, 1);
                typed.fold(part.iter().flatten().map(|&v| (0, v)));
                let mut acc = f.accumulator();
                for v in part {
                    acc.update(&v.map_or(Value::Null, &boxed));
                }
                (typed, acc)
            };
            for &f in funcs {
                for split in 0..=vals.len() {
                    let (mut typed, mut acc) = folded(f, &vals[..split]);
                    let (typed_tail, acc_tail) = folded(f, &vals[split..]);
                    typed.merge_group(0, &typed_tail, 0);
                    acc.merge(acc_tail);
                    let (got, want) = (typed.finish(&[0]).value(0), acc.finish());
                    let same = match (&got, &want) {
                        (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
                        _ => got == want,
                    };
                    assert!(
                        same,
                        "{f} split={split}: typed {got:?} vs accumulator {want:?}"
                    );
                }
            }
        }
        let floats = [
            Some(0.0),
            None,
            Some(-0.0),
            Some(1.5),
            Some(f64::NAN),
            Some(-0.0),
            Some(0.0),
        ];
        let all = [Sum, Min, Max, Count, Avg];
        check(&all, &floats, Value::Float);
        check(&all, &floats[..4], Value::Float);
        check(
            &all,
            &[Some(f64::NAN), Some(-1.0), None, Some(f64::INFINITY)],
            Value::Float,
        );
        check(&all, &[None::<f64>, None], Value::Float);
        // `avg` over Int values accumulates in f64 (the kernel converts first)
        let ints = [
            Some(3),
            None,
            Some(i64::MAX),
            Some(3),
            Some(i64::MIN),
            Some(-2),
        ];
        check(&[Sum, Min, Max, Count], &ints, Value::Int);
        check(&[Avg], &ints.map(|v| v.map(|i| i as f64)), Value::Float);
    }

    #[test]
    fn from_name_case_insensitive() {
        assert_eq!(AggFunc::from_name("SUM"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::from_name("sqrt"), None);
    }
}
