//! Columnar batch kernels for [`crate::profile::ExecMode::Batch`].
//!
//! Each kernel consumes and produces [`Batch`]es (typed SoA columns from
//! `aio-storage`) and is *row-for-row identical* to its row-at-a-time
//! counterpart in `ops`: same output rows in the same order, the same
//! errors in the same order, the same `random()` stream, and — for
//! parallel float aggregation — the same morsel splits merged in the same
//! order, so sums are bit-identical to the row engine at every `par`.
//!
//! Kernels that cannot take a plan node (residual join predicates, merge
//! join, sort aggregation, multi-column or non-integer group keys) signal
//! ineligibility (`Ok(None)`) *before* touching `ExecStats`, and the
//! evaluator bridges that node through the row operators instead.
//!
//! The Int-key hash join has a second form, `driven_join`, which the
//! evaluator picks at run time under `Rules` / `Cost` when the probe side
//! is a base table and the build side is small: the small side's keys are
//! looked up in the table's adjacency on the key column, so the join reads
//! the matching rows of the table instead of probing all of them. Both
//! produce only the matching pairs, the same pairs in the same order, so no
//! consumer can tell them apart; `gather` turns them into the joined
//! columns. An MV-join whose aggregates are all semiring terms gathers
//! none: `Fold` folds its pairs straight into their groups, either pair
//! source's — the pairs a join emits (the push) or, for a dense vector, the
//! matrix's rows in order, each with its key's vector row (the pull).

use crate::agg::{Accumulator, AggFunc, AggNum, GroupAcc, TypedAcc};
use crate::error::{AlgebraError, Result};
use crate::expr::{BinOp, Func, ScalarExpr, UnaryOp};
use crate::ops::groupby;
use crate::ops::join::{record_phases, JoinKeys, JoinPhases, JoinType};
use crate::semiring::Times;
use crate::stats::ExecStats;
use aio_storage::{
    direct_span, Adjacency, Batch, ColumnVec, FxHashMap, NullMask, Schema, Value, GATHER_NULL,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Rows per processed chunk in [`select`], and the unit of the `batches=`
/// EXPLAIN annotation: 4096 rows keeps a handful of 8-byte columns inside
/// L1/L2 while amortizing per-chunk overhead, and matches the morsel
/// threshold ([`crate::par::MIN_PARALLEL_ROWS`]) so chunk ranges compose
/// with the morsel runner.
pub const BATCH_SIZE: usize = 4096;

/// σ over a batch. `And`/`Or` trees of comparisons whose operands the
/// column evaluator accepts (`eval_vector`) evaluate to a selection bitmap
/// chunk-by-chunk (`batch_size` rows per chunk — the
/// evaluator passes [`BATCH_SIZE`]; chunking never changes the result)
/// with no row materialization; anything else falls back to a scratch-row
/// scan under the same morsel contract as [`crate::ops::select_par`].
pub fn select(
    input: &Batch,
    pred: &ScalarExpr,
    par: usize,
    batch_size: usize,
    stats: &mut ExecStats,
) -> Result<Batch> {
    let bound = pred.bind(input.schema())?;
    let src = Src {
        cols: input.columns(),
        aggs: &[],
    };
    if let Some(vp) = VecPred::compile(&bound, &src) {
        let mut kept: Vec<u32> = Vec::new();
        let chunk = batch_size.max(1);
        let mut start = 0;
        while start < input.len() {
            let len = chunk.min(input.len() - start);
            let words = vp.eval(&src, &(start..start + len));
            for (w, &word) in words.iter().enumerate() {
                let mut m = word;
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    kept.push((start + w * 64 + b) as u32);
                    m &= m - 1;
                }
            }
            start += len;
        }
        return Ok(input.gather(&kept));
    }
    // Generic fallback: same morsel ranges, same short-circuit / error
    // order / random() stream as the row engine's per-row evaluation.
    let par = if bound.is_deterministic() { par } else { 1 };
    let arity = input.schema().arity();
    let (bufs, info) = crate::par::run_morsels(input.len(), par, |range| {
        let mut keep: Vec<u32> = Vec::new();
        let mut scratch = vec![Value::Null; arity];
        for i in range {
            input.fill_row(i, &mut scratch);
            if bound.eval_pred(&scratch)? {
                keep.push(i as u32);
            }
        }
        Ok(keep)
    })?;
    stats.note_parallel(&info);
    let kept: Vec<u32> = bufs.into_iter().flatten().collect();
    Ok(input.gather(&kept))
}

/// A predicate tree the bitmap engine can run: And/Or over comparisons of
/// expressions the column evaluator accepts (`eval_vector`). SQL's
/// unknown-filters-out rule folds into the bitmap (`NULL cmp x` and
/// `NaN cmp x` are never *true*, so their bits stay 0), and since neither
/// the operands nor the comparisons can error and `And`/`Or` over
/// three-valued comparison bits equal the bitwise forms, the result
/// matches per-row evaluation exactly. `Not` is excluded — its unknown
/// handling does not fold into a complement.
enum VecPred<'e> {
    Cmp(BinOp, &'e ScalarExpr, &'e ScalarExpr),
    And(Box<VecPred<'e>>, Box<VecPred<'e>>),
    Or(Box<VecPred<'e>>, Box<VecPred<'e>>),
}

impl<'e> VecPred<'e> {
    fn compile(e: &'e ScalarExpr, src: &Src<'_>) -> Option<VecPred<'e>> {
        match e {
            ScalarExpr::Binary(BinOp::And, l, r) => Some(VecPred::And(
                Box::new(Self::compile(l, src)?),
                Box::new(Self::compile(r, src)?),
            )),
            ScalarExpr::Binary(BinOp::Or, l, r) => Some(VecPred::Or(
                Box::new(Self::compile(l, src)?),
                Box::new(Self::compile(r, src)?),
            )),
            ScalarExpr::Binary(op, l, r) if op.is_comparison() => {
                eval_vector(l, src, &(0..0))?;
                eval_vector(r, src, &(0..0))?;
                Some(VecPred::Cmp(*op, l, r))
            }
            _ => None,
        }
    }

    /// Truth bitmap for rows `range`; bit `i - range.start` set iff the
    /// predicate is *true* (not false, not unknown) on row `i`.
    fn eval(&self, src: &Src<'_>, range: &Range<usize>) -> Vec<u64> {
        match self {
            VecPred::And(l, r) => {
                let mut a = l.eval(src, range);
                for (x, y) in a.iter_mut().zip(r.eval(src, range)) {
                    *x &= y;
                }
                a
            }
            VecPred::Or(l, r) => {
                let mut a = l.eval(src, range);
                for (x, y) in a.iter_mut().zip(r.eval(src, range)) {
                    *x |= y;
                }
                a
            }
            VecPred::Cmp(op, l, r) => {
                let operand = |e| {
                    eval_vector(e, src, range).expect("acceptance depends on column types only")
                };
                // `Value::sql_cmp`: Int with Int compares as integers,
                // anything else numerically as floats
                match (operand(l), operand(r)) {
                    (Vector::Int(a), Vector::Int(b)) => cmp_bitmap(*op, &a, &b, range.len()),
                    (a, b) => match (a.into_float(), b.into_float()) {
                        (Some(a), Some(b)) => cmp_bitmap(*op, &a, &b, range.len()),
                        // an all-NULL operand: unknown on every row
                        _ => vec![0; range.len().div_ceil(64)],
                    },
                }
            }
        }
    }
}

fn cmp_true(op: BinOp, o: Ordering) -> bool {
    match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::Ne => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::Le => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::Ge => o != Ordering::Less,
        _ => unreachable!("comparison ops only"),
    }
}

/// The rows of two lanes on which `l op r` is true. `partial_cmp`, so a
/// NaN operand yields unknown (bit stays 0) — including for `Ne`, where
/// Rust's native `NaN != x` would wrongly be true — and so does a NULL.
fn cmp_bitmap<T: Copy + PartialOrd>(
    op: BinOp,
    l: &Lane<'_, T>,
    r: &Lane<'_, T>,
    len: usize,
) -> Vec<u64> {
    let mut words = vec![0u64; len.div_ceil(64)];
    for k in 0..len {
        if let (Some(a), Some(b)) = (l.get(k), r.get(k)) {
            if a.partial_cmp(&b).is_some_and(|o| cmp_true(op, o)) {
                words[k / 64] |= 1 << (k % 64);
            }
        }
    }
    words
}

/// A dense operand of the column evaluator: one value per row plus the
/// NULL bitmap (borrowed from the input when the expression is a bare
/// column), or a scalar broadcast over every row. NULL slots of a computed
/// lane are reset to the type's zero, the placeholder `ColumnVec` keeps.
enum Lane<'a, T: Copy> {
    Const(T),
    Vec(Cow<'a, [T]>, Cow<'a, NullMask>),
}

impl<T: Copy> Lane<'_, T> {
    /// Row `i`'s value, `None` when NULL.
    #[inline]
    fn get(&self, i: usize) -> Option<T> {
        match self {
            Lane::Const(c) => Some(*c),
            Lane::Vec(v, n) => (!n.get(i)).then(|| v[i]),
        }
    }
}

impl<'a, T: Copy + Default> Lane<'a, T> {
    fn computed(mut vals: Vec<T>, nulls: Cow<'a, NullMask>) -> Self {
        let len = vals.len();
        for i in nulls.ones().take_while(|&i| i < len) {
            vals[i] = T::default();
        }
        Lane::Vec(Cow::Owned(vals), nulls)
    }

    fn map<U: Copy + Default>(self, f: impl Fn(T) -> U) -> Lane<'a, U> {
        match self {
            Lane::Const(c) => Lane::Const(f(c)),
            Lane::Vec(v, n) => Lane::computed(v.iter().map(|&x| f(x)).collect(), n),
        }
    }

    /// Row-wise `f(self, other)`; a row is NULL when either side is.
    fn zip(self, other: Lane<'a, T>, f: impl Fn(T, T) -> T) -> Lane<'a, T> {
        match (self, other) {
            (Lane::Const(a), Lane::Const(b)) => Lane::Const(f(a, b)),
            (Lane::Vec(a, n), Lane::Const(b)) => {
                Lane::computed(a.iter().map(|&x| f(x, b)).collect(), n)
            }
            (Lane::Const(a), Lane::Vec(b, n)) => {
                Lane::computed(b.iter().map(|&y| f(a, y)).collect(), n)
            }
            (Lane::Vec(a, an), Lane::Vec(b, bn)) => {
                let nulls = match (an.any(), bn.any()) {
                    (_, false) => an,
                    (false, true) => bn,
                    (true, true) => Cow::Owned(an.union(&bn)),
                };
                Lane::computed(
                    a.iter().zip(b.iter()).map(|(&x, &y)| f(x, y)).collect(),
                    nulls,
                )
            }
        }
    }
}

/// The value of a vectorized expression over a row range.
enum Vector<'a> {
    /// NULL on every row (a NULL literal, or arithmetic with one).
    Null,
    Int(Lane<'a, i64>),
    Float(Lane<'a, f64>),
}

impl<'a> Vector<'a> {
    fn of_column(col: &'a ColumnVec, range: &Range<usize>) -> Option<Vector<'a>> {
        let mask = |nulls: &'a NullMask| {
            if range.start == 0 && range.end == col.len() {
                Cow::Borrowed(nulls)
            } else {
                Cow::Owned(nulls.slice(range.clone()))
            }
        };
        match col {
            ColumnVec::Int { vals, nulls } => Some(Vector::Int(Lane::Vec(
                Cow::Borrowed(&vals[range.clone()]),
                mask(nulls),
            ))),
            ColumnVec::Float { vals, nulls } => Some(Vector::Float(Lane::Vec(
                Cow::Borrowed(&vals[range.clone()]),
                mask(nulls),
            ))),
            ColumnVec::Mixed(_) => None,
        }
    }

    /// `eval_binary`'s Int→Float promotion.
    fn into_float(self) -> Option<Lane<'a, f64>> {
        match self {
            Vector::Null => None,
            Vector::Int(l) => Some(l.map(|x| x as f64)),
            Vector::Float(l) => Some(l),
        }
    }

    /// Materialize `len` rows (not yet [`ColumnVec::canonical`]: per-morsel
    /// parts are concatenated first).
    fn into_column(self, len: usize) -> ColumnVec {
        match self {
            Vector::Null => ColumnVec::from_values(std::iter::repeat_n(&Value::Null, len)),
            Vector::Int(Lane::Const(c)) => ColumnVec::Int {
                vals: vec![c; len],
                nulls: NullMask::none(),
            },
            Vector::Int(Lane::Vec(v, n)) => ColumnVec::Int {
                vals: v.into_owned(),
                nulls: n.into_owned(),
            },
            Vector::Float(Lane::Const(c)) => ColumnVec::Float {
                vals: vec![c; len],
                nulls: NullMask::none(),
            },
            Vector::Float(Lane::Vec(v, n)) => ColumnVec::Float {
                vals: v.into_owned(),
                nulls: n.into_owned(),
            },
        }
    }
}

/// The columns a vectorized expression reads: `BoundCol(i)` is `cols[i]`,
/// `AggRef(i)` is `aggs[i]` (post-aggregate items; empty elsewhere).
struct Src<'a> {
    cols: &'a [Arc<ColumnVec>],
    aggs: &'a [Arc<ColumnVec>],
}

/// Evaluate a bound expression column-at-a-time over rows `range`, or
/// decline with `None`. Accepted: `+ - * /`, unary minus and non-empty
/// `least`/`greatest` over dense Int/Float columns and Int/Float/NULL
/// literals, with exactly [`crate::expr::eval_binary`]'s semantics —
/// wrapping Int arithmetic, Int→Float promotion when the operand types
/// differ, NULL in ⇒ NULL out, IEEE NaN/±∞. Declined: `Mixed`
/// columns, text literals, Int `/` Int and `%` (they can fail per row),
/// `least`/`greatest` over mixed Int and Float arguments (the result type
/// would vary per row), comparisons, logic, every other function and
/// `random()`. Whatever is accepted can neither fail nor draw randomness,
/// so hoisting it out of a row-major loop is unobservable; whether an
/// expression is accepted depends on the column *types* only, never on the
/// range.
fn eval_vector<'a>(e: &ScalarExpr, src: &Src<'a>, range: &Range<usize>) -> Option<Vector<'a>> {
    Some(match e {
        ScalarExpr::BoundCol(i) => Vector::of_column(src.cols.get(*i)?, range)?,
        ScalarExpr::AggRef(i) => Vector::of_column(src.aggs.get(*i)?, range)?,
        ScalarExpr::Lit(Value::Null) => Vector::Null,
        ScalarExpr::Lit(Value::Int(v)) => Vector::Int(Lane::Const(*v)),
        ScalarExpr::Lit(Value::Float(v)) => Vector::Float(Lane::Const(*v)),
        ScalarExpr::Unary(UnaryOp::Neg, x) => match eval_vector(x, src, range)? {
            Vector::Null => Vector::Null,
            Vector::Int(l) => Vector::Int(l.map(i64::wrapping_neg)),
            Vector::Float(l) => Vector::Float(l.map(|x| -x)),
        },
        ScalarExpr::Binary(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div), l, r) => {
            match (eval_vector(l, src, range)?, eval_vector(r, src, range)?) {
                (Vector::Null, _) | (_, Vector::Null) => Vector::Null,
                (Vector::Int(a), Vector::Int(b)) => Vector::Int(match op {
                    BinOp::Add => a.zip(b, i64::wrapping_add),
                    BinOp::Sub => a.zip(b, i64::wrapping_sub),
                    BinOp::Mul => a.zip(b, i64::wrapping_mul),
                    _ => return None, // Int / Int fails on a zero divisor
                }),
                (a, b) => {
                    let (a, b) = (a.into_float()?, b.into_float()?);
                    Vector::Float(match op {
                        BinOp::Add => a.zip(b, |x, y| x + y),
                        BinOp::Sub => a.zip(b, |x, y| x - y),
                        BinOp::Mul => a.zip(b, |x, y| x * y),
                        _ => a.zip(b, |x, y| x / y),
                    })
                }
            }
        }
        ScalarExpr::Func(f @ (Func::Least | Func::Greatest), args) if !args.is_empty() => {
            let (mut null, mut ints, mut floats) = (false, Vec::new(), Vec::new());
            for a in args {
                match eval_vector(a, src, range)? {
                    Vector::Null => null = true,
                    Vector::Int(l) => ints.push(l),
                    Vector::Float(l) => floats.push(l),
                }
            }
            let least = *f == Func::Least;
            match (null, ints.is_empty(), floats.is_empty()) {
                (true, ..) => Vector::Null,
                (_, false, true) => Vector::Int(extreme(ints, least)),
                (_, true, false) => Vector::Float(extreme(floats, least)),
                _ => return None, // Int and Float arguments: the result type varies per row
            }
        }
        _ => return None,
    })
}

/// `least` / `greatest` with `eval_func`'s rule: the running best is
/// replaced only by a strictly smaller / greater value, so ties and NaN
/// comparisons keep the earlier argument.
fn extreme<'a, T: Copy + Default + PartialOrd>(
    lanes: Vec<Lane<'a, T>>,
    least: bool,
) -> Lane<'a, T> {
    let mut lanes = lanes.into_iter();
    let first = lanes
        .next()
        .expect("least/greatest take at least one argument");
    lanes.fold(first, |best, next| {
        if least {
            best.zip(next, |b, v| if b > v { v } else { b })
        } else {
            best.zip(next, |b, v| if b < v { v } else { b })
        }
    })
}

/// The column an expression evaluates to over `input`, when the column
/// evaluator accepts it (see `eval_vector` for the rules); `None` means
/// "evaluate row-major instead", never an error.
pub fn eval_expr(e: &ScalarExpr, input: &Batch) -> Option<ColumnVec> {
    let bound = e.bind(input.schema()).ok()?;
    let src = Src {
        cols: input.columns(),
        aggs: &[],
    };
    let v = eval_vector(&bound, &src, &(0..input.len()))?;
    Some(v.into_column(input.len()).canonical())
}

/// Π over a batch. `BoundCol` items share the input column (`Arc` clone),
/// literals build one constant column, items the column evaluator accepts
/// are computed per morsel as typed vectors; what remains evaluates
/// row-major in item order under the row engine's morsel contract, so
/// errors and the `random()` stream are identical to
/// [`crate::ops::project_par`]. The flag is true when no item needed the
/// scratch-row interpreter.
pub(crate) fn project(
    input: &Batch,
    items: &[(ScalarExpr, String)],
    par: usize,
    stats: &mut ExecStats,
) -> Result<(Batch, bool)> {
    let bound: Vec<ScalarExpr> = items
        .iter()
        .map(|(e, _)| e.bind(input.schema()))
        .collect::<Result<_>>()?;
    let schema = crate::plan::schema_of_items(items, input.schema());
    let len = input.len();
    let src = Src {
        cols: input.columns(),
        aggs: &[],
    };
    // Trivial items (column passthrough, literal) and vectorized ones never
    // error and consume no randomness, so hoisting them out of the per-row
    // loop is unobservable.
    let nontrivial = |e: &ScalarExpr| !matches!(e, ScalarExpr::BoundCol(_) | ScalarExpr::Lit(_));
    let (vectorized, row_major): (Vec<usize>, Vec<usize>) = (0..bound.len())
        .filter(|&i| nontrivial(&bound[i]))
        .partition(|&i| eval_vector(&bound[i], &src, &(0..0)).is_some());
    let mut computed: Vec<Option<ColumnVec>> = (0..bound.len()).map(|_| None).collect();
    if !(vectorized.is_empty() && row_major.is_empty()) {
        let par = if bound.iter().all(ScalarExpr::is_deterministic) {
            par
        } else {
            1
        };
        let arity = input.schema().arity();
        let (bufs, info) = crate::par::run_morsels(len, par, |range| {
            let cols: Vec<ColumnVec> = vectorized
                .iter()
                .map(|&item| {
                    eval_vector(&bound[item], &src, &range)
                        .expect("acceptance depends on column types only")
                        .into_column(range.len())
                })
                .collect();
            let mut vals: Vec<Vec<Value>> = row_major
                .iter()
                .map(|_| Vec::with_capacity(range.len()))
                .collect();
            if !row_major.is_empty() {
                let mut scratch = vec![Value::Null; arity];
                for i in range {
                    input.fill_row(i, &mut scratch);
                    for (slot, &item) in vals.iter_mut().zip(&row_major) {
                        slot.push(bound[item].eval(&scratch)?);
                    }
                }
            }
            Ok((cols, vals))
        })?;
        stats.note_parallel(&info);
        for (k, &item) in row_major.iter().enumerate() {
            let vals = bufs.iter().flat_map(|(_, vals)| vals[k].iter());
            computed[item] = Some(ColumnVec::from_values(vals));
        }
        let mut parts: Vec<Vec<ColumnVec>> = vectorized.iter().map(|_| Vec::new()).collect();
        for (cols, _) in bufs {
            for (slot, col) in parts.iter_mut().zip(cols) {
                slot.push(col);
            }
        }
        for (&item, parts) in vectorized.iter().zip(parts) {
            computed[item] = Some(ColumnVec::concat_all(parts).canonical());
        }
    }
    let mut cols: Vec<Arc<ColumnVec>> = Vec::with_capacity(bound.len());
    for (i, e) in bound.iter().enumerate() {
        cols.push(match computed[i].take() {
            Some(c) => Arc::new(c),
            None => match e {
                ScalarExpr::BoundCol(c) => input.col_arc(*c),
                ScalarExpr::Lit(v) => Arc::new(ColumnVec::from_values(std::iter::repeat_n(v, len))),
                _ => unreachable!("non-trivial items were computed"),
            },
        });
    }
    Ok((Batch::from_columns(schema, cols, len), row_major.is_empty()))
}

/// ∪ (bag) — column-wise concatenation, no row materialization.
pub(crate) fn union_all(a: &Batch, b: &Batch) -> Result<Batch> {
    if a.schema().arity() != b.schema().arity() {
        return Err(AlgebraError::Plan(format!(
            "union all of different arities: {} vs {}",
            a.schema().arity(),
            b.schema().arity()
        )));
    }
    let cols: Vec<Arc<ColumnVec>> = a
        .columns()
        .iter()
        .zip(b.columns())
        .map(|(x, y)| Arc::new(x.concat(y)))
        .collect();
    Ok(Batch::from_columns(
        a.schema().clone(),
        cols,
        a.len() + b.len(),
    ))
}

/// A join's matching `(left row, right row)` pairs, as two index lists
/// ([`GATHER_NULL`] pads an outer join's missing side).
pub(crate) type Pairs = (Vec<u32>, Vec<u32>);

/// Ends a [`HashBuild`] chain.
const NO_ROW: u32 = u32::MAX;

/// The build side of [`hash_join`]: the first build row of every key, and
/// per build row the next one with the same key, so a probe walks a key's
/// rows in row order and the build allocates nothing per key. One `Int` key
/// whose non-NULL values span at most `DIRECT_SPAN_FACTOR` × the rows
/// ([`direct_span`]; PageRank's `P.ID`: one slot per vertex) is
/// direct-addressed, a slot per key value; any other key is hashed. NULL
/// keys are left out: SQL joins never match them.
struct HashBuild {
    heads: Heads,
    next: Vec<u32>,
}

enum Heads {
    /// `Direct(lo, slots)`: key `k`'s first row is `slots[k - lo]`.
    Direct(i64, Vec<u32>),
    Hashed(FxHashMap<(i64, i64), u32>),
}

impl HashBuild {
    fn new(keys: &IntKeys<'_>, rows: usize) -> HashBuild {
        let span = match keys.as_slice() {
            [_] => direct_span((0..rows).filter_map(|i| key_at(keys, i).map(|k| k.0)), rows),
            _ => None,
        };
        let mut heads = match span {
            Some((lo, span)) => Heads::Direct(lo, vec![NO_ROW; span]),
            None => Heads::Hashed(FxHashMap::default()),
        };
        // backwards, so every key's chain runs in row order
        let mut next = vec![NO_ROW; rows];
        for i in (0..rows).rev() {
            if let Some(k) = key_at(keys, i) {
                let head = match &mut heads {
                    Heads::Direct(lo, slots) => &mut slots[k.0.wrapping_sub(*lo) as usize],
                    Heads::Hashed(map) => map.entry(k).or_insert(NO_ROW),
                };
                next[i] = std::mem::replace(head, i as u32);
            }
        }
        HashBuild { heads, next }
    }

    /// The build rows holding key `k`, in row order.
    #[inline]
    fn rows(&self, k: (i64, i64)) -> impl Iterator<Item = u32> + '_ {
        let first = match &self.heads {
            Heads::Direct(lo, slots) => slots.get(k.0.wrapping_sub(*lo) as usize).copied(),
            Heads::Hashed(map) => map.get(&k).copied(),
        };
        let live = |r: &u32| *r != NO_ROW;
        std::iter::successors(first.filter(live), move |&r| {
            Some(self.next[r as usize]).filter(live)
        })
    }
}

/// Hash equi-join keyed on primitive column slices: the matching pairs in
/// `(left row, right row)` order. Eligible when every key column on both
/// sides is a dense Int column (1–2 keys, no residual — the caller checks
/// strategy and residual); `Ok(None)` bridges to the row join. Build and
/// probe order mirror `ops::join::hash_join` exactly: a key's right rows
/// come in row order, morsel ranges split the probe, and unmatched rows pad
/// through [`GATHER_NULL`].
pub(crate) fn hash_join(
    left: &Batch,
    right: &Batch,
    keys: &JoinKeys,
    jt: JoinType,
    par: usize,
    stats: &mut ExecStats,
) -> Result<Option<Pairs>> {
    let Some(lkeys) = int_key_cols(left, &keys.left) else {
        return Ok(None);
    };
    let Some(rkeys) = int_key_cols(right, &keys.right) else {
        return Ok(None);
    };
    stats.joins += 1;
    stats.rows_scanned += (left.len() + right.len()) as u64;
    record_phases(JoinPhases::default());

    let build_start = Instant::now();
    let table = HashBuild::new(&rkeys, right.len());
    let build_ns = build_start.elapsed().as_nanos() as u64;

    let probe_start = Instant::now();
    let nwords = right.len().div_ceil(64);
    let (bufs, info) = crate::par::run_morsels(left.len(), par, |range| {
        Ok(match lkeys.as_slice() {
            // one NULL-free key column: no per-row NULL test
            [(vals, nulls)] if !nulls.any() => {
                probe_morsel(range, |i| Some((vals[i], 0)), &table, jt, nwords)
            }
            _ => probe_morsel(range, |i| key_at(&lkeys, i), &table, jt, nwords),
        })
    })?;
    record_phases(JoinPhases {
        build_ns,
        probe_ns: probe_start.elapsed().as_nanos() as u64,
        morsels: info.morsels,
    });
    stats.note_parallel(&info);

    let mut bufs = bufs.into_iter();
    let (mut lidx, mut ridx, mut right_matched) =
        bufs.next().expect("run_morsels yields at least one morsel");
    for (l, r, words) in bufs {
        lidx.extend(l);
        ridx.extend(r);
        for (acc, w) in right_matched.iter_mut().zip(&words) {
            *acc |= w;
        }
    }
    if jt == JoinType::Full {
        for ri in 0..right.len() {
            if right_matched[ri / 64] & (1 << (ri % 64)) == 0 {
                lidx.push(GATHER_NULL);
                ridx.push(ri as u32);
            }
        }
    }

    stats.rows_produced += lidx.len() as u64;
    Ok(Some((lidx, ridx)))
}

/// One morsel of [`hash_join`]'s probe: the pairs of left rows `range`, in
/// order; a row without a match pads with [`GATHER_NULL`] unless the join
/// is inner; and, for a full join, the right rows matched (a bitmap of
/// `nwords` words). `key(i)` is left row `i`'s key, `None` when NULL.
fn probe_morsel(
    range: Range<usize>,
    key: impl Fn(usize) -> Option<(i64, i64)>,
    table: &HashBuild,
    jt: JoinType,
    nwords: usize,
) -> (Vec<u32>, Vec<u32>, Vec<u64>) {
    let mut lidx: Vec<u32> = Vec::with_capacity(range.len());
    let mut ridx: Vec<u32> = Vec::with_capacity(range.len());
    let mut matched = vec![0u64; if jt == JoinType::Full { nwords } else { 0 }];
    for i in range {
        let mut any = false;
        if let Some(k) = key(i) {
            for ri in table.rows(k) {
                any = true;
                if jt == JoinType::Full {
                    matched[ri as usize / 64] |= 1 << (ri % 64);
                }
                lidx.push(i as u32);
                ridx.push(ri);
            }
        }
        if !any && jt != JoinType::Inner {
            lidx.push(i as u32);
            ridx.push(GATHER_NULL);
        }
    }
    (lidx, ridx, matched)
}

/// The joined batch of `left ⋈ right` over `pairs`: left's columns, then
/// right's, each gathered through its side's index list. A side whose index
/// list is `0..len` — every row matched exactly once, in order, as each `E`
/// row does in PageRank's `E ⋈ P` — lends its columns (`Arc`) instead of
/// copying them.
pub(crate) fn gather(left: &Batch, right: &Batch, (lidx, ridx): &Pairs) -> Batch {
    let mut cols = Vec::new();
    for (batch, idx) in [(left, lidx), (right, ridx)] {
        // a fold, not `all`: no early exit, so it vectorizes
        let whole =
            idx.len() == batch.len() && idx.iter().zip(0..).fold(0, |d, (&i, o)| d | i ^ o) == 0;
        cols.extend((0..batch.schema().arity()).map(|c| match whole {
            true => batch.col_arc(c),
            false => Arc::new(batch.col(c).gather(idx)),
        }));
    }
    Batch::from_columns(left.schema().join(right.schema()), cols, lidx.len())
}

/// The small build side may drive the join ([`driven_join`]) when the
/// table's adjacency holds at least this many distinct keys per build row.
pub(crate) const DRIVE_RATIO: usize = 8;

/// Inner equi-join on one `Int` key whose left (probe) input is a table with
/// the adjacency `index` on its key column and whose right (build) input is
/// small; the caller checked that the right key column is `Int`. The small
/// side drives: each of its rows fetches its matches from the adjacency's
/// runs, and no other row of the table is read. The pairs equal
/// [`hash_join`]'s at every `par`: that join emits the matching
/// `(probe row, build row)` pairs sorted, because the probe runs in row
/// order (morsels concatenated in order) and a key's build rows come in
/// row order — so the pairs collected here are sorted into that order.
/// `build_ns` (building or extending the adjacency, next to none when it
/// was served as held) is reported as the build phase; only the rows read — the small
/// side and the matched rows — count as scanned.
pub(crate) fn driven_join(
    right: &Batch,
    keys: &JoinKeys,
    index: &Adjacency,
    build_ns: u64,
    stats: &mut ExecStats,
) -> Pairs {
    stats.joins += 1;
    let probe_start = Instant::now();
    let rkeys = int_key_cols(right, &keys.right).expect("the caller checked an Int key column");
    // `table row << 32 | small row`: sorted, the pairs are the hash join's
    let mut pairs: Vec<u64> = Vec::new();
    for i in 0..right.len() {
        if let Some((k, _)) = key_at(&rkeys, i) {
            for rows in index.runs_of(k) {
                pairs.extend(rows.iter().map(|&li| (li as u64) << 32 | i as u64));
            }
        }
    }
    pairs.sort_unstable();
    let lidx: Vec<u32> = pairs.iter().map(|&p| (p >> 32) as u32).collect();
    let ridx: Vec<u32> = pairs.iter().map(|&p| p as u32).collect();
    record_phases(JoinPhases {
        build_ns,
        probe_ns: probe_start.elapsed().as_nanos() as u64,
        morsels: 1,
    });
    stats.rows_scanned += (right.len() + lidx.len()) as u64;
    stats.rows_produced += lidx.len() as u64;
    (lidx, ridx)
}

/// The MV-join `γ_{key; ⊕(a ⊙ b)}(A ⋈ C)` as one semiring fold (DESIGN
/// §18), its columns checked: the matrix `A` (the join's left input) has a
/// NULL-free `Int` group-key column, and every term `⊕(a ⊙ b)` — `⊕` ∈
/// {`sum`, `min`, `max`}, `⊙` ∈ {`*`, `+`}, as `plan::MvShape` reads them —
/// has one NULL-free `Int` / `Float` column of each side as operands.
/// [`Fold::run`] folds the terms over the pairs of a [`Source`].
pub(crate) struct Fold<'a> {
    /// The matrix's group key per row.
    group: &'a [i64],
    terms: Vec<(AggFunc, Times, Operands<'a>)>,
    /// A term converts its matrix operand in full (an `Int` column beside
    /// a `Float` one), O(|matrix|): the pull reads every matrix row anyway,
    /// a frontier's few pairs run unfused instead.
    pub(crate) converts_matrix: bool,
}

/// A term `a ⊙ b`'s operands, one a column of the vector and the other of
/// the matrix, in the type `eval_binary` computes `a ⊙ b` in: `Int` when
/// both are `Int`, else `Float` (an `Int` operand promoted).
enum Operands<'a> {
    Int(Lanes<'a, i64>),
    Float(Lanes<'a, f64>),
}

/// The vector operand per vector row and the matrix operand per matrix row,
/// as the columns hold them ([`Pairing::rows`] lays them out for the
/// fold); `swap` when the matrix operand is `a`.
struct Lanes<'a, T: Clone> {
    vector: Cow<'a, [T]>,
    matrix: Cow<'a, [T]>,
    swap: bool,
}

/// Where a [`Fold`] reads its pairs.
pub(crate) enum Source<'a> {
    /// The pull: every matrix row, in order, with the vector row its key
    /// joins ([`Slots`]); the groups come off the matrix's adjacency on the
    /// group key, built or extended in the nanoseconds given.
    Rows(Slots<'a>, Adjacency, u64),
    /// The push: a join's pairs, in matrix row order, as [`hash_join`] and
    /// [`driven_join`] emit them.
    Pairs(Pairs),
}

/// The pull's implicit pairs: matrix row `r` joins the vector row in
/// slot `keys[r] - lo`, if any — the vector's key NULL-free `Int`, unique
/// and direct-addressed ([`HashBuild`]'s slots), the matrix's join key
/// NULL-free `Int`.
pub(crate) struct Slots<'a> {
    keys: &'a [i64],
    lo: i64,
    slots: Vec<u32>,
    /// Every slot holds a vector row.
    full: bool,
    vector_rows: usize,
}

impl<'a> Slots<'a> {
    /// `None` when a key column fails a check.
    pub(crate) fn of(matrix: &'a Batch, vector: &Batch, keys: &JoinKeys) -> Option<Slots<'a>> {
        let ids = int_key_cols(vector, &keys.right)?;
        null_free(ids.clone())?;
        let build = HashBuild::new(&ids, vector.len());
        let Heads::Direct(lo, slots) = build.heads else {
            return None;
        };
        // a key held twice chains
        if build.next.iter().any(|&n| n != NO_ROW) {
            return None;
        }
        Some(Slots {
            keys: null_free(int_key_cols(matrix, &keys.left)?)?,
            lo,
            full: !slots.contains(&NO_ROW),
            slots,
            vector_rows: vector.len(),
        })
    }
}

/// A fold's pairs: positions `0..keys().len()` in the order the group-by
/// over the join's pairs folds them, each joining the vector lane
/// `lane(keys()[p])`, or none. `rows()` lays the operands out for it: the
/// vector row of each lane, and the matrix row of each position (`None`:
/// lane or position `i` is row `i`).
trait Pairing {
    type Key: Copy;
    fn keys(&self) -> &[Self::Key];
    fn lane(&self, k: Self::Key) -> Option<usize>;
    fn rows(&self) -> [Option<&[u32]>; 2];
}

/// The pull: position `r` is matrix row `r`, and the vector is read by
/// key slot.
impl Pairing for Slots<'_> {
    type Key = i64;

    fn keys(&self) -> &[i64] {
        self.keys
    }

    #[inline]
    fn lane(&self, k: i64) -> Option<usize> {
        let s = k.wrapping_sub(self.lo) as usize;
        let j = *self.slots.get(s)?;
        (self.full || j != NO_ROW).then_some(s)
    }

    fn rows(&self) -> [Option<&[u32]>; 2] {
        [Some(&self.slots), None]
    }
}

/// The push: position `p` is pair `p`, its matrix operand read per pair.
impl Pairing for Pairs {
    type Key = u32;

    fn keys(&self) -> &[u32] {
        &self.1
    }

    #[inline]
    fn lane(&self, j: u32) -> Option<usize> {
        Some(j as usize)
    }

    fn rows(&self) -> [Option<&[u32]>; 2] {
        [None, Some(&self.0)]
    }
}

/// `vals` read at `rows` (a row past the end, [`NO_ROW`], reads the
/// zero); `vals` itself when there are no `rows`.
fn at_rows<'a, T: Copy + Default>(rows: Option<&[u32]>, vals: &'a [T]) -> Cow<'a, [T]> {
    match rows {
        None => Cow::Borrowed(vals),
        Some(rows) => (rows.iter())
            .map(|&r| vals.get(r as usize).copied().unwrap_or_default())
            .collect(),
    }
}

/// One NULL-free key column's values.
fn null_free<'a>(keys: IntKeys<'a>) -> Option<&'a [i64]> {
    match keys.as_slice() {
        [(vals, nulls)] if !nulls.any() => Some(*vals),
        _ => None,
    }
}

impl<'a> Fold<'a> {
    /// `group`: the matrix's group-key column. `terms`: per aggregate in
    /// compile order, `⊕`, `⊙` and the two operand columns of the joined
    /// schema (the matrix's columns first). `None` when a term or a column
    /// fails a check ([`Fold`]).
    pub(crate) fn prepare(
        matrix: &'a Batch,
        vector: &'a Batch,
        group: usize,
        terms: &[(AggFunc, Times, [usize; 2])],
    ) -> Option<Fold<'a>> {
        let width = matrix.schema().arity();
        let column = |b: &'a Batch, c: usize| match b.col(c) {
            ColumnVec::Int { nulls, .. } | ColumnVec::Float { nulls, .. } if nulls.any() => None,
            col @ (ColumnVec::Int { .. } | ColumnVec::Float { .. }) => Some(col),
            ColumnVec::Mixed(_) => None,
        };
        let mut fold = Fold {
            group: null_free(int_key_cols(matrix, &[group])?)?,
            terms: Vec::with_capacity(terms.len()),
            converts_matrix: false,
        };
        for &(plus, times, [a, b]) in terms {
            // one operand on each side
            let swap = a < width;
            let (m, v) = if swap { (a, b) } else { (b, a) };
            let v = v.checked_sub(width).filter(|_| m < width)?;
            let operands = match (column(matrix, m)?, column(vector, v)?) {
                (ColumnVec::Int { vals: mv, .. }, ColumnVec::Int { vals: vv, .. }) => {
                    Operands::Int(Lanes {
                        vector: Cow::Borrowed(vv),
                        matrix: Cow::Borrowed(mv),
                        swap,
                    })
                }
                (mc, vc) => {
                    fold.converts_matrix |= matches!(mc, ColumnVec::Int { .. });
                    let float = |col: &'a ColumnVec| match col {
                        ColumnVec::Float { vals, .. } => Cow::Borrowed(vals.as_slice()),
                        ColumnVec::Int { vals, .. } => vals.iter().map(|&x| x as f64).collect(),
                        ColumnVec::Mixed(_) => unreachable!("checked above"),
                    };
                    Operands::Float(Lanes {
                        vector: float(vc),
                        matrix: float(mc),
                        swap,
                    })
                }
            };
            fold.terms.push((plus, times, operands));
        }
        Some(fold)
    }

    /// Fold every term over `source`'s pairs, in its order: pair by pair,
    /// `a ⊙ b` into its key's group through [`TypedAcc::fold`], in
    /// `eval_binary`'s arithmetic (wrapping `Int`, `Int` promoted to
    /// `Float` beside a `Float`). The pairs are the unfused group-by's, in
    /// its order — the pull's rows in ascending order, one pair per
    /// matched row, are the pairs the hash join emits — so every group sees
    /// the same values in the same order, cut into the group-by's morsels
    /// ([`cuts`]) whose partials merge in morsel order. The groups holding
    /// a value leave in key order through group-by's finishing half:
    /// `items` (compiled for grouped evaluation) under `out`, the
    /// aggregate's schema. Counts what the typed group-by over the pairs
    /// counts and, for the pull, what the join that emits them counts.
    pub(crate) fn run(
        self,
        source: Source<'_>,
        items: &[ScalarExpr],
        schemas: [Schema; 2],
        par: usize,
        stats: &mut ExecStats,
    ) -> Result<Folded> {
        match source {
            Source::Rows(slots, adjacency, build_ns) => {
                let probe_start = Instant::now();
                let folded = self.fold(&slots, Some(&adjacency), items, schemas, par, stats)?;
                let matrix_rows = slots.keys.len();
                stats.joins += 1;
                stats.rows_scanned += (matrix_rows + slots.vector_rows) as u64;
                stats.rows_produced += folded.pairs as u64;
                stats.note_parallel(&crate::par::ParInfo::of(matrix_rows, par));
                record_phases(JoinPhases {
                    build_ns,
                    probe_ns: probe_start.elapsed().as_nanos() as u64,
                    morsels: 1,
                });
                Ok(folded)
            }
            Source::Pairs(pairs) => self.fold(&pairs, None, items, schemas, par, stats),
        }
    }

    /// [`Fold::run`] over `src`; the pull numbers its groups off the
    /// matrix's `adjacency` on the group key.
    fn fold(
        &self,
        src: &impl Pairing,
        adjacency: Option<&Adjacency>,
        items: &[ScalarExpr],
        [joined, out]: [Schema; 2],
        par: usize,
        stats: &mut ExecStats,
    ) -> Result<Folded> {
        let groups = Groups::of(at_rows(src.rows()[1], self.group), adjacency);
        let cuts = cuts(src, par);
        let accs: Vec<GroupAcc> = (self.terms.iter())
            .map(|(plus, times, operands)| match operands {
                Operands::Int(o) => GroupAcc::Int(term(src, *plus, *times, o, &groups, &cuts)),
                Operands::Float(o) => GroupAcc::Float(term(src, *plus, *times, o, &groups, &cuts)),
            })
            .collect();
        let counts = match &accs[0] {
            GroupAcc::Int(a) => a.counts(),
            GroupAcc::Float(a) => a.counts(),
            GroupAcc::Boxed(_) => unreachable!("terms are typed"),
        };
        let pairs = counts.iter().sum::<i64>() as usize;
        // the groups holding a value, in slot order, which is key order
        let key =
            |g: usize| (groups.keys.as_ref()).map_or(groups.lo.wrapping_add(g as i64), |k| k[g]);
        let live: Vec<(Option<i64>, u32)> = (counts.iter().enumerate())
            .filter(|(_, &n)| n > 0)
            .map(|(g, _)| (Some(key(g)), g as u32))
            .collect();
        stats.aggregations += 1;
        stats.rows_scanned += pairs as u64;
        stats.note_parallel(&crate::par::ParInfo::of(pairs, par));
        let (out, typed) = emit(true, &live, accs, items, out, stats)?;
        Ok(Folded {
            out,
            typed,
            schema: joined,
            pairs,
        })
    }
}

/// Where the group-by over `src`'s pairs cuts its morsels
/// (`par::morsel_ranges` over the pairs), as positions of `src`: each
/// morsel from its first pair's position, the first from 0, the last to
/// the end.
fn cuts(src: &impl Pairing, par: usize) -> Vec<usize> {
    let keys = src.keys();
    let n = keys.len();
    // never more pairs than positions: one morsel over these is one over those
    if crate::par::morsel_ranges(n, par).len() == 1 {
        return vec![0, n];
    }
    let at: Vec<usize> = (0..n).filter(|&p| src.lane(keys[p]).is_some()).collect();
    let mut cuts: Vec<usize> = (crate::par::morsel_ranges(at.len(), par).iter())
        .map(|m| at.get(m.start).copied().unwrap_or(n))
        .collect();
    cuts[0] = 0;
    cuts.push(n);
    cuts
}

/// One term of [`Fold::fold`], its operands laid out for `src` and `⊙`
/// resolved to its arithmetic.
fn term<T: AggNum>(
    src: &impl Pairing,
    plus: AggFunc,
    times: Times,
    lanes: &Lanes<'_, T>,
    groups: &Groups<'_>,
    cuts: &[usize],
) -> TypedAcc<T> {
    let [vector, matrix] = src.rows();
    let (xs, ys) = (
        &at_rows(vector, &lanes.vector),
        &at_rows(matrix, &lanes.matrix),
    );
    match (times, lanes.swap) {
        (Times::Op(BinOp::Mul), false) => fold_term(src, plus, T::mul, xs, ys, groups, cuts),
        (Times::Op(BinOp::Mul), true) => {
            fold_term(src, plus, |x, y| y.mul(x), xs, ys, groups, cuts)
        }
        (_, false) => fold_term(src, plus, T::add, xs, ys, groups, cuts),
        (_, true) => fold_term(src, plus, |x, y| y.add(x), xs, ys, groups, cuts),
    }
}

/// `times(x, y)`: `x` the vector operand per lane, `y` the matrix operand
/// per position. Each range of positions between two `cuts` folds into its
/// own partial, and the partials merge per group in range order.
fn fold_term<T: AggNum>(
    src: &impl Pairing,
    plus: AggFunc,
    times: impl Fn(T, T) -> T,
    xs: &[T],
    ys: &[T],
    groups: &Groups<'_>,
    cuts: &[usize],
) -> TypedAcc<T> {
    let (n, of, lo, keys) = (groups.len, &*groups.of, groups.lo, src.keys());
    let mut parts = cuts.windows(2).map(|w| {
        let mut part = TypedAcc::new(plus, n);
        let range = w[0]..w[1];
        let positions = of[range.clone()].iter().zip(&ys[range.clone()]);
        part.fold(positions.zip(&keys[range]).filter_map(|((&g, &y), &k)| {
            Some((g.wrapping_sub(lo) as u32, times(xs[src.lane(k)?], y)))
        }));
        part
    });
    let mut acc = parts.next().expect("at least one morsel");
    for part in parts {
        (0..n).for_each(|g| acc.merge_group(g, &part, g));
    }
    acc
}

/// The fold's output: the aggregate's result, whether it was typed, and
/// the join's schema and the pairs it stood for.
pub(crate) struct Folded {
    pub(crate) out: Batch,
    pub(crate) typed: bool,
    pub(crate) schema: Schema,
    pub(crate) pairs: usize,
}

/// The group of each position of a fold's source: position `p`'s group is
/// slot `of[p] - lo` of `len`, and slots ascend with the key. Over a dense
/// key span `of` is the group key itself and slot `g` holds key `lo + g`;
/// otherwise `of` is the key's rank among the distinct keys, and slot `g`
/// holds `keys[g]`.
struct Groups<'a> {
    of: Cow<'a, [i64]>,
    lo: i64,
    len: usize,
    keys: Option<Vec<i64>>,
}

impl<'a> Groups<'a> {
    /// `keys`: the group key at each position. The pull reads the span and
    /// the ranks off the matrix's `adjacency` on the group key, which it
    /// holds; given pairs are direct-addressed when their keys span at most
    /// 4 × `DIRECT_SPAN_FACTOR` slots per pair ([`direct_span`]) — a
    /// frontier's few pairs spread over a wide key range, and slots left
    /// empty cost less than sorting — else ranked by a sort.
    fn of(keys: Cow<'a, [i64]>, adjacency: Option<&Adjacency>) -> Groups<'a> {
        let span = match adjacency {
            Some(a) => a.dense_span(),
            None => direct_span(keys.iter().copied(), 4 * keys.len()),
        };
        if let Some((lo, len)) = span {
            return Groups {
                of: keys,
                lo,
                len,
                keys: None,
            };
        }
        let (mut of, mut distinct) = (keys.into_owned(), Vec::new());
        match adjacency {
            Some(a) => {
                for (g, (k, [base, tail])) in a.walk().enumerate() {
                    distinct.push(k);
                    for &r in base.iter().chain(tail) {
                        of[r as usize] = g as i64;
                    }
                }
            }
            None => {
                let mut sorted: Vec<(i64, u32)> = of.iter().copied().zip(0..).collect();
                sorted.sort_unstable();
                for (k, p) in sorted {
                    if distinct.last() != Some(&k) {
                        distinct.push(k);
                    }
                    of[p as usize] = distinct.len() as i64 - 1;
                }
            }
        }
        Groups {
            of: Cow::Owned(of),
            lo: 0,
            len: distinct.len(),
            keys: Some(distinct),
        }
    }
}

/// The 1–2 key columns as borrowed Int slices, or `None` if ineligible.
type IntKeys<'a> = Vec<(&'a [i64], &'a NullMask)>;

fn int_key_cols<'a>(b: &'a Batch, cols: &[usize]) -> Option<IntKeys<'a>> {
    if cols.is_empty() || cols.len() > 2 {
        return None;
    }
    cols.iter()
        .map(|&c| match b.col(c) {
            ColumnVec::Int { vals, nulls } => Some((vals.as_slice(), nulls)),
            _ => None,
        })
        .collect()
}

/// Composite key for row `i`; `None` when any key column is NULL (SQL
/// joins never match NULL keys — mirrors `key_has_null` / `KeyIndex`).
#[inline]
fn key_at(keys: &IntKeys<'_>, i: usize) -> Option<(i64, i64)> {
    let (v0, n0) = &keys[0];
    if n0.get(i) {
        return None;
    }
    let k0 = v0[i];
    match keys.get(1) {
        None => Some((k0, 0)),
        Some((v1, n1)) => (!n1.get(i)).then(|| (k0, v1[i])),
    }
}

/// The group of every row of one morsel, and the groups themselves.
struct Grouping {
    /// Morsel-local group id per row.
    gids: Vec<u32>,
    /// `(key, local id)` of every group that has a row; `None` is the NULL
    /// key (and the single group of a global aggregate).
    groups: Vec<(Option<i64>, u32)>,
    /// Local ids are `0..slots`; ids without a row occur when
    /// direct-addressed.
    slots: usize,
    /// `groups` is ascending by key (NULL first), the output order.
    sorted: bool,
}

/// One pass over the key column. Direct-addressed — id = key − min + 1,
/// id 0 for the NULL key, so ids are already in key order — when the span
/// of the non-NULL keys is at most `DIRECT_SPAN_FACTOR` × the row count
/// ([`direct_span`]); hashed (ids in first-seen order) otherwise. Which
/// one runs is read off the column and changes no result.
fn assign_groups(key: Option<(&[i64], &NullMask)>, range: Range<usize>) -> Grouping {
    let Some((vals, nulls)) = key else {
        return Grouping {
            gids: vec![0; range.len()],
            groups: vec![(None, 0)],
            slots: 1,
            sorted: true,
        };
    };
    let has_nulls = nulls.any();
    let key_at = |i: usize| (!(has_nulls && nulls.get(i))).then(|| vals[i]);
    if let Some((lo, span)) = direct_span(range.clone().filter_map(key_at), range.len()) {
        let slots = span + 1;
        let mut present = vec![false; slots];
        let gids = range
            .map(|i| {
                let slot = key_at(i).map_or(0, |k| k.wrapping_sub(lo) as usize + 1);
                present[slot] = true;
                slot as u32
            })
            .collect();
        let groups = (0..slots)
            .filter(|&slot| present[slot])
            .map(|slot| ((slot > 0).then(|| lo + (slot as i64 - 1)), slot as u32))
            .collect();
        return Grouping {
            gids,
            groups,
            slots,
            sorted: true,
        };
    }
    let mut index: FxHashMap<Option<i64>, u32> = FxHashMap::default();
    let mut groups = Vec::new();
    let gids = range
        .map(|i| {
            let key = key_at(i);
            *index.entry(key).or_insert_with(|| {
                let id = groups.len() as u32;
                groups.push((key, id));
                id
            })
        })
        .collect();
    let slots = groups.len();
    Grouping {
        gids,
        groups,
        slots,
        sorted: false,
    }
}

/// Fold one vectorized aggregate argument into flat per-group state.
fn fold_vector(func: AggFunc, arg: Vector<'_>, gids: &[u32], slots: usize) -> GroupAcc {
    fn fold<T: AggNum>(
        func: AggFunc,
        lane: &Lane<'_, T>,
        gids: &[u32],
        slots: usize,
    ) -> TypedAcc<T> {
        let mut acc = TypedAcc::new(func, slots);
        match lane {
            Lane::Const(c) => acc.fold(gids.iter().map(|&g| (g, *c))),
            Lane::Vec(v, n) if !n.any() => acc.fold(gids.iter().copied().zip(v.iter().copied())),
            Lane::Vec(v, n) => acc.fold(
                gids.iter()
                    .copied()
                    .zip(v.iter().copied())
                    .enumerate()
                    .filter(|(i, _)| !n.get(*i))
                    .map(|(_, row)| row),
            ),
        }
        acc
    }
    match arg {
        // no non-NULL value to fold: count 0, everything else NULL
        Vector::Null => GroupAcc::Int(TypedAcc::new(func, slots)),
        // `avg` accumulates in f64 whatever the argument type
        Vector::Int(l) if func == AggFunc::Avg => {
            GroupAcc::Float(fold(func, &l.map(|x| x as f64), gids, slots))
        }
        Vector::Int(l) => GroupAcc::Int(fold(func, &l, gids, slots)),
        Vector::Float(l) => GroupAcc::Float(fold(func, &l, gids, slots)),
    }
}

/// Group-by & aggregation over an `&[i64]` group key. Eligible for the hash
/// strategy with no grouping (global) or one dense Int group column;
/// `Ok(None)` bridges to the row operator.
///
/// Each morsel assigns its rows a group id ([`assign_groups`]) and folds
/// every aggregate into per-group state indexed by it: arguments the
/// column evaluator accepts become a typed vector folded into flat arrays
/// ([`TypedAcc`]); the others evaluate on a scratch row, row-major in
/// aggregate order, into one [`Accumulator`] per group. Morsel partials
/// merge in morsel order and groups leave in key order, exactly like
/// [`crate::ops::group_by_par`], so results — float sums included — are
/// bit-identical to the row engine at every `par`. The post-aggregate item
/// expressions run through the same evaluator over the key and aggregate
/// columns. The flag is true when nothing needed the scratch row.
pub(crate) fn group_by(
    input: &Batch,
    group_refs: &[String],
    items: &[(ScalarExpr, String)],
    strategy: crate::profile::AggStrategy,
    par: usize,
    stats: &mut ExecStats,
) -> Result<Option<(Batch, bool)>> {
    if strategy != crate::profile::AggStrategy::Hash {
        return Ok(None);
    }
    let group_cols: Vec<usize> = group_refs
        .iter()
        .map(|r| input.schema().index_of(r).map_err(Into::into))
        .collect::<Result<_>>()?;
    let key: Option<(&[i64], &NullMask)> = match group_cols.as_slice() {
        [] => None,
        [c] => match input.col(*c) {
            ColumnVec::Int { vals, nulls } => Some((vals.as_slice(), nulls)),
            _ => return Ok(None),
        },
        _ => return Ok(None),
    };

    stats.aggregations += 1;
    stats.rows_scanned += input.len() as u64;
    let c = groupby::compile(input.schema(), Some(&group_cols), items)?;
    let schema = crate::plan::schema_of_items(items, input.schema());
    let src = Src {
        cols: input.columns(),
        aggs: &[],
    };
    let boxed: Vec<usize> = (0..c.aggs.len())
        .filter(|&a| eval_vector(&c.aggs[a].1, &src, &(0..0)).is_none())
        .collect();
    // Bare-column arguments of boxed aggregates (a text `min`, a Mixed
    // `sum`) read the column; only other expressions need the scratch row.
    let needs_scratch = boxed
        .iter()
        .any(|&a| !matches!(c.aggs[a].1, ScalarExpr::BoundCol(_)));

    let fold_morsel = |range: Range<usize>| -> Result<(Grouping, Vec<GroupAcc>)> {
        let mut grouping = assign_groups(key, range.clone());
        let (gids, slots) = (std::mem::take(&mut grouping.gids), grouping.slots);
        let mut row_accs: Vec<Vec<Accumulator>> = boxed
            .iter()
            .map(|&a| vec![c.aggs[a].0.accumulator(); slots])
            .collect();
        if !boxed.is_empty() {
            let mut scratch = vec![Value::Null; input.schema().arity()];
            for (i, &g) in range.clone().zip(&gids) {
                if needs_scratch {
                    input.fill_row(i, &mut scratch);
                }
                for (accs, &a) in row_accs.iter_mut().zip(&boxed) {
                    let v = match &c.aggs[a].1 {
                        ScalarExpr::BoundCol(ci) => input.col(*ci).value(i),
                        arg => arg.eval(&scratch)?,
                    };
                    accs[g as usize].update(&v);
                }
            }
        }
        let mut row_accs = row_accs.into_iter();
        let accs = c
            .aggs
            .iter()
            .enumerate()
            .map(|(a, (func, arg))| {
                if boxed.contains(&a) {
                    GroupAcc::Boxed(
                        row_accs
                            .next()
                            .expect("one state vector per boxed aggregate"),
                    )
                } else {
                    let v = eval_vector(arg, &src, &range)
                        .expect("acceptance depends on column types only");
                    fold_vector(*func, v, &gids, slots)
                }
            })
            .collect();
        Ok((grouping, accs))
    };

    let (mut grouping, accs) = if key.is_none() {
        // Global aggregate: serial, exactly one output row (even on empty
        // input) — same shape as the row path.
        fold_morsel(0..input.len())?
    } else {
        let (partials, info) = crate::par::run_morsels(input.len(), par, fold_morsel)?;
        stats.note_parallel(&info);
        merge_partials(partials, &c.aggs)
    };
    if !grouping.sorted {
        grouping.groups.sort_unstable_by_key(|g| g.0);
    }
    let (out, typed) = emit(
        key.is_some(),
        &grouping.groups,
        accs,
        &c.items,
        schema,
        stats,
    )?;
    Ok(Some((out, typed && boxed.is_empty())))
}

/// Group-by's finishing half: the output rows are `groups` — `(key, state
/// slot)`, in output order — and its columns the key (when `keyed`), the
/// aggregates finished from `accs`, then the post-aggregate `items` over
/// those two, under `schema`. Counts the groups as rows produced; the flag
/// is true when every item ran on the column evaluator.
fn emit(
    keyed: bool,
    groups: &[(Option<i64>, u32)],
    accs: Vec<GroupAcc>,
    items: &[ScalarExpr],
    schema: Schema,
    stats: &mut ExecStats,
) -> Result<(Batch, bool)> {
    let n = groups.len();
    let live: Vec<u32> = groups.iter().map(|g| g.1).collect();
    let key_cols: Vec<Arc<ColumnVec>> = keyed
        .then(|| {
            let mut nulls = NullMask::none();
            let vals = groups
                .iter()
                .enumerate()
                .map(|(o, g)| {
                    g.0.unwrap_or_else(|| {
                        nulls.set(o);
                        0
                    })
                })
                .collect();
            Arc::new(ColumnVec::Int { vals, nulls })
        })
        .into_iter()
        .collect();
    let agg_cols: Vec<Arc<ColumnVec>> = accs
        .into_iter()
        .map(|a| Arc::new(a.finish(&live)))
        .collect();
    let out_src = Src {
        cols: &key_cols,
        aggs: &agg_cols,
    };
    let mut cols: Vec<Option<Arc<ColumnVec>>> = items
        .iter()
        .map(|item| match item {
            ScalarExpr::BoundCol(k) => key_cols.get(*k).cloned(),
            ScalarExpr::AggRef(a) => agg_cols.get(*a).cloned(),
            e => eval_vector(e, &out_src, &(0..n)).map(|v| Arc::new(v.into_column(n).canonical())),
        })
        .collect();
    // Items the evaluator declined: group-major in item order, as
    // `groupby::finish_group` evaluates them.
    let row_major: Vec<usize> = (0..cols.len()).filter(|&i| cols[i].is_none()).collect();
    if !row_major.is_empty() {
        let mut vals: Vec<Vec<Value>> = row_major.iter().map(|_| Vec::with_capacity(n)).collect();
        for g in 0..n {
            let key_row: Vec<Value> = key_cols.iter().map(|col| col.value(g)).collect();
            let agg_row: Vec<Value> = agg_cols.iter().map(|col| col.value(g)).collect();
            for (slot, &item) in vals.iter_mut().zip(&row_major) {
                slot.push(items[item].eval_env(&key_row, &agg_row)?);
            }
        }
        for (&item, vals) in row_major.iter().zip(&vals) {
            cols[item] = Some(Arc::new(ColumnVec::from_values(vals.iter())));
        }
    }
    stats.rows_produced += n as u64;
    let cols = cols
        .into_iter()
        .map(|col| col.expect("every item was computed"))
        .collect();
    Ok((Batch::from_columns(schema, cols, n), row_major.is_empty()))
}

/// Merge morsel partials into the first one in morsel order, matching
/// groups by key — [`crate::ops::group_by_par`]'s merge over flat state.
fn merge_partials(
    partials: Vec<(Grouping, Vec<GroupAcc>)>,
    aggs: &[(AggFunc, ScalarExpr)],
) -> (Grouping, Vec<GroupAcc>) {
    let mut partials = partials.into_iter();
    let (mut into, mut accs) = partials
        .next()
        .expect("run_morsels yields at least one morsel");
    if partials.len() == 0 {
        return (into, accs);
    }
    let mut index: FxHashMap<Option<i64>, u32> = into.groups.iter().copied().collect();
    for (part, part_accs) in partials {
        for (key, from) in part.groups {
            let g = *index.entry(key).or_insert_with(|| {
                let id = into.slots as u32;
                into.slots += 1;
                into.groups.push((key, id));
                for (acc, (func, _)) in accs.iter_mut().zip(aggs) {
                    acc.push_group(*func);
                }
                id
            });
            for (acc, other) in accs.iter_mut().zip(&part_accs) {
                acc.merge_group(g as usize, other, from as usize);
            }
        }
    }
    into.sorted = false;
    (into, accs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::ops;
    use aio_storage::{edge_schema, row, Relation};

    fn edges(n: i64) -> Relation {
        let mut e = Relation::new(edge_schema());
        for i in 0..n {
            e.push(row![i % 97, (i * 7) % 89, (i % 5) as f64]).unwrap();
        }
        e
    }

    #[test]
    fn vectorized_select_matches_row_select() {
        let rel = edges(10_000);
        let b = Batch::from_relation(&rel);
        let pred = ScalarExpr::and(
            ScalarExpr::binary(BinOp::Gt, ScalarExpr::col("F"), ScalarExpr::lit(10i64)),
            ScalarExpr::binary(BinOp::Le, ScalarExpr::col("ew"), ScalarExpr::lit(3.0)),
        );
        let mut s = ExecStats::new();
        let got = select(&b, &pred, 1, 4096, &mut s).unwrap().to_relation();
        let want = ops::select(&rel, &pred).unwrap();
        assert_eq!(got.rows(), want.rows());
    }

    #[test]
    fn select_bitmap_is_chunk_size_invariant() {
        let rel = edges(5_000);
        let b = Batch::from_relation(&rel);
        let pred = ScalarExpr::binary(BinOp::Lt, ScalarExpr::col("T"), ScalarExpr::col("F"));
        let mut s = ExecStats::new();
        let full = select(&b, &pred, 1, usize::MAX, &mut s)
            .unwrap()
            .to_relation();
        for chunk in [1, 63, 64, 100, 4096] {
            let got = select(&b, &pred, 1, chunk, &mut s).unwrap().to_relation();
            assert_eq!(got.rows(), full.rows(), "chunk={chunk}");
        }
    }

    #[test]
    fn nan_and_null_comparisons_filter_like_sql() {
        let mut rel = Relation::new(edge_schema());
        rel.push(row![1, 1, 1.0]).unwrap();
        rel.push(vec![Value::Int(2), Value::Int(2), Value::Float(f64::NAN)].into_boxed_slice())
            .unwrap();
        rel.push(vec![Value::Int(3), Value::Int(3), Value::Null].into_boxed_slice())
            .unwrap();
        let b = Batch::from_relation(&rel);
        for op in [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ] {
            let pred = ScalarExpr::binary(op, ScalarExpr::col("ew"), ScalarExpr::lit(1.0));
            let mut s = ExecStats::new();
            let got = select(&b, &pred, 1, 4096, &mut s).unwrap().to_relation();
            let want = ops::select(&rel, &pred).unwrap();
            assert_eq!(got.rows(), want.rows(), "{op:?}");
        }
    }

    #[test]
    fn batch_join_matches_row_join() {
        let lrel = edges(4_000);
        let rrel = edges(700);
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            for par in [1, 4] {
                let keys = JoinKeys {
                    left: vec![1],
                    right: vec![0],
                };
                let mut s = ExecStats::new();
                let (lb, rb) = (Batch::from_relation(&lrel), Batch::from_relation(&rrel));
                let pairs = hash_join(&lb, &rb, &keys, jt, par, &mut s)
                    .unwrap()
                    .expect("int keys are eligible");
                let got = gather(&lb, &rb, &pairs).to_relation();
                let mut s2 = ExecStats::new();
                let want = ops::join_par(
                    &lrel,
                    &rrel,
                    &keys,
                    None,
                    jt,
                    crate::profile::JoinStrategy::Hash,
                    Default::default(),
                    par,
                    &mut s2,
                )
                .unwrap();
                assert_eq!(got.rows(), want.rows(), "{jt:?} par={par}");
                assert_eq!(s.rows_produced, s2.rows_produced);
            }
        }
    }

    #[test]
    fn join_on_float_keys_bridges() {
        let rel = edges(10);
        let keys = JoinKeys {
            left: vec![2],
            right: vec![2],
        };
        let mut s = ExecStats::new();
        let b = Batch::from_relation(&rel);
        assert!(hash_join(&b, &b, &keys, JoinType::Inner, 1, &mut s)
            .unwrap()
            .is_none());
        assert_eq!(s.joins, 0, "ineligible join must not touch stats");
    }

    #[test]
    fn batch_group_by_matches_row_group_by() {
        let rel = edges(20_000);
        let items = [
            (ScalarExpr::col("F"), "F".to_string()),
            (
                ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("ew"))),
                "s".to_string(),
            ),
            (
                ScalarExpr::Agg(
                    AggFunc::Count,
                    Box::new(ScalarExpr::binary(
                        BinOp::Add,
                        ScalarExpr::col("T"),
                        ScalarExpr::lit(1i64),
                    )),
                ),
                "c".to_string(),
            ),
        ];
        for par in [1, 4] {
            let mut s = ExecStats::new();
            let got = group_by(
                &Batch::from_relation(&rel),
                &["F".into()],
                &items,
                crate::profile::AggStrategy::Hash,
                par,
                &mut s,
            )
            .unwrap()
            .expect("single int key is eligible");
            assert!(got.1, "bare-column and Int `+` arguments are column-native");
            let got = got.0.to_relation();
            let mut s2 = ExecStats::new();
            let want = ops::group_by_par(
                &rel,
                &["F".into()],
                &items,
                crate::profile::AggStrategy::Hash,
                par,
                &mut s2,
            )
            .unwrap();
            assert_eq!(got.rows(), want.rows(), "par={par} (bit-identical sums)");
        }
    }

    #[test]
    fn global_aggregate_and_sort_strategy() {
        let rel = edges(1_000);
        let items = [(
            ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("ew"))),
            "s".to_string(),
        )];
        let mut s = ExecStats::new();
        let got = group_by(
            &Batch::from_relation(&rel),
            &[],
            &items,
            crate::profile::AggStrategy::Hash,
            1,
            &mut s,
        )
        .unwrap()
        .unwrap()
        .0
        .to_relation();
        let mut s2 = ExecStats::new();
        let want = ops::group_by(
            &rel,
            &[],
            &items,
            crate::profile::AggStrategy::Hash,
            &mut s2,
        )
        .unwrap();
        assert_eq!(got.rows(), want.rows());
        // sort aggregation bridges
        assert!(group_by(
            &Batch::from_relation(&rel),
            &[],
            &items,
            crate::profile::AggStrategy::Sort,
            1,
            &mut s,
        )
        .unwrap()
        .is_none());
    }

    #[test]
    fn project_shares_passthrough_columns() {
        let rel = edges(1_000);
        let b = Batch::from_relation(&rel);
        let items = [
            (ScalarExpr::col("F"), "F".to_string()),
            (ScalarExpr::lit(7i64), "seven".to_string()),
            (
                ScalarExpr::binary(BinOp::Mul, ScalarExpr::col("ew"), ScalarExpr::lit(2.0)),
                "d".to_string(),
            ),
        ];
        let mut s = ExecStats::new();
        let (got, typed) = project(&b, &items, 1, &mut s).unwrap();
        assert!(typed, "Float * literal is column-native");
        assert!(
            Arc::ptr_eq(&got.col_arc(0), &b.col_arc(0)),
            "zero-copy passthrough"
        );
        let want = ops::project(&rel, &items).unwrap();
        assert_eq!(got.to_relation().rows(), want.rows());
    }

    #[test]
    fn union_all_concatenates_columns() {
        let a = edges(100);
        let b = edges(50);
        let got = union_all(&Batch::from_relation(&a), &Batch::from_relation(&b))
            .unwrap()
            .to_relation();
        let want = ops::union_all(&a, &b).unwrap();
        assert_eq!(got.rows(), want.rows());
    }
}
