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
//! consumer can tell them apart; `Joined` holds them with
//! the inputs until a consumer gathers the columns it needs — all of them
//! for the join itself, or the few an aggregate fused over it reads. An
//! MV-join whose aggregates are all semiring terms may gather none: `Pull`
//! folds a dense vector's groups off the matrix's adjacency, and `Push`
//! folds either join's pairs straight into their groups.

use crate::agg::{Accumulator, AggFunc, AggNum, GroupAcc, TypedAcc};
use crate::error::{AlgebraError, Result};
use crate::expr::{BinOp, Func, ScalarExpr, UnaryOp};
use crate::ops::groupby;
use crate::ops::join::{record_phases, JoinKeys, JoinPhases, JoinType};
use crate::semiring::Times;
use crate::stats::ExecStats;
use aio_storage::{Adjacency, Batch, ColumnVec, FxHashMap, NullMask, Schema, Value, GATHER_NULL};
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
/// whose non-NULL values span at most [`DIRECT_SPAN_FACTOR`] × the rows
/// (PageRank's `P.ID`: one slot per vertex) is direct-addressed, a slot per
/// key value; any other key is hashed. NULL keys are left out: SQL joins
/// never match them.
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

/// A batch join's output before any column is gathered: both inputs and
/// the matching pairs. The join's own consumer gathers every column
/// ([`Joined::gather`]); an aggregate fused over it gathers only the
/// columns it reads ([`Joined::project`], DESIGN §18). A side whose index
/// list is `0..len` — every row matched exactly once, in order, as each `E`
/// row does in PageRank's `E ⋈ P` — lends its columns (`Arc`) instead of
/// copying them.
pub(crate) struct Joined {
    sides: [Side; 2],
    schema: Schema,
}

struct Side {
    batch: Batch,
    idx: Vec<u32>,
    /// `idx` is `0..batch.len()`.
    whole: bool,
}

impl Joined {
    pub(crate) fn new(left: Batch, right: Batch, (lidx, ridx): Pairs) -> Joined {
        let side = |batch: Batch, idx: Vec<u32>| Side {
            // a fold, not `all`: no early exit, so it vectorizes
            whole: idx.len() == batch.len()
                && idx.iter().zip(0..).fold(0, |d, (&i, o)| d | i ^ o) == 0,
            batch,
            idx,
        };
        Joined {
            schema: left.schema().join(right.schema()),
            sides: [side(left, lidx), side(right, ridx)],
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.sides[0].idx.len()
    }

    /// The joined schema: left's columns, then right's.
    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Column `c` of the joined batch.
    fn column(&self, c: usize) -> Arc<ColumnVec> {
        let (side, c) = match c.checked_sub(self.sides[0].batch.schema().arity()) {
            Some(rc) => (&self.sides[1], rc),
            None => (&self.sides[0], c),
        };
        match side.whole {
            true => side.batch.col_arc(c),
            false => Arc::new(side.batch.col(c).gather(&side.idx)),
        }
    }

    /// The joined batch.
    pub(crate) fn gather(&self) -> Batch {
        self.project(&(0..self.schema.arity()).collect::<Vec<_>>())
    }

    /// Columns `cols` of the joined batch, in that order, under their names.
    pub(crate) fn project(&self, cols: &[usize]) -> Batch {
        let names = cols.iter().map(|&c| self.schema.columns()[c].clone());
        let data = cols.iter().map(|&c| self.column(c)).collect();
        Batch::from_columns(Schema::new(names.collect()), data, self.len())
    }

    /// [`Batch::approx_bytes`] of the joined batch, estimated from its
    /// sources without gathering it.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let n = self.len() as u64;
        (self.sides.iter())
            .flat_map(|s| s.batch.columns())
            .map(|c| c.approx_bytes() * n / (c.len() as u64).max(1))
            .sum()
    }
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

/// The MV-join `γ_{key; ⊕(a ⊙ b)}(A ⋈ C)` as a pull SpMV (DESIGN §18),
/// its data checked: the matrix `A` (the join's left input) has a NULL-free
/// `Int` join key; the vector `C` (its right input) has a NULL-free `Int`
/// key whose values are unique and direct-addressed ([`HashBuild`]'s
/// slots); and every term `⊕(a ⊙ b)` has `⊙` ∈ {`*`, `+`} over two NULL-free
/// `Int` / `Float` columns. [`Pull::run`] folds the terms over the
/// matrix's adjacency on the group key.
pub(crate) struct Pull<'a> {
    /// The matrix's join key per row.
    keys: &'a [i64],
    /// The vector row of key `k` is `slots[k - lo]` ([`NO_ROW`]: none).
    lo: i64,
    slots: Vec<u32>,
    /// Every slot holds a vector row.
    full: bool,
    /// The matrix's group key per row.
    group: &'a [i64],
    terms: Vec<(AggFunc, Times, Operands<'a>)>,
    /// Matrix and vector rows.
    rows: [usize; 2],
}

/// A term `a ⊙ b`'s operands, one a column of the vector and the other of
/// the matrix, in the type `eval_binary` computes `a ⊙ b` in: `Int` when
/// both are `Int`, else `Float` (an `Int` operand promoted).
enum Operands<'a> {
    Int(Lanes<'a, i64>),
    Float(Lanes<'a, f64>),
}

/// The vector operand — for the pull re-indexed by key slot (slot `s` holds
/// the value of the vector row `slots[s]`, so a matrix row finds it at its
/// key's slot), for the push one per vector row — and the matrix operand as
/// its column; `swap` when the matrix operand is `a`.
struct Lanes<'a, T: Clone> {
    vector: Cow<'a, [T]>,
    matrix: Cow<'a, [T]>,
    swap: bool,
}

/// `vals` (one per vector row) re-indexed by key slot when `slots` are
/// given; a slot without a row holds the zero.
fn by_slot<'a, T: Copy + Default>(slots: Option<&[u32]>, vals: Cow<'a, [T]>) -> Cow<'a, [T]> {
    let Some(slots) = slots else {
        return vals;
    };
    (slots.iter())
        .map(|&j| vals.get(j as usize).copied().unwrap_or_default())
        .collect()
}

/// Every term's [`Operands`] when `⊕` ∈ {`sum`, `min`, `max`}, `⊙` ∈ {`*`,
/// `+`} and its operands are a NULL-free `Int` / `Float` column of each
/// side (`terms` as for [`Pull::prepare`]); the vector's operand re-indexed
/// by `slots` when given.
fn operands<'a>(
    matrix: &'a Batch,
    vector: &'a Batch,
    terms: &[(AggFunc, Times, [usize; 2])],
    slots: Option<&[u32]>,
) -> Option<Vec<(AggFunc, Times, Operands<'a>)>> {
    let width = matrix.schema().arity();
    let column = |b: &'a Batch, c: usize| match b.col(c) {
        ColumnVec::Int { nulls, .. } | ColumnVec::Float { nulls, .. } if nulls.any() => None,
        col @ (ColumnVec::Int { .. } | ColumnVec::Float { .. }) => Some(col),
        ColumnVec::Mixed(_) => None,
    };
    let mut out = Vec::with_capacity(terms.len());
    for &(plus, times, [a, b]) in terms {
        let ok = matches!(plus, AggFunc::Sum | AggFunc::Min | AggFunc::Max)
            && matches!(times, Times::Op(BinOp::Mul | BinOp::Add));
        // one operand on each side
        let swap = a < width;
        let (m, v) = if swap { (a, b) } else { (b, a) };
        let v = v.checked_sub(width).filter(|_| ok && m < width)?;
        let operands = match (column(matrix, m)?, column(vector, v)?) {
            (ColumnVec::Int { vals: mv, .. }, ColumnVec::Int { vals: vv, .. }) => {
                Operands::Int(Lanes {
                    vector: by_slot(slots, Cow::Borrowed(vv)),
                    matrix: Cow::Borrowed(mv),
                    swap,
                })
            }
            (mc, vc) => {
                let float = |col: &'a ColumnVec| match col {
                    ColumnVec::Float { vals, .. } => Cow::Borrowed(vals.as_slice()),
                    ColumnVec::Int { vals, .. } => vals.iter().map(|&x| x as f64).collect(),
                    ColumnVec::Mixed(_) => unreachable!("checked above"),
                };
                Operands::Float(Lanes {
                    vector: by_slot(slots, float(vc)),
                    matrix: float(mc),
                    swap,
                })
            }
        };
        out.push((plus, times, operands));
    }
    Some(out)
}

/// One NULL-free key column's values.
fn null_free<'a>(keys: IntKeys<'a>) -> Option<&'a [i64]> {
    match keys.as_slice() {
        [(vals, nulls)] if !nulls.any() => Some(*vals),
        _ => None,
    }
}

/// The MV-join's pairs folded straight into groups (DESIGN §18, "The push
/// fold"), its columns checked: the matrix's group-key column is NULL-free
/// `Int`, and every term passes [`Pull::prepare`]'s operand checks with its
/// two operands of one type.
pub(crate) struct Push<'a> {
    /// The matrix's group key per row.
    group: &'a [i64],
    terms: Vec<(AggFunc, Times, Operands<'a>)>,
}

impl<'a> Push<'a> {
    /// `group` and `terms` as for [`Pull::prepare`]; `None` when a column
    /// fails a check.
    pub(crate) fn prepare(
        matrix: &'a Batch,
        vector: &'a Batch,
        group: usize,
        terms: &[(AggFunc, Times, [usize; 2])],
    ) -> Option<Push<'a>> {
        let terms = operands(matrix, vector, terms, None)?;
        // an `Int` matrix operand beside a `Float` one would be converted
        // in full, O(|matrix|) for a few pairs: that gathers instead
        let borrowed = |o: &Operands<'_>| match o {
            Operands::Int(l) => matches!(l.matrix, Cow::Borrowed(_)),
            Operands::Float(l) => matches!(l.matrix, Cow::Borrowed(_)),
        };
        if !terms.iter().all(|(_, _, o)| borrowed(o)) {
            return None;
        }
        Some(Push {
            group: null_free(int_key_cols(matrix, &[group])?)?,
            terms,
        })
    }

    /// Fold every term over `pairs`, in matrix row order as [`hash_join`]
    /// and [`driven_join`] emit them: pair by pair, `a ⊙ b` into its key's
    /// group — the values the fused group-by folds, in its order, cut into
    /// its morsels and merged in morsel order — and the groups leave in key
    /// order ([`Pull::run`]'s `items` and schemas). Counts what that
    /// group-by counts.
    pub(crate) fn run(
        self,
        (lidx, ridx): &Pairs,
        items: &[ScalarExpr],
        schemas: [Schema; 2],
        par: usize,
        stats: &mut ExecStats,
    ) -> Result<Pulled> {
        let groups = Groups::of_keys(lidx.iter().map(|&l| self.group[l as usize]).collect());
        let cuts: Vec<usize> = (crate::par::morsel_ranges(lidx.len(), par).iter())
            .map(|r| r.start)
            .chain([lidx.len()])
            .collect();
        let pairs = (lidx.as_slice(), ridx.as_slice());
        let accs = (self.terms.iter())
            .map(|(plus, times, operands)| match operands {
                Operands::Int(o) => {
                    GroupAcc::Int(push_term(*plus, *times, o, pairs, &groups, &cuts))
                }
                Operands::Float(o) => {
                    GroupAcc::Float(push_term(*plus, *times, o, pairs, &groups, &cuts))
                }
            })
            .collect();
        groups.finish(accs, items, schemas, par, stats)
    }
}

/// One term of [`Push::run`]: `a ⊙ b` for every pair, folded pair by pair
/// into its group; the pairs are cut into parts at `cuts`, whose partials
/// merge per group in part order — the group-by's morsel merge.
fn push_term<T: AggNum>(
    plus: AggFunc,
    times: Times,
    lanes: &Lanes<'_, T>,
    (lidx, ridx): (&[u32], &[u32]),
    groups: &Groups<'_>,
    cuts: &[usize],
) -> TypedAcc<T> {
    let (xs, ys) = (&*lanes.vector, &*lanes.matrix);
    let pairs = lidx
        .iter()
        .zip(ridx)
        .map(|(&l, &r)| (xs[r as usize], ys[l as usize]));
    // `x` the vector operand, `y` the matrix operand, in `a ⊙ b`'s order
    let vals: Vec<T> = match (times, lanes.swap) {
        (Times::Op(BinOp::Mul), false) => pairs.map(|(x, y)| x.mul(y)).collect(),
        (Times::Op(BinOp::Mul), true) => pairs.map(|(x, y)| y.mul(x)).collect(),
        (_, false) => pairs.map(|(x, y)| x.add(y)).collect(),
        (_, true) => pairs.map(|(x, y)| y.add(x)).collect(),
    };
    let (of, lo, n) = (&*groups.of, groups.lo, groups.len);
    let mut acc = TypedAcc::new(plus, n);
    for (i, w) in cuts.windows(2).enumerate() {
        let part = (w[0]..w[1]).map(|p| (of[p].wrapping_sub(lo) as u32, vals[p]));
        if i == 0 {
            acc.fold(part);
        } else {
            let mut next = TypedAcc::new(plus, n);
            next.fold(part);
            (0..n).for_each(|g| acc.merge_group(g, &next, g));
        }
    }
    acc
}

/// The pull's or the push's output: the aggregate's result, whether it was typed,
/// and the join's schema and pair count.
pub(crate) struct Pulled {
    pub(crate) out: Batch,
    pub(crate) typed: bool,
    schema: Schema,
    pairs: usize,
}

/// The group of every matrix row, read off the adjacency on the group key:
/// row `r`'s group is slot `of[r] - lo` of `len`, and slots ascend with the
/// key. Over a dense key span `of` is the key column itself and slot `g`
/// holds key `lo + g`; otherwise `of` numbers each row by its key's run in
/// ascending key order, and slot `g` holds `keys[g]`.
struct Groups<'a> {
    of: Cow<'a, [i64]>,
    lo: i64,
    len: usize,
    keys: Option<Vec<i64>>,
}

impl<'a> Groups<'a> {
    fn of(adjacency: &Adjacency, column: &'a [i64]) -> Groups<'a> {
        if let Some((lo, len)) = adjacency.dense_span() {
            return Groups {
                of: Cow::Borrowed(column),
                lo,
                len,
                keys: None,
            };
        }
        let (mut of, mut keys) = (vec![0; column.len()], Vec::new());
        for (g, (k, [base, tail])) in adjacency.walk().enumerate() {
            keys.push(k);
            for &r in base.iter().chain(tail) {
                of[r as usize] = g as i64;
            }
        }
        Groups {
            of: Cow::Owned(of),
            lo: 0,
            len: keys.len(),
            keys: Some(keys),
        }
    }

    /// Over one key per pair, numbered in key order: direct-addressed,
    /// slot `k - lo`, when the keys span at most 4 × [`DIRECT_SPAN_FACTOR`]
    /// slots per pair — a frontier's few pairs spread over a wide key range,
    /// and slots left empty cost less than sorting — else by rank among
    /// the sorted keys.
    fn of_keys(mut keys: Vec<i64>) -> Groups<'static> {
        if let Some((lo, len)) = direct_span(keys.iter().copied(), 4 * keys.len()) {
            return Groups {
                of: Cow::Owned(keys),
                lo,
                len,
                keys: None,
            };
        }
        let mut sorted: Vec<(i64, u32)> = keys.iter().copied().zip(0..).collect();
        sorted.sort_unstable();
        let mut distinct = Vec::new();
        for (k, p) in sorted {
            if distinct.last() != Some(&k) {
                distinct.push(k);
            }
            keys[p as usize] = distinct.len() as i64 - 1;
        }
        Groups {
            of: Cow::Owned(keys),
            lo: 0,
            len: distinct.len(),
            keys: Some(distinct),
        }
    }

    fn key(&self, g: usize) -> i64 {
        self.keys
            .as_ref()
            .map_or(self.lo.wrapping_add(g as i64), |k| k[g])
    }

    /// The aggregate's half of the pull and the push, once every term has
    /// folded one value per pair: the groups holding a value leave in slot
    /// order, which is key order, through group-by's finishing half —
    /// `items` (compiled for grouped evaluation) under `out`, the
    /// aggregate's schema. Counts what the typed group-by over the pairs
    /// counts.
    fn finish(
        &self,
        accs: Vec<GroupAcc>,
        items: &[ScalarExpr],
        [joined, out]: [Schema; 2],
        par: usize,
        stats: &mut ExecStats,
    ) -> Result<Pulled> {
        let counts = match &accs[0] {
            GroupAcc::Int(a) => a.counts(),
            GroupAcc::Float(a) => a.counts(),
            GroupAcc::Boxed(_) => unreachable!("terms are typed"),
        };
        let pairs = counts.iter().sum::<i64>() as usize;
        let groups: Vec<(Option<i64>, u32)> = (counts.iter().enumerate())
            .filter(|(_, &n)| n > 0)
            .map(|(g, _)| (Some(self.key(g)), g as u32))
            .collect();
        stats.aggregations += 1;
        stats.rows_scanned += pairs as u64;
        stats.note_parallel(&crate::par::ParInfo::of(pairs, par));
        let (out, typed) = emit(true, &groups, accs, items, out, stats)?;
        Ok(Pulled {
            out,
            typed,
            schema: joined,
            pairs,
        })
    }
}

impl<'a> Pull<'a> {
    /// `group`: the matrix's group-key column. `terms`: per aggregate in
    /// compile order, `⊕`, `⊙` and the two operand columns of the joined
    /// schema (the matrix's columns first). `None` when the data fails a
    /// check.
    pub(crate) fn prepare(
        matrix: &'a Batch,
        vector: &'a Batch,
        keys: &JoinKeys,
        group: usize,
        terms: &[(AggFunc, Times, [usize; 2])],
    ) -> Option<Pull<'a>> {
        let fkeys = null_free(int_key_cols(matrix, &keys.left)?)?;
        let tkeys = null_free(int_key_cols(matrix, &[group])?)?;
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
        let pulled = operands(matrix, vector, terms, Some(&slots))?;
        Some(Pull {
            keys: fkeys,
            lo,
            full: !slots.contains(&NO_ROW),
            slots,
            group: tkeys,
            terms: pulled,
            rows: [matrix.len(), vector.len()],
        })
    }

    /// The vector row matrix row `r` joins, if any.
    #[inline]
    fn slot(&self, r: usize) -> Option<usize> {
        let j = *self
            .slots
            .get(self.keys[r].wrapping_sub(self.lo) as usize)?;
        (j != NO_ROW).then_some(j as usize)
    }

    /// Fold every term, matrix row by matrix row in ascending order: row
    /// `r`, joining vector row `j`, adds `a ⊙ b` at `(r, j)` to its group
    /// through [`TypedAcc::fold`]; a row joining none adds nothing. A
    /// group's values thus come in the order of its key's run, ascending
    /// rows — the order the fused aggregate folds them in, since its pairs
    /// come in matrix row order, one per matched row, and its groups leave
    /// in key order — so every group is bit for bit the fused one's. At
    /// `par` > 1 the rows are cut where the group-by's morsels over the
    /// pairs would cut them, and the morsels' partials merge in morsel
    /// order. The groups with a value leave through group-by's finishing
    /// half: `items` (compiled for grouped evaluation) under `out`, the
    /// aggregate's schema. Counts what the join over the pairs and the typed
    /// group-by over them count; `build_ns` (building or extending the
    /// adjacency) is the join's build phase, the rest its probe phase.
    pub(crate) fn run(
        self,
        adjacency: &Adjacency,
        build_ns: u64,
        items: &[ScalarExpr],
        [joined, out]: [Schema; 2],
        par: usize,
        stats: &mut ExecStats,
    ) -> Result<Pulled> {
        let probe_start = Instant::now();
        let [m, v] = self.rows;
        let groups = Groups::of(adjacency, self.group);
        // the rows at which each morsel of pairs starts
        let mut cuts = vec![0, m];
        if par > 1 && m >= crate::par::MIN_PARALLEL_ROWS {
            let matched: Vec<usize> = (0..m).filter(|&r| self.slot(r).is_some()).collect();
            let starts = crate::par::morsel_ranges(matched.len(), par);
            cuts = starts
                .iter()
                .map(|p| matched.get(p.start).map_or(m, |&r| r))
                .collect();
            cuts[0] = 0;
            cuts.push(m);
        }
        let accs: Vec<GroupAcc> = (self.terms.iter())
            .map(|(plus, times, operands)| match operands {
                Operands::Int(o) => GroupAcc::Int(self.term(*plus, *times, o, &groups, &cuts)),
                Operands::Float(o) => GroupAcc::Float(self.term(*plus, *times, o, &groups, &cuts)),
            })
            .collect();
        let pulled = groups.finish(accs, items, [joined, out], par, stats)?;
        stats.joins += 1;
        stats.rows_scanned += (m + v) as u64;
        stats.rows_produced += pulled.pairs as u64;
        stats.note_parallel(&crate::par::ParInfo::of(m, par));
        record_phases(JoinPhases {
            build_ns,
            probe_ns: probe_start.elapsed().as_nanos() as u64,
            morsels: 1,
        });
        Ok(pulled)
    }

    fn term<T: AggNum>(
        &self,
        plus: AggFunc,
        times: Times,
        lanes: &Lanes<'_, T>,
        groups: &Groups<'_>,
        cuts: &[usize],
    ) -> TypedAcc<T> {
        match (times, lanes.swap) {
            (Times::Op(BinOp::Mul), false) => self.fold(plus, T::mul, lanes, groups, cuts),
            (Times::Op(BinOp::Mul), true) => self.fold(plus, |x, y| y.mul(x), lanes, groups, cuts),
            (_, false) => self.fold(plus, T::add, lanes, groups, cuts),
            (_, true) => self.fold(plus, |x, y| y.add(x), lanes, groups, cuts),
        }
    }

    /// `times(x, y)`: `x` the vector operand, `y` the matrix operand.
    fn fold<T: AggNum>(
        &self,
        plus: AggFunc,
        times: impl Fn(T, T) -> T,
        lanes: &Lanes<'_, T>,
        groups: &Groups<'_>,
        cuts: &[usize],
    ) -> TypedAcc<T> {
        let (n, of, lo) = (groups.len, &*groups.of, groups.lo);
        let (slots, base, full) = (self.slots.as_slice(), self.lo, self.full);
        let (xs, ys) = (&*lanes.vector, &*lanes.matrix);
        let mut parts = cuts.windows(2).map(|rows| {
            let rows = rows[0]..rows[1];
            let mut part = TypedAcc::new(plus, n);
            let matrix = self.keys[rows.clone()]
                .iter()
                .zip(&of[rows.clone()])
                .zip(&ys[rows]);
            part.fold(matrix.filter_map(|((&k, &g), &y)| {
                let s = k.wrapping_sub(base) as usize;
                let x = *xs.get(s)?;
                if !full && slots[s] == NO_ROW {
                    return None;
                }
                Some((g.wrapping_sub(lo) as u32, times(x, y)))
            }));
            part
        });
        let mut acc = parts.next().expect("at least one morsel");
        for part in parts {
            for g in 0..n {
                acc.merge_group(g, &part, g);
            }
        }
        acc
    }
}

impl Pulled {
    /// The pairs the join stood for.
    pub(crate) fn len(&self) -> usize {
        self.pairs
    }

    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
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

/// A key span may exceed the row count by this factor and still be
/// direct-addressed (a morsel's group ids, a hash join's build): the slot
/// table (and every flat state array) then has at most this many entries
/// per input row.
pub(crate) const DIRECT_SPAN_FACTOR: usize = 4;

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

/// `(lo, span)` of `keys` when their span is at most
/// [`DIRECT_SPAN_FACTOR`] × `rows`, small enough to direct-address; `None`
/// otherwise, and when there is no key.
pub(crate) fn direct_span(keys: impl Iterator<Item = i64>, rows: usize) -> Option<(i64, usize)> {
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for k in keys {
        lo = lo.min(k);
        hi = hi.max(k);
    }
    let span = hi as i128 - lo as i128 + 1; // ≤ 0: no key
    let limit = (DIRECT_SPAN_FACTOR * rows).min(u32::MAX as usize - 1);
    (span > 0 && span <= limit as i128).then_some((lo, span as usize))
}

/// One pass over the key column. Direct-addressed — id = key − min + 1,
/// id 0 for the NULL key, so ids are already in key order — when the span
/// of the non-NULL keys is at most [`DIRECT_SPAN_FACTOR`] × the row count;
/// hashed (ids in first-seen order) otherwise. Which one runs is read off
/// the column and changes no result.
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
                let got = Joined::new(lb, rb, pairs).gather().to_relation();
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
