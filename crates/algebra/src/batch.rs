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

use crate::agg::Accumulator;
use crate::error::{AlgebraError, Result};
use crate::expr::{BinOp, ScalarExpr};
use crate::ops::groupby;
use crate::ops::join::{record_phases, JoinKeys, JoinPhases, JoinType};
use crate::stats::ExecStats;
use aio_storage::{
    Batch, ColumnVec, FxHashMap, Key, NullMask, Relation, Schema, Value, GATHER_NULL,
};
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Rows per processed chunk in [`select`], and the unit of the `batches=`
/// EXPLAIN annotation: 4096 rows keeps a handful of 8-byte columns inside
/// L1/L2 while amortizing per-chunk overhead, and matches the morsel
/// threshold ([`crate::par::MIN_PARALLEL_ROWS`]) so chunk ranges compose
/// with the morsel runner.
pub const BATCH_SIZE: usize = 4096;

/// Columnar scan: transpose the stored relation once, re-qualifying the
/// schema in place of `ops::rename` (no row clones).
pub(crate) fn scan(rel: &Relation, qualifier: &str) -> Batch {
    Batch::from_relation_with_schema(rel, rel.schema().with_qualifier(qualifier))
}

/// σ over a batch. Comparison trees on Int/Float columns evaluate to a
/// selection bitmap chunk-by-chunk (`batch_size` rows per chunk — the
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
    if let Some(vp) = VecPred::compile(&bound, input) {
        let mut kept: Vec<u32> = Vec::new();
        let chunk = batch_size.max(1);
        let mut start = 0;
        while start < input.len() {
            let len = chunk.min(input.len() - start);
            let words = vp.eval(input, start, len);
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

/// One side of a vectorizable comparison.
enum Operand {
    Col(usize),
    Int(i64),
    Float(f64),
}

impl Operand {
    fn compile(e: &ScalarExpr, b: &Batch) -> Option<Operand> {
        match e {
            ScalarExpr::BoundCol(i) => match b.col(*i) {
                ColumnVec::Int { .. } | ColumnVec::Float { .. } => Some(Operand::Col(*i)),
                _ => None,
            },
            ScalarExpr::Lit(Value::Int(v)) => Some(Operand::Int(*v)),
            ScalarExpr::Lit(Value::Float(f)) => Some(Operand::Float(*f)),
            _ => None,
        }
    }

    fn is_int(&self, b: &Batch) -> bool {
        match self {
            Operand::Col(i) => matches!(b.col(*i), ColumnVec::Int { .. }),
            Operand::Int(_) => true,
            Operand::Float(_) => false,
        }
    }
}

/// A predicate tree the bitmap engine can run: And/Or over comparisons of
/// Int/Float columns and numeric literals. SQL's unknown-filters-out rule
/// folds into the bitmap (`NULL cmp x` and `NaN cmp x` are never *true*,
/// so their bits stay 0), and since comparisons cannot error and `And`/
/// `Or` over three-valued comparison bits equal the bitwise forms, the
/// result matches per-row evaluation exactly. `Not` is excluded — its
/// unknown handling does not fold into a complement.
enum VecPred {
    Cmp(BinOp, Operand, Operand),
    And(Box<VecPred>, Box<VecPred>),
    Or(Box<VecPred>, Box<VecPred>),
}

impl VecPred {
    fn compile(e: &ScalarExpr, b: &Batch) -> Option<VecPred> {
        match e {
            ScalarExpr::Binary(BinOp::And, l, r) => Some(VecPred::And(
                Box::new(Self::compile(l, b)?),
                Box::new(Self::compile(r, b)?),
            )),
            ScalarExpr::Binary(BinOp::Or, l, r) => Some(VecPred::Or(
                Box::new(Self::compile(l, b)?),
                Box::new(Self::compile(r, b)?),
            )),
            ScalarExpr::Binary(op, l, r) if op.is_comparison() => Some(VecPred::Cmp(
                *op,
                Operand::compile(l, b)?,
                Operand::compile(r, b)?,
            )),
            _ => None,
        }
    }

    /// Truth bitmap for rows `[start, start + len)`; bit `i - start` set
    /// iff the predicate is *true* (not false, not unknown) on row `i`.
    fn eval(&self, b: &Batch, start: usize, len: usize) -> Vec<u64> {
        match self {
            VecPred::And(l, r) => {
                let mut a = l.eval(b, start, len);
                for (x, y) in a.iter_mut().zip(r.eval(b, start, len)) {
                    *x &= y;
                }
                a
            }
            VecPred::Or(l, r) => {
                let mut a = l.eval(b, start, len);
                for (x, y) in a.iter_mut().zip(r.eval(b, start, len)) {
                    *x |= y;
                }
                a
            }
            VecPred::Cmp(op, lhs, rhs) => {
                if lhs.is_int(b) && rhs.is_int(b) {
                    cmp_bitmap(*op, b, start, len, int_get(lhs, b), int_get(rhs, b))
                } else {
                    cmp_bitmap_f(*op, b, start, len, f64_get(lhs, b), f64_get(rhs, b))
                }
            }
        }
    }
}

fn int_get<'a>(o: &'a Operand, b: &'a Batch) -> impl Fn(usize) -> Option<i64> + 'a {
    move |i| match o {
        Operand::Col(c) => match b.col(*c) {
            ColumnVec::Int { vals, nulls } => (!nulls.get(i)).then(|| vals[i]),
            _ => unreachable!("is_int checked"),
        },
        Operand::Int(v) => Some(*v),
        Operand::Float(_) => unreachable!("is_int checked"),
    }
}

fn f64_get<'a>(o: &'a Operand, b: &'a Batch) -> impl Fn(usize) -> Option<f64> + 'a {
    move |i| match o {
        Operand::Col(c) => match b.col(*c) {
            ColumnVec::Int { vals, nulls } => (!nulls.get(i)).then(|| vals[i] as f64),
            ColumnVec::Float { vals, nulls } => (!nulls.get(i)).then(|| vals[i]),
            _ => unreachable!("operand columns are Int or Float"),
        },
        Operand::Int(v) => Some(*v as f64),
        Operand::Float(f) => Some(*f),
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

fn cmp_bitmap(
    op: BinOp,
    _b: &Batch,
    start: usize,
    len: usize,
    l: impl Fn(usize) -> Option<i64>,
    r: impl Fn(usize) -> Option<i64>,
) -> Vec<u64> {
    let mut words = vec![0u64; len.div_ceil(64)];
    for k in 0..len {
        if let (Some(a), Some(b)) = (l(start + k), r(start + k)) {
            if cmp_true(op, a.cmp(&b)) {
                words[k / 64] |= 1 << (k % 64);
            }
        }
    }
    words
}

/// Float comparison matching `Value::sql_cmp`: `partial_cmp` so any NaN
/// operand yields unknown (bit stays 0) — including for `Ne`, where Rust's
/// native `NaN != x` would wrongly be true.
fn cmp_bitmap_f(
    op: BinOp,
    _b: &Batch,
    start: usize,
    len: usize,
    l: impl Fn(usize) -> Option<f64>,
    r: impl Fn(usize) -> Option<f64>,
) -> Vec<u64> {
    let mut words = vec![0u64; len.div_ceil(64)];
    for k in 0..len {
        if let (Some(a), Some(b)) = (l(start + k), r(start + k)) {
            if let Some(o) = a.partial_cmp(&b) {
                if cmp_true(op, o) {
                    words[k / 64] |= 1 << (k % 64);
                }
            }
        }
    }
    words
}

/// Π over a batch. `BoundCol` items share the input column (`Arc` clone),
/// literals build one constant column; everything else evaluates row-major
/// in item order under the row engine's morsel contract, so errors and the
/// `random()` stream are identical to [`crate::ops::project_par`].
pub(crate) fn project(
    input: &Batch,
    items: &[(ScalarExpr, String)],
    par: usize,
    stats: &mut ExecStats,
) -> Result<Batch> {
    let bound: Vec<(ScalarExpr, &str)> = items
        .iter()
        .map(|(e, a)| Ok((e.bind(input.schema())?, a.as_str())))
        .collect::<Result<_>>()?;
    let schema = Schema::new(
        bound
            .iter()
            .map(|(e, a)| crate::ops::basic::out_column(e, a, input.schema()))
            .collect(),
    );
    let len = input.len();
    // Trivial items (column passthrough, literal) never error and consume
    // no randomness, so hoisting them out of the per-row loop is
    // unobservable.
    let nontrivial: Vec<usize> = bound
        .iter()
        .enumerate()
        .filter(|(_, (e, _))| {
            !matches!(e, ScalarExpr::BoundCol(_) | ScalarExpr::Lit(_))
        })
        .map(|(i, _)| i)
        .collect();
    let mut computed: Vec<Option<ColumnVec>> = (0..bound.len()).map(|_| None).collect();
    if !nontrivial.is_empty() {
        let par = if bound.iter().all(|(e, _)| e.is_deterministic()) {
            par
        } else {
            1
        };
        let arity = input.schema().arity();
        let (bufs, info) = crate::par::run_morsels(len, par, |range| {
            let mut outs: Vec<Vec<Value>> =
                nontrivial.iter().map(|_| Vec::with_capacity(range.len())).collect();
            let mut scratch = vec![Value::Null; arity];
            for i in range {
                input.fill_row(i, &mut scratch);
                for (slot, &item) in outs.iter_mut().zip(&nontrivial) {
                    slot.push(bound[item].0.eval(&scratch)?);
                }
            }
            Ok(outs)
        })?;
        stats.note_parallel(&info);
        for (k, &item) in nontrivial.iter().enumerate() {
            let col =
                ColumnVec::from_values(bufs.iter().flat_map(|morsel| morsel[k].iter()));
            computed[item] = Some(col);
        }
    }
    let mut cols: Vec<Arc<ColumnVec>> = Vec::with_capacity(bound.len());
    for (i, (e, _)) in bound.iter().enumerate() {
        cols.push(match computed[i].take() {
            Some(c) => Arc::new(c),
            None => match e {
                ScalarExpr::BoundCol(c) => input.col_arc(*c),
                ScalarExpr::Lit(v) => {
                    Arc::new(ColumnVec::from_values(std::iter::repeat_n(v, len)))
                }
                _ => unreachable!("non-trivial items were computed"),
            },
        });
    }
    Ok(Batch::from_columns(schema, cols, len))
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
    Ok(Batch::from_columns(a.schema().clone(), cols, a.len() + b.len()))
}

/// Hash equi-join keyed on primitive column slices. Eligible when every
/// key column on both sides is a dense Int column (1–2 keys, no residual —
/// the caller checks strategy and residual); `Ok(None)` bridges to the row
/// join. Build and probe order mirror `ops::join::hash_join` exactly:
/// right rows bucket in row order, morsel ranges split the probe, and
/// unmatched rows pad through [`GATHER_NULL`].
pub(crate) fn hash_join(
    left: &Batch,
    right: &Batch,
    keys: &JoinKeys,
    jt: JoinType,
    par: usize,
    stats: &mut ExecStats,
) -> Result<Option<Batch>> {
    let Some(lkeys) = int_key_cols(left, &keys.left) else {
        return Ok(None);
    };
    let Some(rkeys) = int_key_cols(right, &keys.right) else {
        return Ok(None);
    };
    stats.joins += 1;
    stats.rows_scanned += (left.len() + right.len()) as u64;
    record_phases(JoinPhases::default());
    let schema = left.schema().join(right.schema());

    let build_start = Instant::now();
    let mut table: FxHashMap<(i64, i64), Vec<u32>> = FxHashMap::default();
    table.reserve(right.len());
    for i in 0..right.len() {
        if let Some(k) = key_at(&rkeys, i) {
            table.entry(k).or_default().push(i as u32);
        }
    }
    let build_ns = build_start.elapsed().as_nanos() as u64;

    let probe_start = Instant::now();
    let nwords = right.len().div_ceil(64);
    let (bufs, info) = crate::par::run_morsels(left.len(), par, |range| {
        let mut lidx: Vec<u32> = Vec::new();
        let mut ridx: Vec<u32> = Vec::new();
        let mut matched = vec![0u64; if jt == JoinType::Full { nwords } else { 0 }];
        for i in range {
            let mut any = false;
            if let Some(k) = key_at(&lkeys, i) {
                if let Some(bucket) = table.get(&k) {
                    for &ri in bucket {
                        any = true;
                        if jt == JoinType::Full {
                            matched[ri as usize / 64] |= 1 << (ri % 64);
                        }
                        lidx.push(i as u32);
                        ridx.push(ri);
                    }
                }
            }
            if !any && jt != JoinType::Inner {
                lidx.push(i as u32);
                ridx.push(GATHER_NULL);
            }
        }
        Ok((lidx, ridx, matched))
    })?;
    record_phases(JoinPhases {
        build_ns,
        probe_ns: probe_start.elapsed().as_nanos() as u64,
        morsels: info.morsels,
    });
    stats.note_parallel(&info);

    let mut lidx: Vec<u32> = Vec::new();
    let mut ridx: Vec<u32> = Vec::new();
    let mut right_matched = vec![0u64; if jt == JoinType::Full { nwords } else { 0 }];
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

    let mut cols: Vec<Arc<ColumnVec>> = Vec::with_capacity(schema.arity());
    for c in left.columns() {
        cols.push(Arc::new(c.gather(&lidx)));
    }
    for c in right.columns() {
        cols.push(Arc::new(c.gather(&ridx)));
    }
    let out = Batch::from_columns(schema, cols, lidx.len());
    stats.rows_produced += out.len() as u64;
    Ok(Some(out))
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

/// Group-by & aggregation over `&[i64]` group keys. Eligible for the hash
/// strategy with no grouping (global) or one dense Int group column;
/// `Ok(None)` bridges to the row operator. Reuses the row engine's
/// compiled items, accumulators, morsel splits, and morsel-order merge, so
/// float sums are bit-identical at every `par`.
pub(crate) fn group_by(
    input: &Batch,
    group_refs: &[String],
    items: &[(ScalarExpr, String)],
    strategy: crate::profile::AggStrategy,
    par: usize,
    stats: &mut ExecStats,
) -> Result<Option<Batch>> {
    if strategy != crate::profile::AggStrategy::Hash {
        return Ok(None);
    }
    let group_cols: Vec<usize> = group_refs
        .iter()
        .map(|r| input.schema().index_of(r).map_err(Into::into))
        .collect::<Result<_>>()?;
    let int_key: Option<(&[i64], &NullMask)> = match group_cols.as_slice() {
        [] => None,
        [c] => match input.col(*c) {
            ColumnVec::Int { vals, nulls } => Some((vals.as_slice(), nulls)),
            _ => return Ok(None),
        },
        _ => return Ok(None),
    };

    stats.aggregations += 1;
    stats.rows_scanned += input.len() as u64;
    let c = groupby::compile(input.schema(), &group_cols, items)?;
    let schema = groupby::output_schema(input.schema(), &group_cols, &c);
    let mut out = Relation::new(schema);
    // Aggregate arguments that are plain column references read the column
    // directly; anything else evaluates on a scratch row.
    let arg_cols: Vec<Option<usize>> = c
        .aggs
        .iter()
        .map(|(_, arg)| match arg {
            ScalarExpr::BoundCol(i) => Some(*i),
            _ => None,
        })
        .collect();
    let needs_scratch = arg_cols.iter().any(Option::is_none);
    let arity = input.schema().arity();

    let Some((kvals, knulls)) = int_key else {
        // Global aggregate: serial, exactly one output row (even on empty
        // input) — same shape as the row path.
        let mut accs: Vec<Accumulator> =
            c.aggs.iter().map(|(f, _)| f.accumulator()).collect();
        let mut scratch = vec![Value::Null; arity];
        for i in 0..input.len() {
            if needs_scratch {
                input.fill_row(i, &mut scratch);
            }
            update_accs(&mut accs, &c.aggs, &arg_cols, input, i, &scratch)?;
        }
        groupby::finish_group(&Key(Vec::new().into_boxed_slice()), accs, &c, &mut out)?;
        stats.rows_produced += 1;
        return Ok(Some(Batch::from_relation(&out)));
    };

    // `Option<i64>` keys: `None` (NULL) sorts first, matching the storage
    // total order the row engine's `Key` sort uses.
    let (mut partials, info) = crate::par::run_morsels(input.len(), par, |range| {
        let mut groups: FxHashMap<Option<i64>, Vec<Accumulator>> = FxHashMap::default();
        let mut scratch = vec![Value::Null; arity];
        for i in range {
            if needs_scratch {
                input.fill_row(i, &mut scratch);
            }
            let key = (!knulls.get(i)).then(|| kvals[i]);
            let accs = groups
                .entry(key)
                .or_insert_with(|| c.aggs.iter().map(|(f, _)| f.accumulator()).collect());
            update_accs(accs, &c.aggs, &arg_cols, input, i, &scratch)?;
        }
        Ok(groups)
    })?;
    stats.note_parallel(&info);
    let mut groups = partials.remove(0);
    for partial in partials {
        for (key, accs) in partial {
            match groups.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (into, from) in e.get_mut().iter_mut().zip(accs) {
                        into.merge(from);
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(accs);
                }
            }
        }
    }
    let mut entries: Vec<(Option<i64>, Vec<Accumulator>)> = groups.into_iter().collect();
    entries.sort_unstable_by_key(|e| e.0);
    for (key, accs) in entries {
        let kv = key.map_or(Value::Null, Value::Int);
        groupby::finish_group(&Key(vec![kv].into_boxed_slice()), accs, &c, &mut out)?;
    }
    stats.rows_produced += out.len() as u64;
    Ok(Some(Batch::from_relation(&out)))
}

#[allow(clippy::too_many_arguments)]
fn update_accs(
    accs: &mut [Accumulator],
    aggs: &[(crate::agg::AggFunc, ScalarExpr)],
    arg_cols: &[Option<usize>],
    input: &Batch,
    i: usize,
    scratch: &[Value],
) -> Result<()> {
    for ((acc, (_, arg)), col) in accs.iter_mut().zip(aggs).zip(arg_cols) {
        match col {
            Some(ci) => acc.update(&input.col(*ci).value(i)),
            None => acc.update(&arg.eval(scratch)?),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::ops;
    use aio_storage::{edge_schema, row};

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
        let pred =
            ScalarExpr::binary(BinOp::Lt, ScalarExpr::col("T"), ScalarExpr::col("F"));
        let mut s = ExecStats::new();
        let full = select(&b, &pred, 1, usize::MAX, &mut s).unwrap().to_relation();
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
        for op in [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge] {
            let pred =
                ScalarExpr::binary(op, ScalarExpr::col("ew"), ScalarExpr::lit(1.0));
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
                let got = hash_join(
                    &Batch::from_relation(&lrel),
                    &Batch::from_relation(&rrel),
                    &keys,
                    jt,
                    par,
                    &mut s,
                )
                .unwrap()
                .expect("int keys are eligible")
                .to_relation();
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
            .expect("single int key is eligible")
            .to_relation();
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
        .to_relation();
        let mut s2 = ExecStats::new();
        let want = ops::group_by(&rel, &[], &items, crate::profile::AggStrategy::Hash, &mut s2)
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
        let got = project(&b, &items, 1, &mut s).unwrap();
        assert!(Arc::ptr_eq(&got.col_arc(0), &b.col_arc(0)), "zero-copy passthrough");
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
