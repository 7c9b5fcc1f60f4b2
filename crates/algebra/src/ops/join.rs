//! θ-joins: inner, left-outer and full-outer, under three physical
//! strategies.
//!
//! The strategy is picked by the engine profile (hash join for
//! `oracle_like`/`db2_like`, sort-merge for `postgres_like`); a sorted index
//! lets the merge join skip its sort (Exp-A / Fig. 10). Joins with no
//! equality keys fall back to a nested loop over the residual predicate.
//!
//! The hash join is morsel-parallel (see [`crate::par`]): the build side is
//! partitioned into hash-disjoint sub-tables built on one thread each, and
//! the probe side is scanned in morsels whose output buffers concatenate in
//! morsel order — so the result is identical at every parallelism setting,
//! and `par = 1` *is* the serial pipeline. Probing is allocation-free: keys
//! are hashed and compared in place ([`KeyIndex`]), never materialized.
//!
//! SQL join semantics: NULL keys never match (even NULL = NULL).

use crate::error::Result;
use crate::expr::ScalarExpr;
use crate::profile::JoinStrategy;
use crate::stats::ExecStats;
use aio_storage::{key_cmp, key_has_null, keys_eq, KeyIndex, Relation, Row, Value};
use std::cell::Cell;
use std::time::Instant;

/// Phase breakdown of the most recent [`join_par`] on this thread: build
/// time (hash-table build, or both sorts for merge joins), probe time
/// (morsel scan, or the merge pass), and morsel count. The traced evaluator
/// reads this right after a `Plan::Join` node returns — joins evaluate
/// their children *before* calling `join_par`, so the last join on the
/// thread is always the node being closed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinPhases {
    pub build_ns: u64,
    pub probe_ns: u64,
    pub morsels: u64,
}

thread_local! {
    static LAST_JOIN: Cell<JoinPhases> = const { Cell::new(JoinPhases { build_ns: 0, probe_ns: 0, morsels: 0 }) };
}

/// Phase timings of the most recent join on this thread (zeros if the last
/// join took a nested-loop path, which has no build/probe distinction).
pub fn last_join_phases() -> JoinPhases {
    LAST_JOIN.with(|c| c.get())
}

pub(crate) fn record_phases(p: JoinPhases) {
    LAST_JOIN.with(|c| c.set(p));
}

/// Outer-join flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    /// Keep unmatched left rows, NULL-padded on the right (the anti-join
    /// implementation `left outer join ... where ... is null`).
    Left,
    /// Keep unmatched rows of both sides (the union-by-update
    /// implementation `full outer join` + `coalesce`).
    Full,
}

/// Resolved equi-join keys: positions into the left / right schemas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinKeys {
    pub left: Vec<usize>,
    pub right: Vec<usize>,
}

impl JoinKeys {
    pub fn resolve(left: &Relation, right: &Relation, on: &[(String, String)]) -> Result<JoinKeys> {
        JoinKeys::resolve_schemas(left.schema(), right.schema(), on)
    }

    /// [`JoinKeys::resolve`] against bare schemas — the columnar evaluator
    /// has no `Relation`s to hand.
    pub fn resolve_schemas(
        left: &aio_storage::Schema,
        right: &aio_storage::Schema,
        on: &[(String, String)],
    ) -> Result<JoinKeys> {
        let mut l = Vec::with_capacity(on.len());
        let mut r = Vec::with_capacity(on.len());
        for (ln, rn) in on {
            l.push(left.index_of(ln)?);
            r.push(right.index_of(rn)?);
        }
        Ok(JoinKeys { left: l, right: r })
    }
}

/// Row orders for merge joins: either a prebuilt index order or none
/// (the join sorts, paying for it).
#[derive(Default)]
pub struct JoinOrders<'a> {
    pub left: Option<&'a [u32]>,
    pub right: Option<&'a [u32]>,
}

fn concat(a: &Row, b: &Row) -> Row {
    let mut row = Vec::with_capacity(a.len() + b.len());
    row.extend_from_slice(a);
    row.extend_from_slice(b);
    row.into_boxed_slice()
}

fn null_row(arity: usize) -> Row {
    vec![Value::Null; arity].into_boxed_slice()
}

/// θ-join of `left` and `right` on equality `keys` plus an optional bound
/// `residual` predicate over the concatenated schema. Serial (`par = 1`).
#[allow(clippy::too_many_arguments)]
pub fn join(
    left: &Relation,
    right: &Relation,
    keys: &JoinKeys,
    residual: Option<&ScalarExpr>,
    jt: JoinType,
    strategy: JoinStrategy,
    orders: JoinOrders<'_>,
    stats: &mut ExecStats,
) -> Result<Relation> {
    join_par(left, right, keys, residual, jt, strategy, orders, 1, stats)
}

/// [`join`] with an explicit worker-thread count. Only the hash strategy
/// fans out (partition-parallel build, morsel-parallel probe); sort-merge
/// and nested-loop run serially regardless. Output is identical at every
/// `par`.
#[allow(clippy::too_many_arguments)]
pub fn join_par(
    left: &Relation,
    right: &Relation,
    keys: &JoinKeys,
    residual: Option<&ScalarExpr>,
    jt: JoinType,
    strategy: JoinStrategy,
    orders: JoinOrders<'_>,
    par: usize,
    stats: &mut ExecStats,
) -> Result<Relation> {
    stats.joins += 1;
    stats.rows_scanned += (left.len() + right.len()) as u64;
    record_phases(JoinPhases::default());
    let schema = left.schema().join(right.schema());
    let residual = match residual {
        Some(e) => Some(e.bind(&schema)?),
        None => None,
    };
    let keyed = !keys.left.is_empty();
    let out = match strategy {
        JoinStrategy::Hash if keyed => {
            hash_join(left, right, keys, &residual, jt, schema, par, stats)?
        }
        JoinStrategy::SortMerge if keyed => {
            merge_join(left, right, keys, &residual, jt, schema, orders, stats)?
        }
        _ => nested_loop(left, right, keys, &residual, jt, schema)?,
    };
    stats.rows_produced += out.len() as u64;
    Ok(out)
}

fn keep(residual: &Option<ScalarExpr>, row: &Row) -> Result<bool> {
    match residual {
        Some(p) => p.eval_pred(row),
        None => Ok(true),
    }
}

fn nested_loop(
    left: &Relation,
    right: &Relation,
    keys: &JoinKeys,
    residual: &Option<ScalarExpr>,
    jt: JoinType,
    schema: aio_storage::Schema,
) -> Result<Relation> {
    // Equality keys become part of the predicate of a plain nested loop
    // (with no keys every pair passes that part).
    let mut out = Relation::new(schema);
    let mut right_matched = vec![false; right.len()];
    let rpad = null_row(right.schema().arity());
    for lrow in left.iter() {
        let mut matched = false;
        if !key_has_null(lrow, &keys.left) {
            for (ri, rrow) in right.iter().enumerate() {
                if !keys_eq(rrow, &keys.right, lrow, &keys.left) {
                    continue;
                }
                let row = concat(lrow, rrow);
                if keep(residual, &row)? {
                    matched = true;
                    right_matched[ri] = true;
                    out.push(row)?;
                }
            }
        }
        if !matched && jt != JoinType::Inner {
            out.push(concat(lrow, &rpad))?;
        }
    }
    if jt == JoinType::Full {
        let lpad = null_row(left.schema().arity());
        for (ri, rrow) in right.iter().enumerate() {
            if !right_matched[ri] {
                out.push(concat(&lpad, rrow))?;
            }
        }
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn hash_join(
    left: &Relation,
    right: &Relation,
    keys: &JoinKeys,
    residual: &Option<ScalarExpr>,
    jt: JoinType,
    schema: aio_storage::Schema,
    par: usize,
    stats: &mut ExecStats,
) -> Result<Relation> {
    // Partition-parallel build: P hash-disjoint sub-tables, one thread
    // each. The index contents are independent of P.
    let build_parts = if par > 1 && right.len() >= crate::par::MIN_PARALLEL_ROWS {
        par
    } else {
        1
    };
    let build_start = Instant::now();
    let build = KeyIndex::build_partitioned(right, &keys.right, build_parts);
    let build_ns = build_start.elapsed().as_nanos() as u64;
    aio_metrics::global()
        .engine
        .join_build_rows
        .observe(right.len() as u64);

    // Morsel-parallel probe over the left side: each morsel fills its own
    // row buffer (plus, for full joins, its own matched-right bitmap), and
    // buffers concatenate in morsel order — the output equals the serial
    // scan's, row for row. The probe itself is allocation-free per row.
    let rarity = right.schema().arity();
    let nwords = right.len().div_ceil(64);
    let probe_start = Instant::now();
    let rpad = null_row(rarity);
    let (bufs, info) = crate::par::run_morsels(left.len(), par, |range| {
        let mut rows: Vec<Row> = Vec::new();
        let mut matched = vec![0u64; if jt == JoinType::Full { nwords } else { 0 }];
        for lrow in left.rows().range(range) {
            let mut any = false;
            if !key_has_null(lrow, &keys.left) {
                for ri in build.probe(right, lrow, &keys.left) {
                    let row = concat(lrow, &right[ri as usize]);
                    if keep(residual, &row)? {
                        any = true;
                        if jt == JoinType::Full {
                            matched[ri as usize / 64] |= 1 << (ri % 64);
                        }
                        rows.push(row);
                    }
                }
            }
            if !any && jt != JoinType::Inner {
                rows.push(concat(lrow, &rpad));
            }
        }
        Ok((rows, matched))
    })?;
    record_phases(JoinPhases {
        build_ns,
        probe_ns: probe_start.elapsed().as_nanos() as u64,
        morsels: info.morsels,
    });
    stats.note_parallel(&info);

    let mut out = Relation::new(schema);
    if jt == JoinType::Full {
        let mut right_matched = vec![0u64; nwords];
        for (rows, words) in bufs {
            out.extend(rows)?;
            for (acc, w) in right_matched.iter_mut().zip(&words) {
                *acc |= w;
            }
        }
        let lpad = null_row(left.schema().arity());
        for (ri, rrow) in right.iter().enumerate() {
            if right_matched[ri / 64] & (1 << (ri % 64)) == 0 {
                out.push(concat(&lpad, rrow))?;
            }
        }
    } else {
        for (rows, _) in bufs {
            out.extend(rows)?;
        }
    }
    Ok(out)
}

/// Sort both inputs by key (or reuse a provided index order) and merge.
/// Key comparisons are borrowed ([`key_cmp`] / [`keys_eq`]) — the run
/// detection allocates nothing.
#[allow(clippy::too_many_arguments)]
fn merge_join(
    left: &Relation,
    right: &Relation,
    keys: &JoinKeys,
    residual: &Option<ScalarExpr>,
    jt: JoinType,
    schema: aio_storage::Schema,
    orders: JoinOrders<'_>,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let build_start = Instant::now();
    let lorder = obtain_order(left, &keys.left, orders.left, stats);
    let rorder = obtain_order(right, &keys.right, orders.right, stats);
    let build_ns = build_start.elapsed().as_nanos() as u64;
    let probe_start = Instant::now();
    // flat references: the merge reads rows in key order
    let lrows: Vec<_> = left.iter().collect();
    let rrows: Vec<_> = right.iter().collect();
    let mut out = Relation::new(schema);
    let mut right_matched = vec![false; right.len()];
    let (mut i, mut j) = (0usize, 0usize);
    let mut left_unmatched: Vec<u32> = Vec::new();

    while i < lorder.len() && j < rorder.len() {
        let lrow = &lrows[lorder[i] as usize];
        let rrow = &rrows[rorder[j] as usize];
        // NULL keys sort first and never match; skip them (left side keeps
        // them for outer joins).
        if key_has_null(lrow, &keys.left) {
            if jt != JoinType::Inner {
                left_unmatched.push(lorder[i]);
            }
            i += 1;
            continue;
        }
        if key_has_null(rrow, &keys.right) {
            j += 1;
            continue;
        }
        match key_cmp(lrow, &keys.left, rrow, &keys.right) {
            std::cmp::Ordering::Less => {
                if jt != JoinType::Inner {
                    left_unmatched.push(lorder[i]);
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // find the run of equal keys on each side
                let mut i_end = i + 1;
                while i_end < lorder.len()
                    && keys_eq(lrows[lorder[i_end] as usize], &keys.left, lrow, &keys.left)
                {
                    i_end += 1;
                }
                let mut j_end = j + 1;
                while j_end < rorder.len()
                    && keys_eq(
                        rrows[rorder[j_end] as usize],
                        &keys.right,
                        rrow,
                        &keys.right,
                    )
                {
                    j_end += 1;
                }
                for &li in &lorder[i..i_end] {
                    let mut matched = false;
                    for &rj in &rorder[j..j_end] {
                        let row = concat(lrows[li as usize], rrows[rj as usize]);
                        if keep(residual, &row)? {
                            matched = true;
                            right_matched[rj as usize] = true;
                            out.push(row)?;
                        }
                    }
                    if !matched && jt != JoinType::Inner {
                        left_unmatched.push(li);
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    if jt != JoinType::Inner {
        left_unmatched.extend_from_slice(&lorder[i..]);
        let rpad = null_row(right.schema().arity());
        for li in left_unmatched {
            out.push(concat(lrows[li as usize], &rpad))?;
        }
    }
    if jt == JoinType::Full {
        let lpad = null_row(left.schema().arity());
        for (ri, rrow) in rrows.iter().enumerate() {
            if !right_matched[ri] {
                out.push(concat(&lpad, rrow))?;
            }
        }
    }
    record_phases(JoinPhases {
        build_ns,
        probe_ns: probe_start.elapsed().as_nanos() as u64,
        morsels: 1,
    });
    Ok(out)
}

/// Either an index scan (borrowed from the stored index order — no copy)
/// or a fresh sort (counted).
fn obtain_order<'a>(
    rel: &Relation,
    cols: &[usize],
    provided: Option<&'a [u32]>,
    stats: &mut ExecStats,
) -> std::borrow::Cow<'a, [u32]> {
    if let Some(p) = provided {
        stats.index_scans += 1;
        return std::borrow::Cow::Borrowed(p);
    }
    stats.sorts += 1;
    // flat references: the sort looks rows up at random
    let rows: Vec<_> = rel.iter().collect();
    let mut perm: Vec<u32> = (0..rows.len() as u32).collect();
    perm.sort_unstable_by(|&a, &b| key_cmp(rows[a as usize], cols, rows[b as usize], cols));
    std::borrow::Cow::Owned(perm)
}

/// Convenience: resolve names and join (used widely in tests and ops).
#[allow(clippy::too_many_arguments)]
pub fn join_on(
    left: &Relation,
    right: &Relation,
    on: &[(&str, &str)],
    jt: JoinType,
    strategy: JoinStrategy,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let owned: Vec<(String, String)> = on
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    let keys = JoinKeys::resolve(left, right, &owned)?;
    join(
        left,
        right,
        &keys,
        None,
        jt,
        strategy,
        JoinOrders::default(),
        stats,
    )
}

/// Validate that strategies agree (used by property tests too).
pub fn assert_strategies_agree(
    left: &Relation,
    right: &Relation,
    on: &[(&str, &str)],
    jt: JoinType,
) -> Result<bool> {
    let mut s = ExecStats::new();
    let h = join_on(left, right, on, jt, JoinStrategy::Hash, &mut s)?;
    let m = join_on(left, right, on, jt, JoinStrategy::SortMerge, &mut s)?;
    let n = join_on(left, right, on, jt, JoinStrategy::NestedLoop, &mut s)?;
    Ok(h.same_rows_unordered(&m) && m.same_rows_unordered(&n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use aio_storage::{edge_schema, node_schema, row};

    fn edges() -> Relation {
        let mut e = Relation::new(edge_schema().with_qualifier("E"));
        e.extend([
            row![1, 2, 1.0],
            row![2, 3, 1.0],
            row![1, 3, 1.0],
            row![4, 1, 1.0],
        ])
        .unwrap();
        e
    }

    fn nodes() -> Relation {
        let mut v = Relation::new(node_schema().with_qualifier("V"));
        v.extend([row![1, 0.0], row![2, 1.0], row![3, 2.0]])
            .unwrap();
        v
    }

    #[test]
    fn inner_join_all_strategies_agree() {
        assert!(
            assert_strategies_agree(&edges(), &nodes(), &[("E.T", "V.ID")], JoinType::Inner)
                .unwrap()
        );
    }

    #[test]
    fn inner_join_contents() {
        let mut s = ExecStats::new();
        let out = join_on(
            &edges(),
            &nodes(),
            &[("E.T", "V.ID")],
            JoinType::Inner,
            JoinStrategy::Hash,
            &mut s,
        )
        .unwrap();
        assert_eq!(out.len(), 4); // edge 4→1 joins V.ID=1
        assert_eq!(s.joins, 1);
        assert!(out.schema().index_of("E.F").is_ok());
        assert!(out.schema().index_of("V.vw").is_ok());
    }

    #[test]
    fn left_outer_pads_unmatched() {
        let mut s = ExecStats::new();
        // node 9 matches no edge target
        let mut v = nodes();
        v.push(row![9, 9.0]).unwrap();
        let out = join_on(
            &v,
            &edges(),
            &[("V.ID", "E.T")],
            JoinType::Left,
            JoinStrategy::SortMerge,
            &mut s,
        )
        .unwrap();
        let unmatched: Vec<_> = out
            .iter()
            .filter(|r| r[2].is_null())
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(unmatched, vec![9]);
    }

    #[test]
    fn full_outer_keeps_both_sides() {
        for strat in [
            JoinStrategy::Hash,
            JoinStrategy::SortMerge,
            JoinStrategy::NestedLoop,
        ] {
            let mut s = ExecStats::new();
            let mut v = nodes();
            v.push(row![9, 9.0]).unwrap();
            let mut w = Relation::new(node_schema().with_qualifier("W"));
            w.extend([row![1, 10.0], row![8, 80.0]]).unwrap();
            let out = join_on(&v, &w, &[("V.ID", "W.ID")], JoinType::Full, strat, &mut s).unwrap();
            // matched: 1. left-only: 2,3,9. right-only: 8.
            assert_eq!(out.len(), 5, "{strat:?}");
            assert!(out
                .iter()
                .any(|r| r[0].is_null() && r[2].as_int() == Some(8)));
        }
    }

    #[test]
    fn null_keys_never_match() {
        for strat in [
            JoinStrategy::Hash,
            JoinStrategy::SortMerge,
            JoinStrategy::NestedLoop,
        ] {
            let mut s = ExecStats::new();
            let mut a = Relation::new(node_schema().with_qualifier("A"));
            a.extend([row![1, 1.0]]).unwrap();
            a.push(vec![Value::Null, Value::Float(0.0)].into_boxed_slice())
                .unwrap();
            let mut b = Relation::new(node_schema().with_qualifier("B"));
            b.extend([row![1, 1.0]]).unwrap();
            b.push(vec![Value::Null, Value::Float(0.0)].into_boxed_slice())
                .unwrap();
            let out = join_on(&a, &b, &[("A.ID", "B.ID")], JoinType::Inner, strat, &mut s).unwrap();
            assert_eq!(out.len(), 1, "{strat:?}: only the 1=1 pair matches");
        }
    }

    #[test]
    fn residual_predicate_applies() {
        let mut s = ExecStats::new();
        let e = edges();
        let v = nodes();
        let keys = JoinKeys::resolve(&e, &v, &[("E.T".into(), "V.ID".into())]).unwrap();
        let residual = ScalarExpr::binary(BinOp::Gt, ScalarExpr::col("V.vw"), ScalarExpr::lit(0.5));
        let out = join(
            &e,
            &v,
            &keys,
            Some(&residual),
            JoinType::Inner,
            JoinStrategy::Hash,
            JoinOrders::default(),
            &mut s,
        )
        .unwrap();
        assert_eq!(out.len(), 3, "vw=0.0 target filtered");
    }

    #[test]
    fn no_keys_falls_back_to_nested_loop() {
        let mut s = ExecStats::new();
        let a = nodes();
        let b = edges();
        let keys = JoinKeys {
            left: vec![],
            right: vec![],
        };
        let out = join(
            &a,
            &b,
            &keys,
            None,
            JoinType::Inner,
            JoinStrategy::Hash,
            JoinOrders::default(),
            &mut s,
        )
        .unwrap();
        assert_eq!(out.len(), a.len() * b.len(), "cross product");
    }

    #[test]
    fn merge_join_counts_sorts_and_index_scans() {
        let e = edges();
        let v = nodes();
        let keys = JoinKeys::resolve(&e, &v, &[("E.T".into(), "V.ID".into())]).unwrap();
        let mut s = ExecStats::new();
        join(
            &e,
            &v,
            &keys,
            None,
            JoinType::Inner,
            JoinStrategy::SortMerge,
            JoinOrders::default(),
            &mut s,
        )
        .unwrap();
        assert_eq!(s.sorts, 2);
        assert_eq!(s.index_scans, 0);

        let idx = aio_storage::SortedIndex::build(&e, &[1]);
        let mut s2 = ExecStats::new();
        let out = join(
            &e,
            &v,
            &keys,
            None,
            JoinType::Inner,
            JoinStrategy::SortMerge,
            JoinOrders {
                left: Some(idx.order()),
                right: None,
            },
            &mut s2,
        )
        .unwrap();
        assert_eq!(s2.sorts, 1);
        assert_eq!(s2.index_scans, 1);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn join_phases_track_the_last_join_on_this_thread() {
        let mut s = ExecStats::new();
        join_on(
            &edges(),
            &nodes(),
            &[("E.T", "V.ID")],
            JoinType::Inner,
            JoinStrategy::Hash,
            &mut s,
        )
        .unwrap();
        assert_eq!(last_join_phases().morsels, 1, "serial probe is one morsel");
        join_on(
            &edges(),
            &nodes(),
            &[("E.T", "V.ID")],
            JoinType::Inner,
            JoinStrategy::SortMerge,
            &mut s,
        )
        .unwrap();
        assert_eq!(last_join_phases().morsels, 1);
        // nested loop (no keys) has no build/probe split: phases reset
        let keys = JoinKeys {
            left: vec![],
            right: vec![],
        };
        join(
            &nodes(),
            &edges(),
            &keys,
            None,
            JoinType::Inner,
            JoinStrategy::Hash,
            JoinOrders::default(),
            &mut s,
        )
        .unwrap();
        assert_eq!(last_join_phases(), JoinPhases::default());
    }

    #[test]
    fn parallel_hash_join_is_row_identical_to_serial() {
        // big enough that morsel splitting actually happens
        let mut l = Relation::new(node_schema().with_qualifier("L"));
        let mut r = Relation::new(node_schema().with_qualifier("R"));
        for i in 0..10_000i64 {
            l.push(row![i % 701, i as f64]).unwrap();
            if i % 3 == 0 {
                r.push(row![i % 701, -(i as f64)]).unwrap();
            }
        }
        let keys = JoinKeys::resolve(&l, &r, &[("L.ID".into(), "R.ID".into())]).unwrap();
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            let mut s1 = ExecStats::new();
            let serial = join(
                &l,
                &r,
                &keys,
                None,
                jt,
                JoinStrategy::Hash,
                JoinOrders::default(),
                &mut s1,
            )
            .unwrap();
            assert_eq!(s1.parallel_ops, 0, "serial path records no fan-out");
            for par in [2, 8] {
                let mut s = ExecStats::new();
                let p = join_par(
                    &l,
                    &r,
                    &keys,
                    None,
                    jt,
                    JoinStrategy::Hash,
                    JoinOrders::default(),
                    par,
                    &mut s,
                )
                .unwrap();
                assert_eq!(serial.rows(), p.rows(), "{jt:?} par={par}");
                assert_eq!(s.parallel_ops, 1, "{jt:?} par={par}");
                assert!(s.morsels > 1);
            }
        }
    }
}
