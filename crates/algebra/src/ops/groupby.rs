//! Group-by & aggregation (`_X G_Y` in the paper's notation) and window
//! aggregation (`partition by`, Table 1 row D).
//!
//! `group_by` emits one row per group; `window` emits one row per *input*
//! row — the distinction the paper stresses when explaining why
//! `partition by` alone cannot replace `group by` for graph processing
//! ("every tuple in a group has a tuple in the resulting relation",
//! Section 3).
//!
//! Rows group under storage equality on the key columns, as
//! `aio_storage::keyidx` defines it. Hash aggregation and window partitions
//! take dense group ids from [`KeyGroups`] — one key hash per row, no key
//! copied per row; a group's key values are read off its first row — and
//! keep accumulators in a vector indexed by group id. Parallel hash
//! aggregation groups each morsel on its own and merges the morsels' groups
//! in morsel order, then emits groups sorted by [`key_cmp`]. Sort
//! aggregation sorts row ids by [`key_cmp`] and cuts the runs with
//! [`keys_eq`].

use crate::agg::{Accumulator, AggFunc};
use crate::error::{AlgebraError, Result};
use crate::expr::ScalarExpr;
use crate::profile::AggStrategy;
use crate::stats::ExecStats;
use aio_storage::{key_cmp, keys_eq, KeyGroups, Relation, Schema, Value};

/// The select list compiled for grouped evaluation.
pub(crate) struct Compiled {
    /// One expression per item, aggregates extracted into `AggRef`s: over
    /// the synthetic row `[key values..]` for `group by` (plain column
    /// references remapped to group-key positions), over the input row for
    /// a window.
    pub(crate) items: Vec<ScalarExpr>,
    /// (function, bound argument over the input schema)
    pub(crate) aggs: Vec<(AggFunc, ScalarExpr)>,
}

impl Compiled {
    /// Fresh accumulators, one per aggregate.
    fn accumulators(&self) -> Vec<Accumulator> {
        self.aggs.iter().map(|(f, _)| f.accumulator()).collect()
    }

    /// Fold one input row into a group's accumulators.
    fn update(&self, accs: &mut [Accumulator], row: &[Value]) -> Result<()> {
        for (acc, (_, arg)) in accs.iter_mut().zip(&self.aggs) {
            acc.update(&arg.eval(row)?);
        }
        Ok(())
    }
}

/// Rewrite a bound expression: extract `Agg` nodes into `aggs`. Under
/// `group by` (`Some(group_cols)`) also remap group-column references to
/// their key position and reject references to non-grouped columns (the
/// SQL rule); a window (`None`) keeps every column reference.
fn rewrite(
    e: &ScalarExpr,
    group_cols: Option<&[usize]>,
    aggs: &mut Vec<(AggFunc, ScalarExpr)>,
) -> Result<ScalarExpr> {
    Ok(match e {
        ScalarExpr::Agg(f, inner) => {
            // inner stays bound against the *input* schema
            aggs.push((*f, (**inner).clone()));
            ScalarExpr::AggRef(aggs.len() - 1)
        }
        ScalarExpr::BoundCol(c) => match group_cols.map(|g| g.iter().position(|gc| gc == c)) {
            None => ScalarExpr::BoundCol(*c),
            Some(Some(k)) => ScalarExpr::BoundCol(k),
            Some(None) => {
                return Err(AlgebraError::Aggregate(format!(
                    "column #{c} is neither grouped nor aggregated"
                )))
            }
        },
        ScalarExpr::Lit(v) => ScalarExpr::Lit(v.clone()),
        ScalarExpr::Unary(op, x) => ScalarExpr::Unary(*op, Box::new(rewrite(x, group_cols, aggs)?)),
        ScalarExpr::Binary(op, l, r) => ScalarExpr::Binary(
            *op,
            Box::new(rewrite(l, group_cols, aggs)?),
            Box::new(rewrite(r, group_cols, aggs)?),
        ),
        ScalarExpr::Func(f, args) => ScalarExpr::Func(
            *f,
            args.iter()
                .map(|a| rewrite(a, group_cols, aggs))
                .collect::<Result<_>>()?,
        ),
        ScalarExpr::AggRef(_) => return Err(AlgebraError::Aggregate("nested AggRef".into())),
        ScalarExpr::Col(n) => {
            return Err(AlgebraError::Expr(format!(
                "unbound column {n} in group-by"
            )))
        }
    })
}

pub(crate) fn compile(
    input: &Schema,
    group_cols: Option<&[usize]>,
    items: &[(ScalarExpr, String)],
) -> Result<Compiled> {
    let mut aggs = Vec::new();
    let mut out = Vec::with_capacity(items.len());
    for (e, _) in items {
        out.push(rewrite(&e.bind(input)?, group_cols, &mut aggs)?);
    }
    Ok(Compiled { items: out, aggs })
}

/// One output row from a group's key values (in `group_cols` order) and
/// its accumulators.
fn finish_group(
    key: &[Value],
    accs: Vec<Accumulator>,
    c: &Compiled,
    out: &mut Relation,
) -> Result<()> {
    let agg_vals: Vec<Value> = accs.into_iter().map(Accumulator::finish).collect();
    let row: Vec<Value> = c
        .items
        .iter()
        .map(|e| e.eval_env(key, &agg_vals))
        .collect::<Result<_>>()?;
    out.rows_mut().push(row.into_boxed_slice());
    Ok(())
}

/// Group-by & aggregation. `group_refs` name the grouping columns (empty →
/// one global group); `items` are the select-list expressions, which may mix
/// grouped columns and aggregate calls. Serial (`par = 1`).
pub fn group_by(
    input: &Relation,
    group_refs: &[String],
    items: &[(ScalarExpr, String)],
    strategy: AggStrategy,
    stats: &mut ExecStats,
) -> Result<Relation> {
    group_by_par(input, group_refs, items, strategy, 1, stats)
}

/// [`group_by`] with an explicit worker-thread count. The hash strategy
/// aggregates each morsel into thread-local partial accumulators and merges
/// them in morsel order ([`Accumulator::merge`]); the global and sort paths
/// stay serial. Since hash output is sorted by group key either way, the
/// result rows are identical at every `par` (float sums are exactly the
/// serial ones at `par = 1` and deterministic for any fixed `par`).
pub fn group_by_par(
    input: &Relation,
    group_refs: &[String],
    items: &[(ScalarExpr, String)],
    strategy: AggStrategy,
    par: usize,
    stats: &mut ExecStats,
) -> Result<Relation> {
    stats.aggregations += 1;
    stats.rows_scanned += input.len() as u64;
    let group_cols: Vec<usize> = group_refs
        .iter()
        .map(|r| input.schema().index_of(r).map_err(Into::into))
        .collect::<Result<_>>()?;
    let c = compile(input.schema(), Some(&group_cols), items)?;
    let mut out = Relation::new(crate::plan::schema_of_items(items, input.schema()));
    let key_of =
        |row: &[Value]| -> Vec<Value> { group_cols.iter().map(|&g| row[g].clone()).collect() };

    if group_cols.is_empty() {
        // Global aggregate: exactly one output row, even on empty input.
        let mut accs = c.accumulators();
        for row in input.iter() {
            c.update(&mut accs, row)?;
        }
        finish_group(&[], accs, &c, &mut out)?;
        stats.rows_produced += 1;
        return Ok(out);
    }

    match strategy {
        AggStrategy::Hash => {
            // Each morsel groups its rows into thread-local partial
            // aggregates; partials merge into the first morsel's groups in
            // morsel order. With one morsel this is exactly the serial loop.
            let (mut partials, info) = crate::par::run_morsels(input.len(), par, |range| {
                let mut groups = KeyGroups::new(&group_cols);
                let mut accs: Vec<Vec<Accumulator>> = Vec::new();
                for row in &input.rows()[range] {
                    let (g, new) = groups.assign(row);
                    if new {
                        accs.push(c.accumulators());
                    }
                    c.update(&mut accs[g as usize], row)?;
                }
                Ok((groups, accs))
            })?;
            stats.note_parallel(&info);
            let (mut groups, mut accs) = partials.remove(0);
            for (part, part_accs) in partials {
                for (&first, from) in part.firsts().iter().zip(part_accs) {
                    match groups.assign(first) {
                        (_, true) => accs.push(from),
                        (g, false) => {
                            for (into, from) in accs[g as usize].iter_mut().zip(from) {
                                into.merge(from);
                            }
                        }
                    }
                }
            }
            // Output sorted by key, whatever the morsel split.
            let firsts = groups.firsts();
            let mut order: Vec<usize> = (0..firsts.len()).collect();
            order
                .sort_unstable_by(|&a, &b| key_cmp(firsts[a], &group_cols, firsts[b], &group_cols));
            for g in order {
                finish_group(
                    &key_of(firsts[g]),
                    std::mem::take(&mut accs[g]),
                    &c,
                    &mut out,
                )?;
            }
        }
        AggStrategy::Sort => {
            stats.sorts += 1;
            let rows = input.rows();
            let row = |i: &u32| &rows[*i as usize];
            let mut perm: Vec<u32> = (0..rows.len() as u32).collect();
            perm.sort_unstable_by(|a, b| key_cmp(row(a), &group_cols, row(b), &group_cols));
            for run in perm.chunk_by(|a, b| keys_eq(row(a), &group_cols, row(b), &group_cols)) {
                let mut accs = c.accumulators();
                for i in run {
                    c.update(&mut accs, row(i))?;
                }
                finish_group(&key_of(row(&run[0])), accs, &c, &mut out)?;
            }
        }
    }
    stats.rows_produced += out.len() as u64;
    Ok(out)
}

/// Window aggregation: `expr OVER (PARTITION BY cols)` — one output row per
/// input row, with aggregates computed over the row's partition. Non-agg
/// parts of `items` may reference *any* input column (unlike `group by`).
pub fn window(
    input: &Relation,
    partition_refs: &[String],
    items: &[(ScalarExpr, String)],
    stats: &mut ExecStats,
) -> Result<Relation> {
    stats.aggregations += 1;
    stats.rows_scanned += input.len() as u64;
    let part_cols: Vec<usize> = partition_refs
        .iter()
        .map(|r| input.schema().index_of(r).map_err(Into::into))
        .collect::<Result<_>>()?;

    let c = compile(input.schema(), None, items)?;

    // Pass 1: aggregate per partition.
    let (part_of, parts) = KeyGroups::of(input.rows(), &part_cols);
    let mut partitions: Vec<Vec<Accumulator>> =
        (0..parts.len()).map(|_| c.accumulators()).collect();
    for (row, &p) in input.iter().zip(&part_of) {
        c.update(&mut partitions[p as usize], row)?;
    }
    let finished: Vec<Vec<Value>> = partitions
        .into_iter()
        .map(|accs| accs.into_iter().map(Accumulator::finish).collect())
        .collect();

    // Pass 2: one output row per input row.
    let mut out = Relation::new(crate::plan::schema_of_items(items, input.schema()));
    for (row, &p) in input.iter().zip(&part_of) {
        let agg_vals = &finished[p as usize];
        let vals: Vec<Value> = c
            .items
            .iter()
            .map(|e| e.eval_env(row, agg_vals))
            .collect::<Result<_>>()?;
        out.rows_mut().push(vals.into_boxed_slice());
    }
    stats.rows_produced += out.len() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_storage::{edge_schema, row};

    fn edges() -> Relation {
        let mut e = Relation::new(edge_schema());
        e.extend([
            row![1, 2, 1.0],
            row![1, 3, 2.0],
            row![2, 3, 4.0],
            row![2, 3, 8.0],
        ])
        .unwrap();
        e
    }

    fn sum_ew_by_f(strategy: AggStrategy) -> Relation {
        let mut s = ExecStats::new();
        group_by(
            &edges(),
            &["F".into()],
            &[
                (ScalarExpr::col("F"), "F".into()),
                (
                    ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("ew"))),
                    "total".into(),
                ),
            ],
            strategy,
            &mut s,
        )
        .unwrap()
    }

    #[test]
    fn hash_and_sort_agg_agree() {
        let h = sum_ew_by_f(AggStrategy::Hash);
        let s = sum_ew_by_f(AggStrategy::Sort);
        assert!(h.same_rows_unordered(&s));
        assert_eq!(h.len(), 2);
        let totals: Vec<f64> = h.iter().map(|r| r[1].as_f64().unwrap()).collect();
        assert_eq!(totals, vec![3.0, 12.0]);
    }

    #[test]
    fn expression_around_aggregate() {
        // c * sum(ew) + (1-c)/n : the PageRank f1(·) shape (Eq. 9)
        let mut s = ExecStats::new();
        let out = group_by(
            &edges(),
            &["T".into()],
            &[
                (ScalarExpr::col("T"), "ID".into()),
                (
                    ScalarExpr::binary(
                        crate::expr::BinOp::Add,
                        ScalarExpr::binary(
                            crate::expr::BinOp::Mul,
                            ScalarExpr::lit(0.5),
                            ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("ew"))),
                        ),
                        ScalarExpr::lit(100.0),
                    ),
                    "w".into(),
                ),
            ],
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap();
        // T=2: 0.5*1+100 ; T=3: 0.5*14+100
        let ws: Vec<f64> = out.iter().map(|r| r[1].as_f64().unwrap()).collect();
        assert_eq!(ws, vec![100.5, 107.0]);
    }

    #[test]
    fn non_grouped_column_rejected() {
        let mut s = ExecStats::new();
        let err = group_by(
            &edges(),
            &["F".into()],
            &[(ScalarExpr::col("T"), "T".into())],
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap_err();
        assert!(matches!(err, AlgebraError::Aggregate(_)));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let mut s = ExecStats::new();
        let empty = Relation::new(edge_schema());
        let out = group_by(
            &empty,
            &[],
            &[
                (
                    ScalarExpr::Agg(AggFunc::Count, Box::new(ScalarExpr::lit(1i64))),
                    "n".into(),
                ),
                (
                    ScalarExpr::Agg(AggFunc::Max, Box::new(ScalarExpr::col("ew"))),
                    "m".into(),
                ),
            ],
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(0));
        assert!(out.rows()[0][1].is_null());
    }

    #[test]
    fn grouped_empty_input_yields_no_rows() {
        let mut s = ExecStats::new();
        let empty = Relation::new(edge_schema());
        let out = group_by(
            &empty,
            &["F".into()],
            &[(ScalarExpr::col("F"), "F".into())],
            AggStrategy::Sort,
            &mut s,
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn window_emits_one_row_per_input_row() {
        // sum(ew) over (partition by F) — the Fig. 9 building block
        let mut s = ExecStats::new();
        let out = window(
            &edges(),
            &["F".into()],
            &[
                (ScalarExpr::col("F"), "F".into()),
                (ScalarExpr::col("T"), "T".into()),
                (
                    ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("ew"))),
                    "p_sum".into(),
                ),
            ],
            &mut s,
        )
        .unwrap();
        assert_eq!(out.len(), 4, "partition by keeps every tuple");
        let by_f1: Vec<f64> = out
            .iter()
            .filter(|r| r[0].as_int() == Some(1))
            .map(|r| r[2].as_f64().unwrap())
            .collect();
        assert_eq!(by_f1, vec![3.0, 3.0]);
    }

    #[test]
    fn parallel_hash_agg_matches_serial() {
        // 20k rows, 97 groups, with NULL arguments sprinkled in
        let mut e = Relation::new(edge_schema());
        for i in 0..20_000i64 {
            if i % 11 == 0 {
                e.push(vec![Value::Int(i % 97), Value::Int(i), Value::Null].into_boxed_slice())
                    .unwrap();
            } else {
                e.push(row![i % 97, i, (i % 5) as f64]).unwrap();
            }
        }
        let items = [
            (ScalarExpr::col("F"), "F".to_string()),
            (
                ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("ew"))),
                "s".to_string(),
            ),
            (
                ScalarExpr::Agg(AggFunc::Count, Box::new(ScalarExpr::col("ew"))),
                "c".to_string(),
            ),
            (
                ScalarExpr::Agg(AggFunc::Min, Box::new(ScalarExpr::col("T"))),
                "lo".to_string(),
            ),
            (
                ScalarExpr::Agg(AggFunc::Max, Box::new(ScalarExpr::col("T"))),
                "hi".to_string(),
            ),
        ];
        let mut s0 = ExecStats::new();
        let serial = group_by(&e, &["F".into()], &items, AggStrategy::Hash, &mut s0).unwrap();
        assert_eq!(s0.parallel_ops, 0);
        for par in [2, 8] {
            let mut s = ExecStats::new();
            let p =
                group_by_par(&e, &["F".into()], &items, AggStrategy::Hash, par, &mut s).unwrap();
            assert_eq!(p.len(), serial.len());
            assert_eq!(s.parallel_ops, 1);
            for (a, b) in serial.iter().zip(p.iter()) {
                assert_eq!(a[0], b[0]);
                assert_eq!(a[2], b[2], "count");
                assert_eq!(a[3], b[3], "min");
                assert_eq!(a[4], b[4], "max");
                // float sums regroup across morsels; equal to high precision
                let (x, y) = (a[1].as_f64().unwrap(), b[1].as_f64().unwrap());
                assert!((x - y).abs() < 1e-9 * x.abs().max(1.0), "par={par}");
            }
        }
    }

    #[test]
    fn sort_agg_counts_a_sort() {
        let mut s = ExecStats::new();
        group_by(
            &edges(),
            &["F".into()],
            &[(ScalarExpr::col("F"), "F".into())],
            AggStrategy::Sort,
            &mut s,
        )
        .unwrap();
        assert_eq!(s.sorts, 1);
        assert_eq!(s.aggregations, 1);
    }
}
