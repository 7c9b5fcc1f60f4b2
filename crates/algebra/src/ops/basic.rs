//! The six basic relational-algebra operations (plus `distinct`).
//!
//! Section 4.1: "all the 4 relational algebra operations can be defined
//! using the 6 basic relational algebra operations (selection σ, projection
//! Π, union ∪, set difference −, Cartesian product ×, and rename ρ),
//! together with group-by & aggregation". These are those six.

use crate::error::{AlgebraError, Result};
use crate::expr::ScalarExpr;
use crate::stats::ExecStats;
use aio_storage::{KeyGroups, Relation};

/// σ — keep rows satisfying `pred` (unbound; bound here against the input).
/// Serial (`par = 1`).
pub fn select(input: &Relation, pred: &ScalarExpr) -> Result<Relation> {
    let mut stats = ExecStats::new();
    select_par(input, pred, 1, &mut stats)
}

/// [`select`] with an explicit worker-thread count: morsels filter into
/// per-morsel buffers concatenated in morsel order, so output order equals
/// the serial scan's. Non-deterministic predicates (`random()`) force the
/// serial path — the thread-local RNG stream must see rows in scan order.
pub fn select_par(
    input: &Relation,
    pred: &ScalarExpr,
    par: usize,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let bound = pred.bind(input.schema())?;
    let mut out = Relation::new(input.schema().clone());
    let par = if bound.is_deterministic() { par } else { 1 };
    let (bufs, info) = crate::par::run_morsels(input.len(), par, |range| {
        let mut rows = Vec::new();
        for row in input.rows().range(range) {
            if bound.eval_pred(row)? {
                rows.push(row.clone());
            }
        }
        Ok(rows)
    })?;
    stats.note_parallel(&info);
    for rows in bufs {
        out.extend(rows)?;
    }
    Ok(out)
}

/// Π — compute one output column per `(expr, alias)` item. Serial
/// (`par = 1`).
pub fn project(input: &Relation, items: &[(ScalarExpr, String)]) -> Result<Relation> {
    let mut stats = ExecStats::new();
    project_par(input, items, 1, &mut stats)
}

/// [`project`] with an explicit worker-thread count; same morsel contract
/// and `random()` gating as [`select_par`].
pub(crate) fn project_par(
    input: &Relation,
    items: &[(ScalarExpr, String)],
    par: usize,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let bound: Vec<ScalarExpr> = items
        .iter()
        .map(|(e, _)| e.bind(input.schema()))
        .collect::<Result<_>>()?;
    let mut out = Relation::new(crate::plan::schema_of_items(items, input.schema()));
    let par = if bound.iter().all(ScalarExpr::is_deterministic) {
        par
    } else {
        1
    };
    let (bufs, info) = crate::par::run_morsels(input.len(), par, |range| {
        let mut rows = Vec::new();
        for row in input.rows().range(range) {
            let vals: Vec<aio_storage::Value> =
                bound.iter().map(|e| e.eval(row)).collect::<Result<_>>()?;
            rows.push(vals.into_boxed_slice());
        }
        Ok(rows)
    })?;
    stats.note_parallel(&info);
    for rows in bufs {
        out.extend(rows)?;
    }
    Ok(out)
}

/// ρ — rename: re-qualify every column with `alias` (what `FROM t AS a`
/// does). Row data is shared chunk by chunk; only the schema changes.
pub fn rename(input: &Relation, alias: &str) -> Relation {
    input
        .clone()
        .with_schema(input.schema().with_qualifier(alias))
}

fn check_same_arity(a: &Relation, b: &Relation, op: &str) -> Result<()> {
    if a.schema().arity() != b.schema().arity() {
        return Err(AlgebraError::Plan(format!(
            "{op} of different arities: {} vs {}",
            a.schema().arity(),
            b.schema().arity()
        )));
    }
    Ok(())
}

/// ∪ (bag) — `UNION ALL`.
pub fn union_all(a: &Relation, b: &Relation) -> Result<Relation> {
    check_same_arity(a, b, "union all")?;
    let mut out = Relation::new(a.schema().clone());
    out.extend(a.iter().cloned())?;
    out.extend(b.iter().cloned())?;
    Ok(out)
}

/// ∪ (set) — `UNION`, eliminating duplicates (what PostgreSQL alone allows
/// across the initial and recursive queries, Table 1 row C).
pub fn union_distinct(a: &Relation, b: &Relation) -> Result<Relation> {
    let mut out = union_all(a, b)?;
    out.dedup_rows();
    Ok(out)
}

/// `DISTINCT` over one relation.
pub fn distinct(a: &Relation) -> Relation {
    let mut out = a.clone();
    out.dedup_rows();
    out
}

/// − — set difference (`EXCEPT`): rows of `a` not occurring in `b`,
/// deduplicated.
pub fn difference(a: &Relation, b: &Relation) -> Result<Relation> {
    check_same_arity(a, b, "except")?;
    // Group `b`'s rows first: a row of `a` is emitted iff it opens a group,
    // i.e. neither `b` nor an earlier row of `a` holds it.
    let all: Vec<usize> = (0..a.schema().arity()).collect();
    let mut groups = KeyGroups::new(&all);
    for row in b.iter() {
        groups.assign(row);
    }
    let mut out = Relation::new(a.schema().clone());
    for row in a.iter() {
        if groups.assign(row).1 {
            out.push(row.clone())?;
        }
    }
    Ok(out)
}

/// × — Cartesian product; output schema is the concatenation.
pub fn product(a: &Relation, b: &Relation) -> Result<Relation> {
    let schema = a.schema().join(b.schema());
    let mut out = Relation::new(schema);
    for ra in a.iter() {
        for rb in b.iter() {
            let mut row = Vec::with_capacity(ra.len() + rb.len());
            row.extend_from_slice(ra);
            row.extend_from_slice(rb);
            out.push(row.into_boxed_slice())?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use aio_storage::{node_schema, row, DataType, Schema, Value};

    fn nodes(pairs: &[(i64, f64)]) -> Relation {
        let mut r = Relation::new(node_schema());
        for &(id, w) in pairs {
            r.push(row![id, w]).unwrap();
        }
        r
    }

    #[test]
    fn select_filters_by_predicate() {
        let r = nodes(&[(1, 0.5), (2, 1.5), (3, 2.5)]);
        let p = ScalarExpr::binary(BinOp::Gt, ScalarExpr::col("vw"), ScalarExpr::lit(1.0));
        let out = select(&r, &p).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn project_computes_expressions() {
        let r = nodes(&[(1, 2.0)]);
        let out = project(
            &r,
            &[
                (ScalarExpr::col("ID"), "ID".into()),
                (
                    ScalarExpr::binary(BinOp::Mul, ScalarExpr::col("vw"), ScalarExpr::lit(10.0)),
                    "scaled".into(),
                ),
            ],
        )
        .unwrap();
        assert_eq!(out[0][1], Value::Float(20.0));
        assert_eq!(out.schema().index_of("scaled").unwrap(), 1);
    }

    #[test]
    fn rename_requalifies() {
        let r = nodes(&[(1, 2.0)]);
        let out = rename(&r, "V1");
        assert!(out.schema().index_of("V1.ID").is_ok());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn union_all_keeps_duplicates_union_removes() {
        let a = nodes(&[(1, 1.0), (2, 2.0)]);
        let b = nodes(&[(1, 1.0)]);
        assert_eq!(union_all(&a, &b).unwrap().len(), 3);
        assert_eq!(union_distinct(&a, &b).unwrap().len(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let a = nodes(&[(1, 1.0)]);
        let mut b = Relation::new(Schema::of(&[("x", DataType::Int)]));
        b.push(row![1]).unwrap();
        assert!(union_all(&a, &b).is_err());
        assert!(difference(&a, &b).is_err());
    }

    #[test]
    fn difference_is_set_semantics() {
        let a = nodes(&[(1, 1.0), (1, 1.0), (2, 2.0)]);
        let b = nodes(&[(2, 2.0)]);
        let out = difference(&a, &b).unwrap();
        assert_eq!(out.len(), 1, "duplicates collapsed, (2,2.0) removed");
    }

    #[test]
    fn product_concatenates() {
        let a = nodes(&[(1, 1.0), (2, 2.0)]);
        let b = nodes(&[(9, 9.0)]);
        let out = product(&a, &b).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().arity(), 4);
        assert_eq!(out[0][2], Value::Int(9));
    }

    #[test]
    fn distinct_dedups() {
        let a = nodes(&[(1, 1.0), (1, 1.0)]);
        assert_eq!(distinct(&a).len(), 1);
    }

    #[test]
    fn parallel_select_project_match_serial() {
        let mut r = Relation::new(node_schema());
        for i in 0..15_000i64 {
            r.push(row![i, (i % 13) as f64]).unwrap();
        }
        let p = ScalarExpr::binary(BinOp::Gt, ScalarExpr::col("vw"), ScalarExpr::lit(5.0));
        let items = [
            (ScalarExpr::col("ID"), "ID".to_string()),
            (
                ScalarExpr::binary(BinOp::Mul, ScalarExpr::col("vw"), ScalarExpr::lit(2.0)),
                "d".to_string(),
            ),
        ];
        let s_serial = select(&r, &p).unwrap();
        let p_serial = project(&r, &items).unwrap();
        for par in [2, 8] {
            let mut st = ExecStats::new();
            let s_par = select_par(&r, &p, par, &mut st).unwrap();
            assert_eq!(s_serial.rows(), s_par.rows(), "select par={par}");
            let p_par = project_par(&r, &items, par, &mut st).unwrap();
            assert_eq!(p_serial.rows(), p_par.rows(), "project par={par}");
            assert_eq!(st.parallel_ops, 2);
        }
    }

    #[test]
    fn random_predicate_stays_serial() {
        let mut r = Relation::new(node_schema());
        for i in 0..10_000i64 {
            r.push(row![i, 0.0]).unwrap();
        }
        let p = ScalarExpr::binary(
            BinOp::Lt,
            ScalarExpr::Func(crate::expr::Func::Random, vec![]),
            ScalarExpr::lit(0.5),
        );
        let mut st = ExecStats::new();
        select_par(&r, &p, 8, &mut st).unwrap();
        assert_eq!(st.parallel_ops, 0, "random() must not fan out");
    }
}
