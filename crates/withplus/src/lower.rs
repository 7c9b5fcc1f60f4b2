//! Lowering: with+ SELECT ASTs → algebra [`Plan`]s.
//!
//! Joins are recovered syntactically: equality conjuncts whose two sides are
//! *qualified* column references belonging to different FROM items become
//! equi-join keys (the paper's SQL always writes join conditions qualified,
//! e.g. `TC.T = E.F`). Everything else stays a residual selection.
//! `[NOT] IN` and `[NOT] EXISTS` subqueries in top-level WHERE conjuncts
//! become semi-/anti-joins — the anti-join spelling is the engine-level
//! choice studied in Exp-1 (Tables 6 & 7).

use crate::ast::{Expr, FromItem, JoinKind, SelectItem, SelectStmt};
use crate::error::{Result, WithPlusError};
use aio_algebra::ops::AntiJoinImpl;
use aio_algebra::{BinOp, Func, JoinType, Plan, ScalarExpr};
use aio_storage::Value;
use std::collections::HashMap;

/// Lowering context: parameter bindings and the anti-join spelling in use.
pub struct LowerCtx<'a> {
    pub params: &'a HashMap<String, Value>,
    pub anti_impl: AntiJoinImpl,
}

impl<'a> LowerCtx<'a> {
    pub fn new(params: &'a HashMap<String, Value>, anti_impl: AntiJoinImpl) -> Self {
        LowerCtx { params, anti_impl }
    }
}

/// Column names a SELECT will expose (used to type computed-by relations
/// and to find the output column of an IN-subquery).
pub fn infer_output_names(s: &SelectStmt) -> Vec<String> {
    s.items
        .iter()
        .enumerate()
        .map(|(i, it)| infer_item_name(it, i))
        .collect()
}

fn infer_item_name(it: &SelectItem, i: usize) -> String {
    if let Some(a) = &it.alias {
        return a.clone();
    }
    match &it.expr {
        Expr::Col(c) => c.rsplit('.').next().unwrap_or(c).to_string(),
        _ => format!("col{i}"),
    }
}

/// Split an expression into top-level AND conjuncts.
fn conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary(BinOp::And, l, r) => {
            conjuncts(l, out);
            conjuncts(r, out);
        }
        other => out.push(other.clone()),
    }
}

/// The alias a qualified column reference belongs to, if qualified.
fn qualifier(col: &str) -> Option<&str> {
    col.split_once('.').map(|(q, _)| q)
}

fn aliases_of(f: &FromItem, out: &mut Vec<String>) {
    match f {
        FromItem::Table { name, alias } => out.push(alias.clone().unwrap_or_else(|| name.clone())),
        FromItem::Join { left, right, .. } => {
            aliases_of(left, out);
            aliases_of(right, out);
        }
    }
}

fn in_aliases(aliases: &[String], q: &str) -> bool {
    aliases.iter().any(|a| a.eq_ignore_ascii_case(q))
}

/// Convert an AST expression to a scalar expression (no subqueries left).
pub fn to_scalar(e: &Expr, ctx: &LowerCtx<'_>) -> Result<ScalarExpr> {
    Ok(match e {
        Expr::Col(c) => ScalarExpr::Col(c.clone()),
        Expr::Lit(v) => ScalarExpr::Lit(v.clone()),
        Expr::Param(p) => {
            let v = ctx
                .params
                .get(p)
                .ok_or_else(|| WithPlusError::Restriction(format!("unbound parameter :{p}")))?;
            ScalarExpr::Lit(v.clone())
        }
        Expr::Unary(op, x) => ScalarExpr::Unary(*op, Box::new(to_scalar(x, ctx)?)),
        Expr::Binary(op, l, r) => ScalarExpr::Binary(
            *op,
            Box::new(to_scalar(l, ctx)?),
            Box::new(to_scalar(r, ctx)?),
        ),
        Expr::Func(name, args) => {
            let f = scalar_func(name)?;
            ScalarExpr::Func(
                f,
                args.iter()
                    .map(|a| to_scalar(a, ctx))
                    .collect::<Result<_>>()?,
            )
        }
        Expr::Agg {
            func,
            arg,
            over_partition_by,
        } => {
            if over_partition_by.is_some() {
                return Err(WithPlusError::Restriction(
                    "window aggregates are lowered separately".into(),
                ));
            }
            ScalarExpr::Agg(*func, Box::new(to_scalar(arg, ctx)?))
        }
        Expr::In { .. } | Expr::Exists { .. } => {
            return Err(WithPlusError::Restriction(
                "subqueries are only supported as top-level WHERE conjuncts".into(),
            ))
        }
    })
}

fn scalar_func(name: &str) -> Result<Func> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "sqrt" => Func::Sqrt,
        "abs" => Func::Abs,
        "ln" => Func::Ln,
        "exp" => Func::Exp,
        "floor" => Func::Floor,
        "ceil" => Func::Ceil,
        "coalesce" => Func::Coalesce,
        "least" => Func::Least,
        "greatest" => Func::Greatest,
        "random" | "rand" => Func::Random,
        other => {
            return Err(WithPlusError::Restriction(format!(
                "unknown function {other}"
            )))
        }
    })
}

/// Lower a full SELECT to a plan.
pub fn lower_select(s: &SelectStmt, ctx: &LowerCtx<'_>) -> Result<Plan> {
    // 1. FROM: left-deep fold of from items; WHERE equality conjuncts
    //    between qualified refs become join keys.
    let mut where_conjuncts = Vec::new();
    if let Some(w) = &s.where_clause {
        conjuncts(w, &mut where_conjuncts);
    }

    let mut iter = s.from.iter();
    let first = iter
        .next()
        .ok_or_else(|| WithPlusError::Restriction("FROM clause is empty".into()))?;
    let (mut plan, mut aliases) = lower_from_item(first, ctx)?;

    for item in iter {
        let (rplan, raliases) = lower_from_item(item, ctx)?;
        // find equi conjuncts connecting `aliases` with `raliases`
        let mut on: Vec<(String, String)> = Vec::new();
        let mut remaining = Vec::new();
        for c in where_conjuncts.drain(..) {
            if let Expr::Binary(BinOp::Eq, l, r) = &c {
                if let (Expr::Col(a), Expr::Col(b)) = (l.as_ref(), r.as_ref()) {
                    match (qualifier(a), qualifier(b)) {
                        (Some(qa), Some(qb))
                            if in_aliases(&aliases, qa) && in_aliases(&raliases, qb) =>
                        {
                            on.push((a.clone(), b.clone()));
                            continue;
                        }
                        (Some(qa), Some(qb))
                            if in_aliases(&raliases, qa) && in_aliases(&aliases, qb) =>
                        {
                            on.push((b.clone(), a.clone()));
                            continue;
                        }
                        _ => {}
                    }
                }
            }
            remaining.push(c);
        }
        where_conjuncts = remaining;
        plan = if on.is_empty() {
            Plan::Product {
                left: Box::new(plan),
                right: Box::new(rplan),
            }
        } else {
            Plan::Join {
                left: Box::new(plan),
                right: Box::new(rplan),
                on,
                residual: None,
                kind: JoinType::Inner,
            }
        };
        aliases.extend(raliases);
    }

    // 2. WHERE: subquery conjuncts → semi-/anti-joins, rest → selection.
    let mut residual: Option<ScalarExpr> = None;
    for c in where_conjuncts {
        match c {
            Expr::In {
                needle,
                subquery,
                negated,
            } => {
                let Expr::Col(needle_ref) = needle.as_ref() else {
                    return Err(WithPlusError::Restriction(
                        "IN subquery needle must be a column reference".into(),
                    ));
                };
                let out_col = infer_output_names(&subquery)
                    .into_iter()
                    .next()
                    .unwrap_or_else(|| "col0".into());
                let sub_plan = lower_select(&subquery, ctx)?;
                let on = vec![(needle_ref.clone(), out_col)];
                plan = if negated {
                    Plan::AntiJoin {
                        left: Box::new(plan),
                        right: Box::new(sub_plan),
                        on,
                        imp: ctx.anti_impl,
                    }
                } else {
                    Plan::SemiJoin {
                        left: Box::new(plan),
                        right: Box::new(sub_plan),
                        on,
                    }
                };
            }
            Expr::Exists { subquery, negated } => {
                let (sub, on) = decorrelate_exists(&subquery, &aliases)?;
                if on.is_empty() {
                    return Err(WithPlusError::Restriction(
                        "EXISTS subquery must correlate via equality on outer columns".into(),
                    ));
                }
                let sub_plan = lower_select(&sub, ctx)?;
                // Re-project the subquery to exactly the inner correlation
                // columns (EXISTS ignores its select list anyway); join on
                // their bare names.
                let (sub_plan, on_pairs) = project_correlation(sub_plan, &sub, &on)?;
                plan = if negated {
                    Plan::AntiJoin {
                        left: Box::new(plan),
                        right: Box::new(sub_plan),
                        on: on_pairs,
                        imp: ctx.anti_impl,
                    }
                } else {
                    Plan::SemiJoin {
                        left: Box::new(plan),
                        right: Box::new(sub_plan),
                        on: on_pairs,
                    }
                };
            }
            other => {
                let sc = to_scalar(&other, ctx)?;
                residual = Some(match residual {
                    Some(prev) => ScalarExpr::and(prev, sc),
                    None => sc,
                });
            }
        }
    }
    if let Some(pred) = residual {
        plan = Plan::Select {
            input: Box::new(plan),
            pred,
        };
    }

    // 3. Projection: window / aggregate / plain.
    let has_window = s.items.iter().any(|it| contains_window(&it.expr));
    let has_agg = s.items.iter().any(|it| contains_plain_agg(&it.expr));

    let star_only = s.items.len() == 1 && matches!(&s.items[0].expr, Expr::Col(c) if c == "*");

    if has_window {
        let partition = find_partition(&s.items)?;
        let items = lowered_items(&s.items, ctx, true)?;
        plan = Plan::Window {
            input: Box::new(plan),
            partition_by: partition,
            items,
        };
    } else if has_agg || !s.group_by.is_empty() {
        let mut items = lowered_items(&s.items, ctx, false)?;
        let visible: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();
        let having_pred = match &s.having {
            Some(h) => {
                // HAVING may reference select-list aliases *or* contain its
                // own aggregate calls; the latter become hidden columns of
                // the aggregate, projected away afterwards.
                let scalar = to_scalar(h, ctx)?;
                Some(extract_having_aggs(&scalar, &mut items))
            }
            None => None,
        };
        let hidden = items.len() > visible.len();
        plan = Plan::Aggregate {
            input: Box::new(plan),
            group_by: s.group_by.clone(),
            items,
        };
        if let Some(pred) = having_pred {
            plan = Plan::Select {
                input: Box::new(plan),
                pred,
            };
        }
        if hidden {
            plan = Plan::Project {
                input: Box::new(plan),
                items: visible
                    .into_iter()
                    .map(|n| (ScalarExpr::Col(n.clone()), n))
                    .collect(),
            };
        }
    } else if !star_only {
        let items = lowered_items(&s.items, ctx, false)?;
        plan = Plan::Project {
            input: Box::new(plan),
            items,
        };
    }

    if s.having.is_some() && !has_agg && s.group_by.is_empty() {
        return Err(WithPlusError::Restriction(
            "HAVING requires GROUP BY or aggregation".into(),
        ));
    }
    if s.distinct {
        plan = Plan::Distinct(Box::new(plan));
    }
    Ok(plan)
}

/// Replace aggregate calls inside a HAVING predicate with references to
/// hidden aggregate-output columns (appended to `items`).
fn extract_having_aggs(e: &ScalarExpr, items: &mut Vec<(ScalarExpr, String)>) -> ScalarExpr {
    match e {
        ScalarExpr::Agg(..) => {
            let name = format!("__having{}", items.len());
            items.push((e.clone(), name.clone()));
            ScalarExpr::Col(name)
        }
        ScalarExpr::Unary(op, x) => ScalarExpr::Unary(*op, Box::new(extract_having_aggs(x, items))),
        ScalarExpr::Binary(op, l, r) => ScalarExpr::Binary(
            *op,
            Box::new(extract_having_aggs(l, items)),
            Box::new(extract_having_aggs(r, items)),
        ),
        ScalarExpr::Func(f, args) => ScalarExpr::Func(
            *f,
            args.iter().map(|a| extract_having_aggs(a, items)).collect(),
        ),
        other => other.clone(),
    }
}

fn lower_from_item(f: &FromItem, ctx: &LowerCtx<'_>) -> Result<(Plan, Vec<String>)> {
    match f {
        FromItem::Table { name, alias } => {
            let plan = match alias {
                Some(a) => Plan::scan_as(name.clone(), a.clone()),
                None => Plan::scan(name.clone()),
            };
            let mut aliases = Vec::new();
            aliases_of(f, &mut aliases);
            Ok((plan, aliases))
        }
        FromItem::Join {
            left,
            right,
            kind,
            on,
        } => {
            let (lplan, mut laliases) = lower_from_item(left, ctx)?;
            let (rplan, raliases) = lower_from_item(right, ctx)?;
            let mut cs = Vec::new();
            conjuncts(on, &mut cs);
            let mut keys = Vec::new();
            let mut residual: Option<ScalarExpr> = None;
            for c in cs {
                if let Expr::Binary(BinOp::Eq, l, r) = &c {
                    if let (Expr::Col(a), Expr::Col(b)) = (l.as_ref(), r.as_ref()) {
                        match (qualifier(a), qualifier(b)) {
                            (Some(qa), Some(qb))
                                if in_aliases(&laliases, qa) && in_aliases(&raliases, qb) =>
                            {
                                keys.push((a.clone(), b.clone()));
                                continue;
                            }
                            (Some(qa), Some(qb))
                                if in_aliases(&raliases, qa) && in_aliases(&laliases, qb) =>
                            {
                                keys.push((b.clone(), a.clone()));
                                continue;
                            }
                            _ => {}
                        }
                    }
                }
                let sc = to_scalar(&c, ctx)?;
                residual = Some(match residual {
                    Some(prev) => ScalarExpr::and(prev, sc),
                    None => sc,
                });
            }
            let jt = match kind {
                JoinKind::Inner => JoinType::Inner,
                JoinKind::LeftOuter => JoinType::Left,
                JoinKind::FullOuter => JoinType::Full,
            };
            let plan = Plan::Join {
                left: Box::new(lplan),
                right: Box::new(rplan),
                on: keys,
                residual,
                kind: jt,
            };
            laliases.extend(raliases);
            Ok((plan, laliases))
        }
    }
}

fn contains_window(e: &Expr) -> bool {
    match e {
        Expr::Agg {
            over_partition_by: Some(_),
            ..
        } => true,
        Expr::Unary(_, x) => contains_window(x),
        Expr::Binary(_, l, r) => contains_window(l) || contains_window(r),
        Expr::Func(_, args) => args.iter().any(contains_window),
        _ => false,
    }
}

fn contains_plain_agg(e: &Expr) -> bool {
    match e {
        Expr::Agg {
            over_partition_by: None,
            ..
        } => true,
        Expr::Unary(_, x) => contains_plain_agg(x),
        Expr::Binary(_, l, r) => contains_plain_agg(l) || contains_plain_agg(r),
        Expr::Func(_, args) => args.iter().any(contains_plain_agg),
        Expr::Agg { arg, .. } => contains_plain_agg(arg),
        _ => false,
    }
}

/// All windowed aggregates in a statement must share a partition spec.
fn find_partition(items: &[SelectItem]) -> Result<Vec<String>> {
    let mut found: Option<Vec<String>> = None;
    fn walk(e: &Expr, found: &mut Option<Vec<String>>, conflict: &mut bool) {
        match e {
            Expr::Agg {
                over_partition_by: Some(p),
                ..
            } => match found {
                Some(prev) if prev != p => *conflict = true,
                Some(_) => {}
                None => *found = Some(p.clone()),
            },
            Expr::Unary(_, x) => walk(x, found, conflict),
            Expr::Binary(_, l, r) => {
                walk(l, found, conflict);
                walk(r, found, conflict);
            }
            Expr::Func(_, args) => args.iter().for_each(|a| walk(a, found, conflict)),
            _ => {}
        }
    }
    let mut conflict = false;
    for it in items {
        walk(&it.expr, &mut found, &mut conflict);
    }
    if conflict {
        return Err(WithPlusError::Restriction(
            "all window aggregates must share one PARTITION BY".into(),
        ));
    }
    found.ok_or_else(|| WithPlusError::Restriction("no window aggregate found".into()))
}

/// Convert select items; for window items the `over` wrapper is stripped
/// (the Window operator supplies the partition).
fn lowered_items(
    items: &[SelectItem],
    ctx: &LowerCtx<'_>,
    window: bool,
) -> Result<Vec<(ScalarExpr, String)>> {
    items
        .iter()
        .enumerate()
        .map(|(i, it)| {
            let name = infer_item_name(it, i);
            let expr = if window {
                to_scalar(&strip_over(&it.expr), ctx)?
            } else {
                to_scalar(&it.expr, ctx)?
            };
            Ok((expr, name))
        })
        .collect()
}

fn strip_over(e: &Expr) -> Expr {
    match e {
        Expr::Agg {
            func,
            arg,
            over_partition_by: Some(_),
        } => Expr::Agg {
            func: *func,
            arg: arg.clone(),
            over_partition_by: None,
        },
        Expr::Unary(op, x) => Expr::Unary(*op, Box::new(strip_over(x))),
        Expr::Binary(op, l, r) => {
            Expr::Binary(*op, Box::new(strip_over(l)), Box::new(strip_over(r)))
        }
        Expr::Func(n, args) => Expr::Func(n.clone(), args.iter().map(strip_over).collect()),
        other => other.clone(),
    }
}

/// Pull correlation equalities (inner-col = outer-col) out of an EXISTS
/// subquery's WHERE; returns the cleaned subquery and (outer, inner) pairs.
fn decorrelate_exists(
    sub: &SelectStmt,
    outer_aliases: &[String],
) -> Result<(SelectStmt, Vec<(String, String)>)> {
    let mut inner_aliases = Vec::new();
    for f in &sub.from {
        aliases_of(f, &mut inner_aliases);
    }
    let mut cs = Vec::new();
    if let Some(w) = &sub.where_clause {
        conjuncts(w, &mut cs);
    }
    let mut correlation = Vec::new();
    let mut kept: Vec<Expr> = Vec::new();
    for c in cs {
        if let Expr::Binary(BinOp::Eq, l, r) = &c {
            if let (Expr::Col(a), Expr::Col(b)) = (l.as_ref(), r.as_ref()) {
                let a_inner = qualifier(a).map(|q| in_aliases(&inner_aliases, q));
                let b_inner = qualifier(b).map(|q| in_aliases(&inner_aliases, q));
                let a_outer = qualifier(a).map(|q| in_aliases(outer_aliases, q));
                let b_outer = qualifier(b).map(|q| in_aliases(outer_aliases, q));
                match (a_inner, b_inner, a_outer, b_outer) {
                    (Some(true), Some(false), _, Some(true)) => {
                        correlation.push((b.clone(), a.clone()));
                        continue;
                    }
                    (Some(false), Some(true), Some(true), _) => {
                        correlation.push((a.clone(), b.clone()));
                        continue;
                    }
                    _ => {}
                }
            }
        }
        kept.push(c);
    }
    let mut cleaned = sub.clone();
    cleaned.where_clause = kept
        .into_iter()
        .reduce(|acc, c| Expr::Binary(BinOp::And, Box::new(acc), Box::new(c)));
    Ok((cleaned, correlation))
}

/// Re-project an EXISTS subquery to its inner correlation columns (EXISTS
/// ignores its select list) and produce the (outer, inner-output) join
/// pairs. The cleaned subquery must not aggregate.
fn project_correlation(
    plan: Plan,
    sub: &SelectStmt,
    on: &[(String, String)],
) -> Result<(Plan, Vec<(String, String)>)> {
    if !sub.group_by.is_empty() {
        return Err(WithPlusError::Restriction(
            "correlated EXISTS with aggregation is not supported".into(),
        ));
    }
    // strip the subquery's own projection; keep its joins and filters
    let inner = match plan {
        Plan::Project { input, .. } => *input,
        Plan::Distinct(input) => match *input {
            Plan::Project { input, .. } => *input,
            other => other,
        },
        other => other,
    };
    let mut items = Vec::with_capacity(on.len());
    let mut pairs = Vec::with_capacity(on.len());
    for (k, (outer, inner_ref)) in on.iter().enumerate() {
        let out_name = format!("corr{k}");
        items.push((ScalarExpr::Col(inner_ref.clone()), out_name.clone()));
        pairs.push((outer.clone(), out_name));
    }
    Ok((
        Plan::Project {
            input: Box::new(inner),
            items,
        },
        pairs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{Parser, Statement};
    use aio_algebra::{execute, oracle_like};
    use aio_storage::{edge_schema, node_schema, row, Catalog, Relation};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut e = Relation::new(edge_schema());
        e.extend([row![1, 2, 1.0], row![2, 3, 1.0], row![1, 3, 2.0]])
            .unwrap();
        c.create_table("E", e).unwrap();
        let mut v = Relation::new(node_schema());
        v.extend([row![1, 0.5], row![2, 1.5], row![3, 2.5]])
            .unwrap();
        c.create_table("V", v).unwrap();
        c
    }

    fn run(sql: &str) -> Relation {
        let Statement::Select(s) = Parser::parse_statement(sql).unwrap() else {
            panic!("expected select")
        };
        let params = HashMap::new();
        let ctx = LowerCtx::new(&params, AntiJoinImpl::NotExists);
        let plan = lower_select(&s, &ctx).unwrap();
        execute(&plan, &catalog(), &oracle_like()).unwrap().0
    }

    #[test]
    fn comma_join_recovered_from_where() {
        let out = run("select E.F, V.vw from E, V where E.T = V.ID");
        assert_eq!(out.len(), 3);
        assert!(out.schema().index_of("vw").is_ok());
    }

    #[test]
    fn where_residual_applies_after_join() {
        let out = run("select E.F from E, V where E.T = V.ID and V.vw > 2.0");
        // only V.ID = 3 survives the residual; edges (2,3) and (1,3) match
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn group_by_with_expression() {
        let out = run("select E.F, sum(E.ew) total from E group by E.F");
        assert_eq!(out.len(), 2);
        let f1 = out.iter().find(|r| r[0].as_int() == Some(1)).unwrap();
        assert_eq!(f1[1].as_f64(), Some(3.0));
    }

    #[test]
    fn not_in_subquery_becomes_anti_join() {
        // nodes with no incoming edges
        let out = run("select ID from V where ID not in (select E.T from E)");
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0].as_int(), Some(1));
    }

    #[test]
    fn in_subquery_becomes_semi_join() {
        let out = run("select ID from V where ID in (select E.T from E)");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn correlated_not_exists() {
        let out = run("select ID from V where not exists (select E.F from E where E.T = V.ID)");
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0].as_int(), Some(1));
    }

    #[test]
    fn left_outer_join_null_filter() {
        let out = run("select V.ID from V left outer join E on V.ID = E.T where E.T is null");
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0].as_int(), Some(1));
    }

    #[test]
    fn select_star_passthrough() {
        let out = run("select * from V");
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema().arity(), 2);
    }

    #[test]
    fn distinct_dedups() {
        let out = run("select distinct E.F f from E");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn window_partition_by_keeps_rows() {
        let out = run("select E.T, sum(E.ew) over (partition by E.T) s from E");
        assert_eq!(out.len(), 3, "one row per input row");
        // T=3 receives 1.0 + 2.0
        let t3: Vec<f64> = out
            .iter()
            .filter(|r| r[0].as_int() == Some(3))
            .map(|r| r[1].as_f64().unwrap())
            .collect();
        assert_eq!(t3, vec![3.0, 3.0]);
    }

    #[test]
    fn unbound_param_errors() {
        let Statement::Select(s) = Parser::parse_statement("select :c * vw from V").unwrap() else {
            panic!()
        };
        let params = HashMap::new();
        let ctx = LowerCtx::new(&params, AntiJoinImpl::NotExists);
        assert!(matches!(
            lower_select(&s, &ctx),
            Err(WithPlusError::Restriction(_))
        ));
    }

    #[test]
    fn params_substitute() {
        let Statement::Select(s) = Parser::parse_statement("select ID, :c * vw from V").unwrap()
        else {
            panic!()
        };
        let mut params = HashMap::new();
        params.insert("c".to_string(), Value::Float(2.0));
        let ctx = LowerCtx::new(&params, AntiJoinImpl::NotExists);
        let plan = lower_select(&s, &ctx).unwrap();
        let out = execute(&plan, &catalog(), &oracle_like()).unwrap().0;
        let v1 = out.iter().find(|r| r[0].as_int() == Some(1)).unwrap();
        assert_eq!(v1[1].as_f64(), Some(1.0));
    }

    #[test]
    fn infer_names() {
        let Statement::Select(s) =
            Parser::parse_statement("select E.F, E.T as dst, sum(ew) from E group by E.F, E.T")
                .unwrap()
        else {
            panic!()
        };
        assert_eq!(infer_output_names(&s), vec!["F", "dst", "col2"]);
    }
}
