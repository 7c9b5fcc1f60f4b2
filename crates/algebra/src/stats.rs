//! Execution statistics, collected by the plan evaluator, and the
//! cardinality estimator consumed by the cost-based optimizer.
//!
//! The paper reasons about performance in terms of "the number of
//! operations, such as join, aggregation, and union-by-update, in an
//! iteration" (Section 7.2). These counters let the harness report the same
//! quantities (e.g. PR = 1 MV-join + 1 union-by-update per iteration, HITS =
//! 2 MV-joins + 1 θ-join + 1 aggregation + 1 union-by-update).
//!
//! The estimator ([`estimate_nodes`], crate-internal `estimate`) applies
//! the textbook independence assumptions over the per-column sketches the
//! storage layer collects ([`aio_storage::RelationStats`]): equality
//! selectivity `1/NDV`, range selectivity by min/max interpolation,
//! conjunct independence, and equi-join cardinality
//! `|L|·|R| / max(ndv_L, ndv_R)` per key pair. Cross products and
//! single-table equality selections over uniform columns estimate exactly —
//! the anchor the optimizer property suite pins down. Each node's estimate
//! is a row count plus per-column state aligned with
//! `Plan::schema_over` on the child estimates — the estimator describes
//! no node's columns itself.

use crate::expr::{BinOp, ScalarExpr, UnaryOp};
use crate::plan::Plan;
use aio_storage::{Batch, Catalog, RelationStats, Schema, Value};
use std::fmt;

/// Counters accumulated over one execution (query or whole PSM run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows read out of stored tables.
    pub rows_scanned: u64,
    /// Rows produced by all operators.
    pub rows_produced: u64,
    /// Join operator invocations (θ-joins, products, outer joins).
    pub joins: u64,
    /// Group-by & aggregation invocations.
    pub aggregations: u64,
    /// Anti-join invocations.
    pub anti_joins: u64,
    /// Union-by-update applications.
    pub union_by_updates: u64,
    /// Rows those applications inserted or overwrote with a different row
    /// — what R's multiset gained, counted by the operator itself.
    pub ubu_changed_rows: u64,
    /// Sorts performed (merge joins without a usable index, sort aggs).
    pub sorts: u64,
    /// Index-order scans that avoided a sort (Fig. 10's win).
    pub index_scans: u64,
    /// Operator invocations that actually fanned out to >1 worker thread.
    pub parallel_ops: u64,
    /// Morsels executed by those parallel invocations.
    pub morsels: u64,
}

impl ExecStats {
    pub fn new() -> Self {
        ExecStats::default()
    }

    /// Merge another stats block into this one.
    pub fn absorb(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.rows_produced += other.rows_produced;
        self.joins += other.joins;
        self.aggregations += other.aggregations;
        self.anti_joins += other.anti_joins;
        self.union_by_updates += other.union_by_updates;
        self.ubu_changed_rows += other.ubu_changed_rows;
        self.sorts += other.sorts;
        self.index_scans += other.index_scans;
        self.parallel_ops += other.parallel_ops;
        self.morsels += other.morsels;
    }

    /// Record one operator invocation that ran with >1 worker.
    pub(crate) fn note_parallel(&mut self, info: &crate::par::ParInfo) {
        if info.parallel() {
            self.parallel_ops += 1;
            self.morsels += info.morsels;
            aio_metrics::hooks::parallel_op(info.morsels);
        }
    }

    /// Counters accumulated here but not in `earlier` (field-wise
    /// subtraction; `earlier` must be a previous snapshot of this block).
    /// This is how the PSM runner attributes stats to single iterations.
    pub fn delta_since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            rows_scanned: self.rows_scanned.saturating_sub(earlier.rows_scanned),
            rows_produced: self.rows_produced.saturating_sub(earlier.rows_produced),
            joins: self.joins.saturating_sub(earlier.joins),
            aggregations: self.aggregations.saturating_sub(earlier.aggregations),
            anti_joins: self.anti_joins.saturating_sub(earlier.anti_joins),
            union_by_updates: self
                .union_by_updates
                .saturating_sub(earlier.union_by_updates),
            ubu_changed_rows: self
                .ubu_changed_rows
                .saturating_sub(earlier.ubu_changed_rows),
            sorts: self.sorts.saturating_sub(earlier.sorts),
            index_scans: self.index_scans.saturating_sub(earlier.index_scans),
            parallel_ops: self.parallel_ops.saturating_sub(earlier.parallel_ops),
            morsels: self.morsels.saturating_sub(earlier.morsels),
        }
    }

    /// One-line summary for harness output (same text as `format!("{self}")`).
    pub fn summary(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scanned={} produced={} joins={} aggs={} anti={} ubu={} ubu_rows={} sorts={} idx_scans={} par_ops={} morsels={}",
            self.rows_scanned,
            self.rows_produced,
            self.joins,
            self.aggregations,
            self.anti_joins,
            self.union_by_updates,
            self.ubu_changed_rows,
            self.sorts,
            self.index_scans,
            self.parallel_ops,
            self.morsels
        )
    }
}

// ---------------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------------

/// Selectivity assumed for predicates the estimator cannot decompose.
pub const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;

/// Cardinality assumed for tables missing from the catalog (e.g. a
/// recursive relation estimated before its first materialization).
const UNKNOWN_ROWS: f64 = 1_000.0;

/// Per-column estimate state, positionally aligned with `schema`.
#[derive(Clone, Debug)]
pub(crate) struct ColEst {
    /// Estimated distinct values (≥ 1 whenever rows > 0).
    pub ndv: f64,
    /// Numeric lower bound, when the column's sketch has one.
    pub min: Option<f64>,
    /// Numeric upper bound, when the column's sketch has one.
    pub max: Option<f64>,
}

impl ColEst {
    fn unknown(rows: f64) -> ColEst {
        ColEst {
            ndv: rows.max(1.0),
            min: None,
            max: None,
        }
    }
}

/// The estimator's knowledge about one plan node's output.
#[derive(Clone, Debug)]
pub(crate) struct NodeEst {
    pub rows: f64,
    pub schema: Schema,
    pub cols: Vec<ColEst>,
}

impl NodeEst {
    /// Column estimate for `reference` (qualified or bare), if resolvable.
    fn col(&self, reference: &str) -> Option<&ColEst> {
        self.schema
            .index_of(reference)
            .ok()
            .and_then(|i| self.cols.get(i))
    }
}

/// `(rows, cols)` with every column's NDV capped at the (new, smaller) row
/// count — what a node that drops or merges rows does to its input columns.
fn capped(rows: f64, mut cols: Vec<ColEst>) -> (f64, Vec<ColEst>) {
    let cap = rows.max(1.0);
    for c in &mut cols {
        c.ndv = c.ndv.min(cap);
    }
    (rows, cols)
}

/// Estimated output cardinality for every node of `plan`, in the same
/// pre-order [`crate::explain::walk_pre_order`] (and the traced evaluator's
/// `node` span field) uses. Pure: reads only `catalog` statistics (falling
/// back to live row counts for analyzed-free tables), so repeated calls over
/// an unchanged catalog agree — the property EXPLAIN ANALYZE relies on to
/// re-derive the executed plan's annotations.
pub fn estimate_nodes(plan: &Plan, catalog: &Catalog) -> Vec<u64> {
    let mut out = Vec::new();
    node_est(plan, catalog, &mut out);
    out
}

/// Root-level estimate with schema/column detail, for the optimizer.
pub(crate) fn estimate(plan: &Plan, catalog: &Catalog) -> NodeEst {
    let mut scratch = Vec::new();
    node_est(plan, catalog, &mut scratch)
}

/// Selectivity of `pred` against `env` under independence assumptions.
pub(crate) fn selectivity(pred: &ScalarExpr, env: &NodeEst) -> f64 {
    let s = match pred {
        ScalarExpr::Binary(BinOp::And, l, r) => selectivity(l, env) * selectivity(r, env),
        ScalarExpr::Binary(BinOp::Or, l, r) => {
            let (a, b) = (selectivity(l, env), selectivity(r, env));
            a + b - a * b
        }
        ScalarExpr::Unary(UnaryOp::Not, x) => 1.0 - selectivity(x, env),
        ScalarExpr::Binary(op, l, r) if op.is_comparison() => {
            comparison_selectivity(*op, l, r, env)
        }
        ScalarExpr::Lit(Value::Int(i)) => {
            if *i != 0 {
                1.0
            } else {
                0.0
            }
        }
        _ => DEFAULT_SELECTIVITY,
    };
    s.clamp(0.0, 1.0)
}

fn comparison_selectivity(op: BinOp, l: &ScalarExpr, r: &ScalarExpr, env: &NodeEst) -> f64 {
    // Normalize to (column op literal/column); flip the operator when the
    // literal is on the left.
    match (l, r) {
        (ScalarExpr::Col(c), ScalarExpr::Lit(v)) => col_lit_selectivity(op, c, v, env),
        (ScalarExpr::Lit(v), ScalarExpr::Col(c)) => col_lit_selectivity(flip(op), c, v, env),
        (ScalarExpr::Col(a), ScalarExpr::Col(b)) => {
            if op == BinOp::Eq {
                match (env.col(a), env.col(b)) {
                    (Some(x), Some(y)) => 1.0 / x.ndv.max(y.ndv).max(1.0),
                    _ => DEFAULT_SELECTIVITY,
                }
            } else {
                DEFAULT_SELECTIVITY
            }
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn col_lit_selectivity(op: BinOp, col: &str, lit: &Value, env: &NodeEst) -> f64 {
    let Some(c) = env.col(col) else {
        return DEFAULT_SELECTIVITY;
    };
    match op {
        BinOp::Eq => 1.0 / c.ndv.max(1.0),
        BinOp::Ne => 1.0 - 1.0 / c.ndv.max(1.0),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let (Some(min), Some(max), Some(v)) = (c.min, c.max, lit.as_f64()) else {
                return DEFAULT_SELECTIVITY;
            };
            if max <= min {
                return DEFAULT_SELECTIVITY;
            }
            let below = ((v - min) / (max - min)).clamp(0.0, 1.0);
            match op {
                BinOp::Lt | BinOp::Le => below,
                _ => 1.0 - below,
            }
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Fraction of left rows with a join partner, under the containment
/// assumption (the smaller key domain is a subset of the larger).
fn match_fraction(l: &NodeEst, r: &NodeEst, on: &[(String, String)]) -> f64 {
    let mut p = 1.0;
    for (lr, rr) in on {
        p *= match (l.col(lr), r.col(rr)) {
            (Some(a), Some(b)) => (b.ndv / a.ndv.max(b.ndv).max(1.0)).clamp(0.0, 1.0),
            _ => 0.5,
        };
    }
    p
}

fn join_rows(l: &NodeEst, r: &NodeEst, on: &[(String, String)]) -> f64 {
    let mut rows = l.rows * r.rows;
    for (lr, rr) in on {
        let sel = match (l.col(lr), r.col(rr)) {
            (Some(a), Some(b)) => 1.0 / a.ndv.max(b.ndv).max(1.0),
            _ => 1.0 / l.rows.max(r.rows).max(1.0),
        };
        rows *= sel;
    }
    rows
}

/// Column estimates for projection-like items: plain column references
/// carry their input estimate through, computed expressions default.
fn items_cols(items: &[(ScalarExpr, String)], input: &NodeEst, rows: f64) -> Vec<ColEst> {
    items
        .iter()
        .map(|(e, _)| match e {
            ScalarExpr::Col(name) => input
                .col(name)
                .cloned()
                .unwrap_or_else(|| ColEst::unknown(rows)),
            _ => ColEst::unknown(rows),
        })
        .collect()
}

/// A stored relation's column sketches as estimates.
fn sketch_cols(st: &RelationStats, floor: f64) -> Vec<ColEst> {
    st.columns
        .iter()
        .map(|s| ColEst {
            ndv: (s.ndv as f64).max(floor),
            min: s.min.as_ref().and_then(Value::as_f64),
            max: s.max.as_ref().and_then(Value::as_f64),
        })
        .collect()
}

/// Every child's column estimates, concatenated in child order — aligned
/// with the schema of a join, product or multiway join.
fn concat_cols(kids: &[NodeEst]) -> Vec<ColEst> {
    kids.iter().flat_map(|k| k.cols.iter().cloned()).collect()
}

/// Recursive estimator; appends this node's rounded estimate at its
/// pre-order position (children in evaluation order, left before right).
/// Each arm estimates `rows` and the per-column state; the schema those
/// columns align with is `Plan::schema_over` on the child estimates — the
/// executor's own definition. A scan of a table the catalog does not hold
/// is [`UNKNOWN_ROWS`] with no columns.
fn node_est(plan: &Plan, catalog: &Catalog, out: &mut Vec<u64>) -> NodeEst {
    let slot = out.len();
    out.push(0);
    let kids: Vec<NodeEst> = plan
        .children()
        .into_iter()
        .map(|c| node_est(c, catalog, out))
        .collect();
    let schemas: Vec<&Schema> = kids.iter().map(|k| &k.schema).collect();
    let schema = plan
        .schema_over(catalog, &schemas)
        .unwrap_or_else(|_| Schema::new(Vec::new()));
    let (rows, cols) = match plan {
        Plan::Scan { table, .. } => match (catalog.relation(table), catalog.stats(table)) {
            (Err(_), _) => (UNKNOWN_ROWS, Vec::new()),
            (Ok(_), Some(st)) => {
                let floor = if st.rows > 0 { 1.0 } else { 0.0 };
                (st.rows as f64, sketch_cols(st, floor))
            }
            // No sketches (unanalyzed temp table): assume live cardinality
            // with all-distinct columns.
            (Ok(rel), None) => {
                let rows = rel.len() as f64;
                let cols = (0..schema.arity()).map(|_| ColEst::unknown(rows)).collect();
                (rows, cols)
            }
        },
        Plan::Values(rel) => {
            let st = RelationStats::of(&Batch::from_relation(rel));
            (st.rows as f64, sketch_cols(&st, 1.0))
        }
        Plan::Select { pred, .. } => {
            let e = &kids[0];
            capped(e.rows * selectivity(pred, e), e.cols.clone())
        }
        Plan::Project { items, .. } | Plan::Window { items, .. } => {
            let e = &kids[0];
            (e.rows, items_cols(items, e, e.rows))
        }
        Plan::Aggregate {
            group_by, items, ..
        } => {
            let e = &kids[0];
            let rows = if group_by.is_empty() {
                1.0
            } else {
                let groups: f64 = group_by
                    .iter()
                    .map(|g| e.col(g).map_or(e.rows.max(1.0), |c| c.ndv))
                    .product();
                groups.min(e.rows)
            };
            capped(rows, items_cols(items, e, rows))
        }
        Plan::Distinct(_) => {
            let e = &kids[0];
            let distinct: f64 = e.cols.iter().map(|c| c.ndv).product();
            let rows = if e.cols.is_empty() {
                e.rows
            } else {
                e.rows.min(distinct)
            };
            capped(rows, e.cols.clone())
        }
        Plan::Join {
            on, residual, kind, ..
        } => {
            let (l, r) = (&kids[0], &kids[1]);
            let mut e = NodeEst {
                rows: join_rows(l, r, on),
                schema: schema.clone(),
                cols: concat_cols(&kids),
            };
            if let Some(p) = residual {
                e.rows *= selectivity(p, &e);
            }
            let rows = match kind {
                crate::ops::JoinType::Inner => e.rows,
                crate::ops::JoinType::Left => e.rows.max(l.rows),
                crate::ops::JoinType::Full => e.rows.max(l.rows).max(r.rows),
            };
            capped(rows, e.cols)
        }
        // Exact under known child cardinalities — pinned by the optimizer
        // property suite.
        Plan::Product { .. } => (kids[0].rows * kids[1].rows, concat_cols(&kids)),
        Plan::UnionAll { .. } | Plan::Union { .. } => {
            let (l, r) = (&kids[0], &kids[1]);
            let cols = l
                .cols
                .iter()
                .zip(r.cols.iter())
                .map(|(a, b)| ColEst {
                    ndv: a.ndv + b.ndv,
                    min: None,
                    max: None,
                })
                .collect();
            (l.rows + r.rows, cols)
        }
        Plan::Difference { .. } => (kids[0].rows, kids[0].cols.clone()),
        Plan::AntiJoin { on, .. } => {
            let (l, r) = (&kids[0], &kids[1]);
            let p = match_fraction(l, r, on);
            capped((l.rows * (1.0 - p)).max(1.0).min(l.rows), l.cols.clone())
        }
        Plan::SemiJoin { on, .. } => {
            let (l, r) = (&kids[0], &kids[1]);
            capped(
                (l.rows * match_fraction(l, r, on)).min(l.rows),
                l.cols.clone(),
            )
        }
        // the AGM bound from planning is the best available estimate
        Plan::MultiwayJoin { agm_est, .. } => capped(*agm_est as f64, concat_cols(&kids)),
    };
    let est = NodeEst { rows, schema, cols };
    let rows = if est.rows.is_finite() {
        est.rows.max(0.0)
    } else {
        f64::MAX
    };
    out[slot] = rows.round() as u64;
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_storage::{edge_schema, Relation};

    #[test]
    fn estimates_carry_the_plan_layers_schema() {
        let mut c = Catalog::new();
        c.create_table("E", Relation::new(edge_schema())).unwrap();
        let joined = Plan::Join {
            left: Box::new(Plan::scan_as("E", "A")),
            right: Box::new(Plan::scan("E")),
            on: vec![("A.T".into(), "E.F".into())],
            residual: None,
            kind: crate::ops::JoinType::Left,
        };
        let plan = Plan::Aggregate {
            input: Box::new(joined),
            group_by: vec!["A.F".into()],
            items: vec![
                (ScalarExpr::col("A.F"), "A.F".into()),
                (ScalarExpr::lit(1i64), "one".into()),
            ],
        };
        plan.visit(&mut |p| {
            let est = estimate(p, &c);
            assert_eq!(est.schema, p.schema(&c).unwrap());
            assert_eq!(est.cols.len(), est.schema.arity());
        });
        // a table the catalog does not hold: default rows, nothing known
        let missing = estimate(&Plan::scan("nope"), &c);
        assert_eq!(missing.rows, UNKNOWN_ROWS);
        assert_eq!(missing.schema.arity(), 0);
        assert!(missing.cols.is_empty());
    }

    #[test]
    fn absorb_adds() {
        let mut a = ExecStats {
            joins: 1,
            rows_produced: 10,
            ..Default::default()
        };
        let b = ExecStats {
            joins: 2,
            sorts: 3,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.joins, 3);
        assert_eq!(a.sorts, 3);
        assert_eq!(a.rows_produced, 10);
    }

    #[test]
    fn summary_mentions_all_counters() {
        let s = ExecStats::default().summary();
        for key in ["joins", "aggs", "ubu", "sorts"] {
            assert!(s.contains(key));
        }
    }

    #[test]
    fn display_matches_summary() {
        let s = ExecStats {
            joins: 4,
            morsels: 7,
            ..Default::default()
        };
        assert_eq!(s.summary(), format!("{s}"));
        assert!(format!("{s}").contains("joins=4"));
    }

    #[test]
    fn delta_since_subtracts_fieldwise() {
        let mut total = ExecStats {
            joins: 1,
            rows_produced: 10,
            ..Default::default()
        };
        let snap = total.clone();
        total.absorb(&ExecStats {
            joins: 2,
            sorts: 1,
            rows_produced: 5,
            ..Default::default()
        });
        let d = total.delta_since(&snap);
        assert_eq!(d.joins, 2);
        assert_eq!(d.sorts, 1);
        assert_eq!(d.rows_produced, 5);
        assert_eq!(d.rows_scanned, 0);
        // snapshot + delta = total
        let mut back = snap.clone();
        back.absorb(&d);
        assert_eq!(back, total);
    }
}
