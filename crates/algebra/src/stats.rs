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
//! the anchor the optimizer property suite pins down.

use crate::expr::{BinOp, ScalarExpr, UnaryOp};
use crate::plan::Plan;
use aio_storage::{Catalog, Column, DataType, Schema, Value};
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
        self.sorts += other.sorts;
        self.index_scans += other.index_scans;
        self.parallel_ops += other.parallel_ops;
        self.morsels += other.morsels;
    }

    /// Record one operator invocation that ran with >1 worker.
    pub fn note_parallel(&mut self, info: &crate::par::ParInfo) {
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
            sorts: self.sorts.saturating_sub(earlier.sorts),
            index_scans: self.index_scans.saturating_sub(earlier.index_scans),
            parallel_ops: self.parallel_ops.saturating_sub(earlier.parallel_ops),
            morsels: self.morsels.saturating_sub(earlier.morsels),
        }
    }

    /// The counters as `(key, value)` pairs, in [`fmt::Display`] order.
    pub fn entries(&self) -> [(&'static str, u64); 10] {
        [
            ("rows_scanned", self.rows_scanned),
            ("rows_produced", self.rows_produced),
            ("joins", self.joins),
            ("aggregations", self.aggregations),
            ("anti_joins", self.anti_joins),
            ("union_by_updates", self.union_by_updates),
            ("sorts", self.sorts),
            ("index_scans", self.index_scans),
            ("parallel_ops", self.parallel_ops),
            ("morsels", self.morsels),
        ]
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
            "scanned={} produced={} joins={} aggs={} anti={} ubu={} sorts={} idx_scans={} par_ops={} morsels={}",
            self.rows_scanned,
            self.rows_produced,
            self.joins,
            self.aggregations,
            self.anti_joins,
            self.union_by_updates,
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
    fn empty(rows: f64) -> NodeEst {
        NodeEst {
            rows,
            schema: Schema::new(Vec::new()),
            cols: Vec::new(),
        }
    }

    /// Column estimate for `reference` (qualified or bare), if resolvable.
    fn col(&self, reference: &str) -> Option<&ColEst> {
        self.schema
            .index_of(reference)
            .ok()
            .and_then(|i| self.cols.get(i))
    }

    /// Cap every column's NDV at the (new, smaller) row count.
    fn cap_ndv(&mut self) {
        let cap = self.rows.max(1.0);
        for c in &mut self.cols {
            c.ndv = c.ndv.min(cap);
        }
    }
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

/// Output schema of a projection-like node (dotted aliases stay qualified —
/// mirrors `ops::project`'s column inference).
fn items_schema(items: &[(ScalarExpr, String)]) -> Schema {
    Schema::new(
        items
            .iter()
            .map(|(_, alias)| match alias.split_once('.') {
                Some((q, n)) if !q.is_empty() && !n.is_empty() => {
                    Column::qualified(q, n, DataType::Any)
                }
                _ => Column::new(alias.as_str(), DataType::Any),
            })
            .collect(),
    )
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

/// Recursive estimator; appends this node's rounded estimate at its
/// pre-order position (children in evaluation order, left before right).
fn node_est(plan: &Plan, catalog: &Catalog, out: &mut Vec<u64>) -> NodeEst {
    let slot = out.len();
    out.push(0);
    let est = match plan {
        Plan::Scan { table, alias } => {
            let qualifier = alias.as_deref().unwrap_or(table.as_str());
            match catalog.relation(table) {
                Ok(rel) => {
                    let schema = rel.schema().with_qualifier(qualifier);
                    let (rows, cols) = match catalog.stats(table) {
                        Some(st) => (
                            st.rows as f64,
                            st.columns
                                .iter()
                                .map(|s| ColEst {
                                    ndv: (s.ndv as f64).max(if st.rows > 0 { 1.0 } else { 0.0 }),
                                    min: s.min.as_ref().and_then(Value::as_f64),
                                    max: s.max.as_ref().and_then(Value::as_f64),
                                })
                                .collect(),
                        ),
                        None => {
                            // No sketches (unanalyzed temp table): assume
                            // live cardinality with all-distinct columns.
                            let rows = rel.len() as f64;
                            (
                                rows,
                                (0..schema.arity()).map(|_| ColEst::unknown(rows)).collect(),
                            )
                        }
                    };
                    NodeEst { rows, schema, cols }
                }
                Err(_) => NodeEst::empty(UNKNOWN_ROWS),
            }
        }
        Plan::Values(rel) => {
            let st = rel.collect_stats();
            NodeEst {
                rows: st.rows as f64,
                schema: rel.schema().clone(),
                cols: st
                    .columns
                    .iter()
                    .map(|s| ColEst {
                        ndv: (s.ndv as f64).max(1.0),
                        min: s.min.as_ref().and_then(Value::as_f64),
                        max: s.max.as_ref().and_then(Value::as_f64),
                    })
                    .collect(),
            }
        }
        Plan::Select { input, pred } => {
            let mut e = node_est(input, catalog, out);
            e.rows *= selectivity(pred, &e);
            e.cap_ndv();
            e
        }
        Plan::Project { input, items } => {
            let e = node_est(input, catalog, out);
            let cols = items_cols(items, &e, e.rows);
            NodeEst {
                rows: e.rows,
                schema: items_schema(items),
                cols,
            }
        }
        Plan::Aggregate {
            input,
            group_by,
            items,
        } => {
            let e = node_est(input, catalog, out);
            let rows = if group_by.is_empty() {
                1.0
            } else {
                let groups: f64 = group_by
                    .iter()
                    .map(|g| e.col(g).map_or(e.rows.max(1.0), |c| c.ndv))
                    .product();
                groups.min(e.rows)
            };
            let mut ne = NodeEst {
                rows,
                schema: items_schema(items),
                cols: items_cols(items, &e, rows),
            };
            ne.cap_ndv();
            ne
        }
        Plan::Window { input, items, .. } => {
            let e = node_est(input, catalog, out);
            let cols = items_cols(items, &e, e.rows);
            NodeEst {
                rows: e.rows,
                schema: items_schema(items),
                cols,
            }
        }
        Plan::Distinct(input) => {
            let mut e = node_est(input, catalog, out);
            let distinct: f64 = e.cols.iter().map(|c| c.ndv).product();
            if !e.cols.is_empty() {
                e.rows = e.rows.min(distinct);
            }
            e.cap_ndv();
            e
        }
        Plan::Join {
            left,
            right,
            on,
            residual,
            kind,
        } => {
            let l = node_est(left, catalog, out);
            let r = node_est(right, catalog, out);
            let mut rows = join_rows(&l, &r, on);
            let schema = l.schema.join(&r.schema);
            let mut cols = l.cols.clone();
            cols.extend(r.cols.iter().cloned());
            let mut e = NodeEst { rows, schema, cols };
            if let Some(p) = residual {
                e.rows *= selectivity(p, &e);
            }
            rows = e.rows;
            match kind {
                crate::ops::JoinType::Inner => {}
                crate::ops::JoinType::Left => e.rows = rows.max(l.rows),
                crate::ops::JoinType::Full => e.rows = rows.max(l.rows).max(r.rows),
            }
            e.cap_ndv();
            e
        }
        Plan::Product { left, right } => {
            let l = node_est(left, catalog, out);
            let r = node_est(right, catalog, out);
            let schema = l.schema.join(&r.schema);
            let mut cols = l.cols.clone();
            cols.extend(r.cols.iter().cloned());
            NodeEst {
                // Exact under known child cardinalities — pinned by the
                // optimizer property suite.
                rows: l.rows * r.rows,
                schema,
                cols,
            }
        }
        Plan::UnionAll { left, right } | Plan::Union { left, right } => {
            let l = node_est(left, catalog, out);
            let r = node_est(right, catalog, out);
            NodeEst {
                rows: l.rows + r.rows,
                schema: l.schema.clone(),
                cols: l
                    .cols
                    .iter()
                    .zip(r.cols.iter())
                    .map(|(a, b)| ColEst {
                        ndv: a.ndv + b.ndv,
                        min: None,
                        max: None,
                    })
                    .collect(),
            }
        }
        Plan::Difference { left, right } => {
            let l = node_est(left, catalog, out);
            node_est(right, catalog, out);
            l
        }
        Plan::AntiJoin {
            left, right, on, ..
        } => {
            let l = node_est(left, catalog, out);
            let r = node_est(right, catalog, out);
            let p = match_fraction(&l, &r, on);
            let mut e = NodeEst {
                rows: (l.rows * (1.0 - p)).max(1.0).min(l.rows),
                schema: l.schema.clone(),
                cols: l.cols.clone(),
            };
            e.cap_ndv();
            e
        }
        Plan::SemiJoin { left, right, on } => {
            let l = node_est(left, catalog, out);
            let r = node_est(right, catalog, out);
            let p = match_fraction(&l, &r, on);
            let mut e = NodeEst {
                rows: (l.rows * p).min(l.rows),
                schema: l.schema.clone(),
                cols: l.cols.clone(),
            };
            e.cap_ndv();
            e
        }
        Plan::MultiwayJoin {
            children, agm_est, ..
        } => {
            let mut schema: Option<Schema> = None;
            let mut cols = Vec::new();
            for c in children {
                let e = node_est(c, catalog, out);
                schema = Some(match schema {
                    Some(s) => s.join(&e.schema),
                    None => e.schema.clone(),
                });
                cols.extend(e.cols.iter().cloned());
            }
            // the AGM bound from planning is the best available estimate
            let mut e = NodeEst {
                rows: *agm_est as f64,
                schema: schema.unwrap_or_else(|| Schema::new(Vec::new())),
                cols,
            };
            e.cap_ndv();
            e
        }
    };
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
