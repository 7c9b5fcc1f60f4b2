//! Logical plans and their evaluator.
//!
//! The with+ compiler (crate `aio-withplus`) lowers each SQL subquery to a
//! [`Plan`]; the [`Evaluator`] executes it against a [`Catalog`] under an
//! [`EngineProfile`], materializing every operator's output — the moral
//! equivalent of the paper's PSM translation where each step is an
//! `INSERT INTO tmp SELECT ...`.
//!
//! Three exhaustive matches over the variants — [`Plan::children`],
//! [`Plan::children_mut`] and `Plan::schema_over` — are the only code
//! that knows every node's shape: which inputs it has, and which columns
//! (qualifier, name, type) it outputs over them. Walks, node numbering,
//! the kernels' result schemas, the estimator and the optimizer all read
//! those three.

use crate::batch::{self, BATCH_SIZE};
use crate::error::Result;
use crate::expr::ScalarExpr;
use crate::ops;
use crate::ops::anti_join::AntiJoinImpl;
use crate::ops::join::{JoinKeys, JoinOrders, JoinType};
use crate::profile::{AggStrategy, EngineProfile, ExecMode, JoinStrategy, Optimizer};
use crate::stats::ExecStats;
use aio_storage::{Batch, Catalog, Column, ColumnVec, DataType, Relation, Schema, Value};

/// A logical plan node.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Read a stored table, optionally renaming it (`FROM t AS a`).
    Scan {
        table: String,
        alias: Option<String>,
    },
    /// An inline literal relation.
    Values(Relation),
    /// σ
    Select {
        input: Box<Plan>,
        pred: ScalarExpr,
    },
    /// Π (expressions + output names)
    Project {
        input: Box<Plan>,
        items: Vec<(ScalarExpr, String)>,
    },
    /// group-by & aggregation
    Aggregate {
        input: Box<Plan>,
        group_by: Vec<String>,
        items: Vec<(ScalarExpr, String)>,
    },
    /// `partition by` window aggregation (SQL'99 baseline, Fig. 9)
    Window {
        input: Box<Plan>,
        partition_by: Vec<String>,
        items: Vec<(ScalarExpr, String)>,
    },
    Distinct(Box<Plan>),
    /// θ-join on equality keys plus optional residual predicate
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<(String, String)>,
        residual: Option<ScalarExpr>,
        kind: JoinType,
    },
    /// ×
    Product {
        left: Box<Plan>,
        right: Box<Plan>,
    },
    UnionAll {
        left: Box<Plan>,
        right: Box<Plan>,
    },
    /// ∪ with duplicate elimination
    Union {
        left: Box<Plan>,
        right: Box<Plan>,
    },
    /// − (EXCEPT)
    Difference {
        left: Box<Plan>,
        right: Box<Plan>,
    },
    /// `R ⊼ S` via the chosen SQL spelling
    AntiJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<(String, String)>,
        imp: AntiJoinImpl,
    },
    /// `R ⋉ S` (IN subqueries)
    SemiJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<(String, String)>,
    },
    /// Worst-case-optimal multiway join (leapfrog triejoin) over a cyclic
    /// join region. `vars[i][j]` is the elimination-order position of the
    /// join variable bound by column `j` of `children[i]` (`None` = payload
    /// column); `var_names` names each variable in elimination order;
    /// `agm_est` is the AGM output bound computed at plan time.
    MultiwayJoin {
        children: Vec<Plan>,
        vars: Vec<Vec<Option<usize>>>,
        var_names: Vec<String>,
        agm_est: u64,
    },
}

impl Plan {
    pub fn scan(table: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
            alias: None,
        }
    }

    pub fn scan_as(table: impl Into<String>, alias: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
            alias: Some(alias.into()),
        }
    }

    /// Direct inputs of this node, in the order the evaluator runs them.
    /// Together with [`Plan::children_mut`] and `Plan::schema_over` this
    /// is the only place that knows every variant's shape: pre-order node
    /// ids (EXPLAIN ANALYZE, [`crate::estimate_nodes`]), every generic walk
    /// and every answer to "which columns does this node output" derive
    /// from these three matches.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } | Plan::Values(_) => vec![],
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Window { input, .. }
            | Plan::Distinct(input) => vec![&**input],
            Plan::Join { left, right, .. }
            | Plan::Product { left, right }
            | Plan::UnionAll { left, right }
            | Plan::Union { left, right }
            | Plan::Difference { left, right }
            | Plan::AntiJoin { left, right, .. }
            | Plan::SemiJoin { left, right, .. } => vec![&**left, &**right],
            Plan::MultiwayJoin { children, .. } => children.iter().collect(),
        }
    }

    /// [`Plan::children`], mutably.
    pub fn children_mut(&mut self) -> Vec<&mut Plan> {
        match self {
            Plan::Scan { .. } | Plan::Values(_) => vec![],
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Window { input, .. }
            | Plan::Distinct(input) => vec![&mut **input],
            Plan::Join { left, right, .. }
            | Plan::Product { left, right }
            | Plan::UnionAll { left, right }
            | Plan::Union { left, right }
            | Plan::Difference { left, right }
            | Plan::AntiJoin { left, right, .. }
            | Plan::SemiJoin { left, right, .. } => vec![&mut **left, &mut **right],
            Plan::MultiwayJoin { children, .. } => children.iter_mut().collect(),
        }
    }

    /// This node's output schema over its children's — `inputs[i]` is the
    /// schema of `children()[i]`. The one definition of what a node
    /// outputs: the kernels build their result schema with it (so
    /// `execute(p)?.schema() == p.schema(catalog)?` by construction, which
    /// [`Evaluator`] asserts per node in debug builds), the estimator
    /// attaches its column estimates to it, and the optimizer resolves
    /// references against it.
    pub(crate) fn schema_over(&self, catalog: &Catalog, inputs: &[&Schema]) -> Result<Schema> {
        Ok(match self {
            Plan::Scan { table, alias } => catalog
                .relation(table)?
                .schema()
                .with_qualifier(alias.as_deref().unwrap_or(table)),
            Plan::Values(rel) => rel.schema().clone(),
            // filters, and the set operations, which are positional: the
            // left input names the output
            Plan::Select { .. }
            | Plan::Distinct(_)
            | Plan::UnionAll { .. }
            | Plan::Union { .. }
            | Plan::Difference { .. }
            | Plan::AntiJoin { .. }
            | Plan::SemiJoin { .. } => inputs[0].clone(),
            Plan::Project { items, .. }
            | Plan::Aggregate { items, .. }
            | Plan::Window { items, .. } => schema_of_items(items, inputs[0]),
            Plan::Join { .. } | Plan::Product { .. } | Plan::MultiwayJoin { .. } => {
                joined(inputs.iter().copied())
            }
        })
    }

    /// The schema this plan's result has: `Plan::schema_over` folded over
    /// [`Plan::children`]. An error only when a scanned table is missing.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema> {
        let inputs: Vec<Schema> = self
            .children()
            .into_iter()
            .map(|c| c.schema(catalog))
            .collect::<Result<_>>()?;
        self.schema_over(catalog, &inputs.iter().collect::<Vec<_>>())
    }

    /// This node with every direct child replaced by `f(child)`.
    pub fn map_children(mut self, mut f: impl FnMut(Plan) -> Plan) -> Plan {
        for c in self.children_mut() {
            let hole = Plan::Values(Relation::new(Schema::new(Vec::new())));
            *c = f(std::mem::replace(c, hole));
        }
        self
    }

    /// Call `f` on every node in pre-order (node, then children in
    /// evaluation order).
    pub fn visit<'p>(&'p self, f: &mut impl FnMut(&'p Plan)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Does `pred` hold for this node or any descendant?
    pub fn any(&self, pred: &impl Fn(&Plan) -> bool) -> bool {
        pred(self) || self.children().into_iter().any(|c| c.any(pred))
    }

    /// All table names this plan reads (for dependency graphs).
    pub fn collect_tables(&self, out: &mut Vec<String>) {
        self.visit(&mut |p| {
            if let Plan::Scan { table, .. } = p {
                out.push(table.clone());
            }
        });
    }
}

/// The output schema of a project / aggregate / window over `input` — one
/// rule for all three. A dotted alias (`"E1.F"`) names the *qualified*
/// column `F` of `E1`, so plan rewrites can project columns back into
/// place without losing their qualifiers; a plain column reference and a
/// literal keep their type, every computed item is `Any`. Total: a
/// reference `input` does not resolve is `Any` here and an error where the
/// item is bound.
pub(crate) fn schema_of_items(items: &[(ScalarExpr, String)], input: &Schema) -> Schema {
    let ty_of = |i: usize| input.columns().get(i).map_or(DataType::Any, |c| c.ty);
    let column = |(expr, alias): &(ScalarExpr, String)| {
        let ty = match expr {
            ScalarExpr::Col(name) => input.index_of(name).map_or(DataType::Any, ty_of),
            ScalarExpr::BoundCol(i) => ty_of(*i),
            ScalarExpr::Lit(Value::Int(_)) => DataType::Int,
            ScalarExpr::Lit(Value::Float(_)) => DataType::Float,
            ScalarExpr::Lit(Value::Text(_)) => DataType::Text,
            _ => DataType::Any,
        };
        match alias.split_once('.') {
            Some((q, n)) if !q.is_empty() && !n.is_empty() => Column::qualified(q, n, ty),
            _ => Column::new(alias, ty),
        }
    };
    Schema::new(items.iter().map(column).collect())
}

/// The schema of a join, product or multiway join: the children's columns
/// concatenated in child order ([`Schema::join`], n-ary).
pub(crate) fn joined<'s>(inputs: impl IntoIterator<Item = &'s Schema>) -> Schema {
    let cols = inputs.into_iter().flat_map(|s| s.columns().iter().cloned());
    Schema::new(cols.collect())
}

/// The span name and short label for each operator, used by the traced
/// evaluator and the EXPLAIN renderer. The name doubles as the span name,
/// so it must be `'static`.
pub fn op_name(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan { .. } => "scan",
        Plan::Values(_) => "values",
        Plan::Select { .. } => "select",
        Plan::Project { .. } => "project",
        Plan::Aggregate { .. } => "aggregate",
        Plan::Window { .. } => "window",
        Plan::Distinct(_) => "distinct",
        Plan::Join { .. } => "join",
        Plan::Product { .. } => "product",
        Plan::UnionAll { .. } => "union_all",
        Plan::Union { .. } => "union",
        Plan::Difference { .. } => "difference",
        Plan::AntiJoin { .. } => "anti_join",
        Plan::SemiJoin { .. } => "semi_join",
        Plan::MultiwayJoin { .. } => "multiway_join",
    }
}

/// Executes [`Plan`]s against a catalog under a profile.
///
/// With a tracer attached ([`Evaluator::with_tracer`]) every operator
/// invocation opens one span named by [`op_name`], carrying the node's
/// pre-order id (`node`), output cardinality (`rows_out`), and — for joins —
/// build/probe phase timings and the morsel count. Children are evaluated
/// in [`Plan::children`] order, so node ids follow the pre-order of
/// [`Plan::visit`] — which is how [`crate::explain`] correlates spans back to
/// plan nodes. Without a tracer the only extra cost per node is one `Option`
/// branch.
pub struct Evaluator<'a> {
    pub catalog: &'a Catalog,
    pub profile: &'a EngineProfile,
    pub stats: ExecStats,
    tracer: Option<&'a aio_trace::Tracer>,
    node_seq: u64,
    /// Estimated output rows per pre-order node id, recomputed from live
    /// catalog statistics at each `eval_root` when tracing — so EXPLAIN
    /// ANALYZE shows per-iteration estimates tracking the shrinking delta.
    est: Vec<u64>,
    /// Largest estimated operator-output footprint seen by this evaluator
    /// (bytes); tracked only while metrics are enabled. The query layer
    /// maxes this across evaluators into the per-query peak-memory figure.
    mem_peak: u64,
    /// Set by [`Evaluator::apply`] for a project / aggregate under
    /// [`ExecMode::Batch`]: did the node run entirely on column kernels
    /// (`false`: some expression took the scratch-row interpreter, or the
    /// node bridged to the row operator)? Becomes the span's `typed` field.
    typed: Option<bool>,
    /// Set by [`Evaluator::apply`] for an aggregate that read its join's
    /// pairs (DESIGN §18). Becomes the span's `fused` field.
    fused: bool,
    /// Set by [`Evaluator::apply`] when a small input drove a join through a
    /// table's cached trie (traced runs only): `driven=D, index=E.F`.
    /// Becomes the span's `join_index` field.
    join_index: Option<String>,
}

impl<'a> Evaluator<'a> {
    pub fn new(catalog: &'a Catalog, profile: &'a EngineProfile) -> Self {
        Evaluator {
            catalog,
            profile,
            stats: ExecStats::new(),
            tracer: None,
            node_seq: 0,
            est: Vec::new(),
            mem_peak: 0,
            typed: None,
            fused: false,
            join_index: None,
        }
    }

    /// Peak estimated operator-output bytes observed so far (0 when
    /// metrics are disabled).
    pub fn mem_peak(&self) -> u64 {
        self.mem_peak
    }

    /// An evaluator that records one span per operator invocation.
    pub fn with_tracer(
        catalog: &'a Catalog,
        profile: &'a EngineProfile,
        tracer: Option<&'a aio_trace::Tracer>,
    ) -> Self {
        let mut ev = Evaluator::new(catalog, profile);
        ev.tracer = tracer;
        ev
    }

    /// Evaluate a plan from its root, restarting pre-order node numbering
    /// at 0 so repeated executions of the same plan produce spans with
    /// identical `node` ids (EXPLAIN aggregates across invocations by id).
    pub fn eval_root(&mut self, plan: &Plan) -> Result<Relation> {
        self.node_seq = 0;
        if self.tracer.is_some() {
            self.est = crate::stats::estimate_nodes(plan, self.catalog);
        }
        Ok(self.eval(plan, false)?.into_relation())
    }

    /// Evaluate one node: open its span, evaluate the children in
    /// [`Plan::children`] order, run the operator, then record metrics and
    /// the span's output fields (`batches` only on columnar outputs, `typed`
    /// only on a batch-mode project / aggregate, `fused` on an aggregate
    /// that read its join's pairs). `pairs`: the parent is an aggregate
    /// fused over this node ([`Evaluator::fuses`]), so a batch join hands
    /// it the pairs instead of gathering its output.
    fn eval(&mut self, plan: &Plan, pairs: bool) -> Result<Data> {
        let span = self.tracer.map(|t| {
            let node = self.node_seq;
            self.node_seq += 1;
            let span = t.span(op_name(plan));
            span.field("node", node);
            if let Some(&e) = self.est.get(node as usize) {
                span.field("est_rows", e);
            }
            if let Plan::Scan { table, alias } = plan {
                span.field("table", table.as_str());
                if let Some(a) = alias {
                    span.field("alias", a.as_str());
                }
            }
            span
        });
        let fuse = self.fuses(plan);
        let mut inputs = Vec::new();
        for c in plan.children() {
            inputs.push(self.eval(c, fuse)?);
        }
        // debug builds (the profile the tests run in) hold every operator
        // to the plan layer's definition of its output schema
        let expected = cfg!(debug_assertions).then(|| {
            let schemas: Vec<&Schema> = inputs.iter().map(Data::schema).collect();
            plan.schema_over(self.catalog, &schemas)
        });
        let out = self.apply(plan, inputs, pairs)?;
        if let Some(expected) = expected {
            debug_assert_eq!(out.schema(), &expected?, "{}", op_name(plan));
        }
        let typed = self.typed.take();
        let fused = std::mem::take(&mut self.fused);
        let join_index = self.join_index.take();
        let batches = match &out {
            Data::Rows(_) => None,
            cols => Some(cols.len().div_ceil(BATCH_SIZE).max(1) as u64),
        };
        // Metrics tap: one branch when disabled, otherwise per-operator-
        // invocation counter updates (never per row).
        if aio_metrics::enabled() {
            let bytes = match &out {
                Data::Rows(r) => r.approx_bytes(),
                Data::Cols(b) => b.approx_bytes(),
                Data::Joined(j) => j.approx_bytes(),
            };
            if let Some(n) = batches {
                aio_metrics::hooks::batches(n, bytes);
            }
            self.mem_peak = self.mem_peak.max(bytes);
            aio_metrics::hooks::op_rows(op_name(plan), out.len() as u64);
        }
        if let Some(span) = span {
            span.field("rows_out", out.len() as u64);
            if let Some(n) = batches {
                span.field("batches", n);
            }
            if let Some(t) = typed {
                span.field("typed", t);
            }
            if fused {
                span.field("fused", true);
            }
            if matches!(plan, Plan::Join { .. }) {
                let ph = ops::last_join_phases();
                span.field("morsels", ph.morsels);
                span.field("build_ns", ph.build_ns);
                span.field("probe_ns", ph.probe_ns);
            }
            if let Some(index) = join_index {
                span.field("join_index", index);
            }
            if matches!(plan, Plan::MultiwayJoin { .. }) {
                let ph = crate::wcoj::last_wcoj_phases();
                span.field("build_ns", ph.build_ns);
                span.field("probe_ns", ph.probe_ns);
                span.field("tries_cached", ph.tries_cached);
            }
        }
        Ok(out)
    }

    /// The operator dispatch: run `plan`'s operator over its already
    /// evaluated `inputs` (one per [`Plan::children`] entry, same order).
    ///
    /// [`ExecMode`] only selects kernels here. Under `Batch`, the operators
    /// with column kernels (scan, values, select, project, aggregate,
    /// Int-key hash join, union all) take their inputs `into_batch()` and
    /// produce columns; every other operator takes `into_relation()` — a
    /// move in row mode, an exact transpose after a columnar producer — and
    /// produces rows, so results are row-for-row identical in both modes.
    /// `pairs` as for [`Evaluator::eval`].
    fn apply(&mut self, plan: &Plan, inputs: Vec<Data>, pairs: bool) -> Result<Data> {
        let columnar = self.profile.exec == ExecMode::Batch;
        let par = self.profile.effective_parallelism();
        let mut inputs = inputs.into_iter();
        let mut next = || inputs.next().expect("eval passes one input per child");
        match plan {
            Plan::Scan { table, alias } => {
                let rel = self.catalog.relation(table)?;
                self.stats.rows_scanned += rel.len() as u64;
                Ok(if columnar {
                    // the catalog's cached image, shared under this scan's
                    // qualifier — never a transposition of its own
                    let image = self.catalog.columnar(table)?;
                    Data::Cols(image.with_schema(plan.schema_over(self.catalog, &[])?))
                } else {
                    Data::Rows(ops::rename(rel, alias.as_deref().unwrap_or(table)))
                })
            }
            Plan::Values(rel) => Ok(if columnar {
                Data::Cols(Batch::from_relation(rel))
            } else {
                Data::Rows(rel.clone())
            }),
            Plan::Select { pred, .. } => {
                let out = if columnar {
                    let b = next().into_batch();
                    Data::Cols(batch::select(&b, pred, par, BATCH_SIZE, &mut self.stats)?)
                } else {
                    let rel = next().into_relation();
                    Data::Rows(ops::select_par(&rel, pred, par, &mut self.stats)?)
                };
                self.stats.rows_produced += out.len() as u64;
                Ok(out)
            }
            Plan::Project { items, .. } => {
                let out = if columnar {
                    let b = next().into_batch();
                    let (out, typed) = batch::project(&b, items, par, &mut self.stats)?;
                    self.typed = Some(typed);
                    Data::Cols(out)
                } else {
                    let rel = next().into_relation();
                    Data::Rows(ops::project_par(&rel, items, par, &mut self.stats)?)
                };
                self.stats.rows_produced += out.len() as u64;
                Ok(out)
            }
            Plan::Aggregate {
                group_by, items, ..
            } => {
                let agg = self.profile.agg;
                let mut input = next();
                if let Data::Joined(joined) = &input {
                    // fused: group only the columns the aggregate reads
                    if let Some(cols) = reads(joined.schema(), group_by, items) {
                        let b = joined.project(&cols);
                        let out = batch::group_by(&b, group_by, items, agg, par, &mut self.stats)?;
                        if let Some((out, typed)) = out {
                            (self.typed, self.fused) = (Some(typed), true);
                            return Ok(Data::Cols(out));
                        }
                    }
                }
                if columnar {
                    let b = input.into_batch();
                    let out = batch::group_by(&b, group_by, items, agg, par, &mut self.stats)?;
                    self.typed = Some(matches!(out, Some((_, true))));
                    if let Some((out, _)) = out {
                        return Ok(Data::Cols(out));
                    }
                    // sort aggregation, multi-column or non-Int keys
                    input = Data::Cols(b);
                }
                let rel = input.into_relation();
                Ok(Data::Rows(ops::group_by_par(
                    &rel,
                    group_by,
                    items,
                    agg,
                    par,
                    &mut self.stats,
                )?))
            }
            Plan::Window {
                partition_by,
                items,
                ..
            } => {
                let rel = next().into_relation();
                Ok(Data::Rows(ops::window(
                    &rel,
                    partition_by,
                    items,
                    &mut self.stats,
                )?))
            }
            Plan::Distinct(_) => Ok(Data::Rows(ops::distinct(&next().into_relation()))),
            Plan::Join {
                left,
                right,
                on,
                residual,
                kind,
            } => {
                let (mut l, mut r) = (next(), next());
                if columnar && self.profile.join == JoinStrategy::Hash && residual.is_none() {
                    let (lb, rb) = (l.into_batch(), r.into_batch());
                    let keys = JoinKeys::resolve_schemas(lb.schema(), rb.schema(), on)?;
                    if !keys.left.is_empty() {
                        let found = match self.driven_join(left, &lb, &rb, &keys, *kind)? {
                            None => batch::hash_join(&lb, &rb, &keys, *kind, par, &mut self.stats)?,
                            driven => driven,
                        };
                        if let Some(found) = found {
                            let joined = batch::Joined::new(lb, rb, found);
                            return Ok(if pairs {
                                Data::Joined(joined)
                            } else {
                                Data::Cols(joined.gather())
                            });
                        }
                    }
                    // non-Int keys
                    (l, r) = (Data::Cols(lb), Data::Cols(rb));
                }
                let (lrel, rrel) = (l.into_relation(), r.into_relation());
                let keys = JoinKeys::resolve(&lrel, &rrel, on)?;
                Ok(Data::Rows(ops::join_par(
                    &lrel,
                    &rrel,
                    &keys,
                    residual.as_ref(),
                    *kind,
                    self.profile.join,
                    JoinOrders {
                        left: self.index_order(left, &keys.left),
                        right: self.index_order(right, &keys.right),
                    },
                    par,
                    &mut self.stats,
                )?))
            }
            Plan::Product { .. } => {
                let (l, r) = (next().into_relation(), next().into_relation());
                self.stats.joins += 1;
                let out = ops::product(&l, &r)?;
                self.stats.rows_produced += out.len() as u64;
                Ok(Data::Rows(out))
            }
            Plan::UnionAll { .. } => {
                if columnar {
                    let (l, r) = (next().into_batch(), next().into_batch());
                    Ok(Data::Cols(batch::union_all(&l, &r)?))
                } else {
                    let (l, r) = (next().into_relation(), next().into_relation());
                    Ok(Data::Rows(ops::union_all(&l, &r)?))
                }
            }
            Plan::Union { .. } => {
                let (l, r) = (next().into_relation(), next().into_relation());
                Ok(Data::Rows(ops::union_distinct(&l, &r)?))
            }
            Plan::Difference { .. } => {
                let (l, r) = (next().into_relation(), next().into_relation());
                Ok(Data::Rows(ops::difference(&l, &r)?))
            }
            Plan::AntiJoin { on, imp, .. } => {
                let (l, r) = (next().into_relation(), next().into_relation());
                let keys = JoinKeys::resolve(&l, &r, on)?;
                Ok(Data::Rows(ops::anti_join_par(
                    &l,
                    &r,
                    &keys,
                    *imp,
                    self.profile.join,
                    par,
                    &mut self.stats,
                )?))
            }
            Plan::SemiJoin { on, .. } => {
                let (l, r) = (next().into_relation(), next().into_relation());
                let keys = JoinKeys::resolve(&l, &r, on)?;
                Ok(Data::Rows(ops::semi_join_par(
                    &l,
                    &r,
                    &keys,
                    par,
                    &mut self.stats,
                )?))
            }
            Plan::MultiwayJoin {
                children,
                vars,
                var_names,
                ..
            } => {
                // the trie probe is inherently row-at-a-time: rows come
                // out, but the children go in as whatever they already are
                Ok(Data::Rows(crate::wcoj::multiway_join(
                    self.catalog,
                    children,
                    inputs.collect(),
                    vars,
                    var_names.len(),
                    &mut self.stats,
                )?))
            }
        }
    }

    /// The batch hash join's run-time choice (DESIGN §17). Under `Rules` /
    /// `Cost`, an inner join on one `Int` key whose left (probe) input is a
    /// bare scan of a base table with a NULL-free `Int` key column, and
    /// whose right (build) input has at most 1/[`DRIVE_RATIO`] as many rows
    /// as the table's cached single-level trie has distinct keys, is driven
    /// by the small side through that trie instead of hashing. `None` — any
    /// other join, or a table still paying rent (`Catalog::join_trie`) —
    /// leaves the join to [`batch::hash_join`]; nothing is touched before
    /// that.
    ///
    /// [`DRIVE_RATIO`]: batch::DRIVE_RATIO
    fn driven_join(
        &mut self,
        left: &Plan,
        lb: &Batch,
        rb: &Batch,
        keys: &JoinKeys,
        kind: JoinType,
    ) -> Result<Option<batch::Pairs>> {
        if self.profile.optimizer == Optimizer::Off || kind != JoinType::Inner {
            return Ok(None);
        }
        let ([lk], [rk]) = (keys.left.as_slice(), keys.right.as_slice()) else {
            return Ok(None);
        };
        // a table has no more distinct keys than rows: decline before
        // paying rent when not even its rows are enough
        let drives = |keys: usize| rb.len() * batch::DRIVE_RATIO <= keys;
        if !drives(lb.len()) || !matches!(rb.col(*rk), ColumnVec::Int { .. }) {
            return Ok(None);
        }
        let Some(table) = self.base_scan(left, lb, *lk) else {
            return Ok(None);
        };
        let Some((trie, built)) = self.catalog.join_trie(table, &[*lk])? else {
            return Ok(None);
        };
        if !drives(trie.keys(0).len()) {
            return Ok(None);
        }
        if self.tracer.is_some() {
            let name = &lb.schema().columns()[*lk].name;
            let small = &rb.schema().columns()[*rk];
            let side = small.qualifier.as_deref().unwrap_or(&small.name);
            self.join_index = Some(format!("driven={side}, index={table}.{name}"));
        }
        let pairs = batch::driven_join(rb, keys, &trie, built.unwrap_or(0), &mut self.stats);
        Ok(Some(pairs))
    }

    /// Does `plan` run as one operator with the join under it (DESIGN §18)?
    /// An aggregate over an inner, residual-free, one-key join, under
    /// `Rules` / `Cost` with batch execution and the hash join and hash
    /// aggregation: the join hands the aggregate its pairs, and the
    /// aggregate gathers only the columns it reads. `Off` — every paper
    /// profile — keeps two operators.
    fn fuses(&self, plan: &Plan) -> bool {
        let p = self.profile;
        let Plan::Aggregate { input, .. } = plan else {
            return false;
        };
        let Plan::Join {
            on, residual, kind, ..
        } = &**input
        else {
            return false;
        };
        let join = on.len() == 1 && residual.is_none() && *kind == JoinType::Inner;
        let hash = p.join == JoinStrategy::Hash && p.agg == AggStrategy::Hash;
        join && hash && p.optimizer != Optimizer::Off && p.exec == ExecMode::Batch
    }

    /// The table `child` reads when it is a bare scan of a base (non-temp)
    /// table whose column `col` — of `data`, the scan's output — is
    /// NULL-free `Int`, so its trie on `col` is an all-`Int` level.
    fn base_scan<'p>(&self, child: &'p Plan, data: &Batch, col: usize) -> Option<&'p str> {
        let Plan::Scan { table, .. } = child else {
            return None;
        };
        let int = matches!(data.col(col), ColumnVec::Int { nulls, .. } if !nulls.any());
        let base = self.catalog.entry(table).is_ok_and(|e| !e.temp);
        (int && base).then_some(table.as_str())
    }

    /// The stored sort order on `cols` that can serve a join input: only
    /// when the child is a direct table scan and the profile uses indexes.
    fn index_order(&self, child: &Plan, cols: &[usize]) -> Option<&'a [u32]> {
        match child {
            Plan::Scan { table, .. } if self.profile.indexes => {
                self.catalog.index_on(table, cols).map(|i| i.order())
            }
            _ => None,
        }
    }
}

/// The columns of `schema` an aggregate reads — its group keys and every
/// column its items name (as the optimizer's pruning reads them) — in
/// schema order; `None` when a name does not resolve, so that the aggregate
/// sees every column and reports it.
fn reads(schema: &Schema, keys: &[String], items: &[(ScalarExpr, String)]) -> Option<Vec<usize>> {
    let mut names = keys.to_vec();
    for (e, _) in items {
        e.collect_cols(&mut names);
    }
    let mut cols: Vec<usize> = names
        .iter()
        .map(|n| schema.index_of(n).ok())
        .collect::<Option<_>>()?;
    cols.sort_unstable();
    cols.dedup();
    Some(cols)
}

/// A value flowing between operators: columnar when the producing operator
/// ran a batch kernel, row-materialized otherwise. The two bridge methods
/// are the only row⇄column transposes in the evaluator, and both are
/// exact, so mixing the two shapes inside one plan cannot change results.
/// A batch join under a fused aggregate hands it the join's pairs, not yet
/// gathered (DESIGN §18).
pub(crate) enum Data {
    Rows(Relation),
    Cols(Batch),
    Joined(batch::Joined),
}

impl Data {
    pub(crate) fn len(&self) -> usize {
        match self {
            Data::Rows(r) => r.len(),
            Data::Cols(b) => b.len(),
            Data::Joined(j) => j.len(),
        }
    }

    pub(crate) fn schema(&self) -> &Schema {
        match self {
            Data::Rows(r) => r.schema(),
            Data::Cols(b) => b.schema(),
            Data::Joined(j) => j.schema(),
        }
    }

    /// Append row `i`'s values to `out`.
    pub(crate) fn push_row(&self, i: usize, out: &mut Vec<Value>) {
        match self {
            Data::Rows(r) => out.extend_from_slice(&r[i]),
            Data::Cols(b) => out.extend(b.columns().iter().map(|c| c.value(i))),
            Data::Joined(_) => unreachable!("a join's pairs go only to its fused aggregate"),
        }
    }

    fn into_batch(self) -> Batch {
        match self {
            Data::Rows(r) => Batch::from_relation(&r),
            Data::Cols(b) => b,
            Data::Joined(j) => j.gather(),
        }
    }

    pub(crate) fn into_relation(self) -> Relation {
        match self {
            Data::Rows(r) => r,
            data => data.into_batch().to_relation(),
        }
    }
}

/// Convenience: evaluate a plan with fresh stats.
pub fn execute(
    plan: &Plan,
    catalog: &Catalog,
    profile: &EngineProfile,
) -> Result<(Relation, ExecStats)> {
    let mut ev = Evaluator::new(catalog, profile);
    let rel = ev.eval_root(plan)?;
    Ok((rel, ev.stats))
}

/// [`execute`] with an optional tracer recording one span per operator.
pub fn execute_traced(
    plan: &Plan,
    catalog: &Catalog,
    profile: &EngineProfile,
    tracer: Option<&aio_trace::Tracer>,
) -> Result<(Relation, ExecStats)> {
    let mut ev = Evaluator::with_tracer(catalog, profile, tracer);
    let rel = ev.eval_root(plan)?;
    Ok((rel, ev.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AlgebraError;
    use crate::profile::{oracle_like, postgres_like};
    use aio_storage::{edge_schema, node_schema, row};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut e = Relation::new(edge_schema());
        e.extend([
            row![1, 2, 1.0],
            row![2, 3, 1.0],
            row![3, 1, 1.0],
            row![1, 3, 1.0],
        ])
        .unwrap();
        c.create_table("E", e).unwrap();
        let mut v = Relation::new(node_schema());
        v.extend([row![1, 1.0], row![2, 0.0], row![3, 0.0]])
            .unwrap();
        c.create_table("V", v).unwrap();
        c
    }

    #[test]
    fn scan_qualifies_with_alias() {
        let c = catalog();
        let (rel, _) = execute(&Plan::scan_as("E", "E1"), &c, &oracle_like()).unwrap();
        assert!(rel.schema().index_of("E1.F").is_ok());
    }

    #[test]
    fn transitive_one_hop_plan() {
        // select E1.F, E2.T from E E1, E E2 where E1.T = E2.F  (Fig. 1 body)
        let c = catalog();
        let plan = Plan::Project {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::scan_as("E", "E1")),
                right: Box::new(Plan::scan_as("E", "E2")),
                on: vec![("E1.T".into(), "E2.F".into())],
                residual: None,
                kind: JoinType::Inner,
            }),
            items: vec![
                (ScalarExpr::col("E1.F"), "F".into()),
                (ScalarExpr::col("E2.T"), "T".into()),
            ],
        };
        let (rel, stats) = execute(&plan, &c, &oracle_like()).unwrap();
        // 1→2→3, 2→3→1, 3→1→2, 3→1→3, 1→3→1
        assert_eq!(rel.len(), 5);
        assert_eq!(stats.joins, 1);
    }

    #[test]
    fn profile_changes_physical_behaviour_not_results() {
        let c = catalog();
        let plan = Plan::Join {
            left: Box::new(Plan::scan("E")),
            right: Box::new(Plan::scan("V")),
            on: vec![("E.T".into(), "V.ID".into())],
            residual: None,
            kind: JoinType::Inner,
        };
        let (a, sa) = execute(&plan, &c, &oracle_like()).unwrap();
        let (b, sb) = execute(&plan, &c, &postgres_like(false)).unwrap();
        assert!(a.same_rows_unordered(&b));
        assert_eq!(sa.sorts, 0, "hash join does not sort");
        assert_eq!(sb.sorts, 2, "merge join sorts both sides");
    }

    #[test]
    fn postgres_profile_uses_catalog_index() {
        let mut c = catalog();
        c.build_index("E", &[1]).unwrap(); // index on E.T
        let plan = Plan::Join {
            left: Box::new(Plan::scan("E")),
            right: Box::new(Plan::scan("V")),
            on: vec![("E.T".into(), "V.ID".into())],
            residual: None,
            kind: JoinType::Inner,
        };
        let (_, s) = execute(&plan, &c, &postgres_like(true)).unwrap();
        assert_eq!(s.index_scans, 1);
        assert_eq!(s.sorts, 1, "only the un-indexed side sorts");
        // oracle ignores the index entirely
        let (_, s) = execute(&plan, &c, &oracle_like()).unwrap();
        assert_eq!(s.index_scans, 0);
    }

    #[test]
    fn aggregate_plan_groups() {
        let c = catalog();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::scan("E")),
            group_by: vec!["E.F".into()],
            items: vec![
                (ScalarExpr::col("E.F"), "F".into()),
                (
                    ScalarExpr::Agg(crate::agg::AggFunc::Count, Box::new(ScalarExpr::lit(1i64))),
                    "deg".into(),
                ),
            ],
        };
        let (rel, _) = execute(&plan, &c, &oracle_like()).unwrap();
        assert_eq!(rel.len(), 3);
        let deg1 = rel.iter().find(|r| r[0].as_int() == Some(1)).unwrap()[1].as_int();
        assert_eq!(deg1, Some(2));
    }

    #[test]
    fn anti_and_semi_join_plans() {
        let c = catalog();
        // nodes with no incoming edge: V.ID not in (select T from E) → none here
        let anti = Plan::AntiJoin {
            left: Box::new(Plan::scan("V")),
            right: Box::new(Plan::scan("E")),
            on: vec![("V.ID".into(), "E.T".into())],
            imp: AntiJoinImpl::LeftOuterNull,
        };
        let (rel, s) = execute(&anti, &c, &oracle_like()).unwrap();
        assert_eq!(rel.len(), 0);
        assert_eq!(s.anti_joins, 1);
        let semi = Plan::SemiJoin {
            left: Box::new(Plan::scan("V")),
            right: Box::new(Plan::scan("E")),
            on: vec![("V.ID".into(), "E.T".into())],
        };
        let (rel, _) = execute(&semi, &c, &oracle_like()).unwrap();
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn set_ops_and_values() {
        let c = catalog();
        let mut lit = Relation::new(node_schema());
        lit.push(row![9, 9.0]).unwrap();
        let plan = Plan::UnionAll {
            left: Box::new(Plan::scan("V")),
            right: Box::new(Plan::Values(lit)),
        };
        let (rel, _) = execute(&plan, &c, &oracle_like()).unwrap();
        assert_eq!(rel.len(), 4);

        let diff = Plan::Difference {
            left: Box::new(Plan::scan("V")),
            right: Box::new(Plan::scan("V")),
        };
        let (rel, _) = execute(&diff, &c, &oracle_like()).unwrap();
        assert!(rel.is_empty());
    }

    #[test]
    fn batch_mode_matches_row_mode() {
        let c = catalog();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::Join {
                    left: Box::new(Plan::scan_as("E", "E1")),
                    right: Box::new(Plan::scan_as("E", "E2")),
                    on: vec![("E1.T".into(), "E2.F".into())],
                    residual: None,
                    kind: JoinType::Inner,
                }),
                pred: ScalarExpr::binary(
                    crate::expr::BinOp::Gt,
                    ScalarExpr::col("E1.ew"),
                    ScalarExpr::lit(0.0),
                ),
            }),
            group_by: vec!["E1.F".into()],
            items: vec![
                (ScalarExpr::col("E1.F"), "F".into()),
                (
                    ScalarExpr::Agg(crate::agg::AggFunc::Sum, Box::new(ScalarExpr::col("E2.ew"))),
                    "s".into(),
                ),
            ],
        };
        let (row, _) = execute(&plan, &c, &oracle_like()).unwrap();
        let batch_profile = oracle_like().with_exec(crate::profile::ExecMode::Batch);
        let (batch, _) = execute(&plan, &c, &batch_profile).unwrap();
        assert_eq!(row.rows(), batch.rows(), "batch engine is row-identical");
        assert_eq!(row.schema().arity(), batch.schema().arity());
    }

    #[test]
    fn missing_table_errors() {
        let c = catalog();
        let err = execute(&Plan::scan("nope"), &c, &oracle_like()).unwrap_err();
        assert!(matches!(err, AlgebraError::Storage(_)));
    }
}
