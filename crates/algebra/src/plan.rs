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

use crate::agg::AggFunc;
use crate::batch::{self, BATCH_SIZE};
use crate::error::Result;
use crate::expr::{BinOp, ScalarExpr};
use crate::ops;
use crate::ops::anti_join::AntiJoinImpl;
use crate::ops::join::{JoinKeys, JoinOrders, JoinType};
use crate::profile::{AggStrategy, EngineProfile, ExecMode, JoinStrategy, Optimizer};
use crate::semiring::Times;
use crate::stats::ExecStats;
use aio_storage::{
    Batch, Catalog, Column, ColumnVec, DataType, Relation, Schema, TrieIndex, Value,
};
use std::sync::Arc;

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

/// The paper's MV-join, `γ_{key; ⊕(a ⊙ b)}(A ⋈ C)` (§4.1, Eqs. 2–4), as a
/// plan shape: an aggregate directly over an inner, residual-free, one-key
/// join, whose left input is the matrix `A` and right input the vector `C`.
/// The one recogniser of the shape ([`Evaluator::fuses`], DESIGN §18): when
/// its group key is one matrix column and every aggregate is a semiring
/// term ([`MvShape::terms`]), the join and the aggregate run as one fold,
/// over the matrix's rows (the pull) or over the join's pairs (the push).
#[derive(Clone, Copy)]
pub(crate) struct MvShape<'p> {
    group_by: &'p [String],
    items: &'p [(ScalarExpr, String)],
}

impl<'p> MvShape<'p> {
    pub(crate) fn of(plan: &'p Plan) -> Option<MvShape<'p>> {
        let Plan::Aggregate {
            input,
            group_by,
            items,
        } = plan
        else {
            return None;
        };
        match &**input {
            Plan::Join {
                on,
                residual: None,
                kind: JoinType::Inner,
                ..
            } if on.len() == 1 => Some(MvShape { group_by, items }),
            _ => None,
        }
    }

    /// The aggregates in the order `group_by` compiles them (items in
    /// order, each in pre-order), when there is one and each is `⊕(a ⊙ b)`
    /// with `⊕` ∈ {`sum`, `min`, `max`} and `⊙` ∈ {`*`, `+`} over two
    /// columns, which `at` resolves.
    fn terms(
        &self,
        at: impl Fn(&str) -> Option<usize>,
    ) -> Option<Vec<(AggFunc, Times, [usize; 2])>> {
        type Term<'e> = (AggFunc, Times, [&'e str; 2]);
        fn walk<'e>(e: &'e ScalarExpr, out: &mut Vec<Option<Term<'e>>>) {
            match e {
                ScalarExpr::Agg(plus, arg) => out.push(match (plus, Times::of(arg)) {
                    (
                        AggFunc::Sum | AggFunc::Min | AggFunc::Max,
                        Some((
                            times @ Times::Op(BinOp::Mul | BinOp::Add),
                            ScalarExpr::Col(a),
                            ScalarExpr::Col(b),
                        )),
                    ) => Some((*plus, times, [a, b])),
                    _ => None,
                }),
                ScalarExpr::Unary(_, x) => walk(x, out),
                ScalarExpr::Binary(_, l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
                ScalarExpr::Func(_, args) => args.iter().for_each(|a| walk(a, out)),
                _ => {}
            }
        }
        let mut terms = Vec::new();
        self.items.iter().for_each(|(e, _)| walk(e, &mut terms));
        (!terms.is_empty()).then_some(())?;
        let resolve = |(plus, times, [a, b]): Term<'_>| Some((plus, times, [at(a)?, at(b)?]));
        terms.into_iter().map(|t| resolve(t?)).collect()
    }
}

/// An [`MvShape`] resolved against its join's two input schemas, as a
/// semiring product: the matrix's group-key column, each term's column
/// pair in the joined schema, the items compiled for grouped evaluation,
/// and the schemas of the join and of the aggregate. Names only: whether
/// the columns fold is [`batch::Fold::prepare`]'s per-call check.
struct Product {
    group: usize,
    terms: Vec<(AggFunc, Times, [usize; 2])>,
    items: Vec<ScalarExpr>,
    schemas: [Schema; 2],
}

impl Product {
    /// `None` unless the group key is one column of the matrix and every
    /// aggregate a semiring term ([`MvShape::terms`]) whose names resolve.
    fn resolve(shape: MvShape<'_>, matrix: &Schema, vector: &Schema) -> Option<Product> {
        let [key] = shape.group_by else {
            return None;
        };
        let schema = matrix.join(vector);
        let at = |name: &str| schema.index_of(name).ok();
        let group = at(key).filter(|&g| g < matrix.arity())?;
        let terms = shape.terms(at)?;
        // an error here is the unfused aggregate's to report
        let compiled = ops::groupby::compile(&schema, Some(&[group]), shape.items).ok()?;
        let out = schema_of_items(shape.items, &schema);
        Some(Product {
            group,
            terms,
            items: compiled.items,
            schemas: [schema, out],
        })
    }
}

/// What evaluating one plan derives from the plan and the catalog's
/// schemas alone, kept from one evaluation of the plan to the next — a
/// recursive step's for a whole fixpoint run, the way a stored procedure's
/// statements are prepared once and executed every iteration (DESIGN
/// §10). Per node, by the pre-order id [`Evaluator`] numbers it with: a
/// scan's qualified schema, a join's key columns, the product of a fused
/// MV-join, and what the node takes from its children. Every entry
/// remembers the input schemas it was resolved against and is resolved
/// again when they are not the same schemas ([`Schema::ptr_eq`]): a table
/// created again under the same name resolves again. What reads the data
/// — a fold's column checks, a join's drive test, statistics — is never
/// kept. A `Prepared` belongs to one plan, and ends with its owner:
/// `Prepared::default()` holds nothing yet.
#[derive(Default)]
pub struct Prepared {
    nodes: Vec<Node>,
}

impl Prepared {
    fn node(&mut self, id: usize) -> &mut Node {
        if self.nodes.len() <= id {
            self.nodes.resize_with(id + 1, Node::default);
        }
        &mut self.nodes[id]
    }
}

/// One node's entries in a [`Prepared`].
#[derive(Default)]
struct Node {
    /// The node's output schema over its inputs (`Plan::schema_over`; a
    /// scan's over its table's stored schema): every scan's, and in debug
    /// builds every node's, which [`Evaluator::eval`] holds it to.
    schema: Option<Keyed<Schema>>,
    /// A join's key columns over its two inputs.
    keys: Option<Keyed<JoinKeys>>,
    /// The product of the join under a fused aggregate, `None` when the
    /// shape does not resolve.
    product: Option<Keyed<Option<Product>>>,
    /// What the node takes from its children ([`Evaluator::takes_from`]);
    /// never kept for a projection, whose answer reads its input's schema
    /// and what its consumer takes.
    takes: Option<Taken>,
}

/// A fact resolved against `over`, the input schemas it read.
struct Keyed<T> {
    over: Vec<Schema>,
    value: T,
}

impl<T> Keyed<T> {
    /// The value `slot` holds if it was resolved against these same
    /// `inputs`, else `resolve()`'s, which `slot` then keeps. An error is
    /// returned and not kept.
    fn get<'s, E>(
        slot: &'s mut Option<Keyed<T>>,
        inputs: &[&Schema],
        resolve: impl FnOnce() -> std::result::Result<T, E>,
    ) -> std::result::Result<&'s T, E> {
        let holds = |k: &Keyed<T>| {
            k.over.len() == inputs.len() && k.over.iter().zip(inputs).all(|(a, b)| a.ptr_eq(b))
        };
        if !slot.as_ref().is_some_and(holds) {
            let over = inputs.iter().map(|&s| s.clone()).collect();
            *slot = Some(Keyed {
                over,
                value: resolve()?,
            });
        }
        Ok(&slot.as_ref().expect("resolved above").value)
    }
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
/// plan nodes, and how a [`Prepared`] finds each node's entries. Without a
/// tracer the only extra cost per node is one `Option` branch.
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
    /// Set by [`Evaluator::apply`] for an aggregate whose join folded its
    /// groups (DESIGN §18). Becomes the span's `fused` field.
    fused: bool,
    /// Set by [`Evaluator::apply`] when a small input drove a join through a
    /// table's adjacency (traced runs only): `driven=D, index=E.F`.
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

    /// Evaluate a plan from its root through `prepared`, the plan's
    /// [`Prepared`] (a fresh one for a plan evaluated once), restarting
    /// pre-order node numbering at 0 so repeated executions of the same
    /// plan produce spans with identical `node` ids (EXPLAIN aggregates
    /// across invocations by id) and find their own entries in `prepared`.
    pub fn eval_root(&mut self, plan: &Plan, prepared: &mut Prepared) -> Result<Relation> {
        Ok(self.root(plan, Takes::Rows, prepared)?.into_relation())
    }

    /// [`Evaluator::eval_root`] whose result stays the root's columns:
    /// nothing turns it into rows.
    pub fn eval_root_batch(&mut self, plan: &Plan, prepared: &mut Prepared) -> Result<Batch> {
        Ok(self.root(plan, Takes::Cols, prepared)?.into_batch())
    }

    fn root(&mut self, plan: &Plan, takes: Takes<'_>, prep: &mut Prepared) -> Result<Data> {
        self.node_seq = 0;
        if self.tracer.is_some() {
            self.est = crate::stats::estimate_nodes(plan, self.catalog);
        }
        self.eval(plan, takes, prep)
    }

    /// Evaluate one node: open its span, evaluate the children in
    /// [`Plan::children`] order, run the operator, then record metrics and
    /// the span's output fields (`batches` only on columnar outputs, `typed`
    /// only on a batch-mode project / aggregate, `fused` on an aggregate
    /// whose join folded its groups). `takes`: what the node's consumer takes
    /// from it ([`Takes`]); `prep`: the plan's [`Prepared`].
    fn eval<'p>(&mut self, plan: &'p Plan, takes: Takes<'p>, prep: &mut Prepared) -> Result<Data> {
        let node = self.node_seq;
        self.node_seq += 1;
        let span = self.tracer.map(|t| {
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
        let child = self.takes_from(plan, takes, prep.node(node as usize));
        let mut inputs = Vec::new();
        for c in plan.children() {
            inputs.push(self.eval(c, child, prep)?);
        }
        let entries = prep.node(node as usize);
        // debug builds (the profile the tests run in) hold every operator
        // to the plan layer's definition of its output schema
        let expected = cfg!(debug_assertions).then(|| {
            let schemas: Vec<&Schema> = inputs.iter().map(Data::schema).collect();
            self.output_schema(plan, &schemas, entries)
        });
        let out = self.apply(plan, inputs, takes, entries)?;
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
                Data::Folded(f) => f.out.approx_bytes(),
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
    /// A scan whose consumer takes rows ([`Takes::Rows`]) hands out the
    /// table's rows, sharing its chunks, in either mode, and an identity
    /// projection over rows renames them: neither builds an image or a row.
    /// `takes` as for [`Evaluator::eval`]; `node`: the node's entries in
    /// the plan's [`Prepared`].
    fn apply(
        &mut self,
        plan: &Plan,
        inputs: Vec<Data>,
        takes: Takes<'_>,
        node: &mut Node,
    ) -> Result<Data> {
        let columnar = self.profile.exec == ExecMode::Batch;
        let par = self.profile.effective_parallelism();
        let mut inputs = inputs.into_iter();
        let mut next = || inputs.next().expect("eval passes one input per child");
        match plan {
            Plan::Scan { table, .. } => {
                let rel = self.catalog.relation(table)?;
                self.stats.rows_scanned += rel.len() as u64;
                // the table's rows or its cached image, shared under this
                // scan's qualifier — never a transposition of its own
                let schema = self.output_schema(plan, &[], node)?;
                Ok(if columnar && !matches!(takes, Takes::Rows) {
                    Data::Cols(self.catalog.columnar(table)?.with_schema(schema))
                } else {
                    let mut rows = rel.clone().with_schema(schema);
                    if columnar {
                        // what the image's transpose back to rows would carry
                        rows.set_pk(None);
                    }
                    Data::Rows(rows)
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
                let input = next();
                let out = match input {
                    Data::Rows(rel) if is_identity(items, rel.schema()) => {
                        // a rename: the rows go out as they came in; it
                        // runs no expression, so a batch project is typed
                        self.typed = columnar.then_some(true);
                        let schema = schema_of_items(items, rel.schema());
                        let mut rel = rel.with_schema(schema);
                        rel.set_pk(None);
                        Data::Rows(rel)
                    }
                    input if columnar => {
                        let b = input.into_batch();
                        let (out, typed) = batch::project(&b, items, par, &mut self.stats)?;
                        self.typed = Some(typed);
                        Data::Cols(out)
                    }
                    input => {
                        let rel = input.into_relation();
                        Data::Rows(ops::project_par(&rel, items, par, &mut self.stats)?)
                    }
                };
                self.stats.rows_produced += out.len() as u64;
                Ok(out)
            }
            Plan::Aggregate {
                group_by, items, ..
            } => {
                let agg = self.profile.agg;
                let mut input = match next() {
                    Data::Folded(folded) => {
                        (self.typed, self.fused) = (Some(folded.typed), true);
                        return Ok(Data::Cols(folded.out));
                    }
                    input => input,
                };
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
                let keys = Self::join_keys(&mut node.keys, [l.schema(), r.schema()], on)?;
                if columnar && self.profile.join == JoinStrategy::Hash && residual.is_none() {
                    let (lb, rb) = (l.into_batch(), r.into_batch());
                    let product = &mut node.product;
                    if let Some(out) =
                        self.batch_join(left, &lb, &rb, keys, *kind, takes, product)?
                    {
                        return Ok(out);
                    }
                    // no key, or non-`Int` keys
                    (l, r) = (Data::Cols(lb), Data::Cols(rb));
                }
                let (lrel, rrel) = (l.into_relation(), r.into_relation());
                // held while the join borrows their orders
                let lindex = self.index_order(left, &keys.left);
                let rindex = self.index_order(right, &keys.right);
                Ok(Data::Rows(ops::join_par(
                    &lrel,
                    &rrel,
                    keys,
                    residual.as_ref(),
                    *kind,
                    self.profile.join,
                    JoinOrders {
                        left: lindex.as_deref().map(TrieIndex::perm),
                        right: rindex.as_deref().map(TrieIndex::perm),
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
                let keys = Self::join_keys(&mut node.keys, [l.schema(), r.schema()], on)?;
                Ok(Data::Rows(ops::anti_join_par(
                    &l,
                    &r,
                    keys,
                    *imp,
                    self.profile.join,
                    par,
                    &mut self.stats,
                )?))
            }
            Plan::SemiJoin { on, .. } => {
                let (l, r) = (next().into_relation(), next().into_relation());
                let keys = Self::join_keys(&mut node.keys, [l.schema(), r.schema()], on)?;
                Ok(Data::Rows(ops::semi_join_par(
                    &l,
                    &r,
                    keys,
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
    /// as the table's adjacency on that column has distinct keys, is driven
    /// by the small side through the adjacency instead of hashing. `None` —
    /// any other join, a table whose current statistics count too few
    /// distinct keys, or a table still paying rent (`Catalog::join_index`)
    /// — leaves the join to [`batch::hash_join`]; nothing is touched before
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
        // a table has no more distinct keys than rows, and its statistics,
        // while current, count them: decline before paying rent when not
        // even those are enough
        let drives = |keys: usize| rb.len() * batch::DRIVE_RATIO <= keys;
        if !drives(lb.len()) || !matches!(rb.col(*rk), ColumnVec::Int { .. }) {
            return Ok(None);
        }
        let Plan::Scan { table, .. } = left else {
            return Ok(None);
        };
        let stats = self.catalog.entry(table)?.stats();
        if !stats
            .and_then(|s| s.column(*lk))
            .is_none_or(|c| drives(c.ndv))
        {
            return Ok(None);
        }
        let Some((index, build_ns)) = self.catalog.join_index(table, *lk)? else {
            return Ok(None);
        };
        if !drives(index.distinct_keys()) {
            return Ok(None);
        }
        if self.tracer.is_some() {
            let name = &lb.schema().columns()[*lk].name;
            let small = &rb.schema().columns()[*rk];
            let side = small.qualifier.as_deref().unwrap_or(&small.name);
            self.join_index = Some(format!("driven={side}, index={table}.{name}"));
        }
        let pairs = batch::driven_join(rb, keys, &index, build_ns, &mut self.stats);
        Ok(Some(pairs))
    }

    /// The batch join on `Int` keys: driven by a small side through a
    /// table's adjacency ([`Evaluator::driven_join`]) or hashed
    /// ([`batch::hash_join`]), its pairs gathered into the joined columns.
    /// Under a fused aggregate (`Takes::Fold`) whose semiring product
    /// resolves ([`Product::resolve`], kept in `product` while the inputs'
    /// schemas stay the same) and whose columns fold
    /// ([`batch::Fold::prepare`], checked on every call, before the pair
    /// source is chosen), nothing is gathered (DESIGN §18): the product
    /// folds over the matrix's rows when it pulls, else over the join's
    /// pairs — the push, unless a term converts its matrix operand.
    /// `None`: keys the batch join does not take, for the row join.
    #[allow(clippy::too_many_arguments)]
    fn batch_join(
        &mut self,
        left: &Plan,
        lb: &Batch,
        rb: &Batch,
        keys: &JoinKeys,
        kind: JoinType,
        takes: Takes<'_>,
        product: &mut Option<Keyed<Option<Product>>>,
    ) -> Result<Option<Data>> {
        let par = self.profile.effective_parallelism();
        let product = match takes {
            Takes::Fold(shape) => {
                let (l, r) = (lb.schema(), rb.schema());
                let resolve = || Ok::<_, ()>(Product::resolve(shape, l, r));
                Keyed::get(product, &[l, r], resolve)
                    .ok()
                    .and_then(Option::as_ref)
            }
            _ => None,
        };
        let product =
            product.and_then(|p| Some((p, batch::Fold::prepare(lb, rb, p.group, &p.terms)?)));
        let mut source = (self.driven_join(left, lb, rb, keys, kind)?).map(batch::Source::Pairs);
        // the pull: no small side drove, the matrix is a bare scan of a base
        // table, the vector's key is unique and direct-addressed, and the
        // table's adjacency on the group key is served (rent included)
        let slots = match (&source, &product, left) {
            (None, Some(_), Plan::Scan { .. }) => batch::Slots::of(lb, rb, keys),
            _ => None,
        };
        if let (Some(slots), Some((p, _)), Plan::Scan { table, .. }) = (slots, &product, left) {
            if let Some((adjacency, build_ns)) = self.catalog.join_index(table, p.group)? {
                if self.tracer.is_some() {
                    let name = &lb.schema().columns()[p.group].name;
                    self.join_index = Some(format!("pull, index={table}.{name}"));
                }
                source = Some(batch::Source::Rows(slots, adjacency, build_ns));
            }
        }
        let source = match source {
            Some(source) => source,
            None => match batch::hash_join(lb, rb, keys, kind, par, &mut self.stats)? {
                Some(pairs) => batch::Source::Pairs(pairs),
                None => return Ok(None),
            },
        };
        let pulls = matches!(source, batch::Source::Rows(..));
        let Some((p, fold)) = product.filter(|(_, f)| pulls || !f.converts_matrix) else {
            let batch::Source::Pairs(pairs) = source else {
                unreachable!("only a product pulls: the pull is a pair source of one fold")
            };
            return Ok(Some(Data::Cols(batch::gather(lb, rb, &pairs))));
        };
        if self.tracer.is_some() && !pulls {
            let how = self.join_index.take();
            self.join_index = Some(how.map_or("push".into(), |how| how + ", push"));
        }
        let schemas = p.schemas.clone();
        let folded = fold.run(source, &p.items, schemas, par, &mut self.stats)?;
        Ok(Some(Data::Folded(folded)))
    }

    /// `plan`'s output schema over `inputs` (`Plan::schema_over`), kept in
    /// `node` while they are the same schemas — a scan's over its table's
    /// stored schema, so a table created again resolves again.
    fn output_schema(&self, plan: &Plan, inputs: &[&Schema], node: &mut Node) -> Result<Schema> {
        let stored;
        let over = match plan {
            Plan::Scan { table, .. } => {
                stored = [self.catalog.relation(table)?.schema()];
                &stored[..]
            }
            _ => inputs,
        };
        let schema = Keyed::get(&mut node.schema, over, || {
            plan.schema_over(self.catalog, inputs)
        })?;
        Ok(schema.clone())
    }

    /// A join's key columns `on` over its inputs' schemas `l` and `r`,
    /// kept in `keys` while they are the same schemas.
    fn join_keys<'k>(
        keys: &'k mut Option<Keyed<JoinKeys>>,
        [l, r]: [&Schema; 2],
        on: &[(String, String)],
    ) -> Result<&'k JoinKeys> {
        Keyed::get(keys, &[l, r], || JoinKeys::resolve_schemas(l, r, on))
    }

    /// What `plan` takes from its children, given what its own consumer
    /// takes: a fused aggregate its join's folded groups; a row-only
    /// operator rows — every operator without a column kernel, and a join
    /// the batch hash join cannot take statically (a residual, another
    /// strategy); an identity projection what its consumer takes (it
    /// renames rows, so only a consumer of rows asks its scan for them);
    /// anything else columns where its kernel produces them. Decided from
    /// the plan and the profile alone, so a traced and an untraced run take
    /// the same shapes, and kept in `node` — but an identity projection's,
    /// which reads its input's schema, is decided on every call.
    fn takes_from<'p>(&self, plan: &'p Plan, takes: Takes<'p>, node: &mut Node) -> Takes<'p> {
        let shape = || MvShape::of(plan).expect("kept only for a fused aggregate");
        match node.takes {
            Some(Taken::Cols) => return Takes::Cols,
            Some(Taken::Rows) => return Takes::Rows,
            Some(Taken::Fold) => return Takes::Fold(shape()),
            None => {}
        }
        let taken = self.decide_takes(plan, takes);
        if !matches!(plan, Plan::Project { .. }) {
            node.takes = Some(match taken {
                Takes::Cols => Taken::Cols,
                Takes::Rows => Taken::Rows,
                Takes::Fold(_) => Taken::Fold,
            });
        }
        taken
    }

    /// [`Evaluator::takes_from`], decided.
    fn decide_takes<'p>(&self, plan: &'p Plan, takes: Takes<'p>) -> Takes<'p> {
        if let Some(shape) = self.fuses(plan) {
            return Takes::Fold(shape);
        }
        let rows = match plan {
            Plan::Window { .. }
            | Plan::Distinct(_)
            | Plan::Product { .. }
            | Plan::Union { .. }
            | Plan::Difference { .. }
            | Plan::AntiJoin { .. }
            | Plan::SemiJoin { .. } => true,
            Plan::Join { residual, .. } => {
                residual.is_some() || self.profile.join != JoinStrategy::Hash
            }
            // only a batch scan tells rows from columns: the row engine
            // need not resolve the input's schema ahead of evaluating it
            Plan::Project { input, items } => {
                matches!(takes, Takes::Rows)
                    && self.profile.exec == ExecMode::Batch
                    && input
                        .schema(self.catalog)
                        .is_ok_and(|s| is_identity(items, &s))
            }
            _ => false,
        };
        if rows {
            Takes::Rows
        } else {
            Takes::Cols
        }
    }

    /// May `plan` run as one operator with the join under it (DESIGN §18)?
    /// An MV-join ([`MvShape`]) under `Rules` / `Cost` with batch execution
    /// and the hash join and hash aggregation: when its semiring product
    /// folds ([`Evaluator::batch_join`]), the join hands the aggregate its
    /// groups already folded; otherwise the two run unfused. `Off` — every
    /// paper profile — keeps two operators.
    fn fuses<'p>(&self, plan: &'p Plan) -> Option<MvShape<'p>> {
        let p = self.profile;
        let hash = p.join == JoinStrategy::Hash && p.agg == AggStrategy::Hash;
        let on = hash && p.optimizer != Optimizer::Off && p.exec == ExecMode::Batch;
        on.then(|| MvShape::of(plan)).flatten()
    }

    /// The stored sort order on `cols` that can serve a join input — the
    /// table's trie on exactly `cols`, read as its `perm()` (Fig. 10's
    /// index is the one-level trie) — only when the child is a direct
    /// table scan and the profile uses indexes.
    fn index_order(&self, child: &Plan, cols: &[usize]) -> Option<Arc<TrieIndex>> {
        match child {
            Plan::Scan { table, .. } if self.profile.indexes => self.catalog.trie_on(table, cols),
            _ => None,
        }
    }
}

/// [`Takes`] as a [`Prepared`] keeps it: a fused aggregate's shape is read
/// off the plan again.
#[derive(Clone, Copy)]
enum Taken {
    Cols,
    Rows,
    Fold,
}

/// What a node's consumer takes from it ([`Evaluator::takes_from`]).
#[derive(Clone, Copy)]
enum Takes<'p> {
    /// Columns, where the node's kernel produces them.
    Cols,
    /// Rows: the root, a row-only operator, or an identity projection that
    /// passes rows on. A scan then hands out the table's own rows.
    Rows,
    /// The groups its semiring product folds, when it folds, else columns:
    /// the node is the join under the fused aggregate `MvShape` (DESIGN §18).
    Fold(MvShape<'p>),
}

/// Is `items` over `input` the identity — every column, in order, under any
/// names? Such a projection only renames its input's rows.
fn is_identity(items: &[(ScalarExpr, String)], input: &Schema) -> bool {
    items.len() == input.arity()
        && items.iter().enumerate().all(|(i, (e, _))| match e {
            ScalarExpr::Col(name) => input.index_of(name).is_ok_and(|c| c == i),
            ScalarExpr::BoundCol(c) => *c == i,
            _ => false,
        })
}

/// A value flowing between operators: columnar when the producing operator
/// ran a batch kernel, row-materialized otherwise. The two bridge methods
/// are the only row⇄column transposes in the evaluator, and both are
/// exact, so mixing the two shapes inside one plan cannot change results.
/// A batch join under a fused aggregate may hand it the aggregate's groups,
/// already folded (DESIGN §18).
pub(crate) enum Data {
    Rows(Relation),
    Cols(Batch),
    Folded(batch::Folded),
}

impl Data {
    pub(crate) fn len(&self) -> usize {
        match self {
            Data::Rows(r) => r.len(),
            Data::Cols(b) => b.len(),
            Data::Folded(f) => f.pairs,
        }
    }

    pub(crate) fn schema(&self) -> &Schema {
        match self {
            Data::Rows(r) => r.schema(),
            Data::Cols(b) => b.schema(),
            Data::Folded(f) => &f.schema,
        }
    }

    /// Append row `i`'s values to `out`.
    pub(crate) fn push_row(&self, i: usize, out: &mut Vec<Value>) {
        match self {
            Data::Rows(r) => out.extend_from_slice(&r[i]),
            Data::Cols(b) => out.extend(b.columns().iter().map(|c| c.value(i))),
            Data::Folded(_) => unreachable!("folded groups go only to their aggregate"),
        }
    }

    fn into_batch(self) -> Batch {
        match self {
            Data::Rows(r) => Batch::from_relation(&r),
            Data::Cols(b) => b,
            Data::Folded(_) => unreachable!("folded groups go only to their aggregate"),
        }
    }

    pub(crate) fn into_relation(self) -> Relation {
        match self {
            Data::Rows(r) => r,
            data => data.into_batch().to_relation(),
        }
    }
}

/// Convenience: evaluate a plan once, with fresh stats.
pub fn execute(
    plan: &Plan,
    catalog: &Catalog,
    profile: &EngineProfile,
) -> Result<(Relation, ExecStats)> {
    execute_traced(plan, catalog, profile, None)
}

/// [`execute`] with an optional tracer recording one span per operator.
pub fn execute_traced(
    plan: &Plan,
    catalog: &Catalog,
    profile: &EngineProfile,
    tracer: Option<&aio_trace::Tracer>,
) -> Result<(Relation, ExecStats)> {
    let mut ev = Evaluator::with_tracer(catalog, profile, tracer);
    let rel = ev.eval_root(plan, &mut Prepared::default())?;
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
        let c = catalog();
        c.trie_for("E", &[1]).unwrap(); // index on E.T
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
