//! The PSM interpreter: runs a [`CompiledWithPlus`] as the stored procedure
//! of Algorithm 1 — create temp tables, loop materializing `computed by`
//! relations and recursive subqueries, check the per-subquery emptiness
//! conditions `C_i`, apply union / union-by-update, exit on fixpoint or
//! `maxrecursion`, then run the final query.
//!
//! There is one loop (`PsmRunner::iterate`). Statements, cold view builds
//! and incremental view refreshes ([`crate::ivm`]) all run it; they differ
//! only in where it starts (`Start`), how a subquery's output is folded
//! into R — which also fixes what the recursive self-reference reads
//! (`Fold`) — and whether an epsilon may stop it before the exact
//! fixpoint.
//!
//! The loop never copies R to find out whether a fold changed it: the
//! union-by-update kernels count the rows they insert or overwrite with a
//! different row (`ExecStats::ubu_changed_rows`), and `C_i` is "that count
//! is nonzero, or |R| moved".
//!
//! A cold run of a keyed `union by update` may be *delta-driven*: fold by
//! improvement and feed the recursive step only the rows the previous
//! iteration improved, instead of re-joining all of R. The compiler proves
//! the statement's shape allows it once, on the unoptimized plans
//! (`classify`); under `Optimizer::Rules` / `Cost` the loop then checks
//! the data at iteration 0 — which reads all of R under either fold — and
//! switches to `Fold::Improve` if they hold. R is then the same after
//! every iteration as under Algorithm 1's replacement; only the rows each
//! iteration derives shrink (DESIGN §16 has the argument). `Optimizer::Off`
//! — every paper profile — keeps the full-width loop. The improve fold
//! keeps one key lookup over R for the whole loop and, under batch
//! execution, reads each step's result as the columns it left the
//! evaluator in. So does a full-width keyed replace under the optimizer
//! and batch execution (the replace rule of the same column fold), which
//! also keeps R's columnar image current from one iteration to the next.

use crate::ast::{UnionMode, WithPlus};
use crate::compile::{CompiledStep, CompiledWithPlus};
use crate::error::{Result, WithPlusError};
use aio_algebra::ops::{self, Delta, KeyLookup, Replaced, UbuImpl};
use aio_algebra::{
    AggFunc, BinOp, EngineProfile, Evaluator, ExecMode, ExecStats, Func, JoinType, Optimizer, Plan,
    Prepared, ScalarExpr,
};
use aio_storage::{
    Batch, Catalog, Column, KeyIndex, Mutation, Relation, Schema, StorageError, Value,
};
use aio_trace::Tracer;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// What one recursive subquery did in one iteration: its delta cardinality
/// and the emptiness-condition `C_i` outcome (Algorithm 1 exits when every
/// `C_i` is false).
#[derive(Clone, Debug)]
pub struct SubqueryIterStat {
    /// Tuples this subquery produced this iteration.
    pub delta_rows: usize,
    /// `C_i`: did applying this subquery's delta change R?
    pub changed: bool,
    /// Rows union-by-update inserted or overwrote with a different row, as
    /// the operator counted them (0 for union/union-all modes, where
    /// `delta_rows`/dedup tell the story).
    pub ubu_changed_rows: usize,
}

/// Per-iteration record (drives Fig. 12/13: running time and number of
/// tuples per iteration).
#[derive(Clone, Debug)]
pub struct IterStat {
    /// |R| after this iteration.
    pub r_rows: usize,
    /// Tuples the recursive subqueries produced this iteration.
    pub delta_rows: usize,
    pub elapsed: Duration,
    /// Operator counters attributable to *this* iteration alone
    /// (`RunStats::exec` minus the snapshot taken when it started).
    pub exec: ExecStats,
    /// One entry per recursive subquery, in declaration order.
    pub subqueries: Vec<SubqueryIterStat>,
}

/// Whole-run statistics.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    pub iterations: Vec<IterStat>,
    /// Grand total over the whole run: initialization + every iteration +
    /// the final query (`init_exec` + Σ `iterations[i].exec` + `final_exec`).
    pub exec: ExecStats,
    /// Counters from the initialization subqueries (and their `computed by`
    /// steps) only.
    pub init_exec: ExecStats,
    /// Counters from the final query only. Previously these were
    /// indistinguishable inside `exec`, silently merged with whatever the
    /// last iteration did.
    pub final_exec: ExecStats,
    pub elapsed: Duration,
    /// Peak estimated bytes of any single operator output during the run
    /// (0 when metrics are disabled).
    pub peak_mem_bytes: u64,
    /// Trie/stats-cache and durable-WAL traffic attributed to this query.
    /// The runner only sees evaluator-level peaks; `Database::execute`
    /// fills this from the thread-local attribution counters.
    pub cache: aio_metrics::CacheCounters,
    /// Did the loop fold by improvement from iteration 0 on, reading only
    /// the frontier (a delta-driven cold run, DESIGN §16)?
    pub delta_driven: bool,
    /// Copy of the recursive relation `R` after each iteration, captured
    /// only when `EngineProfile::capture_snapshots` is set. The testkit
    /// compares these across engines to pin the *first* diverging
    /// iteration instead of only the final answer.
    pub snapshots: Vec<Relation>,
}

/// Result of executing a statement.
#[derive(Debug)]
pub struct QueryResult {
    pub relation: Relation,
    pub stats: RunStats,
}

/// Hard cap when no `maxrecursion` is given (SQL-Server's limit, which the
/// paper adopts).
const DEFAULT_MAX_RECURSION: usize = 32_767;

/// Re-shape a query result to the declared column names of a temp table.
pub(crate) fn rename_to(rel: Relation, names: &[String]) -> Result<Relation> {
    let schema = renamed(rel.schema(), names)?;
    Ok(rel.with_schema(schema))
}

/// A query result's schema under the declared column names of a temp table.
fn renamed(schema: &Schema, names: &[String]) -> Result<Schema> {
    if schema.arity() != names.len() {
        return Err(WithPlusError::Restriction(format!(
            "result has {} columns, expected {} ({})",
            schema.arity(),
            names.len(),
            names.join(", ")
        )));
    }
    let cols = names
        .iter()
        .zip(schema.columns())
        .map(|(n, c)| Column::new(n, c.ty))
        .collect();
    Ok(Schema::new(cols))
}

/// Rewrite direct scans of `rec` to scan `replacement` instead, keeping the
/// original name as the alias so qualified references still resolve.
pub fn rebind_scan(plan: &Plan, rec: &str, replacement: &str) -> Plan {
    fn go(plan: Plan, rec: &str, replacement: &str) -> Plan {
        match plan {
            Plan::Scan { table, alias } if table.eq_ignore_ascii_case(rec) => Plan::Scan {
                table: replacement.to_string(),
                alias: Some(alias.unwrap_or(table)),
            },
            other => other.map_children(|c| go(c, rec, replacement)),
        }
    }
    go(plan.clone(), rec, replacement)
}

pub(crate) fn num(v: &Value) -> Option<f64> {
    v.as_f64().or_else(|| v.as_int().map(|i| i as f64))
}

/// Largest absolute numeric move folding `delta` into `r` by `keys` would
/// make, read before the fold. `None` marks a structural change that
/// epsilon stopping must not swallow: a delta key R lacks (an insert),
/// duplicate keys in R, a non-numeric column that changes, or a move to or
/// from NaN (it has no size). With unique delta keys this is the largest
/// move of the fold itself; duplicate delta keys (`UPDATE ... FROM`) can
/// only make it larger.
fn max_keyed_change(r: &Relation, delta: &Relation, keys: &[usize]) -> Option<f64> {
    let idx = KeyIndex::build(r, keys);
    if idx.first_duplicate(r).is_some() {
        return None;
    }
    let mut max = 0.0f64;
    for row in delta.rows() {
        let ri = idx.probe(r, row, keys).next()? as usize;
        for (a, b) in r[ri].iter().zip(row.iter()) {
            if a != b {
                let moved = (num(a)? - num(b)?).abs();
                if moved.is_nan() {
                    return None;
                }
                max = max.max(moved);
            }
        }
    }
    Some(max)
}

/// How one recursive subquery's output is folded into R. The fold also
/// fixes what the recursive self-reference reads: replace semantics are
/// only sound on a delta derived from all of R, so [`Fold::Replace`] reads
/// R itself; the other folds return exactly the rows that changed R, and
/// the self-reference reads those — the frontier — instead.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Fold {
    /// `union all`: insert every derived row; all of them are frontier.
    InsertAll,
    /// `union`: insert the rows R does not hold yet; those are frontier.
    InsertFresh,
    /// `union by update`: replace by key (keyless: replace R wholesale).
    Replace { keys: Option<Vec<usize>> },
    /// Keep per key the better value under the fixpoint's own `min`/`max`
    /// ([`ops::ubu_merge_improve`]); the improved rows are frontier.
    Improve {
        keys: Vec<usize>,
        value_col: usize,
        min: bool,
    },
}

impl Fold {
    /// The fold a statement's union mode asks for.
    fn of(stmt: &WithPlus) -> Result<Fold> {
        let position = |k: &String| {
            stmt.rec_cols
                .iter()
                .position(|col| col.eq_ignore_ascii_case(k))
                .ok_or_else(|| {
                    WithPlusError::Restriction(format!(
                        "union by update key {k} is not a column of {}",
                        stmt.rec_name
                    ))
                })
        };
        Ok(match &stmt.union {
            UnionMode::All => Fold::InsertAll,
            UnionMode::Distinct => Fold::InsertFresh,
            UnionMode::ByUpdate(None) => Fold::Replace { keys: None },
            UnionMode::ByUpdate(Some(keys)) => Fold::Replace {
                keys: Some(keys.iter().map(position).collect::<Result<_>>()?),
            },
        })
    }

    /// Key positions within R (they double as R's primary key).
    pub(crate) fn keys(&self) -> Option<&[usize]> {
        match self {
            Fold::Replace { keys } => keys.as_deref(),
            Fold::Improve { keys, .. } => Some(keys),
            Fold::InsertAll | Fold::InsertFresh => None,
        }
    }

    fn reads_frontier(&self) -> bool {
        !matches!(self, Fold::Replace { .. })
    }
}

/// How a view of a statement can be maintained (DESIGN §16), derived from
/// its compiled form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewClass {
    /// `union` (distinct) recursion: a monotone set fixpoint.
    Monotone,
    /// Keyed `union by update` whose every recursive step is a single
    /// `min`/`max` aggregate: a monotone lattice fixpoint (WCC/SSSP).
    MonotoneUbu,
    /// Keyed `union by update` with any other combiner (PageRank's `sum`):
    /// non-monotone, but contractive — re-converges from a warm start.
    Reconverge,
    /// No incremental strategy applies; every refresh recomputes.
    Opaque,
}

impl ViewClass {
    pub fn label(self) -> &'static str {
        match self {
            ViewClass::Monotone => "monotone",
            ViewClass::MonotoneUbu => "monotone-ubu",
            ViewClass::Reconverge => "reconverge",
            ViewClass::Opaque => "opaque",
        }
    }
}

/// How a statement's fixpoint folds, proved once by [`classify`] when it
/// is compiled.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Folds {
    /// The statement's own fold (Algorithm 1).
    pub(crate) cold: Fold,
    pub(crate) class: ViewClass,
    /// The fold of an insert-only view refresh: `cold`, except that a
    /// `MonotoneUbu` statement improves by key.
    pub(crate) warm: Fold,
    /// `Some` when the static checks for a delta-driven cold loop hold: the
    /// cold loop then folds by `warm` if the data checks hold at iteration
    /// 0 too. Lists the base columns `(table, column)` the min/max argument
    /// reads, which those checks require finite.
    pub(crate) delta_driven: Option<Vec<(String, String)>>,
}

/// Classify a statement from its *unoptimized* recursive steps, whose
/// `Aggregate` roots are still as lowered: how a view of it is maintained,
/// and whether its cold loop may be delta-driven.
pub(crate) fn classify(stmt: &WithPlus, recursive: &[CompiledStep]) -> Result<Folds> {
    let cold = Fold::of(stmt)?;
    let (class, warm) = view_class(stmt, recursive, &cold);
    let delta_driven = match (&warm, recursive) {
        (Fold::Improve { value_col, .. }, [step]) => {
            delta_driven_reads(&stmt.rec_name, &stmt.rec_cols, *value_col, &step.plan)
        }
        _ => None,
    };
    Ok(Folds {
        cold,
        class,
        warm,
        delta_driven,
    })
}

fn aggs_in(e: &ScalarExpr, out: &mut Vec<AggFunc>) {
    match e {
        ScalarExpr::Agg(f, inner) => {
            out.push(*f);
            aggs_in(inner, out);
        }
        ScalarExpr::Unary(_, a) => aggs_in(a, out),
        ScalarExpr::Binary(_, a, b) => {
            aggs_in(a, out);
            aggs_in(b, out);
        }
        ScalarExpr::Func(_, args) => {
            for a in args {
                aggs_in(a, out);
            }
        }
        ScalarExpr::Col(_)
        | ScalarExpr::BoundCol(_)
        | ScalarExpr::Lit(_)
        | ScalarExpr::AggRef(_) => {}
    }
}

/// The view class, and the fold of insert-only refreshes (`cold` itself
/// unless the statement turns out `MonotoneUbu`).
fn view_class(stmt: &WithPlus, recursive: &[CompiledStep], cold: &Fold) -> (ViewClass, Fold) {
    let opaque = (ViewClass::Opaque, cold.clone());
    if stmt.subqueries.iter().any(|q| !q.computed_by.is_empty()) {
        return opaque;
    }
    let keys = match cold {
        Fold::InsertFresh => return (ViewClass::Monotone, cold.clone()),
        Fold::Replace { keys: Some(keys) } => keys,
        _ => return opaque,
    };
    let reconverge = (ViewClass::Reconverge, cold.clone());
    // MonotoneUbu needs: arity = keys + 1 value column, and every recursive
    // step a root Aggregate whose single aggregate is min (or all max) and
    // sits at the value position.
    let arity = stmt.rec_cols.len();
    let value_col = (0..arity).find(|p| !keys.contains(p));
    let (Some(value_col), true) = (value_col, arity == keys.len() + 1) else {
        return reconverge;
    };
    let mut direction: Option<bool> = None;
    for step in recursive {
        let Plan::Aggregate { items, .. } = &step.plan else {
            return reconverge;
        };
        let mut monotone_here = false;
        for (i, (expr, _)) in items.iter().enumerate() {
            let mut aggs = Vec::new();
            aggs_in(expr, &mut aggs);
            if aggs.is_empty() {
                continue;
            }
            let min = match aggs.as_slice() {
                [AggFunc::Min] => true,
                [AggFunc::Max] => false,
                _ => return reconverge,
            };
            // The aggregate must be the whole item (bare min/max, not an
            // arithmetic combination) and land on the value column.
            let bare = matches!(expr, ScalarExpr::Agg(_, _));
            if !bare || i != value_col || direction.is_some_and(|d| d != min) {
                return reconverge;
            }
            direction = Some(min);
            monotone_here = true;
        }
        if !monotone_here {
            return reconverge;
        }
    }
    match direction {
        Some(min) => (
            ViewClass::MonotoneUbu,
            Fold::Improve {
                keys: keys.clone(),
                value_col,
                min,
            },
        ),
        None => reconverge,
    }
}

/// What the delta-driven checks read below a recursive step's `Aggregate`:
/// its *spine* — the scans reached through inner joins, products, filters
/// and pass-through projections, as `(table, qualifier)` — and every column
/// those nodes name.
#[derive(Default)]
struct Spine<'p> {
    scans: Vec<(&'p str, &'p str)>,
    cols: Vec<String>,
}

impl<'p> Spine<'p> {
    /// Walk `p`; false when an input off the spine reads `rec`.
    fn walk(&mut self, p: &'p Plan, rec: &str) -> bool {
        match p {
            Plan::Scan { table, alias } => {
                self.scans.push((table, alias.as_deref().unwrap_or(table)));
                true
            }
            Plan::Join {
                left,
                right,
                on,
                residual,
                kind: JoinType::Inner,
            } => {
                self.cols
                    .extend(on.iter().flat_map(|(l, r)| [l.clone(), r.clone()]));
                if let Some(e) = residual {
                    e.collect_cols(&mut self.cols);
                }
                self.walk(left, rec) && self.walk(right, rec)
            }
            Plan::Product { left, right } => self.walk(left, rec) && self.walk(right, rec),
            Plan::Select { input, pred } => {
                pred.collect_cols(&mut self.cols);
                self.walk(input, rec)
            }
            Plan::Project { input, items }
                if items
                    .iter()
                    .all(|(e, n)| matches!(e, ScalarExpr::Col(c) if c.eq_ignore_ascii_case(n))) =>
            {
                self.walk(input, rec)
            }
            side => !side
                .any(&|q| matches!(q, Plan::Scan { table, .. } if table.eq_ignore_ascii_case(rec))),
        }
    }
}

/// The min/max argument under the delta-driven check, with what it needs
/// to tell R's value column and base columns apart.
struct Arg<'a> {
    /// Does a column reference name R's value column?
    is_v: &'a dyn Fn(&str) -> bool,
    /// The base `(table, column)` a column reference names, if it is a
    /// column of a spine scan other than R.
    base: &'a dyn Fn(&str) -> Option<(String, String)>,
    /// Base columns read so far.
    reads: Vec<(String, String)>,
}

impl Arg<'_> {
    /// Is `e` non-decreasing in R's value column `v`, reading nothing else
    /// of R? `v`, `v + t`, `t + v`, `v - t`, `least`/`greatest` of one such
    /// and terms, `v * k`, `k * v`, `v / k` — nested — with `k` a positive
    /// literal and `t` a term.
    fn monotone(&mut self, e: &ScalarExpr) -> bool {
        match e {
            ScalarExpr::Col(n) => (self.is_v)(n),
            ScalarExpr::Binary(BinOp::Add, a, b) => self.one_monotone([&**a, &**b], false),
            ScalarExpr::Binary(BinOp::Sub, a, b) => self.monotone(a) && self.term(b, false),
            ScalarExpr::Binary(BinOp::Mul, a, b) => {
                (positive(b) && self.monotone(a)) || (positive(a) && self.monotone(b))
            }
            ScalarExpr::Binary(BinOp::Div, a, b) => positive(b) && self.monotone(a),
            // least/greatest return an argument as it is: an Int term
            // would put Ints, which order before equal Floats, into R
            ScalarExpr::Func(Func::Least | Func::Greatest, args) => self.one_monotone(args, true),
            _ => false,
        }
    }

    /// Exactly one of `args` is monotone, the rest are terms.
    fn one_monotone<'e>(
        &mut self,
        args: impl IntoIterator<Item = &'e ScalarExpr>,
        float_only: bool,
    ) -> bool {
        let (mut monotone, mut ok) = (0, true);
        for a in args {
            if !self.term(a, float_only) {
                monotone += 1;
                ok &= self.monotone(a);
            }
        }
        ok && monotone == 1
    }

    /// A term `t`: a finite literal or a base column (read, the data checks
    /// find it finite).
    fn term(&mut self, e: &ScalarExpr, float_only: bool) -> bool {
        match e {
            ScalarExpr::Lit(Value::Float(f)) => f.is_finite(),
            ScalarExpr::Lit(Value::Int(_)) => !float_only,
            ScalarExpr::Col(n) => (self.base)(n).map(|c| self.reads.push(c)).is_some(),
            _ => false,
        }
    }
}

/// A positive literal `k`.
fn positive(e: &ScalarExpr) -> bool {
    match e {
        ScalarExpr::Lit(Value::Float(k)) => k.is_finite() && *k > 0.0,
        ScalarExpr::Lit(Value::Int(k)) => *k > 0,
        _ => false,
    }
}

/// The static checks for a delta-driven cold loop (DESIGN §16), on the one
/// recursive step of a `MonotoneUbu` statement. The step is an `Aggregate`
/// whose key items are exactly its group-by columns (so every delta has
/// unique keys) over a spine that scans R once, with no other input
/// reading R; R's value column appears only inside the min/max argument,
/// which is non-decreasing in it ([`Arg::monotone`]). Returns the base
/// columns that argument reads.
fn delta_driven_reads(
    rec: &str,
    rec_cols: &[String],
    value_col: usize,
    step: &Plan,
) -> Option<Vec<(String, String)>> {
    let Plan::Aggregate {
        input,
        group_by,
        items,
    } = step
    else {
        return None;
    };
    let mut grouped = vec![false; group_by.len()];
    for (i, (item, _)) in items.iter().enumerate() {
        if i != value_col {
            let ScalarExpr::Col(c) = item else {
                return None;
            };
            let g = group_by.iter().position(|g| g.eq_ignore_ascii_case(c))?;
            if std::mem::replace(&mut grouped[g], true) {
                return None;
            }
        }
    }
    let ScalarExpr::Agg(_, arg) = &items[value_col].0 else {
        return None;
    };
    let mut spine = Spine::default();
    if grouped.contains(&false) || !spine.walk(input, rec) {
        return None;
    }
    let r_scans: Vec<&str> = spine
        .scans
        .iter()
        .filter(|(t, _)| t.eq_ignore_ascii_case(rec))
        .map(|&(_, q)| q)
        .collect();
    let [r] = r_scans[..] else {
        return None;
    };
    let is_v = |name: &str| {
        let bare = match name.split_once('.') {
            Some((q, n)) if q.eq_ignore_ascii_case(r) => n,
            Some(_) => return false,
            None => name,
        };
        rec_cols[value_col].eq_ignore_ascii_case(bare)
    };
    if group_by.iter().chain(&spine.cols).any(|c| is_v(c)) {
        return None;
    }
    let base = |name: &str| {
        let (q, c) = name.split_once('.')?;
        let mut hits = spine
            .scans
            .iter()
            .filter(|(_, sq)| sq.eq_ignore_ascii_case(q));
        match (hits.next(), hits.next()) {
            (Some((t, _)), None) if !t.eq_ignore_ascii_case(rec) => {
                Some((t.to_string(), c.to_string()))
            }
            _ => None,
        }
    };
    let mut arg_check = Arg {
        is_v: &is_v,
        base: &base,
        reads: Vec::new(),
    };
    arg_check.monotone(arg).then_some(arg_check.reads)
}

/// The data checks for a delta-driven cold loop (DESIGN §16), on iteration
/// 0's delta — derived from all of R, so it may go into either fold: R's
/// keys are unique; every key of R is derived again, and no derived row is
/// worse than R's (for Eq. 7 that is the zero-weight self-loop); R's value
/// column holds only floats that are not NaN, and the base columns the
/// argument reads only finite floats. Returns R's key lookup when they all
/// hold, for the improve fold to keep.
fn improve_is_exact(
    catalog: &Catalog,
    c: &CompiledWithPlus,
    delta: &Relation,
) -> Result<Option<KeyLookup>> {
    let (
        Fold::Improve {
            keys,
            value_col,
            min,
        },
        Some(reads),
    ) = (&c.folds.warm, &c.folds.delta_driven)
    else {
        return Ok(None);
    };
    let floats = |rel: &Relation, col: usize, ok: fn(f64) -> bool| {
        rel.rows()
            .iter()
            .all(|r| matches!(r[col], Value::Float(f) if ok(f)))
    };
    for (table, col) in reads {
        let rel = catalog.relation(table)?;
        match rel.schema().index_of(col) {
            Ok(i) if floats(rel, i, f64::is_finite) => {}
            _ => return Ok(None),
        }
    }
    let r = catalog.relation(&c.rec_name)?;
    if !floats(r, *value_col, |f| !f.is_nan()) {
        return Ok(None);
    }
    let Ok(lookup) = KeyLookup::build(r, keys) else {
        return Ok(None);
    };
    let mut derived = vec![false; r.len()];
    for row in delta.rows() {
        if let Some(ri) = lookup.row_of(r, row, keys) {
            let (new, old) = (&row[*value_col], &r[ri][*value_col]);
            if (*min && new > old) || (!*min && new < old) {
                return Ok(None);
            }
            derived[ri] = true;
        }
    }
    Ok(derived.iter().all(|&d| d).then_some(lookup))
}

#[cfg(test)]
thread_local! {
    /// The key lookups over all of R [`unique_key_lookup`] built on this
    /// thread.
    pub(crate) static LOOKUP_BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A key lookup over R for the improve fold, whose keys must be unique.
fn unique_key_lookup(catalog: &Catalog, rec: &str, keys: &[usize]) -> Result<KeyLookup> {
    #[cfg(test)]
    LOOKUP_BUILDS.with(|b| b.set(b.get() + 1));
    let r = catalog.relation(rec)?;
    KeyLookup::build(r, keys).map_err(|i| {
        WithPlusError::Storage(StorageError::DuplicateKey(format!(
            "improve fold over {rec}: {:?}",
            keys.iter().map(|&k| &r[i][k]).collect::<Vec<_>>()
        )))
    })
}

/// The rows a fold contributes to the next frontier, and the same rows as
/// columns when the improve fold read its delta as columns.
type Frontier = (Relation, Option<Batch>);

/// Where the loop starts.
pub(crate) enum Start {
    /// Evaluate the initialization subqueries into a fresh R.
    Init,
    /// R is in the catalog; fold this seed into it and iterate from what
    /// that changed (nothing changed = already at the fixpoint). The improve
    /// fold may start from the caller's key lookup over R.
    Seed(Relation, Option<KeyLookup>),
    /// R (and the frontier table, if the fold reads one) are in the catalog
    /// as of this many completed iterations; carry on from there.
    Resume(usize),
}

/// A started loop: what [`PsmRunner::start`] hands to [`PsmRunner::iterate`].
pub(crate) struct Started {
    /// The recursive steps, self-reference rebound to the frontier table
    /// once per run when the fold reads one, each prepared for the run.
    steps: Vec<Step>,
    frontier: Option<String>,
    fold: Fold,
    /// R's key lookup while a keyed fold reads columns (improve, or the
    /// replace rule), held (and grown by the kernel) across iterations.
    index: Option<KeyLookup>,
    /// A cold run that switches to the improve fold at iteration 0 if the
    /// data checks hold ([`improve_is_exact`]).
    trial: bool,
    /// Index of the next iteration.
    it: usize,
    /// Is there anything left to propagate?
    go: bool,
}

/// One recursive step as the loop runs it, prepared once per run (DESIGN
/// §10): its plan, its span label, what evaluating the plan derives from
/// the plan and the schemas ([`Prepared`]), and R's declared column names
/// over the step's result schema.
struct Step {
    compiled: CompiledStep,
    label: String,
    prepared: Prepared,
    /// `renamed(from, rec_cols)` for the step's result schema `from`, kept
    /// while the step's results have equal schemas: R's delta and the
    /// frontier table then keep one schema from iteration to iteration,
    /// and so does every schema prepared over the frontier's scan.
    renamed: Option<(Schema, Schema)>,
}

impl Step {
    fn new(qi: usize, compiled: CompiledStep) -> Step {
        Step {
            compiled,
            label: format!("rec[{qi}]"),
            prepared: Prepared::default(),
            renamed: None,
        }
    }

    /// The step's result schema `result` under R's column names `names`.
    fn renamed(&mut self, result: &Schema, names: &[String]) -> Result<Schema> {
        match &self.renamed {
            Some((from, to)) if from == result => Ok(to.clone()),
            _ => {
                let to = renamed(result, names)?;
                self.renamed = Some((result.clone(), to.clone()));
                Ok(to)
            }
        }
    }
}

/// The recursive steps as `fold` runs them, prepared afresh: the
/// self-reference rebound to the frontier table when the fold reads one,
/// and that table's name.
fn bind_steps(c: &CompiledWithPlus, fold: &Fold) -> (Vec<Step>, Option<String>) {
    let rec = &c.rec_name;
    let frontier = fold.reads_frontier().then(|| format!("__delta_{rec}"));
    let bind = |s: &CompiledStep| match &frontier {
        Some(f) => CompiledStep {
            computed: s.computed.clone(),
            plan: rebind_scan(&s.plan, rec, f),
        },
        None => s.clone(),
    };
    let steps = c.recursive.iter().map(bind).enumerate();
    (steps.map(|(qi, s)| Step::new(qi, s)).collect(), frontier)
}

/// The runtime for one with+ execution.
pub struct PsmRunner<'a> {
    pub catalog: &'a mut Catalog,
    pub profile: &'a EngineProfile,
    pub ubu_impl: UbuImpl,
    /// temp tables created by this run (dropped afterwards)
    created: Vec<String>,
    /// The caller's table that holds R across runs (a maintained view's):
    /// created as a base table, replaced by `Start::Init`, never dropped.
    pub(crate) keep: Option<String>,
    index_specs: HashMap<String, Vec<String>>,
    stats: RunStats,
    tracer: Option<&'a Tracer>,
}

impl<'a> PsmRunner<'a> {
    pub fn new(catalog: &'a mut Catalog, profile: &'a EngineProfile, ubu_impl: UbuImpl) -> Self {
        PsmRunner {
            catalog,
            profile,
            ubu_impl,
            created: Vec::new(),
            keep: None,
            index_specs: HashMap::new(),
            stats: RunStats::default(),
            tracer: None,
        }
    }

    /// Record spans for this run: one `query` span per subquery execution
    /// (labelled `init[i]`, `rec[i]`, `<label>.computed.<name>`, `final`)
    /// wrapping the evaluator's per-operator spans, plus one `iteration`
    /// span per loop pass carrying the convergence telemetry.
    pub fn set_tracer(&mut self, tracer: Option<&'a Tracer>) {
        self.tracer = tracer;
    }

    fn keeps(&self, name: &str) -> bool {
        self.keep
            .as_deref()
            .is_some_and(|k| k.eq_ignore_ascii_case(name))
    }

    /// Evaluate a plan run once (an initialization, `computed by` or final
    /// query): prepared afresh.
    pub(crate) fn eval(&mut self, plan: &Plan, label: &str) -> Result<Relation> {
        self.eval_prepared(plan, label, &mut Prepared::default())
    }

    /// [`PsmRunner::eval`] through the plan's own `prepared`.
    fn eval_prepared(
        &mut self,
        plan: &Plan,
        label: &str,
        prepared: &mut Prepared,
    ) -> Result<Relation> {
        self.eval_as(label, |ev| ev.eval_root(plan, prepared), Relation::len)
    }

    /// [`PsmRunner::eval_prepared`] whose result stays the root's columns.
    fn eval_batch(&mut self, plan: &Plan, label: &str, prepared: &mut Prepared) -> Result<Batch> {
        self.eval_as(label, |ev| ev.eval_root_batch(plan, prepared), Batch::len)
    }

    fn eval_as<T>(
        &mut self,
        label: &str,
        root: impl FnOnce(&mut Evaluator<'_>) -> aio_algebra::Result<T>,
        len: impl FnOnce(&T) -> usize,
    ) -> Result<T> {
        let span = aio_trace::maybe_span(self.tracer, "query");
        if let Some(s) = &span {
            s.field("plan", label.to_string());
        }
        let mut ev = Evaluator::with_tracer(self.catalog, self.profile, self.tracer);
        let out = root(&mut ev)?;
        self.stats.exec.absorb(&ev.stats);
        self.stats.peak_mem_bytes = self.stats.peak_mem_bytes.max(ev.mem_peak());
        if let Some(s) = &span {
            s.field("rows_out", len(&out) as u64);
        }
        Ok(out)
    }

    /// `CREATE TEMP TABLE name` + `INSERT INTO name SELECT …` with WAL and
    /// index maintenance — the per-step cost of the PSM translation.
    pub(crate) fn materialize(&mut self, name: &str, rel: Relation) -> Result<()> {
        self.materialize_with(name, rel, None)
    }

    /// [`PsmRunner::materialize`] of rows whose columns `cols` are at hand:
    /// they become the table's columnar image. Under `Cost` the table
    /// keeps statistics, sketched (off that image) only if read.
    fn materialize_with(&mut self, name: &str, rel: Relation, cols: Option<Batch>) -> Result<()> {
        let keep = self.keeps(name);
        if !self.catalog.contains(name) && !keep {
            self.created.push(name.to_string());
        }
        let create = Mutation::Create {
            name: name.to_string(),
            rel,
            temp: !keep,
            replace: true,
        };
        self.catalog.apply(create, self.profile.wal_temp)?;
        // an empty batch may spell a column otherwise than a transpose
        if let Some(cols) = cols.filter(|b| !b.is_empty()) {
            self.catalog.install_image(name, cols)?;
        }
        self.mark_stats(name)?;
        self.build_indexes(name)?;
        Ok(())
    }

    /// Under the cost-based optimizer, a table the loop writes keeps
    /// statistics — the shrinking `__delta_*` working table among them, so
    /// per-execution EXPLAIN estimates track it. O(1): nothing is sketched
    /// unless read.
    fn mark_stats(&mut self, name: &str) -> Result<()> {
        if self.profile.optimizer == Optimizer::Cost {
            self.catalog.analyze(name)?;
        }
        Ok(())
    }

    fn build_indexes(&mut self, name: &str) -> Result<()> {
        if !self.profile.indexes {
            return Ok(());
        }
        let Some(cols) = self.index_specs.get(&name.to_ascii_lowercase()) else {
            return Ok(());
        };
        let col_idx: Vec<usize> = {
            let rel = self.catalog.relation(name)?;
            cols.iter()
                .filter_map(|c| rel.schema().index_of(c).ok())
                .collect()
        };
        // Fig. 10's index: the one-level trie on each join column, built
        // now so the fill pays for it
        for c in col_idx {
            self.catalog.trie_for(name, &[c])?;
        }
        Ok(())
    }

    fn run_step_computed(&mut self, step: &CompiledStep, label_prefix: &str) -> Result<()> {
        for (name, cols, plan) in &step.computed {
            let rel = self.eval(plan, &format!("{label_prefix}.computed.{name}"))?;
            let rel = rename_to(rel, cols)?;
            self.materialize(name, rel)?;
        }
        Ok(())
    }

    /// Union of the initialization subqueries — the cold-start contents of R.
    pub(crate) fn init_relation(&mut self, c: &CompiledWithPlus) -> Result<Relation> {
        let mut init_rel: Option<Relation> = None;
        for (i, step) in c.init.iter().enumerate() {
            let label = format!("init[{i}]");
            self.run_step_computed(step, &label)?;
            let rel = self.eval(&step.plan, &label)?;
            let rel = rename_to(rel, &c.rec_cols)?;
            init_rel = Some(match init_rel {
                None => rel,
                Some(acc) => ops::union_all(&acc, &rel)?,
            });
        }
        init_rel.ok_or_else(|| {
            WithPlusError::Restriction(format!("{} has no initial subquery", c.rec_name))
        })
    }

    /// Commit the open transaction at a fixpoint iteration boundary. On a
    /// durable catalog this syncs the WAL; on any catalog it is an MVCC
    /// generation boundary, so pinned snapshot readers watch the fixpoint
    /// converge one committed iteration at a time.
    fn wal_commit_iter_point(&mut self, rec: &str, iters_done: u64) -> Result<()> {
        let span = if self.catalog.is_durable() {
            aio_trace::maybe_span(self.tracer, "wal_append")
        } else {
            None
        };
        let (records, bytes) = self.catalog.wal_commit_iter(rec, iters_done)?;
        if let Some(s) = &span {
            s.field("iters_done", iters_done);
            s.field("records", records);
            s.field("bytes", bytes);
        }
        Ok(())
    }

    /// Execute a compiled with+ statement to completion.
    pub fn run(&mut self, c: &CompiledWithPlus) -> Result<QueryResult> {
        self.run_with(c, None)
    }

    /// Resume an interrupted run: the recursive relation (and, for
    /// semi-naive modes, its working table) were recovered from the WAL
    /// with `completed` fixpoint iterations already durable. Skips the
    /// init queries and continues the loop at iteration `completed`.
    /// Idempotent at the fixpoint: if the run had already converged, the
    /// first resumed iteration produces no change and the loop exits.
    pub fn run_resume(&mut self, c: &CompiledWithPlus, completed: u64) -> Result<QueryResult> {
        self.run_with(c, Some(completed as usize))
    }

    fn run_with(&mut self, c: &CompiledWithPlus, resume: Option<usize>) -> Result<QueryResult> {
        let start = Instant::now();
        let run_span = aio_trace::maybe_span(self.tracer, "psm_run");
        if let Some(s) = &run_span {
            s.field("rec", c.rec_name.clone());
            if let Some(k) = resume {
                s.field("resumed_at", k as u64);
            }
        }
        if resume.is_some() {
            // The recovered temp tables belong to this run now: register
            // them so cleanup drops them exactly like a fresh run would.
            for name in [c.rec_name.clone(), format!("__delta_{}", c.rec_name)]
                .into_iter()
                .chain(c.computed_names().cloned())
            {
                if self.catalog.contains(&name) && !self.created.contains(&name) {
                    self.created.push(name);
                }
            }
        }
        let result = self.with_temps(c, |r| r.run_statement(c, resume));
        if let Some(s) = run_span.as_ref().filter(|_| self.may_improve(c)) {
            let fold = if self.stats.delta_driven {
                "improve"
            } else {
                "replace"
            };
            s.field("fold", fold);
        }
        self.stats.elapsed = start.elapsed();
        let relation = result?;
        Ok(QueryResult {
            relation,
            stats: std::mem::take(&mut self.stats),
        })
    }

    /// What only a statement does around the loop: per-iteration WAL commit
    /// / MVCC publish, `IterStat`s and snapshots, the attributed counters.
    fn run_statement(&mut self, c: &CompiledWithPlus, resume: Option<usize>) -> Result<Relation> {
        // A resumed run continues full-width: R_k is the same under both
        // folds.
        let start = resume.map_or(Start::Init, Start::Resume);
        let started = self.start(c, start, &c.folds.cold)?;

        // Everything counted so far belongs to initialization.
        self.stats.init_exec = self.stats.exec.clone();

        // Durable commit point zero: the init result is on disk before the
        // loop starts, so recovery can resume at iteration 0.
        if resume.is_none() {
            self.wal_commit_iter_point(&c.rec_name, 0)?;
        }

        self.iterate(c, started, f64::INFINITY, |r, it, stat| {
            r.stats.iterations.push(stat);
            if r.profile.capture_snapshots {
                let snapshot = r.catalog.relation(&c.rec_name)?.clone();
                r.stats.snapshots.push(snapshot);
            }
            // Durable iteration boundary: R (and the working table) as of
            // the end of iteration `it` are committed before the loop
            // decides to continue, so a crash mid-iteration resumes from
            // here.
            r.wal_commit_iter_point(&c.rec_name, (it + 1) as u64)
        })?;

        // Attribute the final query's operator counts to their own block
        // instead of silently merging them into the last iteration's tail.
        let exec_before_final = self.stats.exec.clone();
        let out = self.eval(&c.final_plan, "final")?;
        self.stats.final_exec = self.stats.exec.delta_since(&exec_before_final);
        Ok(out)
    }

    /// Run `body` with `c`'s index specs in force, then drop every temp
    /// table it created — even on error.
    pub(crate) fn with_temps<T>(
        &mut self,
        c: &CompiledWithPlus,
        body: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        let result = self.register_indexes(c).and_then(|()| body(self));
        for t in std::mem::take(&mut self.created) {
            let _ = self.catalog.drop_table(&t);
        }
        result
    }

    fn register_indexes(&mut self, c: &CompiledWithPlus) -> Result<()> {
        for (t, col) in &c.index_specs {
            self.index_specs
                .entry(t.clone())
                .or_default()
                .push(col.clone());
        }
        // The working table of semi-naive evaluation inherits the recursive
        // relation's index specs.
        if let Some(rec_specs) = self.index_specs.get(&c.rec_name.to_ascii_lowercase()) {
            self.index_specs.insert(
                format!("__delta_{}", c.rec_name.to_ascii_lowercase()),
                rec_specs.clone(),
            );
        }
        // Base tables referenced by join keys get their indexes up front
        // (a real schema would already have them; the paper's PSM builds
        // indexes on the temp tables, Exp-A).
        if self.profile.indexes {
            let tables: Vec<String> = self.index_specs.keys().cloned().collect();
            for t in tables {
                if self.catalog.contains(&t) {
                    self.build_indexes(&t)?;
                }
            }
        }
        Ok(())
    }

    /// Is the optimizer on and `c` statically fit for a delta-driven cold
    /// loop? Then a cold run tries the improve fold at iteration 0.
    fn may_improve(&self, c: &CompiledWithPlus) -> bool {
        self.profile.optimizer != Optimizer::Off && c.folds.delta_driven.is_some()
    }

    /// Does `fold` read a batch step's result as the columns it left the
    /// evaluator in? The improve fold does; so does a replace on one key
    /// column under the optimizer with the full-outer-join implementation
    /// (Algorithm 1's temp-table shape stays under `Off`, which Tables 4–7
    /// measure), except in a `trial` iteration, whose data checks read
    /// rows.
    fn reads_columns(&self, fold: &Fold, trial: bool) -> bool {
        self.profile.exec == ExecMode::Batch
            && match fold {
                Fold::Improve { .. } => true,
                Fold::Replace { keys: Some(keys) } => {
                    keys.len() == 1
                        && !trial
                        && self.profile.optimizer != Optimizer::Off
                        && self.ubu_impl == UbuImpl::FullOuterJoin
                }
                _ => false,
            }
    }

    /// Fold one subquery's `delta` into R. Returns what it did, the rows
    /// it contributes to the next frontier (`None` for the full-width
    /// fold) and, when `measure` asks for it, the largest numeric move of a
    /// keyed replace (`None`: a structural change, or another fold). `C_i`
    /// is read off the operators: the keyed folds count the rows they
    /// inserted or overwrote with a different row
    /// (`ExecStats::ubu_changed_rows`) and never shrink R, and a keyless
    /// replacement counts the rows old R does not cover — so "R changed"
    /// is "something was counted, or |R| moved". The keyed folds of
    /// columns keep R's key lookup in `index` across calls (built on first
    /// use); the improve fold also hands back its frontier as columns when
    /// it read the delta as columns. A keyed replace the column fold
    /// declines folds R's rows, and drops the lookup.
    fn fold_delta(
        &mut self,
        rec: &str,
        fold: &Fold,
        index: &mut Option<KeyLookup>,
        delta: Delta,
        measure: bool,
    ) -> Result<(SubqueryIterStat, Option<Frontier>, Option<f64>)> {
        let delta_rows = match &delta {
            Delta::Rows(r) => r.len(),
            Delta::Cols(b) => b.len(),
        };
        let rows = |delta| match delta {
            Delta::Rows(r) => r,
            Delta::Cols(b) => b.to_relation(),
        };
        let r_rows = self.catalog.relation(rec)?.len();
        let counted = self.stats.exec.ubu_changed_rows;
        let mut moved = None;
        let frontier = match fold {
            Fold::InsertAll | Fold::InsertFresh => {
                let delta = rows(delta);
                let fresh = if *fold == Fold::InsertAll {
                    delta
                } else {
                    ops::difference(&delta, self.catalog.relation(rec)?)?
                };
                if !fresh.is_empty() {
                    self.catalog
                        .insert_rows(rec, fresh.rows().to_vec(), self.profile.wal_temp)?;
                }
                Some((fresh, None))
            }
            Fold::Replace { keys } => {
                let folded = match (&delta, keys) {
                    (Delta::Cols(b), Some(keys)) => ops::ubu_replace_cols(
                        self.catalog,
                        rec,
                        b,
                        keys,
                        index,
                        &mut self.stats.exec,
                    )?,
                    _ => Replaced::Declined,
                };
                if let Replaced::Folded { moved: m } = folded {
                    self.mark_stats(rec)?;
                    moved = m;
                } else {
                    let delta = rows(delta);
                    if let (true, Some(keys)) = (measure, keys) {
                        moved = max_keyed_change(self.catalog.relation(rec)?, &delta, keys);
                    }
                    // the row path rewrites R; a lookup is built again
                    // when the column fold next runs
                    *index = None;
                    ops::union_by_update(
                        self.catalog,
                        rec,
                        delta,
                        keys.as_deref(),
                        self.ubu_impl,
                        self.profile,
                        &mut self.stats.exec,
                    )?;
                }
                None
            }
            Fold::Improve {
                keys,
                value_col,
                min,
            } => {
                let index = match index {
                    Some(index) => index,
                    None => index.insert(unique_key_lookup(self.catalog, rec, keys)?),
                };
                Some(ops::ubu_merge_improve(
                    self.catalog,
                    rec,
                    delta,
                    index,
                    *value_col,
                    *min,
                    &mut self.stats.exec,
                )?)
            }
        };
        let ubu_changed_rows = (self.stats.exec.ubu_changed_rows - counted) as usize;
        let sub = SubqueryIterStat {
            delta_rows,
            changed: ubu_changed_rows > 0 || self.catalog.relation(rec)?.len() != r_rows,
            ubu_changed_rows,
        };
        Ok((sub, frontier, moved))
    }

    /// Bring R (and the frontier table, when `fold` reads one) to where the
    /// loop starts, and bind the recursive steps to what they read.
    pub(crate) fn start(
        &mut self,
        c: &CompiledWithPlus,
        start: Start,
        fold: &Fold,
    ) -> Result<Started> {
        let rec = &c.rec_name;
        // For the frontier folds the recursive self-reference binds to the
        // previous iteration's *working table* (SQL'99 / PostgreSQL
        // semi-naive semantics); `computed by` relations and replacing
        // union-by-update queries read the full accumulated R.
        let (steps, frontier) = bind_steps(c, fold);
        // A cold run the compiler found fit starts replacing and reading R,
        // as iteration 0 reads all of R under either fold; its data checks
        // decide the fold from there on.
        let trial = matches!(start, Start::Init) && self.may_improve(c);
        let mut index = None;
        let (it, go) = match start {
            Start::Init => {
                if self.catalog.contains(rec) && !self.keeps(rec) {
                    return Err(WithPlusError::Restriction(format!(
                        "recursive relation {rec} collides with an existing table"
                    )));
                }
                let mut r0 = self.init_relation(c)?;
                // `union` keeps the recursive relation a set; duplicate rows
                // from the initial subqueries (e.g. multi-edges) must not
                // survive either, per SQL's distinct-union semantics.
                if *fold == Fold::InsertFresh {
                    r0 = ops::distinct(&r0);
                }
                // union-by-update keys double as the primary key of R
                if let Some(keys) = fold.keys() {
                    r0.set_pk(Some(keys.to_vec()));
                }
                self.materialize(rec, r0)?;
                // The working table starts as the initialization result.
                if let Some(f) = &frontier {
                    let w = self.catalog.relation(rec)?.clone();
                    self.materialize(f, w)?;
                }
                (0, true)
            }
            Start::Seed(seed, lent) => {
                index = lent;
                let seed = Delta::Rows(seed);
                let (sub, next, _) = self.fold_delta(rec, fold, &mut index, seed, false)?;
                if let (Some(f), Some((next, cols))) = (&frontier, next) {
                    self.materialize_with(f, next, cols)?;
                }
                if sub.changed {
                    self.build_indexes(rec)?;
                }
                (0, sub.changed)
            }
            Start::Resume(k) => {
                for t in std::iter::once(rec).chain(&frontier) {
                    if !self.catalog.contains(t) {
                        return Err(WithPlusError::Restriction(format!(
                            "resume: recovered catalog has no table {t}"
                        )));
                    }
                }
                self.build_indexes(rec)?;
                (k, true)
            }
        };
        Ok(Started {
            steps,
            frontier,
            fold: fold.clone(),
            index,
            trial,
            it,
            go,
        })
    }

    /// The loop of Algorithm 1: per iteration, evaluate every recursive
    /// subquery, fold its delta into R and record its `C_i`; stop once no
    /// `C_i` held (⇔ the next frontier is empty), at `maxrecursion`, or —
    /// under a finite `epsilon` — once the largest keyed change of a
    /// replacing iteration stays below it. `on_iter` runs at every
    /// iteration boundary, before the loop decides to continue. Returns
    /// the number of iterations run and R's key index, if the fold kept
    /// one.
    pub(crate) fn iterate(
        &mut self,
        c: &CompiledWithPlus,
        started: Started,
        epsilon: f64,
        mut on_iter: impl FnMut(&mut Self, usize, IterStat) -> Result<()>,
    ) -> Result<(usize, Option<KeyLookup>)> {
        let Started {
            mut steps,
            mut frontier,
            mut fold,
            mut index,
            mut trial,
            it: first,
            mut go,
        } = started;
        let rec = &c.rec_name;
        let max = c.max_recursion.unwrap_or(DEFAULT_MAX_RECURSION);
        let loop_start = Instant::now();
        let mut it = first;
        while go && it < max {
            let it_start = Instant::now();
            let exec_at_start = self.stats.exec.clone();
            let it_span = aio_trace::maybe_span(self.tracer, "iteration");
            if let Some(s) = &it_span {
                s.field("iter", it as u64);
            }
            let mut next: Option<Frontier> = None;
            // Largest keyed change this iteration, tracked only under a
            // finite epsilon; `None` also once a change was structural (not
            // a numeric move of existing keys), which epsilon must not
            // swallow.
            let mut max_change = epsilon.is_finite().then_some(0.0f64);
            let mut subqueries: Vec<SubqueryIterStat> = Vec::with_capacity(steps.len());

            for (qi, s) in steps.iter_mut().enumerate() {
                self.run_step_computed(&s.compiled, &s.label)?;
                let delta = if self.reads_columns(&fold, trial) {
                    let b = self.eval_batch(&s.compiled.plan, &s.label, &mut s.prepared)?;
                    let schema = s.renamed(b.schema(), &c.rec_cols)?;
                    Delta::Cols(b.with_schema(schema))
                } else {
                    let rel = self.eval_prepared(&s.compiled.plan, &s.label, &mut s.prepared)?;
                    let schema = s.renamed(rel.schema(), &c.rec_cols)?;
                    Delta::Rows(rel.with_schema(schema))
                };
                if let (Delta::Rows(delta), true) = (&delta, std::mem::take(&mut trial)) {
                    if let Some(lookup) = improve_is_exact(self.catalog, c, delta)? {
                        fold = c.folds.warm.clone();
                        index = Some(lookup);
                        self.stats.delta_driven = true;
                    }
                }
                let measure = max_change.is_some();
                let (sub, fresh, moved) =
                    self.fold_delta(rec, &fold, &mut index, delta, measure)?;
                if let Some(fresh) = fresh {
                    next = Some(match next {
                        None => fresh,
                        Some((acc, _)) if fold == Fold::InsertFresh => {
                            (ops::union_distinct(&acc, &fresh.0)?, None)
                        }
                        Some((acc, _)) => (ops::union_all(&acc, &fresh.0)?, None),
                    });
                }
                if sub.changed {
                    max_change = max_change.zip(moved).map(|(a, b)| a.max(b));
                }
                if let Some(t) = self.tracer {
                    t.event(
                        "subquery",
                        [
                            ("q", aio_trace::FieldValue::UInt(qi as u64)),
                            (
                                "delta_rows",
                                aio_trace::FieldValue::UInt(sub.delta_rows as u64),
                            ),
                            ("c_i", aio_trace::FieldValue::Bool(sub.changed)),
                            (
                                "ubu_changed_rows",
                                aio_trace::FieldValue::UInt(sub.ubu_changed_rows as u64),
                            ),
                        ],
                    );
                }
                subqueries.push(sub);
            }

            if fold.reads_frontier() && frontier.is_none() {
                // switched to the improve fold: from the next iteration on
                // the recursive step reads what this one improved
                (steps, frontier) = bind_steps(c, &fold);
            }
            if let Some(f) = &frontier {
                let (w, cols) = match next {
                    Some(w) => w,
                    None => (
                        Relation::new(self.catalog.relation(rec)?.schema().clone()),
                        None,
                    ),
                };
                self.materialize_with(f, w, cols)?;
            }
            let changed = subqueries.iter().any(|q| q.changed);
            if changed {
                // inserts invalidated R's indexes; rebuild for the next scan
                self.build_indexes(rec)?;
            }
            let r_rows = self.catalog.relation(rec)?.len();
            let delta_rows = subqueries.iter().map(|q| q.delta_rows).sum::<usize>();
            if let Some(s) = &it_span {
                s.field("delta_rows", delta_rows as u64);
                s.field("r_rows", r_rows as u64);
                s.field(
                    "ubu_changed_rows",
                    subqueries
                        .iter()
                        .map(|q| q.ubu_changed_rows as u64)
                        .sum::<u64>(),
                );
                s.field("changed", changed);
            }
            aio_metrics::hooks::fixpoint_iteration(delta_rows as u64);
            let stat = IterStat {
                r_rows,
                delta_rows,
                elapsed: it_start.elapsed(),
                exec: self.stats.exec.delta_since(&exec_at_start),
                subqueries,
            };
            on_iter(self, it, stat)?;
            // every C_i false / fixpoint reached, or close enough to it
            go = changed && !max_change.is_some_and(|d| d < epsilon);
            it += 1;
        }
        aio_metrics::global()
            .engine
            .fixpoint_converge_ms
            .observe(loop_start.elapsed().as_millis() as u64);
        Ok((it - first, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::lower::LowerCtx;
    use crate::parser::{Parser, Statement};
    use aio_algebra::ops::AntiJoinImpl;
    use aio_algebra::{oracle_like, postgres_like};
    use aio_storage::{edge_schema, node_schema, row, Value};

    /// 4-node graph: 1→2→3→4, 1→3.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut e = Relation::new(edge_schema());
        e.extend([
            row![1, 2, 1.0],
            row![2, 3, 1.0],
            row![3, 4, 1.0],
            row![1, 3, 1.0],
        ])
        .unwrap();
        cat.create_table("E", e).unwrap();
        let mut v = Relation::new(node_schema());
        v.extend([row![1, 0.0], row![2, 0.0], row![3, 0.0], row![4, 0.0]])
            .unwrap();
        cat.create_table("V", v).unwrap();
        cat
    }

    fn run_sql(sql: &str, params: &[(&str, Value)]) -> QueryResult {
        let Statement::WithPlus(w) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        let map: HashMap<String, Value> = params
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let ctx = LowerCtx::new(&map, AntiJoinImpl::LeftOuterNull);
        let c = compile(&w, &ctx).unwrap();
        let mut cat = catalog();
        let profile = oracle_like();
        let mut runner = PsmRunner::new(&mut cat, &profile, UbuImpl::FullOuterJoin);
        runner.run(&c).unwrap()
    }

    /// What compiling `sql` proves about its fixpoint (`:c`, `:n` bound).
    fn folds(sql: &str) -> Result<Folds> {
        let Statement::WithPlus(w) = Parser::parse_statement(sql)? else {
            panic!("expected with+")
        };
        let params = HashMap::from([
            ("c".to_string(), Value::from(0.85)),
            ("n".to_string(), Value::from(2.0)),
        ]);
        Ok(compile(&w, &LowerCtx::new(&params, AntiJoinImpl::LeftOuterNull))?.folds)
    }

    #[test]
    fn classification_covers_the_algorithm_sql() {
        let tc = "with TC(F, T) as ((select E.F, E.T from E) union \
                  (select TC.F, E.T from TC, E where TC.T = E.F)) select * from TC";
        let f = folds(tc).unwrap();
        assert_eq!(
            (f.class, &f.warm),
            (ViewClass::Monotone, &Fold::InsertFresh)
        );
        let tc_all = tc.replace("union", "union all");
        let f = folds(&tc_all).unwrap();
        assert_eq!((f.class, &f.warm), (ViewClass::Opaque, &Fold::InsertAll));

        let f = folds(&sssp("min(D.vw + E.ew)", "")).unwrap();
        let improve = Fold::Improve {
            keys: vec![0],
            value_col: 1,
            min: true,
        };
        assert_eq!((f.class, &f.warm), (ViewClass::MonotoneUbu, &improve));
        assert_eq!(
            f.cold,
            Fold::Replace {
                keys: Some(vec![0])
            }
        );

        let pr = "with P(ID, W) as ((select V.ID, 0.0 from V) union by update ID \
                  (select E.T, :c * sum(P.W * E.ew) + (1 - :c) / :n from P, E \
                   where P.ID = E.F group by E.T)) select ID, W from P";
        let f = folds(pr).unwrap();
        let replace = Fold::Replace {
            keys: Some(vec![0]),
        };
        assert_eq!((f.class, &f.warm), (ViewClass::Reconverge, &replace));
        assert_eq!(f.delta_driven, None);
    }

    /// Eq. 7's shape with `agg` as the value item and `filter` ANDed into
    /// the join condition.
    fn sssp(agg: &str, filter: &str) -> String {
        format!(
            "with D(ID, vw) as ((select V.ID, V.vw from V) union by update ID \
             (select E.T, {agg} from D, E where D.ID = E.F {filter} group by E.T)) \
             select * from D"
        )
    }

    #[test]
    fn delta_driven_shape_is_proved_statically() {
        let ew = || vec![("E".to_string(), "ew".to_string())];
        for (agg, filter, want) in [
            ("min(D.vw + E.ew)", "", Some(ew())),
            ("min(E.ew + D.vw)", "", Some(ew())),
            ("min(D.vw - E.ew)", "", Some(ew())),
            ("min(D.vw + 1)", "", Some(vec![])),
            ("min((D.vw + E.ew) + 0.5)", "", Some(ew())),
            ("min(least(D.vw, E.ew))", "", Some(ew())),
            ("max(greatest(D.vw, E.ew) * 2)", "", Some(ew())),
            ("min(D.vw / 2.0)", "and E.ew > 0.0", Some(vec![])),
            // WCC's column product, and arguments that are not
            // non-decreasing in D.vw or read another column of D
            ("min(D.vw * E.ew)", "", None),
            ("min(E.ew - D.vw)", "", None),
            ("min(D.vw * -1)", "", None),
            ("min(D.vw * 0)", "", None),
            ("min(D.vw + D.ID)", "", None),
            ("min(D.vw + D.vw)", "", None),
            ("min(least(D.vw, 1))", "", None),
            // the value column outside the argument
            ("min(D.vw + E.ew)", "and D.vw < 10.0", None),
            // not min/max at all
            ("sum(D.vw + E.ew)", "", None),
        ] {
            let f = folds(&sssp(agg, filter)).unwrap();
            assert_eq!(f.delta_driven, want, "{agg} {filter}");
        }
        // R read twice, off the spine, or through an outer join; keys that
        // are not exactly the group-by columns
        for sql in [
            "with D(ID, vw) as ((select V.ID, V.vw from V) union by update ID \
             (select E.T, min(D.vw + E.ew) from D, E, D D2 \
              where D.ID = E.F and D2.ID = E.T group by E.T)) select * from D",
            "with D(ID, vw) as ((select V.ID, V.vw from V) union by update ID \
             (select E.T, min(D.vw + E.ew) from D, E \
              where D.ID = E.F and E.T not in (select D.ID from D) group by E.T)) \
             select * from D",
            "with D(ID, vw) as ((select V.ID, V.vw from V) union by update ID \
             (select E.T, min(D.vw + E.ew) from D left join E on D.ID = E.F \
              group by E.T)) select * from D",
            "with D(ID, vw) as ((select V.ID, V.vw from V) union by update ID \
             (select E.T, min(D.vw + E.ew) from D, E where D.ID = E.F \
              group by E.T, E.F)) select * from D",
        ] {
            assert_eq!(folds(sql).unwrap().delta_driven, None, "{sql}");
        }
    }

    #[test]
    fn transitive_closure_fig1() {
        // Fig. 1 as with+ (union with dedup so cycles would terminate too)
        let sql = "\
with TC(F, T) as (
  (select E.F, E.T from E)
  union
  (select TC.F, E.T from TC, E where TC.T = E.F))
select * from TC";
        let out = run_sql(sql, &[]);
        // closure of 1→2→3→4, 1→3: pairs from 1: {2,3,4}, from 2: {3,4},
        // from 3: {4} → 6 pairs
        assert_eq!(out.relation.len(), 6);
        assert!(out.stats.iterations.len() >= 2);
    }

    #[test]
    fn snapshots_track_every_iteration_when_enabled() {
        let sql = "\
with TC(F, T) as (
  (select E.F, E.T from E)
  union
  (select TC.F, E.T from TC, E where TC.T = E.F))
select * from TC";
        let Statement::WithPlus(w) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        let params = HashMap::new();
        let ctx = LowerCtx::new(&params, AntiJoinImpl::LeftOuterNull);
        let c = compile(&w, &ctx).unwrap();
        let mut cat = catalog();
        let profile = oracle_like().with_snapshots(true);
        let mut runner = PsmRunner::new(&mut cat, &profile, UbuImpl::FullOuterJoin);
        let out = runner.run(&c).unwrap();
        assert_eq!(out.stats.snapshots.len(), out.stats.iterations.len());
        // per-iteration row counts line up with the IterStats, and the last
        // snapshot is the fixpoint
        for (snap, it) in out.stats.snapshots.iter().zip(&out.stats.iterations) {
            assert_eq!(snap.len(), it.r_rows);
        }
        assert_eq!(out.stats.snapshots.last().unwrap().len(), 6);
        // default profiles pay nothing
        let mut cat = catalog();
        let profile = oracle_like();
        let mut runner = PsmRunner::new(&mut cat, &profile, UbuImpl::FullOuterJoin);
        let out = runner.run(&c).unwrap();
        assert!(out.stats.snapshots.is_empty());
    }

    #[test]
    fn union_all_terminates_on_dag_by_emptiness() {
        let sql = "\
with R(F, T) as (
  (select E.F, E.T from E)
  union all
  (select R.F, E.T from R, E where R.T = E.F))
select * from R";
        let out = run_sql(sql, &[]);
        // semi-naive over the working table: base 4 edges + 3 two-hop
        // paths + 1 three-hop path = 8 rows ((1,3) appears twice: as an
        // edge and as the path 1→2→3 — union all keeps duplicates)
        assert_eq!(out.relation.len(), 8);
        let last = out.stats.iterations.last().unwrap();
        assert_eq!(last.delta_rows, 0, "terminated because delta drained");
    }

    #[test]
    fn bfs_by_union_by_update() {
        // Eq. (5): visited flag flooding from node 1 over Eᵀ
        let sql = "\
with B(ID, vw) as (
  (select V.ID, least(1.0, greatest(V.vw, 0.0)) from V)
  union by update ID
  (select E.T, max(B.vw * E.ew) from B, E where B.ID = E.F group by E.T))
select * from B";
        // seed: node 1 visited
        let Statement::WithPlus(w) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        let params = HashMap::new();
        let ctx = LowerCtx::new(&params, AntiJoinImpl::LeftOuterNull);
        let c = compile(&w, &ctx).unwrap();
        let mut cat = catalog();
        cat.patch_rows("V", vec![(0, row![1, 1.0])], vec![])
            .unwrap();
        let profile = oracle_like();
        let mut runner = PsmRunner::new(&mut cat, &profile, UbuImpl::FullOuterJoin);
        let out = runner.run(&c).unwrap();
        let visited: Vec<i64> = out
            .relation
            .iter()
            .filter(|r| r[1].as_f64() == Some(1.0))
            .map(|r| r[0].as_int().unwrap())
            .collect();
        let mut v = visited.clone();
        v.sort_unstable();
        assert_eq!(v, vec![1, 2, 3, 4]);
    }

    /// A final `select * from W` hands out W's own rows: the result shares
    /// every chunk of the table the run folded, row engine or batch.
    #[test]
    fn a_final_scan_of_r_shares_its_chunks() {
        let sql = "\
with W(ID, vw) as (
  (select V.ID, 1.0 * V.ID from V)
  union by update ID
  (select E.T, min(W.vw * E.ew) from W, E where W.ID = E.F group by E.T))
select * from W";
        let Statement::WithPlus(w) = Parser::parse_statement(sql).unwrap() else {
            panic!("expected with+")
        };
        let params = HashMap::new();
        let c = compile(&w, &LowerCtx::new(&params, AntiJoinImpl::LeftOuterNull)).unwrap();
        let best = oracle_like()
            .with_optimizer(Optimizer::Cost)
            .with_exec(aio_algebra::ExecMode::Batch);
        for profile in [oracle_like(), best] {
            let mut cat = catalog();
            let mut runner = PsmRunner::new(&mut cat, &profile, UbuImpl::FullOuterJoin);
            // keep W past the run, as a live view keeps its R
            runner.keep = Some(c.rec_name.clone());
            let out = runner.run(&c).unwrap().relation;
            let r = cat.relation(&c.rec_name).unwrap();
            assert!(!out.is_empty() && out.rows() == r.rows());
            assert!(out
                .chunks()
                .zip(r.chunks())
                .all(|(a, b)| std::ptr::eq(a, b)));
        }
    }

    #[test]
    fn fixpoint_detected_without_maxrecursion() {
        let sql = "\
with W(ID, vw) as (
  (select V.ID, 1.0 * V.ID from V)
  union by update ID
  (select E.T, min(W.vw * E.ew) from W, E where W.ID = E.F group by E.T))
select * from W";
        let out = run_sql(sql, &[]);
        // labels flood forward; converges in ≤ diameter+1 iterations
        assert!(out.stats.iterations.len() <= 5);
        let last = out.stats.iterations.last().unwrap();
        assert!(last.r_rows == 4);
    }

    #[test]
    fn maxrecursion_caps_iterations() {
        let sql = "\
with P(ID, W) as (
  (select V.ID, 1.0 from V)
  union by update ID
  (select P.ID, P.W + 1.0 from P)
  maxrecursion 7)
select * from P";
        let out = run_sql(sql, &[]);
        assert_eq!(out.stats.iterations.len(), 7);
    }

    #[test]
    fn exec_stats_partition_into_init_iterations_final() {
        let sql = "\
with TC(F, T) as (
  (select E.F, E.T from E)
  union
  (select TC.F, E.T from TC, E where TC.T = E.F))
select * from TC";
        let out = run_sql(sql, &[]);
        let s = &out.stats;
        // the grand total is exactly the sum of the attributed blocks
        let mut sum = s.init_exec.clone();
        for it in &s.iterations {
            sum.absorb(&it.exec);
        }
        sum.absorb(&s.final_exec);
        assert_eq!(sum, s.exec, "init + Σiterations + final == total");
        // the final block is no longer silently merged into the last
        // iteration: the final query is a bare scan, so it scans and joins
        // nothing extra
        assert_eq!(s.final_exec.joins, 0);
        assert!(s.final_exec.rows_scanned > 0, "final scans TC");
        // every iteration of the recursive step runs exactly one join
        for it in &s.iterations {
            assert_eq!(it.exec.joins, 1, "TC = 1 join per iteration (§7.2)");
            assert_eq!(it.subqueries.len(), 1);
            assert_eq!(it.subqueries[0].delta_rows, it.delta_rows);
        }
        // C_i outcome flips to false exactly at the last iteration
        let flags: Vec<bool> = s
            .iterations
            .iter()
            .map(|it| it.subqueries.iter().any(|q| q.changed))
            .collect();
        assert!(flags[..flags.len() - 1].iter().all(|&c| c));
        assert!(!flags.last().unwrap());
    }

    #[test]
    fn ubu_changed_rows_count_updates_and_inserts() {
        // BFS flood: each wave overwrites vw for newly reached nodes only
        let sql = "\
with B(ID, vw) as (
  (select V.ID, least(1.0, greatest(V.vw, 0.0)) from V)
  union by update ID
  (select E.T, max(B.vw * E.ew) from B, E where B.ID = E.F group by E.T))
select * from B";
        let Statement::WithPlus(w) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        let params = HashMap::new();
        let ctx = LowerCtx::new(&params, AntiJoinImpl::LeftOuterNull);
        let c = compile(&w, &ctx).unwrap();
        let mut cat = catalog();
        cat.patch_rows("V", vec![(0, row![1, 1.0])], vec![])
            .unwrap();
        let profile = oracle_like();
        let mut runner = PsmRunner::new(&mut cat, &profile, UbuImpl::FullOuterJoin);
        let out = runner.run(&c).unwrap();
        // graph 1→2→3→4 (+1→3): wave 1 reaches {2,3}, wave 2 reaches {4},
        // wave 3 changes nothing → converged
        let changed: Vec<usize> = out
            .stats
            .iterations
            .iter()
            .map(|it| it.subqueries[0].ubu_changed_rows)
            .collect();
        assert_eq!(changed, vec![2, 1, 0]);
        assert_eq!(out.stats.iterations.len(), 3);
        assert!(!out.stats.iterations.last().unwrap().subqueries[0].changed);
    }

    #[test]
    fn traced_run_produces_wellformed_spans() {
        let sql = "\
with TC(F, T) as (
  (select E.F, E.T from E)
  union
  (select TC.F, E.T from TC, E where TC.T = E.F))
select * from TC";
        let Statement::WithPlus(w) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        let params = HashMap::new();
        let ctx = LowerCtx::new(&params, AntiJoinImpl::LeftOuterNull);
        let c = compile(&w, &ctx).unwrap();
        let mut cat = catalog();
        let profile = oracle_like();
        let tracer = aio_trace::Tracer::new();
        let mut runner = PsmRunner::new(&mut cat, &profile, UbuImpl::FullOuterJoin);
        runner.set_tracer(Some(&tracer));
        let out = runner.run(&c).unwrap();
        let trace = tracer.finish();
        trace.validate().unwrap();
        // one psm_run root, one iteration span per IterStat, and per-
        // iteration query spans labelled rec[0]
        assert_eq!(trace.spans_named("psm_run").count(), 1);
        assert_eq!(
            trace.spans_named("iteration").count(),
            out.stats.iterations.len()
        );
        let rec_queries = trace
            .spans_named("query")
            .filter(|s| s.field("plan").map(|v| v.to_string()) == Some("rec[0]".into()))
            .count();
        assert_eq!(rec_queries, out.stats.iterations.len());
        // iteration spans carry the convergence fields
        for (i, sp) in trace.spans_named("iteration").enumerate() {
            assert_eq!(sp.field_u64("iter"), Some(i as u64));
            assert!(sp.field_u64("delta_rows").is_some());
            assert!(sp.field_u64("r_rows").is_some());
        }
        // untraced runner records nothing and produces identical results
        let mut cat2 = catalog();
        let mut plain = PsmRunner::new(&mut cat2, &profile, UbuImpl::FullOuterJoin);
        let out2 = plain.run(&c).unwrap();
        assert!(out.relation.same_rows_unordered(&out2.relation));
        assert_eq!(out.stats.exec, out2.stats.exec);
    }

    #[test]
    fn temp_tables_are_dropped_after_run() {
        let sql = "\
with R(F, T) as (
  (select E.F, E.T from E)
  union
  (select R.F, E.T from R, E where R.T = E.F))
select * from R";
        let Statement::WithPlus(w) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        let params = HashMap::new();
        let ctx = LowerCtx::new(&params, AntiJoinImpl::LeftOuterNull);
        let c = compile(&w, &ctx).unwrap();
        let mut cat = catalog();
        let profile = oracle_like();
        let mut runner = PsmRunner::new(&mut cat, &profile, UbuImpl::FullOuterJoin);
        runner.run(&c).unwrap();
        assert!(!cat.contains("R"));
        assert!(cat.contains("E") && cat.contains("V"));
    }

    #[test]
    fn rec_name_collision_rejected() {
        let sql = "\
with E(F, T) as (
  (select E.F, E.T from V)
  union all
  (select E.F, E.T from E))
select * from E";
        let Statement::WithPlus(w) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        let params = HashMap::new();
        let ctx = LowerCtx::new(&params, AntiJoinImpl::LeftOuterNull);
        // compile may pass; the runner rejects the collision
        if let Ok(c) = compile(&w, &ctx) {
            let mut cat = catalog();
            let profile = oracle_like();
            let mut runner = PsmRunner::new(&mut cat, &profile, UbuImpl::FullOuterJoin);
            assert!(runner.run(&c).is_err());
        }
    }

    #[test]
    fn postgres_profile_builds_indexes_during_run() {
        let sql = "\
with R(F, T) as (
  (select E.F, E.T from E)
  union
  (select R.F, E.T from R, E where R.T = E.F))
select * from R";
        let Statement::WithPlus(w) = Parser::parse_statement(sql).unwrap() else {
            panic!()
        };
        let params = HashMap::new();
        let ctx = LowerCtx::new(&params, AntiJoinImpl::LeftOuterNull);
        let c = compile(&w, &ctx).unwrap();
        let mut cat = catalog();
        let profile = postgres_like(true);
        let mut runner = PsmRunner::new(&mut cat, &profile, UbuImpl::FullOuterJoin);
        let out = runner.run(&c).unwrap();
        assert_eq!(out.relation.len(), 6);
        assert!(out.stats.exec.index_scans > 0, "merge join used the index");
    }
}
