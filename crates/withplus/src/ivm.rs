//! Incremental view maintenance (IVM) for live graphs.
//!
//! A registered view is a with+ statement kept materialized while the base
//! tables change. [`Database::apply_edges`] ingests a batch of edge
//! insertions/deletions through the WAL (one logical `EdgeDelta` record per
//! mutated table) and refreshes every affected view *incrementally* instead
//! of re-running the fixpoint from scratch. How a view refreshes follows
//! from the same classification the compiler already performs for
//! XY-stratification:
//!
//! | class          | union mode        | recursive shape            | insert-only refresh      | with deletions |
//! |----------------|-------------------|----------------------------|--------------------------|----------------|
//! | `Monotone`     | `union` (distinct)| any                        | resume semi-naive from Δ | full recompute |
//! | `MonotoneUbu`  | `union by update` | single `min`/`max` agg     | frontier merge-improve   | full recompute |
//! | `Reconverge`   | `union by update` | anything else (e.g. `sum`) | re-converge from state   | same           |
//! | `Opaque`       | `union all`, `computed by`, keyless UBU | —    | full recompute           | full recompute |
//!
//! *Resume* re-derives only conclusions involving at least one delta row:
//! every scan of a mutated base table is rebound — one occurrence at a
//! time — to the delta relation, the variants are unioned, already-known
//! rows subtracted, and semi-naive iteration restarts from that seed
//! against the retained final state. *Frontier merge-improve* does the
//! same seeding but folds each frontier into the state with the fixpoint's
//! own `min`/`max` (see `aio_algebra::ops::ubu_merge_improve` for why
//! replace semantics would be wrong on a partial frontier). *Re-converge*
//! restarts the full-width iteration from the previous result snapshot,
//! stopping when the largest per-key change drops below the view's
//! epsilon; the cold compute path for this class uses the *same* stopping
//! rule so incremental and recompute results agree to within epsilon. The
//! re-converge path assumes key-stationarity (the set of keys the
//! recursive step derives does not depend on the carried values — true
//! for PageRank-class views); keys that stop being derivable are reset to
//! their initialization values before the loop.
//!
//! Each `apply_edges` call is one WAL transaction: the base-table deltas
//! and every refreshed view state commit together, so crash recovery lands
//! on the pre-batch or post-batch generation, never a torn view. Every
//! refresh emits a [`ResultDelta`] (added/removed/changed rows versus the
//! previous materialization) to subscribers, bumps the `ivm_*` metrics,
//! and records a [`RefreshReport`] readable via [`Database::show_view`].

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use crate::ast::UnionMode;
use crate::compile::{compile, CompiledStep, CompiledWithPlus};
use crate::db::{optimize_compiled, Database};
use crate::error::{Result, WithPlusError};
use crate::lower::LowerCtx;
use crate::parser::{Parser, Statement};
use crate::psm::{rebind_scan, rename_to, union_by_update_checked, DEFAULT_MAX_RECURSION};
use aio_algebra::ops::{self, UbuImpl};
use aio_algebra::{AggFunc, EngineProfile, Evaluator, ExecStats, Plan, ScalarExpr};
use aio_storage::{Catalog, FxHashMap, FxHashSet, Key, Relation, Row, WalPolicy};
use aio_trace::Tracer;

/// A batch of logical row insertions/deletions against one base table.
/// Deletions match whole rows by value (multiset semantics: each victim
/// row removes one occurrence; absent victims are ignored).
#[derive(Clone, Debug, Default)]
pub struct EdgeDelta {
    pub table: String,
    pub adds: Vec<Row>,
    pub dels: Vec<Row>,
}

impl EdgeDelta {
    pub fn new(table: impl Into<String>, adds: Vec<Row>, dels: Vec<Row>) -> EdgeDelta {
        EdgeDelta { table: table.into(), adds, dels }
    }

    /// Pure insertion batch.
    pub fn insert(table: impl Into<String>, adds: Vec<Row>) -> EdgeDelta {
        EdgeDelta::new(table, adds, Vec::new())
    }

    /// Pure deletion batch.
    pub fn delete(table: impl Into<String>, dels: Vec<Row>) -> EdgeDelta {
        EdgeDelta::new(table, Vec::new(), dels)
    }
}

/// How a view can be maintained, derived from its compiled form.
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

/// The strategy a particular refresh actually used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshMode {
    /// Semi-naive iteration resumed from a delta-derived seed.
    Resume,
    /// Merge-improve frontier propagation.
    Frontier,
    /// Full-width re-convergence from the previous state.
    Reconverge,
    /// Cold recompute (initial build, or fallback on deletions).
    Full,
}

impl RefreshMode {
    pub fn label(self) -> &'static str {
        match self {
            RefreshMode::Resume => "resume",
            RefreshMode::Frontier => "frontier",
            RefreshMode::Reconverge => "reconverge",
            RefreshMode::Full => "full",
        }
    }
}

/// Row-level difference between two successive materializations of a view.
/// Rows are sorted so the stream is deterministic and pinnable.
#[derive(Clone, Debug)]
pub struct ResultDelta {
    pub view: String,
    /// MVCC generation the refreshed state was published under.
    pub generation: u64,
    pub added: Vec<Row>,
    pub removed: Vec<Row>,
    /// `(old, new)` pairs for keyed views whose key survived with a
    /// different payload. Empty for unkeyed views (those report the old
    /// row under `removed` and the new one under `added`).
    pub changed: Vec<(Row, Row)>,
}

impl ResultDelta {
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }

    /// Total rows mentioned (added + removed + changed).
    pub fn row_count(&self) -> usize {
        self.added.len() + self.removed.len() + self.changed.len()
    }
}

/// What the last refresh of a view did — the payload behind `SHOW VIEW`.
#[derive(Clone, Debug)]
pub struct RefreshReport {
    pub view: String,
    pub mode: RefreshMode,
    pub iterations: usize,
    pub added: usize,
    pub removed: usize,
    pub changed: usize,
    pub duration: Duration,
}

/// A registered materialized view (crate-internal).
pub(crate) struct ViewDef {
    pub(crate) name: String,
    pub(crate) sql: String,
    /// Optimized plans with every self-reference rebound to the view's
    /// private work-table name, so refreshes can never collide with a user
    /// table that happens to share the recursive relation's name.
    compiled: CompiledWithPlus,
    class: ViewClass,
    /// Union-by-update key positions within `rec_cols` (keyed classes).
    keys: Option<Vec<usize>>,
    /// Position of the min/max aggregate column (`MonotoneUbu` only).
    value_col: usize,
    /// `true` = min direction, `false` = max (`MonotoneUbu` only).
    min_agg: bool,
    /// Convergence threshold for the `Reconverge` class (largest per-key
    /// change at which iteration stops, cold and warm alike).
    epsilon: f64,
    /// Base tables any plan of the view scans (normalized names).
    base_tables: BTreeSet<String>,
    subscribers: Vec<Sender<ResultDelta>>,
    refreshes: u64,
    fallbacks: u64,
    last: Option<RefreshReport>,
}

fn state_table(view: &str) -> String {
    format!("__ivm_state_{view}")
}

fn work_table(view: &str) -> String {
    format!("__ivm_work_{view}")
}

fn delta_table(base: &str) -> String {
    format!("__ivm_delta_{}", base.to_ascii_lowercase())
}

fn front_table(view: &str) -> String {
    format!("__ivm_front_{view}")
}

// ---------------------------------------------------------------------------
// Plan surgery
// ---------------------------------------------------------------------------

/// Rebuild `plan`, offering every `Scan` node to `f`; a `Some` return
/// replaces that node.
fn map_scans(plan: Plan, f: &mut dyn FnMut(&str, &Option<String>) -> Option<Plan>) -> Plan {
    if let Plan::Scan { table, alias } = &plan {
        return f(table, alias).unwrap_or(plan);
    }
    plan.map_children(|c| map_scans(c, f))
}

/// Normalized names of every table `plan` scans.
fn collect_scan_tables(plan: &Plan, out: &mut BTreeSet<String>) {
    plan.visit(&mut |p| {
        if let Plan::Scan { table, .. } = p {
            out.insert(table.to_ascii_lowercase());
        }
    });
}

/// How many `Scan` nodes of `table` the plan contains.
fn count_scans(plan: &Plan, table: &str) -> usize {
    let mut n = 0usize;
    plan.visit(&mut |p| {
        if matches!(p, Plan::Scan { table: t, .. } if t.eq_ignore_ascii_case(table)) {
            n += 1;
        }
    });
    n
}

/// Clone of `plan` with exactly the `nth` occurrence (scan order) of
/// `table` rebound to `replacement`, keeping the original name as alias.
pub fn replace_nth_scan(plan: &Plan, table: &str, replacement: &str, nth: usize) -> Plan {
    let mut seen = 0usize;
    map_scans(plan.clone(), &mut |t, alias| {
        if !t.eq_ignore_ascii_case(table) {
            return None;
        }
        let hit = seen == nth;
        seen += 1;
        hit.then(|| Plan::Scan {
            table: replacement.to_string(),
            alias: Some(alias.clone().unwrap_or_else(|| t.to_string())),
        })
    })
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

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
        ScalarExpr::Col(_) | ScalarExpr::BoundCol(_) | ScalarExpr::Lit(_) | ScalarExpr::AggRef(_) => {}
    }
}

/// Classify a compiled view: `(class, key positions, value column, min?)`.
/// Runs on the *unoptimized* compilation so the recursive steps still have
/// their lowered `Aggregate` roots.
fn classify(c: &CompiledWithPlus) -> (ViewClass, Option<Vec<usize>>, usize, bool) {
    let opaque = (ViewClass::Opaque, None, 0, true);
    let has_computed =
        c.init.iter().chain(c.recursive.iter()).any(|s| !s.computed.is_empty());
    if has_computed {
        return opaque;
    }
    let keys = match &c.union {
        UnionMode::Distinct => return (ViewClass::Monotone, None, 0, true),
        UnionMode::All | UnionMode::ByUpdate(None) => return opaque,
        UnionMode::ByUpdate(Some(keys)) => keys,
    };
    let mut key_pos = Vec::with_capacity(keys.len());
    for k in keys {
        match c.rec_cols.iter().position(|col| col.eq_ignore_ascii_case(k)) {
            Some(p) => key_pos.push(p),
            None => return opaque,
        }
    }
    // MonotoneUbu needs: arity = keys + 1 value column, and every recursive
    // step a root Aggregate whose single aggregate is min (or all max) and
    // sits at the value position.
    let value_col = (0..c.rec_cols.len()).find(|p| !key_pos.contains(p));
    let (Some(value_col), true) = (value_col, c.rec_cols.len() == key_pos.len() + 1) else {
        return (ViewClass::Reconverge, Some(key_pos), 0, true);
    };
    let mut direction: Option<bool> = None;
    for step in &c.recursive {
        let Plan::Aggregate { items, .. } = &step.plan else {
            return (ViewClass::Reconverge, Some(key_pos), value_col, true);
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
                _ => return (ViewClass::Reconverge, Some(key_pos), value_col, true),
            };
            // The aggregate must be the whole item (bare min/max, not an
            // arithmetic combination) and land on the value column.
            let bare = matches!(expr, ScalarExpr::Agg(_, _));
            if !bare || i != value_col || direction.is_some_and(|d| d != min) {
                return (ViewClass::Reconverge, Some(key_pos), value_col, true);
            }
            direction = Some(min);
            monotone_here = true;
        }
        if !monotone_here {
            return (ViewClass::Reconverge, Some(key_pos), value_col, true);
        }
    }
    match direction {
        Some(min) => (ViewClass::MonotoneUbu, Some(key_pos), value_col, min),
        None => (ViewClass::Reconverge, Some(key_pos), value_col, true),
    }
}

// ---------------------------------------------------------------------------
// The refresh engine
// ---------------------------------------------------------------------------

/// Merged per-table mutation info for one `apply_edges` batch.
struct Mutation {
    adds: Vec<Row>,
    has_dels: bool,
}

/// Bundles the split-borrowed pieces of a `Database` a refresh needs, plus
/// temp-table bookkeeping (everything created here is dropped before the
/// batch commits).
struct Refresher<'a> {
    catalog: &'a mut Catalog,
    profile: &'a EngineProfile,
    ubu_impl: UbuImpl,
    tracer: Option<&'a Tracer>,
    stats: ExecStats,
    temps: Vec<String>,
}

impl<'a> Refresher<'a> {
    fn new(
        catalog: &'a mut Catalog,
        profile: &'a EngineProfile,
        ubu_impl: UbuImpl,
        tracer: Option<&'a Tracer>,
    ) -> Refresher<'a> {
        Refresher { catalog, profile, ubu_impl, tracer, stats: ExecStats::new(), temps: Vec::new() }
    }

    fn eval(&mut self, plan: &Plan) -> Result<Relation> {
        let mut ev = Evaluator::with_tracer(self.catalog, self.profile, self.tracer);
        Ok(ev.eval_root(plan)?)
    }

    fn materialize(&mut self, name: &str, rel: Relation) -> Result<()> {
        self.catalog.create_or_replace(name, rel, true)?;
        if !self.temps.iter().any(|t| t == name) {
            self.temps.push(name.to_string());
        }
        Ok(())
    }

    fn drop_temps(&mut self) {
        for t in self.temps.drain(..).rev() {
            let _ = self.catalog.drop_table(&t);
        }
    }

    /// Evaluate one compiled step: materialize its `computed by` relations,
    /// then the step plan, reshaped to the recursive relation's columns.
    fn eval_step(&mut self, step: &CompiledStep, rec_cols: &[String]) -> Result<Relation> {
        for (name, cols, plan) in &step.computed {
            let rel = self.eval(plan)?;
            let rel = rename_to(rel, cols)?;
            self.materialize(name, rel)?;
        }
        let rel = self.eval(&step.plan)?;
        rename_to(rel, rec_cols)
    }

    /// Union of the initialization steps — the cold-start contents of R.
    fn init_state(&mut self, c: &CompiledWithPlus) -> Result<Relation> {
        let mut acc: Option<Relation> = None;
        for step in &c.init {
            let rel = self.eval_step(step, &c.rec_cols)?;
            acc = Some(match acc {
                None => rel,
                Some(a) => ops::union_all(&a, &rel)?,
            });
        }
        acc.ok_or_else(|| WithPlusError::Restriction("view has no initial subquery".into()))
    }

    /// Insert rows into a (temp) table, invalidating its indexes.
    fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        self.catalog.insert_rows(table, rows, WalPolicy::None)?;
        Ok(())
    }

    /// The union of every "one scan rebound to its delta" variant of the
    /// view's steps, evaluated against the retained state in `work` — the
    /// seed an incremental refresh resumes from. `mutated` must already
    /// have its delta temp tables materialized.
    fn build_seed(
        &mut self,
        c: &CompiledWithPlus,
        mutated: &BTreeMap<String, Mutation>,
    ) -> Result<Relation> {
        let span = aio_trace::maybe_span(self.tracer, "ivm_seed");
        let mut seed: Option<Relation> = None;
        for step in c.init.iter().chain(c.recursive.iter()) {
            for table in mutated.keys() {
                let n = count_scans(&step.plan, table);
                for k in 0..n {
                    let variant = replace_nth_scan(&step.plan, table, &delta_table(table), k);
                    let rel = self.eval(&variant)?;
                    let rel = rename_to(rel, &c.rec_cols)?;
                    seed = Some(match seed {
                        None => rel,
                        Some(a) => ops::union_all(&a, &rel)?,
                    });
                }
            }
        }
        let seed = match seed {
            Some(s) => s,
            None => {
                // The view scans a mutated table only through `computed by`
                // (impossible here: such views are Opaque) or not at all.
                let schema = self.catalog.relation(&work_table_of(c))?.schema().clone();
                Relation::new(schema)
            }
        };
        if let Some(s) = &span {
            s.field("rows", seed.len());
        }
        Ok(seed)
    }

    /// Semi-naive loop shared by cold Monotone/Opaque builds and resumed
    /// Monotone refreshes: `working` is the current frontier. Mirrors the
    /// PSM runner's `union`/`union all` semantics exactly.
    fn seminaive_loop(
        &mut self,
        c: &CompiledWithPlus,
        work: &str,
        mut working: Relation,
    ) -> Result<usize> {
        let max = c.max_recursion.unwrap_or(DEFAULT_MAX_RECURSION);
        let dwork = format!("__ivm_dwork_{work}");
        let mut iters = 0usize;
        for _ in 0..max {
            if working.is_empty() {
                break;
            }
            self.materialize(&dwork, working)?;
            iters += 1;
            let mut next: Option<Relation> = None;
            for step in &c.recursive {
                let plan = rebind_scan(&step.plan, work, &dwork);
                let delta = self.eval(&plan)?;
                let delta = rename_to(delta, &c.rec_cols)?;
                match &c.union {
                    UnionMode::All => {
                        if !delta.is_empty() {
                            self.insert(work, delta.rows().to_vec())?;
                        }
                        next = Some(match next {
                            None => delta,
                            Some(a) => ops::union_all(&a, &delta)?,
                        });
                    }
                    _ => {
                        let r = self.catalog.relation(work)?;
                        let fresh = ops::difference(&delta, r)?;
                        if !fresh.is_empty() {
                            self.insert(work, fresh.rows().to_vec())?;
                        }
                        next = Some(match next {
                            None => fresh,
                            Some(a) => ops::union_distinct(&a, &fresh)?,
                        });
                    }
                }
            }
            working = match next {
                Some(w) => w,
                None => Relation::new(self.catalog.relation(work)?.schema().clone()),
            };
        }
        Ok(iters)
    }

    /// Replace-semantics union-by-update loop: the cold path for every
    /// keyed view and the warm path for `Reconverge`. Stops at the exact
    /// fixpoint, or — when `epsilon` is finite and the view is keyed —
    /// as soon as the largest per-key change falls below it.
    fn ubu_loop(
        &mut self,
        c: &CompiledWithPlus,
        work: &str,
        keys: Option<&[usize]>,
        epsilon: f64,
    ) -> Result<usize> {
        let max = c.max_recursion.unwrap_or(DEFAULT_MAX_RECURSION);
        let mut iters = 0usize;
        for _ in 0..max {
            iters += 1;
            let mut changed = false;
            let mut max_change = 0.0f64;
            let mut structural = false;
            for step in &c.recursive {
                let delta = self.eval(&step.plan)?;
                let delta = rename_to(delta, &c.rec_cols)?;
                let (before, _, step_changed) = union_by_update_checked(
                    self.catalog,
                    work,
                    delta,
                    keys,
                    self.ubu_impl,
                    self.profile,
                    &mut self.stats,
                )?;
                if step_changed {
                    changed = true;
                    let after = self.catalog.relation(work)?;
                    match keys.and_then(|k| max_keyed_change(&before, after, k)) {
                        Some(d) => max_change = max_change.max(d),
                        None => structural = true,
                    }
                }
            }
            if !changed {
                break;
            }
            if epsilon.is_finite() && !structural && max_change < epsilon {
                break;
            }
        }
        Ok(iters)
    }

    /// Merge-improve frontier propagation for `MonotoneUbu` views: start
    /// from the delta-derived seed and push improvements until quiescent.
    fn frontier_loop(
        &mut self,
        c: &CompiledWithPlus,
        work: &str,
        seed: Relation,
        keys: &[usize],
        value_col: usize,
        min: bool,
    ) -> Result<usize> {
        let max = c.max_recursion.unwrap_or(DEFAULT_MAX_RECURSION);
        let front = front_table(work);
        let mut stats = std::mem::take(&mut self.stats);
        let mut frontier =
            ops::ubu_merge_improve(self.catalog, work, seed, keys, value_col, min, &mut stats)?;
        let mut iters = 0usize;
        for _ in 0..max {
            if frontier.is_empty() {
                break;
            }
            iters += 1;
            self.materialize(&front, frontier)?;
            let mut delta: Option<Relation> = None;
            for step in &c.recursive {
                let plan = rebind_scan(&step.plan, work, &front);
                let rel = self.eval(&plan)?;
                let rel = rename_to(rel, &c.rec_cols)?;
                delta = Some(match delta {
                    None => rel,
                    Some(a) => ops::union_all(&a, &rel)?,
                });
            }
            frontier = match delta {
                Some(d) => {
                    ops::ubu_merge_improve(self.catalog, work, d, keys, value_col, min, &mut stats)?
                }
                None => Relation::new(self.catalog.relation(work)?.schema().clone()),
            };
        }
        self.stats = stats;
        Ok(iters)
    }
}

fn work_table_of(c: &CompiledWithPlus) -> String {
    // `compiled.rec_name` is already the private work-table name (rebound
    // at registration).
    c.rec_name.clone()
}

/// Largest absolute numeric change between two keyed states. `None` marks
/// a structural change (key sets differ, duplicate keys, or a non-numeric
/// column changed) that epsilon stopping must not swallow.
fn max_keyed_change(before: &Relation, after: &Relation, keys: &[usize]) -> Option<f64> {
    if before.len() != after.len() {
        return None;
    }
    let pos = before.unique_key_map(keys).ok()?;
    let mut max = 0.0f64;
    for row in after.rows() {
        let k = Key::of(row, keys);
        let &bi = pos.get(&k)?;
        let old = &before.rows()[bi];
        for (a, b) in old.iter().zip(row.iter()) {
            if a == b {
                continue;
            }
            let (Some(x), Some(y)) = (num(a), num(b)) else {
                return None;
            };
            max = max.max((x - y).abs());
        }
    }
    Some(max)
}

fn num(v: &aio_storage::Value) -> Option<f64> {
    v.as_f64().or_else(|| v.as_int().map(|i| i as f64))
}

/// Sort rows lexicographically (Value is totally ordered) so emitted
/// deltas are deterministic regardless of derivation order.
fn sort_rows(rows: &mut [Row]) {
    rows.sort_unstable_by(|a, b| a.iter().cmp(b.iter()));
}

/// Drop matching add/delete pairs (multiset intersection). Sound because
/// [`Catalog::apply_delta`] lands adds before deletes, so inserting and
/// deleting the same row in one batch is a no-op either way.
fn cancel_pairs(adds: Vec<Row>, dels: Vec<Row>) -> (Vec<Row>, Vec<Row>) {
    let mut pending: BTreeMap<Row, usize> = BTreeMap::new();
    for d in dels {
        *pending.entry(d).or_insert(0) += 1;
    }
    let mut kept_adds = Vec::new();
    for a in adds {
        match pending.get_mut(&a) {
            Some(c) if *c > 0 => *c -= 1,
            _ => kept_adds.push(a),
        }
    }
    let mut kept_dels = Vec::new();
    for (row, c) in pending {
        for _ in 0..c {
            kept_dels.push(row.clone());
        }
    }
    (kept_adds, kept_dels)
}

/// Diff two materializations. Keyed views report surviving keys with a new
/// payload as `changed`; everything else is multiset added/removed.
fn diff_result(old: &Relation, new: &Relation, keys: Option<&[usize]>) -> ResultDelta {
    let mut d = ResultDelta {
        view: String::new(),
        generation: 0,
        added: Vec::new(),
        removed: Vec::new(),
        changed: Vec::new(),
    };
    let keyed = keys.and_then(|k| {
        let a = old.unique_key_map(k).ok()?;
        let b = new.unique_key_map(k).ok()?;
        Some((a, b, k))
    });
    match keyed {
        Some((old_pos, new_pos, k)) => {
            for (key, &oi) in &old_pos {
                match new_pos.get(key) {
                    None => d.removed.push(old.rows()[oi].clone()),
                    Some(&ni) if new.rows()[ni] != old.rows()[oi] => {
                        d.changed.push((old.rows()[oi].clone(), new.rows()[ni].clone()));
                    }
                    Some(_) => {}
                }
            }
            for (key, &ni) in &new_pos {
                if !old_pos.contains_key(key) {
                    d.added.push(new.rows()[ni].clone());
                }
            }
            let _ = k;
        }
        None => {
            let mut counts: FxHashMap<&Row, i64> = FxHashMap::default();
            for r in old.rows() {
                *counts.entry(r).or_insert(0) += 1;
            }
            for r in new.rows() {
                let c = counts.entry(r).or_insert(0);
                *c -= 1;
                if *c < 0 {
                    d.added.push(r.clone());
                }
            }
            let mut counts: FxHashMap<&Row, i64> = FxHashMap::default();
            for r in new.rows() {
                *counts.entry(r).or_insert(0) += 1;
            }
            for r in old.rows() {
                let c = counts.entry(r).or_insert(0);
                *c -= 1;
                if *c < 0 {
                    d.removed.push(r.clone());
                }
            }
        }
    }
    sort_rows(&mut d.added);
    sort_rows(&mut d.removed);
    d.changed.sort_unstable_by(|a, b| a.0.iter().cmp(b.0.iter()));
    d
}

/// Refresh one view against an already-applied batch. Returns the result
/// delta (generation stamped later, at commit) and the refresh report.
fn refresh_view(
    catalog: &mut Catalog,
    profile: &EngineProfile,
    ubu_impl: UbuImpl,
    tracer: Option<&Tracer>,
    v: &mut ViewDef,
    mutated: &BTreeMap<String, Mutation>,
) -> Result<(ResultDelta, RefreshReport)> {
    let started = Instant::now();
    let touched: BTreeMap<String, Mutation> = mutated
        .iter()
        .filter(|(t, _)| v.base_tables.contains(*t))
        .map(|(t, m)| (t.clone(), Mutation { adds: m.adds.clone(), has_dels: m.has_dels }))
        .collect();
    let insert_only = touched.values().all(|m| !m.has_dels);
    let mode = match v.class {
        ViewClass::Monotone if insert_only => RefreshMode::Resume,
        ViewClass::MonotoneUbu if insert_only => RefreshMode::Frontier,
        ViewClass::Reconverge => RefreshMode::Reconverge,
        _ => RefreshMode::Full,
    };
    let span = aio_trace::maybe_span(tracer, "ivm_refresh");
    if let Some(s) = &span {
        s.field("view", v.name.as_str());
        s.field("mode", mode.label());
    }

    let old_out = catalog.relation(&v.name)?.clone();
    let state_name = state_table(&v.name);
    let work = work_table_of(&v.compiled);
    let mut rf = Refresher::new(catalog, profile, ubu_impl, tracer);
    let c = &v.compiled;

    let iterations = match mode {
        RefreshMode::Full => build_cold(&mut rf, c, &work, v.keys.as_deref(), v.epsilon_for_loop())?,
        RefreshMode::Resume | RefreshMode::Frontier => {
            let state = rf.catalog.relation(&state_name)?.clone();
            rf.materialize(&work, state)?;
            for (t, m) in &touched {
                let schema = rf.catalog.relation(t)?.schema().clone();
                let mut d = Relation::new(schema);
                d.extend(m.adds.iter().cloned())?;
                rf.materialize(&delta_table(t), d)?;
            }
            let seed = rf.build_seed(c, &touched)?;
            if mode == RefreshMode::Resume {
                let r = rf.catalog.relation(&work)?;
                let mut fresh = ops::difference(&seed, r)?;
                aio_algebra::fault::clip_ivm_seed(&mut fresh);
                if !fresh.is_empty() {
                    rf.insert(&work, fresh.rows().to_vec())?;
                }
                rf.seminaive_loop(c, &work, fresh)?
            } else {
                let mut seed = seed;
                aio_algebra::fault::clip_ivm_seed(&mut seed);
                let keys = v.keys.as_deref().expect("MonotoneUbu is keyed");
                rf.frontier_loop(c, &work, seed, keys, v.value_col, v.min_agg)?
            }
        }
        RefreshMode::Reconverge => {
            let state = rf.catalog.relation(&state_name)?.clone();
            rf.materialize(&work, state)?;
            // Key-stationarity fix-up: keys the recursive step no longer
            // derives would otherwise keep their stale warm value forever,
            // while a cold run leaves them at their initialization value.
            let r0 = rf.init_state(c)?;
            if let Some(keys) = v.keys.as_deref() {
                let mut produced: FxHashSet<Key> = FxHashSet::default();
                for step in &c.recursive {
                    let d = rf.eval(&step.plan)?;
                    let d = rename_to(d, &c.rec_cols)?;
                    for row in d.rows() {
                        produced.insert(Key::of(row, keys));
                    }
                }
                if let Ok(init_pos) = r0.unique_key_map(keys) {
                    let rel = rf.catalog.relation_mut(&work)?;
                    for row in rel.rows_mut() {
                        let k = Key::of(row, keys);
                        if !produced.contains(&k) {
                            if let Some(&i) = init_pos.get(&k) {
                                *row = r0.rows()[i].clone();
                            }
                        }
                    }
                    rf.catalog.entry_mut(&work)?.indexes.clear();
                }
            }
            rf.ubu_loop(c, &work, v.keys.as_deref(), v.epsilon)?
        }
    };

    // Publish: output = final plan over the new state; both become base
    // tables inside the batch's WAL transaction.
    let out = rf.eval(&c.final_plan)?;
    let new_state = rf.catalog.relation(&work)?.clone();
    rf.drop_temps();
    catalog.create_or_replace(&state_name, new_state, false)?;
    catalog.create_or_replace(&v.name, out.clone(), false)?;

    let keyed_out = v.keys.as_deref().filter(|_| {
        out.schema().columns().len() == c.rec_cols.len()
            && out
                .schema()
                .columns()
                .iter()
                .zip(&c.rec_cols)
                .all(|(a, b)| a.name.eq_ignore_ascii_case(b))
    });
    let mut delta = diff_result(&old_out, &out, keyed_out);
    delta.view = v.name.clone();

    let report = RefreshReport {
        view: v.name.clone(),
        mode,
        iterations,
        added: delta.added.len(),
        removed: delta.removed.len(),
        changed: delta.changed.len(),
        duration: started.elapsed(),
    };
    if let Some(s) = &span {
        s.field("iterations", iterations);
        s.field("added", delta.added.len());
        s.field("removed", delta.removed.len());
        s.field("changed", delta.changed.len());
    }
    aio_metrics::hooks::ivm_refresh(
        mode == RefreshMode::Full,
        delta.row_count() as u64,
        report.duration.as_millis() as u64,
    );
    v.refreshes += 1;
    if mode == RefreshMode::Full {
        v.fallbacks += 1;
    }
    v.last = Some(report.clone());
    Ok((delta, report))
}

impl ViewDef {
    /// Epsilon the *cold* loop should use: only the `Reconverge` class
    /// stops early; everything else runs to the exact fixpoint
    /// (`INFINITY` disables the early stop — `ubu_loop` only applies a
    /// finite epsilon).
    fn epsilon_for_loop(&self) -> f64 {
        if self.class == ViewClass::Reconverge {
            self.epsilon
        } else {
            f64::INFINITY
        }
    }
}

/// Cold build of a view's state into `work` (also the deletion fallback).
fn build_cold(
    rf: &mut Refresher<'_>,
    c: &CompiledWithPlus,
    work: &str,
    keys: Option<&[usize]>,
    epsilon: f64,
) -> Result<usize> {
    let mut r0 = rf.init_state(c)?;
    // distinct-union init rows are deduped, mirroring the PSM runner
    if matches!(c.union, UnionMode::Distinct) {
        r0 = ops::distinct(&r0);
    }
    if let Some(k) = keys {
        r0.set_pk(Some(k.to_vec()));
    }
    rf.materialize(work, r0.clone())?;
    match &c.union {
        UnionMode::ByUpdate(_) => rf.ubu_loop(c, work, keys, epsilon),
        _ => rf.seminaive_loop(c, work, r0),
    }
}

// ---------------------------------------------------------------------------
// Database surface
// ---------------------------------------------------------------------------

impl Database {
    /// Register and materialize an incrementally maintained view with the
    /// default convergence epsilon (`1e-9`, only meaningful for the
    /// re-converging class).
    pub fn create_view(&mut self, name: &str, sql: &str) -> Result<()> {
        self.create_view_with(name, sql, 1e-9)
    }

    /// [`Database::create_view`] with an explicit epsilon for
    /// `Reconverge`-class views: iteration stops (cold and warm alike)
    /// once the largest per-key change is below `epsilon`.
    pub fn create_view_with(&mut self, name: &str, sql: &str, epsilon: f64) -> Result<()> {
        if self.views.iter().any(|v| v.name.eq_ignore_ascii_case(name)) {
            return Err(WithPlusError::Restriction(format!("view {name} already exists")));
        }
        if self.catalog.contains(name) {
            return Err(WithPlusError::Restriction(format!(
                "cannot create view {name}: a table with that name exists"
            )));
        }
        let mut v = self.compile_view(name, sql, epsilon)?;
        self.catalog.wal_begin_txn();
        let built = self.build_view(&mut v);
        match built {
            Ok(()) => {
                self.catalog.wal_commit_txn()?;
                self.views.push(v);
                Ok(())
            }
            Err(e) => {
                let _ = self.catalog.wal_commit_txn();
                Err(e)
            }
        }
    }

    /// Re-attach a view after reopening a durable database: the state and
    /// output tables were recovered from the WAL, only the in-memory
    /// definition is re-derived (no recompute). Falls back to a full
    /// [`Database::create_view_with`] when the tables are absent.
    pub fn register_view(&mut self, name: &str, sql: &str, epsilon: f64) -> Result<()> {
        if self.views.iter().any(|v| v.name.eq_ignore_ascii_case(name)) {
            return Err(WithPlusError::Restriction(format!("view {name} already exists")));
        }
        if !(self.catalog.contains(name) && self.catalog.contains(&state_table(name))) {
            return self.create_view_with(name, sql, epsilon);
        }
        let v = self.compile_view(name, sql, epsilon)?;
        self.views.push(v);
        Ok(())
    }

    /// Drop a view: forgets the definition and removes its materialized
    /// state and output tables.
    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        let Some(i) = self.views.iter().position(|v| v.name.eq_ignore_ascii_case(name)) else {
            return Err(WithPlusError::Restriction(format!("no such view: {name}")));
        };
        let v = self.views.remove(i);
        let _ = self.catalog.drop_table(&v.name);
        let _ = self.catalog.drop_table(&state_table(&v.name));
        Ok(())
    }

    /// Names of the registered views, in registration order.
    pub fn view_names(&self) -> Vec<String> {
        self.views.iter().map(|v| v.name.clone()).collect()
    }

    /// The current materialization of a view.
    pub fn view_relation(&self, name: &str) -> Result<&Relation> {
        Ok(self.catalog.relation(name)?)
    }

    /// The last refresh's report, if the view has refreshed at least once.
    pub fn view_report(&self, name: &str) -> Option<&RefreshReport> {
        self.views
            .iter()
            .find(|v| v.name.eq_ignore_ascii_case(name))
            .and_then(|v| v.last.as_ref())
    }

    /// Subscribe to a view's refresh stream: every `apply_edges` batch
    /// that refreshes the view sends one [`ResultDelta`] (possibly empty).
    pub fn subscribe(&mut self, view: &str) -> Result<Receiver<ResultDelta>> {
        let v = self
            .views
            .iter_mut()
            .find(|v| v.name.eq_ignore_ascii_case(view))
            .ok_or_else(|| WithPlusError::Restriction(format!("no such view: {view}")))?;
        let (tx, rx) = channel();
        v.subscribers.push(tx);
        Ok(rx)
    }

    /// EXPLAIN-style report of a view's maintenance state.
    pub fn show_view(&self, name: &str) -> Result<String> {
        let v = self
            .views
            .iter()
            .find(|v| v.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| WithPlusError::Restriction(format!("no such view: {name}")))?;
        let rows = self.catalog.relation(&v.name).map(|r| r.len()).unwrap_or(0);
        let state_rows =
            self.catalog.relation(&state_table(&v.name)).map(|r| r.len()).unwrap_or(0);
        let mut s = String::new();
        s.push_str(&format!("view {}\n", v.name));
        let sql_one_line: String = v.sql.split_whitespace().collect::<Vec<_>>().join(" ");
        s.push_str(&format!("  sql:        {}\n", sql_one_line));
        s.push_str(&format!("  class:      {}\n", v.class.label()));
        s.push_str(&format!(
            "  strategy:   insert-only -> {}, deletions -> {}\n",
            match v.class {
                ViewClass::Monotone => "resume semi-naive",
                ViewClass::MonotoneUbu => "frontier merge-improve",
                ViewClass::Reconverge => "re-converge from state",
                ViewClass::Opaque => "full recompute",
            },
            match v.class {
                ViewClass::Reconverge => "re-converge from state",
                _ => "full recompute",
            }
        ));
        s.push_str(&format!("  base:       {}\n", {
            let names: Vec<&str> = v.base_tables.iter().map(String::as_str).collect();
            names.join(", ")
        }));
        if v.class == ViewClass::Reconverge {
            s.push_str(&format!("  epsilon:    {:e}\n", v.epsilon));
        }
        s.push_str(&format!("  rows:       {rows} (state {state_rows})\n"));
        s.push_str(&format!(
            "  refreshes:  {} ({} full fallbacks)\n",
            v.refreshes, v.fallbacks
        ));
        if let Some(last) = &v.last {
            s.push_str(&format!(
                "  last:       {} in {} iterations, +{} -{} ~{} rows, {:.3} ms\n",
                last.mode.label(),
                last.iterations,
                last.added,
                last.removed,
                last.changed,
                last.duration.as_secs_f64() * 1e3,
            ));
        }
        s.push_str(&format!("  generation: {}\n", self.catalog.generation()));
        Ok(s)
    }

    /// Apply a batch of base-table deltas and refresh every affected view.
    /// The whole batch — deltas and refreshed view states — is one WAL
    /// transaction and one MVCC generation: recovery sees either none of
    /// it or all of it. Returns the per-view result deltas (also delivered
    /// to subscribers), in view registration order.
    pub fn apply_edges(&mut self, deltas: Vec<EdgeDelta>) -> Result<Vec<ResultDelta>> {
        // The span must not borrow `self.tracer` across the mutable calls
        // below; take the tracer out for the duration of the batch.
        let tracer = self.tracer.take();
        let out = self.apply_edges_traced(deltas, tracer.as_ref());
        self.tracer = tracer;
        out
    }

    fn apply_edges_traced(
        &mut self,
        deltas: Vec<EdgeDelta>,
        tracer: Option<&Tracer>,
    ) -> Result<Vec<ResultDelta>> {
        let span = aio_trace::maybe_span(tracer, "apply_edges");
        // Merge the deltas per table and cancel matching add/delete pairs:
        // a row inserted and deleted in the same batch nets out entirely,
        // so a net-zero batch logs no delta and refreshes no view while
        // still committing its generation.
        let mut per_table: BTreeMap<String, (Vec<Row>, Vec<Row>)> = BTreeMap::new();
        for d in deltas {
            let slot = per_table.entry(d.table.to_ascii_lowercase()).or_default();
            slot.0.extend(d.adds);
            slot.1.extend(d.dels);
        }
        let deltas: Vec<EdgeDelta> = per_table
            .into_iter()
            .map(|(table, (adds, dels))| {
                let (adds, dels) = cancel_pairs(adds, dels);
                EdgeDelta::new(table, adds, dels)
            })
            .filter(|d| !d.adds.is_empty() || !d.dels.is_empty())
            .collect();
        let mut mutated: BTreeMap<String, Mutation> = BTreeMap::new();
        let (mut adds_total, mut dels_total) = (0usize, 0usize);
        for d in &deltas {
            adds_total += d.adds.len();
            dels_total += d.dels.len();
            let m = mutated
                .entry(d.table.clone())
                .or_insert(Mutation { adds: Vec::new(), has_dels: false });
            m.adds.extend(d.adds.iter().cloned());
            m.has_dels |= !d.dels.is_empty();
        }
        if let Some(s) = &span {
            s.field("tables", mutated.len());
            s.field("adds", adds_total);
            s.field("dels", dels_total);
        }

        self.catalog.wal_begin_txn();
        let result = self.apply_edges_inner(deltas, &mutated, tracer);
        // Commit on both paths: a failed refresh leaves every view table
        // untouched (refreshes publish only after their fixpoint
        // succeeds), so committing the base delta keeps the catalog
        // consistent — views are stale, not torn — and the error reports
        // exactly that.
        let commit = self.catalog.wal_commit_txn();
        let mut out = result?;
        commit?;
        let generation = self.catalog.generation();
        for rd in &mut out {
            rd.generation = generation;
        }
        if let Some(s) = &span {
            s.field("views", out.len());
            s.field("generation", generation);
        }
        for rd in &out {
            if let Some(v) =
                self.views.iter_mut().find(|v| v.name.eq_ignore_ascii_case(&rd.view))
            {
                v.subscribers.retain(|tx| tx.send(rd.clone()).is_ok());
            }
        }
        Ok(out)
    }

    /// Fully recompute every registered view (post-recovery reconcile or
    /// paranoia check). Returns the result deltas versus the previous
    /// materializations.
    pub fn refresh_all_views(&mut self) -> Result<Vec<ResultDelta>> {
        // An empty batch touches nothing; force a full rebuild instead by
        // pretending every base table saw a deletion.
        let mut mutated: BTreeMap<String, Mutation> = BTreeMap::new();
        for v in &self.views {
            for t in &v.base_tables {
                mutated.insert(t.clone(), Mutation { adds: Vec::new(), has_dels: true });
            }
        }
        let tracer = self.tracer.take();
        self.catalog.wal_begin_txn();
        let result = self.apply_edges_inner(Vec::new(), &mutated, tracer.as_ref());
        self.tracer = tracer;
        let commit = self.catalog.wal_commit_txn();
        let mut out = result?;
        commit?;
        let generation = self.catalog.generation();
        for rd in &mut out {
            rd.generation = generation;
        }
        Ok(out)
    }

    fn apply_edges_inner(
        &mut self,
        deltas: Vec<EdgeDelta>,
        mutated: &BTreeMap<String, Mutation>,
        tracer: Option<&Tracer>,
    ) -> Result<Vec<ResultDelta>> {
        for d in deltas {
            if d.adds.is_empty() && d.dels.is_empty() {
                continue;
            }
            self.catalog.apply_delta(&d.table, d.adds, d.dels, self.profile.wal_temp)?;
        }
        let mut views = std::mem::take(&mut self.views);
        let mut out = Vec::new();
        for v in views.iter_mut() {
            if !v.base_tables.iter().any(|t| mutated.contains_key(t)) {
                continue;
            }
            let refreshed =
                refresh_view(&mut self.catalog, &self.profile, self.ubu_impl, tracer, v, mutated);
            match refreshed {
                Ok((delta, _report)) => out.push(delta),
                Err(e) => {
                    self.views = views;
                    return Err(e);
                }
            }
        }
        self.views = views;
        Ok(out)
    }

    /// Compile, classify and rebind a view definition (no execution).
    fn compile_view(&self, name: &str, sql: &str, epsilon: f64) -> Result<ViewDef> {
        let Statement::WithPlus(w) = Parser::parse_statement(sql)? else {
            return Err(WithPlusError::Restriction(
                "a view must be a with+ statement".into(),
            ));
        };
        let ctx = LowerCtx::new(&self.params, self.anti_impl);
        let raw = compile(&w, &ctx)?;
        let (class, keys, value_col, min_agg) = classify(&raw);
        let mut compiled = optimize_compiled(raw, &self.catalog, self.profile.optimizer);
        // Rebind every self-reference to the view's private work table so
        // refreshes cannot collide with user tables or other views.
        let rec = compiled.rec_name.clone();
        let work = work_table(name);
        for step in compiled.init.iter_mut().chain(compiled.recursive.iter_mut()) {
            for (_, _, plan) in step.computed.iter_mut() {
                *plan = rebind_scan(plan, &rec, &work);
            }
            step.plan = rebind_scan(&step.plan, &rec, &work);
        }
        compiled.final_plan = rebind_scan(&compiled.final_plan, &rec, &work);
        compiled.rec_name = work.clone();

        let mut base_tables = BTreeSet::new();
        for step in compiled.init.iter().chain(compiled.recursive.iter()) {
            for (_, _, plan) in &step.computed {
                collect_scan_tables(plan, &mut base_tables);
            }
            collect_scan_tables(&step.plan, &mut base_tables);
        }
        collect_scan_tables(&compiled.final_plan, &mut base_tables);
        base_tables.remove(&work.to_ascii_lowercase());
        let computed: BTreeSet<String> = compiled
            .init
            .iter()
            .chain(compiled.recursive.iter())
            .flat_map(|s| s.computed.iter().map(|(n, _, _)| n.to_ascii_lowercase()))
            .collect();
        for c in computed {
            base_tables.remove(&c);
        }

        Ok(ViewDef {
            name: name.to_string(),
            sql: sql.to_string(),
            compiled,
            class,
            keys,
            value_col,
            min_agg,
            epsilon,
            base_tables,
            subscribers: Vec::new(),
            refreshes: 0,
            fallbacks: 0,
            last: None,
        })
    }

    /// Cold-build a compiled view and publish its state/output tables.
    fn build_view(&mut self, v: &mut ViewDef) -> Result<()> {
        let mut rf = Refresher::new(
            &mut self.catalog,
            &self.profile,
            self.ubu_impl,
            self.tracer.as_ref(),
        );
        let work = work_table_of(&v.compiled);
        let eps = v.epsilon_for_loop();
        let built = build_cold(&mut rf, &v.compiled, &work, v.keys.as_deref(), eps)
            .and_then(|_| rf.eval(&v.compiled.final_plan))
            .and_then(|out| {
                let state = rf.catalog.relation(&work)?.clone();
                Ok((state, out))
            });
        rf.drop_temps();
        let (state, out) = built?;
        self.catalog.create_or_replace(&state_table(&v.name), state, false)?;
        self.catalog.create_or_replace(&v.name, out, false)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::oracle_like;
    use aio_storage::{edge_schema, node_schema, row, Value};

    /// The seed fault flag is process-global: tests that arm it and tests
    /// that exercise the clipped code paths (resume/frontier seeds) must
    /// not interleave.
    static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn fault_guard() -> std::sync::MutexGuard<'static, ()> {
        FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    const TC_SQL: &str = "with TC(F, T) as (
        (select E.F, E.T from E)
        union
        (select TC.F, E.T from TC, E where TC.T = E.F))
      select * from TC";

    const TC_ALL_SQL: &str = "with TC(F, T) as (
        (select E.F, E.T from E)
        union all
        (select TC.F, E.T from TC, E where TC.T = E.F)
        maxrecursion 8)
      select * from TC";

    const SSSP_SQL: &str = "with D(ID, vw) as (
        (select V.ID, V.vw from V)
        union by update ID
        (select E.T, min(D.vw + E.ew) from D, E where D.ID = E.F group by E.T))
      select * from D";

    const PR_SQL: &str = "with P(ID, W) as (
        (select V.ID, 0.0 from V)
        union by update ID
        (select E.T, :c * sum(P.W * E.ew) + (1 - :c) / :n from P, E
         where P.ID = E.F group by E.T))
      select ID, W from P";

    fn edge_rel(edges: &[(i64, i64, f64)]) -> Relation {
        let mut r = Relation::new(edge_schema());
        for &(f, t, w) in edges {
            r.push(row![f, t, w]).unwrap();
        }
        r
    }

    fn node_rel(nodes: &[(i64, f64)]) -> Relation {
        let mut r = Relation::new(node_schema());
        for &(id, w) in nodes {
            r.push(row![id, w]).unwrap();
        }
        r
    }

    fn db_with(edges: &[(i64, i64, f64)], nodes: &[(i64, f64)]) -> Database {
        let mut db = Database::new(oracle_like());
        db.create_table("E", edge_rel(edges)).unwrap();
        if !nodes.is_empty() {
            db.create_table("V", node_rel(nodes)).unwrap();
        }
        db
    }

    /// Cold oracle: a fresh database over `edges`/`nodes` with the same
    /// view built from scratch.
    fn cold_view(
        sql: &str,
        edges: &[(i64, i64, f64)],
        nodes: &[(i64, f64)],
        params: &[(&str, Value)],
        epsilon: f64,
    ) -> Relation {
        let mut db = db_with(edges, nodes);
        for (k, v) in params {
            db.set_param(k, v.clone());
        }
        db.create_view_with("oracle", sql, epsilon).unwrap();
        db.view_relation("oracle").unwrap().clone()
    }

    fn keyed_f64(rel: &Relation) -> FxHashMap<i64, f64> {
        rel.iter()
            .map(|r| (r[0].as_int().unwrap(), num(&r[1]).unwrap()))
            .collect()
    }

    #[test]
    fn classification_covers_the_algorithm_sql() {
        let db = db_with(&[(1, 2, 1.0)], &[(1, 0.0)]);
        let case = |sql: &str| classify(&db.prepare(sql).unwrap());

        assert_eq!(case(TC_SQL).0, ViewClass::Monotone);
        assert_eq!(case(TC_ALL_SQL).0, ViewClass::Opaque);

        let (class, keys, value_col, min) = case(SSSP_SQL);
        assert_eq!(class, ViewClass::MonotoneUbu);
        assert_eq!(keys, Some(vec![0]));
        assert_eq!(value_col, 1);
        assert!(min);

        let mut db2 = db_with(&[(1, 2, 1.0)], &[(1, 0.0)]);
        db2.set_param("c", 0.85);
        db2.set_param("n", 2.0);
        let (class, keys, ..) = classify(&db2.prepare(PR_SQL).unwrap());
        assert_eq!(class, ViewClass::Reconverge);
        assert_eq!(keys, Some(vec![0]));
    }

    #[test]
    fn create_view_matches_plain_execute() {
        let edges = [(1i64, 2, 1.0), (2, 3, 1.0), (4, 1, 1.0)];
        let mut db = db_with(&edges, &[]);
        db.create_view("tc_v", TC_SQL).unwrap();
        let mut db2 = db_with(&edges, &[]);
        let direct = db2.execute(TC_SQL).unwrap().relation;
        assert!(db.view_relation("tc_v").unwrap().same_rows_unordered(&direct));
    }

    #[test]
    fn tc_insert_batches_resume_and_match_recompute() {
        let _g = fault_guard();
        let mut edges = vec![(1i64, 2, 1.0), (2, 3, 1.0), (5, 6, 1.0)];
        let mut db = db_with(&edges, &[]);
        db.create_view("tc_v", TC_SQL).unwrap();

        for batch in [vec![(3i64, 4, 1.0)], vec![(4i64, 5, 1.0), (6, 1, 1.0)]] {
            let adds: Vec<Row> = batch.iter().map(|&(f, t, w)| row![f, t, w]).collect();
            edges.extend(batch.iter().copied());
            db.apply_edges(vec![EdgeDelta::insert("E", adds)]).unwrap();

            let report = db.view_report("tc_v").unwrap();
            assert_eq!(report.mode, RefreshMode::Resume);
            let expect = cold_view(TC_SQL, &edges, &[], &[], 1e-9);
            assert!(
                db.view_relation("tc_v").unwrap().same_rows_unordered(&expect),
                "incremental TC diverged after batch"
            );
        }
    }

    #[test]
    fn tc_deletion_falls_back_to_full_recompute() {
        let _g = fault_guard();
        let mut db = db_with(&[(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)], &[]);
        db.create_view("tc_v", TC_SQL).unwrap();
        db.apply_edges(vec![EdgeDelta::delete("E", vec![row![2i64, 3, 1.0]])]).unwrap();
        assert_eq!(db.view_report("tc_v").unwrap().mode, RefreshMode::Full);
        let expect = cold_view(TC_SQL, &[(1, 2, 1.0), (3, 4, 1.0)], &[], &[], 1e-9);
        assert!(db.view_relation("tc_v").unwrap().same_rows_unordered(&expect));
    }

    /// SSSP graph: nodes carry 0 (src) / 1e18 (rest) seeds and every node
    /// has a 0-weight self-loop, mirroring `aio-algos`.
    #[allow(clippy::type_complexity)]
    fn sssp_fixture(n: i64, edges: &[(i64, i64, f64)]) -> (Vec<(i64, i64, f64)>, Vec<(i64, f64)>) {
        let mut e: Vec<(i64, i64, f64)> = (0..n).map(|v| (v, v, 0.0)).collect();
        e.extend_from_slice(edges);
        let v: Vec<(i64, f64)> =
            (0..n).map(|v| (v, if v == 0 { 0.0 } else { 1e18 })).collect();
        (e, v)
    }

    #[test]
    fn sssp_insert_batches_use_frontier_and_match_recompute() {
        let _g = fault_guard();
        let (mut edges, nodes) =
            sssp_fixture(6, &[(0, 1, 4.0), (1, 2, 3.0), (2, 3, 2.0), (0, 4, 10.0)]);
        let mut db = db_with(&edges, &nodes);
        db.create_view("sssp_v", SSSP_SQL).unwrap();

        // A shortcut that improves several downstream distances, then an
        // edge reaching the previously disconnected node 5.
        for batch in [vec![(0i64, 2, 1.0)], vec![(3i64, 5, 1.0), (4, 3, 1.0)]] {
            let adds: Vec<Row> = batch.iter().map(|&(f, t, w)| row![f, t, w]).collect();
            edges.extend(batch.iter().copied());
            db.apply_edges(vec![EdgeDelta::insert("E", adds)]).unwrap();

            assert_eq!(db.view_report("sssp_v").unwrap().mode, RefreshMode::Frontier);
            let expect = cold_view(SSSP_SQL, &edges, &nodes, &[], 1e-9);
            assert!(
                db.view_relation("sssp_v").unwrap().same_rows_unordered(&expect),
                "frontier SSSP diverged"
            );
        }
    }

    #[test]
    fn sssp_deletion_falls_back_and_matches() {
        let _g = fault_guard();
        let (edges, nodes) = sssp_fixture(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]);
        let mut db = db_with(&edges, &nodes);
        db.create_view("sssp_v", SSSP_SQL).unwrap();
        db.apply_edges(vec![EdgeDelta::delete("E", vec![row![1i64, 2, 1.0]])]).unwrap();
        assert_eq!(db.view_report("sssp_v").unwrap().mode, RefreshMode::Full);
        let (edges2, _) = sssp_fixture(4, &[(0, 1, 1.0), (0, 2, 5.0)]);
        let expect = cold_view(SSSP_SQL, &edges2, &nodes, &[], 1e-9);
        assert!(db.view_relation("sssp_v").unwrap().same_rows_unordered(&expect));
    }

    /// PageRank-style fixture: uniform out-degree weights 1/outdeg.
    fn pr_weights(raw: &[(i64, i64)]) -> Vec<(i64, i64, f64)> {
        let mut outdeg: FxHashMap<i64, usize> = FxHashMap::default();
        for &(f, _) in raw {
            *outdeg.entry(f).or_insert(0) += 1;
        }
        raw.iter().map(|&(f, t)| (f, t, 1.0 / outdeg[&f] as f64)).collect()
    }

    #[test]
    fn pagerank_reconverges_within_epsilon_of_recompute() {
        let n = 5i64;
        let nodes: Vec<(i64, f64)> = (0..n).map(|v| (v, 0.0)).collect();
        let params: Vec<(&str, Value)> =
            vec![("c", Value::from(0.85)), ("n", Value::from(n as f64))];
        let mut raw = vec![(0i64, 1), (1, 2), (2, 0), (3, 0), (0, 3)];
        let mut db = db_with(&pr_weights(&raw), &nodes);
        for (k, v) in &params {
            db.set_param(k, v.clone());
        }
        db.create_view_with("pr_v", PR_SQL, 1e-12).unwrap();

        // Mutate: node 4 joins the cycle. Out-degree renormalization makes
        // this a mixed add/delete delta on E.
        let old = pr_weights(&raw);
        raw.push((2, 4));
        raw.push((4, 0));
        let new = pr_weights(&raw);
        let dels: Vec<Row> = old
            .iter()
            .filter(|e| !new.contains(e))
            .map(|&(f, t, w)| row![f, t, w])
            .collect();
        let adds: Vec<Row> = new
            .iter()
            .filter(|e| !old.contains(e))
            .map(|&(f, t, w)| row![f, t, w])
            .collect();
        db.apply_edges(vec![EdgeDelta::new("E", adds, dels)]).unwrap();

        assert_eq!(db.view_report("pr_v").unwrap().mode, RefreshMode::Reconverge);
        let expect = cold_view(PR_SQL, &new, &nodes, &params, 1e-12);
        let got = keyed_f64(db.view_relation("pr_v").unwrap());
        let want = keyed_f64(&expect);
        assert_eq!(got.len(), want.len());
        for (id, w) in &want {
            let g = got[id];
            assert!(
                (g - w).abs() < 1e-6,
                "rank of {id} diverged: incremental {g} vs cold {w}"
            );
        }
    }

    #[test]
    fn insert_then_delete_same_edge_is_a_noop_delta() {
        let mut db = db_with(&[(1, 2, 1.0), (2, 3, 1.0)], &[]);
        db.create_view("tc_v", TC_SQL).unwrap();
        let before = db.view_relation("tc_v").unwrap().clone();
        // One batch that both inserts and deletes the same edge: net zero.
        let out = db
            .apply_edges(vec![EdgeDelta::new(
                "E",
                vec![row![3i64, 4, 1.0]],
                vec![row![3i64, 4, 1.0]],
            )])
            .unwrap();
        // add/delete pairs cancel before anything touches the catalog:
        // no view is refreshed and no result delta is emitted
        assert!(out.is_empty(), "net-zero batch must refresh nothing");
        assert!(db.view_relation("tc_v").unwrap().same_rows_unordered(&before));
    }

    #[test]
    fn subscribers_receive_sorted_result_deltas() {
        let _g = fault_guard();
        let (edges, nodes) = sssp_fixture(4, &[(0, 1, 5.0), (1, 2, 1.0)]);
        let mut db = db_with(&edges, &nodes);
        db.create_view("sssp_v", SSSP_SQL).unwrap();
        let rx = db.subscribe("sssp_v").unwrap();

        db.apply_edges(vec![EdgeDelta::insert("E", vec![row![0i64, 1, 2.0]])]).unwrap();
        let delta = rx.try_recv().expect("refresh must notify subscribers");
        assert_eq!(delta.view, "sssp_v");
        assert!(delta.generation > 0);
        assert!(delta.added.is_empty() && delta.removed.is_empty());
        // 1 and 2 improve (5→2, 6→3); keys arrive sorted by old row.
        let changed: Vec<i64> =
            delta.changed.iter().map(|(old, _)| old[0].as_int().unwrap()).collect();
        assert_eq!(changed, vec![1, 2]);
    }

    #[test]
    fn planted_seed_fault_makes_resume_diverge() {
        let _g = fault_guard();
        let mut edges = vec![(1i64, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)];
        let mut db = db_with(&edges, &[]);
        db.create_view("tc_v", TC_SQL).unwrap();

        aio_algebra::fault::inject_ivm_seed_off_by_one(true);
        edges.push((4, 5, 1.0));
        db.apply_edges(vec![EdgeDelta::insert("E", vec![row![4i64, 5, 1.0]])]).unwrap();
        aio_algebra::fault::inject_ivm_seed_off_by_one(false);
        assert!(aio_algebra::fault::fault_hits() > 0, "fault must have fired");

        let expect = cold_view(TC_SQL, &edges, &[], &[], 1e-9);
        assert!(
            !db.view_relation("tc_v").unwrap().same_rows_unordered(&expect),
            "clipped seed must lose derivations"
        );

        // refresh_all_views repairs the damage with a cold rebuild.
        db.refresh_all_views().unwrap();
        assert!(db.view_relation("tc_v").unwrap().same_rows_unordered(&expect));
    }

    #[test]
    fn show_view_reports_class_strategy_and_last_refresh() {
        let _g = fault_guard();
        let mut db = db_with(&[(1, 2, 1.0)], &[]);
        db.create_view("tc_v", TC_SQL).unwrap();
        db.apply_edges(vec![EdgeDelta::insert("E", vec![row![2i64, 3, 1.0]])]).unwrap();
        let s = db.show_view("tc_v").unwrap();
        assert!(s.contains("class:      monotone"), "{s}");
        assert!(s.contains("resume semi-naive"), "{s}");
        assert!(s.contains("last:       resume"), "{s}");
        assert!(db.show_view("nope").is_err());
    }

    #[test]
    fn view_name_collisions_are_rejected() {
        let mut db = db_with(&[(1, 2, 1.0)], &[]);
        db.create_view("tc_v", TC_SQL).unwrap();
        assert!(db.create_view("tc_v", TC_SQL).is_err());
        assert!(db.create_view("E", TC_SQL).is_err());
        db.drop_view("tc_v").unwrap();
        assert!(db.view_names().is_empty());
        db.create_view("tc_v", TC_SQL).unwrap();
    }

    #[test]
    fn untouched_views_are_not_refreshed() {
        let _g = fault_guard();
        let mut db = db_with(&[(1, 2, 1.0)], &[]);
        db.create_table("X", edge_rel(&[(7, 8, 1.0)])).unwrap();
        db.create_view("tc_v", TC_SQL).unwrap();
        let out = db
            .apply_edges(vec![EdgeDelta::insert("X", vec![row![8i64, 9, 1.0]])])
            .unwrap();
        assert!(out.is_empty(), "view does not read X");
        assert!(db.view_report("tc_v").is_none());
    }
}
