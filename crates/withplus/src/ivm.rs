//! Incremental view maintenance (IVM) for live graphs.
//!
//! A registered view is a with+ statement kept materialized while the base
//! tables change. [`Database::apply_edges`] ingests a batch of edge
//! insertions/deletions through the WAL (one logical `EdgeDelta` record per
//! mutated table) and refreshes every affected view *incrementally* instead
//! of re-running the fixpoint from scratch.
//!
//! Nothing here iterates: a cold build, a deletion fallback and every
//! incremental refresh run the PSM loop ([`crate::psm`]) and differ only in
//! where it starts and how it folds a delta into the state. The choice
//! follows from the classification the compiler performs once, beside
//! XY-stratification, and stores with the compiled view (DESIGN.md §16
//! tabulates it). A cold build (`Full`) runs exactly what `execute` would,
//! so under the optimizer a `MonotoneUbu` view that the compiler proves fit
//! builds delta-driven (improving by key over the frontier once iteration
//! 0's data checks hold), like the statement:
//!
//! | class          | union mode        | recursive shape            | insert-only refresh             | with deletions  |
//! |----------------|-------------------|----------------------------|---------------------------------|-----------------|
//! | `Monotone`     | `union` (distinct)| any                        | seed, insert-fresh (`Resume`)   | init (`Full`)   |
//! | `MonotoneUbu`  | `union by update` | single `min`/`max` agg     | seed, improve (`Frontier`)      | init (`Full`)   |
//! | `Reconverge`   | `union by update` | anything else (e.g. `sum`) | retained state, replace until ε | same            |
//! | `Opaque`       | `union all`, `computed by`, keyless UBU | —    | init (`Full`)                   | init (`Full`)   |
//!
//! The *seed* re-derives only conclusions involving at least one delta row:
//! every scan of a mutated base table is rebound — one occurrence at a
//! time — to a `Plan::Values` of the batch's inserted rows and the
//! variants are unioned; the loop folds it into the retained state and
//! iterates from what that changed. The inserted rows are never a table:
//! the base table's `EdgeDelta` record is their only log.
//! *Improve* folds with the fixpoint's own `min`/`max` (see
//! `aio_algebra::ops::ubu_merge_improve` for why replace semantics would be
//! wrong on a partial frontier); the view keeps its key index over the
//! state between refreshes. *Re-converge* restarts the
//! full-width iteration from the previous result, stopping when the largest
//! per-key change drops below the view's epsilon; the cold build of this
//! class uses the *same* stopping rule so incremental and recompute results
//! agree to within epsilon. The re-converge path assumes key-stationarity
//! (the set of keys the recursive step derives does not depend on the
//! carried values — true for PageRank-class views); keys that stop being
//! derivable are reset to their initialization values before the loop.
//!
//! Every refresh folds in place into the table that holds R (DESIGN §19):
//! the view's own table when the final query passes R through, else
//! `__ivm_state_<view>`, whose final query the refresh then publishes. The
//! insert and improve folds keep row positions and log only the rows they
//! write, so their [`ResultDelta`] is a positional compare against the
//! version the refresh started from — which a failed refresh puts back.
//!
//! Each `apply_edges` call is one WAL transaction: the base-table deltas
//! and every refreshed view commit together, so crash recovery lands on
//! the pre-batch or post-batch generation, never a torn view. Every
//! refresh emits a [`ResultDelta`] (added/removed/changed rows versus the
//! previous materialization) to subscribers, bumps the `ivm_*` metrics,
//! and records a [`RefreshReport`] readable via [`Database::show_view`].

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use crate::compile::CompiledWithPlus;
use crate::db::Database;
use crate::error::{Result, WithPlusError};
use crate::psm::{rebind_scan, rename_to, PsmRunner, Start, ViewClass};
use aio_algebra::ops::KeyLookup;
use aio_algebra::{Plan, ScalarExpr};
use aio_storage::{KeyIndex, Relation, Row};
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
        EdgeDelta {
            table: table.into(),
            adds,
            dels,
        }
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
#[derive(Clone, Debug, Default)]
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

    /// Rows sorted lexicographically (Value is totally ordered), so the
    /// stream does not depend on derivation order.
    fn sorted(mut self) -> ResultDelta {
        let rows = |a: &Row, b: &Row| a.iter().cmp(b.iter());
        self.added.sort_unstable_by(rows);
        self.removed.sort_unstable_by(rows);
        self.changed.sort_unstable_by(|a, b| rows(&a.0, &b.0));
        self
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
    /// Bytes the refresh's batch appended to the durable log (0 in
    /// memory): base deltas, every view it refreshed, the commit.
    pub wal_bytes: u64,
}

/// A registered materialized view (crate-internal).
pub(crate) struct ViewDef {
    pub(crate) name: String,
    pub(crate) sql: String,
    /// Optimized plans with every self-reference rebound to the table that
    /// holds R (`compiled.rec_name`): the view's own table when the final
    /// query passes R through, else its state table — never a user table's
    /// name. Its `folds` say how: cold builds, the deletion fallback and
    /// re-convergence run the statement's own fold, exactly what `execute`
    /// would (delta-driven or not); insert-only refreshes run `warm`.
    compiled: CompiledWithPlus,
    /// Is the view's table R itself ([`passes_through`])?
    pass_through: bool,
    /// R's key lookup, held from one `Frontier` refresh to the next (the
    /// improve fold grows it with R); any other refresh drops it.
    index: Option<KeyLookup>,
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

/// Does the final query return R as it is — a scan of R, or R's columns in
/// order under their own names? Then the view's table can be R itself.
fn passes_through(plan: &Plan, rec: &str, cols: &[String]) -> bool {
    let is_rec =
        |p: &Plan| matches!(p, Plan::Scan { table, .. } if table.eq_ignore_ascii_case(rec));
    // over a scan of R alone, a column reference can only name R's column
    let own = |((e, name), col): (&(ScalarExpr, String), &String)| {
        let bare = |c: &str| {
            c.rsplit('.')
                .next()
                .is_some_and(|b| b.eq_ignore_ascii_case(col))
        };
        name == col && matches!(e, ScalarExpr::Col(c) if bare(c))
    };
    match plan {
        Plan::Project { input, items } => {
            is_rec(input) && items.len() == cols.len() && items.iter().zip(cols).all(own)
        }
        p => is_rec(p),
    }
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
/// `table` replaced by `Plan::Values` of `rows`, qualified as the scan was.
pub fn replace_nth_scan(plan: &Plan, table: &str, rows: &Relation, nth: usize) -> Plan {
    let mut seen = 0usize;
    map_scans(plan.clone(), &mut |t, alias| {
        if !t.eq_ignore_ascii_case(table) {
            return None;
        }
        let hit = seen == nth;
        seen += 1;
        hit.then(|| {
            let schema = rows.schema().with_qualifier(alias.as_deref().unwrap_or(t));
            Plan::Values(rows.clone().with_schema(schema))
        })
    })
}

// ---------------------------------------------------------------------------
// The refresh engine
// ---------------------------------------------------------------------------

/// The union of every "one scan rebound to its delta" variant of the
/// view's steps, evaluated against the retained state — the seed an
/// incremental refresh starts from. `inserted` pairs each touched base
/// table with its inserted rows.
fn build_seed(
    r: &mut PsmRunner<'_>,
    tracer: Option<&Tracer>,
    c: &CompiledWithPlus,
    inserted: &[(&String, &Relation)],
) -> Result<Relation> {
    let span = aio_trace::maybe_span(tracer, "ivm_seed");
    // A view that scans no touched table in a step plan (only through
    // `computed by` — impossible here: such views are Opaque) seeds nothing.
    let mut seed = Relation::new(r.catalog.relation(&c.rec_name)?.schema().clone());
    for step in c.init.iter().chain(c.recursive.iter()) {
        for (table, rows) in inserted {
            for k in 0..count_scans(&step.plan, table) {
                let variant = replace_nth_scan(&step.plan, table, rows, k);
                let rel = rename_to(r.eval(&variant, "seed")?, &c.rec_cols)?;
                seed.extend(rel.into_rows())?;
            }
        }
    }
    if aio_algebra::fault::ivm_fault_armed() {
        // The planted off-by-one must lose a row the refresh would have
        // contributed, not a re-derivation the fold discards anyway.
        seed = aio_algebra::ops::difference(&seed, r.catalog.relation(&c.rec_name)?)?;
        aio_algebra::fault::clip_ivm_seed(&mut seed);
    }
    if let Some(s) = &span {
        s.field("rows", seed.len());
    }
    Ok(seed)
}

/// Key-stationarity fix-up before re-converging from the retained state:
/// keys the recursive step no longer derives would otherwise keep their
/// stale warm value forever, while a cold run leaves them at their
/// initialization value.
fn reset_underivable_keys(
    r: &mut PsmRunner<'_>,
    c: &CompiledWithPlus,
    keys: &[usize],
) -> Result<()> {
    let r0 = r.init_relation(c)?;
    let mut produced = Relation::new(r0.schema().clone());
    for step in &c.recursive {
        let d = rename_to(r.eval(&step.plan, "derivable")?, &c.rec_cols)?;
        produced.extend(d.into_rows())?;
    }
    let produced_idx = KeyIndex::build(&produced, keys);
    let init_idx = KeyIndex::build(&r0, keys);
    if init_idx.first_duplicate(&r0).is_none() {
        let rel = r.catalog.relation(&c.rec_name)?;
        let set = rel
            .iter()
            .enumerate()
            .filter(|(_, row)| !produced_idx.contains(&produced, row, keys))
            .filter_map(|(i, row)| {
                let init = init_idx.probe(&r0, row, keys).next()?;
                Some((i, r0[init as usize].clone()))
            })
            .collect();
        r.catalog.patch_rows(&c.rec_name, set, Vec::new())?;
    }
    Ok(())
}

/// Bring a view's R to the fixpoint over the current base tables, folding
/// in place into the table that holds it: pick where the PSM loop starts
/// and how it folds, and run it; a view that does not pass R through then
/// publishes its final query. `index` is R's key index from the last
/// `Frontier` refresh, if the view kept one; `inserted`, the rows a seed
/// reads. Every temp table is gone when this returns, on error too — but R
/// may be half-folded then. Returns the iteration count and the improve
/// fold's key index over R.
fn run_view(
    db: &mut Database,
    tracer: Option<&Tracer>,
    v: &ViewDef,
    mode: RefreshMode,
    inserted: &[(&String, &Relation)],
    index: Option<KeyLookup>,
) -> Result<(usize, Option<KeyLookup>)> {
    let c = &v.compiled;
    let mut runner = PsmRunner::new(&mut db.catalog, &db.profile, db.ubu_impl);
    runner.set_tracer(tracer);
    runner.keep = Some(c.rec_name.clone());
    let (iterations, index, out) = runner.with_temps(c, |r| {
        let (start, fold) = match mode {
            RefreshMode::Full => (Start::Init, &c.folds.cold),
            RefreshMode::Resume | RefreshMode::Frontier => {
                let seed = build_seed(r, tracer, c, inserted)?;
                (Start::Seed(seed, index), &c.folds.warm)
            }
            RefreshMode::Reconverge => {
                if let Some(keys) = c.folds.cold.keys() {
                    reset_underivable_keys(r, c, keys)?;
                }
                (Start::Resume(0), &c.folds.cold)
            }
        };
        // Only the `Reconverge` class stops early; everything else runs to
        // the exact fixpoint.
        let epsilon = if c.folds.class == ViewClass::Reconverge {
            v.epsilon
        } else {
            f64::INFINITY
        };
        let started = r.start(c, start, fold)?;
        let (iterations, index) = r.iterate(c, started, epsilon, |_, _, _| Ok(()))?;
        let out = (!v.pass_through)
            .then(|| r.eval(&c.final_plan, "final"))
            .transpose()?;
        Ok((iterations, index, out))
    })?;
    if let Some(out) = out {
        db.catalog.create_or_replace(&v.name, out, false)?;
    }
    Ok((iterations, index))
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
    let mut d = ResultDelta::default();
    let unique = |rel: &Relation, k: &[usize]| {
        let idx = KeyIndex::build(rel, k);
        idx.first_duplicate(rel).is_none().then_some(idx)
    };
    let keyed = keys.and_then(|k| Some((k, unique(old, k)?, unique(new, k)?)));
    match keyed {
        Some((k, old_idx, new_idx)) => {
            for o in old.rows() {
                match new_idx.probe(new, o, k).next() {
                    None => d.removed.push(o.clone()),
                    Some(ni) if new[ni as usize] != *o => {
                        d.changed.push((o.clone(), new[ni as usize].clone()));
                    }
                    Some(_) => {}
                }
            }
            for n in new.rows() {
                if !old_idx.contains(old, n, k) {
                    d.added.push(n.clone());
                }
            }
        }
        None => {
            d.added = new.uncovered(old).cloned().collect();
            d.removed = old.uncovered(new).cloned().collect();
        }
    }
    d.sorted()
}

/// [`diff_result`] of an insert or improve fold, read off position by
/// position without indexing either side: such a fold appends rows and
/// overwrites only the row of a key it improves, so a row that differs
/// from `old`'s at its position is that key's change (DESIGN §19). A chunk
/// the fold did not write is still shared with `old` and is skipped
/// (DESIGN §20).
fn positional_delta(old: &Relation, new: &Relation) -> ResultDelta {
    let written = old
        .chunks()
        .zip(new.chunks())
        .filter(|(o, n)| !std::ptr::eq(*o, *n));
    ResultDelta {
        changed: written
            .flat_map(|(o, n)| o.iter().zip(n))
            .filter(|(o, n)| o != n)
            .map(|(o, n)| (o.clone(), n.clone()))
            .collect(),
        added: new.rows().range(old.len()..new.len()).to_vec(),
        ..ResultDelta::default()
    }
    .sorted()
}

/// Refresh one view against an already-applied batch. `mutated` maps
/// every table the batch changed to whether it deleted rows; `inserted`
/// holds the rows of each insert-only table a view reads. Returns the
/// result delta (generation stamped later, at commit).
fn refresh_view(
    db: &mut Database,
    tracer: Option<&Tracer>,
    v: &mut ViewDef,
    mutated: &BTreeMap<String, bool>,
    inserted: &BTreeMap<String, Relation>,
) -> Result<ResultDelta> {
    let started = Instant::now();
    let touched: Vec<&String> = mutated
        .keys()
        .filter(|t| v.base_tables.contains(*t))
        .collect();
    let insert_only = touched.iter().all(|t| !mutated[*t]);
    let inserted: Vec<(&String, &Relation)> = touched
        .iter()
        .filter_map(|t| Some((*t, inserted.get(*t)?)))
        .collect();
    let mode = match v.compiled.folds.class {
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

    // The versions this refresh supersedes: what its delta is taken
    // against, and what a failed refresh puts back.
    let rec = v.compiled.rec_name.clone();
    let held = db.catalog.shared_entry(&rec)?;
    let held_out = (!v.pass_through)
        .then(|| db.catalog.shared_entry(&v.name))
        .transpose()?;
    let index = v.index.take().filter(|_| mode == RefreshMode::Frontier);
    let (iterations, index) = match run_view(db, tracer, v, mode, &inserted, index) {
        Ok(done) => done,
        Err(e) => {
            // Put R's pre-refresh rows back (a failure here means a failing
            // log, which the batch's commit reports).
            let _ = db
                .catalog
                .create_or_replace(&rec, held.rel.clone(), held.temp);
            return Err(e);
        }
    };
    v.index = index.filter(|_| mode == RefreshMode::Frontier);
    let out = db.catalog.relation(&v.name)?;

    let rec_cols = &v.compiled.rec_cols;
    let keyed_out = v.compiled.folds.cold.keys().filter(|_| {
        out.schema().columns().len() == rec_cols.len()
            && out
                .schema()
                .columns()
                .iter()
                .zip(rec_cols)
                .all(|(a, b)| a.name.eq_ignore_ascii_case(b))
    });
    let mut delta = match &held_out {
        Some(old) => diff_result(&old.rel, out, keyed_out),
        None if matches!(mode, RefreshMode::Resume | RefreshMode::Frontier) => {
            positional_delta(&held.rel, out)
        }
        None => diff_result(&held.rel, out, keyed_out),
    };
    delta.view = v.name.clone();

    let report = RefreshReport {
        view: v.name.clone(),
        mode,
        iterations,
        added: delta.added.len(),
        removed: delta.removed.len(),
        changed: delta.changed.len(),
        duration: started.elapsed(),
        wal_bytes: 0,
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
    v.last = Some(report);
    Ok(delta)
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
            return Err(WithPlusError::Restriction(format!(
                "view {name} already exists"
            )));
        }
        if self.catalog.contains(name) {
            return Err(WithPlusError::Restriction(format!(
                "cannot create view {name}: a table with that name exists"
            )));
        }
        let v = self.compile_view(name, sql, epsilon)?;
        let tracer = self.tracer.take();
        self.catalog.wal_begin_txn();
        let built = run_view(self, tracer.as_ref(), &v, RefreshMode::Full, &[], None);
        self.tracer = tracer;
        if built.is_err() {
            let _ = self.catalog.drop_table(&v.compiled.rec_name);
        }
        // Commit on both paths, as `apply_batch` does: a failed build
        // leaves nothing behind.
        let commit = self.catalog.wal_commit_txn();
        built?;
        commit?;
        self.views.push(v);
        Ok(())
    }

    /// Re-attach a view after reopening a durable database: the tables
    /// holding its rows were recovered from the WAL, only the in-memory
    /// definition is re-derived (no recompute). Falls back to a full
    /// [`Database::create_view_with`] when the tables are absent.
    pub fn register_view(&mut self, name: &str, sql: &str, epsilon: f64) -> Result<()> {
        if self.views.iter().any(|v| v.name.eq_ignore_ascii_case(name)) {
            return Err(WithPlusError::Restriction(format!(
                "view {name} already exists"
            )));
        }
        let v = self.compile_view(name, sql, epsilon)?;
        if !(self.catalog.contains(name) && self.catalog.contains(&v.compiled.rec_name)) {
            return self.create_view_with(name, sql, epsilon);
        }
        self.views.push(v);
        Ok(())
    }

    /// Drop a view: forgets the definition and removes the tables holding
    /// its rows.
    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        let Some(i) = self
            .views
            .iter()
            .position(|v| v.name.eq_ignore_ascii_case(name))
        else {
            return Err(WithPlusError::Restriction(format!("no such view: {name}")));
        };
        let v = self.views.remove(i);
        let _ = self.catalog.drop_table(&v.name);
        let _ = self.catalog.drop_table(&v.compiled.rec_name);
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
        let rows = |t: &str| self.catalog.relation(t).map(|r| r.len()).unwrap_or(0);
        let mut s = String::new();
        s.push_str(&format!("view {}\n", v.name));
        let sql_one_line: String = v.sql.split_whitespace().collect::<Vec<_>>().join(" ");
        s.push_str(&format!("  sql:        {}\n", sql_one_line));
        let class = v.compiled.folds.class;
        s.push_str(&format!("  class:      {}\n", class.label()));
        s.push_str(&format!(
            "  strategy:   insert-only -> {}, deletions -> {}\n",
            match class {
                ViewClass::Monotone => "resume semi-naive",
                ViewClass::MonotoneUbu => "frontier merge-improve",
                ViewClass::Reconverge => "re-converge from state",
                ViewClass::Opaque => "full recompute",
            },
            match class {
                ViewClass::Reconverge => "re-converge from state",
                _ => "full recompute",
            }
        ));
        s.push_str(&format!("  base:       {}\n", {
            let names: Vec<&str> = v.base_tables.iter().map(String::as_str).collect();
            names.join(", ")
        }));
        if class == ViewClass::Reconverge {
            s.push_str(&format!("  epsilon:    {:e}\n", v.epsilon));
        }
        let (out, state) = (rows(&v.name), rows(&v.compiled.rec_name));
        s.push_str(&format!("  rows:       {out} (state {state})\n"));
        s.push_str(&format!(
            "  refreshes:  {} ({} full fallbacks)\n",
            v.refreshes, v.fallbacks
        ));
        if let Some(last) = &v.last {
            s.push_str(&format!(
                "  last:       {} in {} iterations, +{} -{} ~{} rows, {:.3} ms, {} WAL bytes\n",
                last.mode.label(),
                last.iterations,
                last.added,
                last.removed,
                last.changed,
                last.duration.as_secs_f64() * 1e3,
                last.wal_bytes,
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
        let mutated: BTreeMap<String, bool> = deltas
            .iter()
            .map(|d| (d.table.clone(), !d.dels.is_empty()))
            .collect();
        if let Some(s) = &span {
            s.field("tables", mutated.len());
            s.field("adds", deltas.iter().map(|d| d.adds.len()).sum::<usize>());
            s.field("dels", deltas.iter().map(|d| d.dels.len()).sum::<usize>());
        }

        let out = self.apply_batch(deltas, &mutated, tracer)?;
        if let Some(s) = &span {
            s.field("views", out.len());
            s.field("generation", self.catalog.generation());
        }
        for rd in &out {
            if let Some(v) = self
                .views
                .iter_mut()
                .find(|v| v.name.eq_ignore_ascii_case(&rd.view))
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
        let mutated: BTreeMap<String, bool> = self
            .views
            .iter()
            .flat_map(|v| v.base_tables.iter().map(|t| (t.clone(), true)))
            .collect();
        let tracer = self.tracer.take();
        let out = self.apply_batch(Vec::new(), &mutated, tracer.as_ref());
        self.tracer = tracer;
        out
    }

    /// One batch = one WAL transaction = one MVCC generation: apply the
    /// base deltas, refresh the affected views, commit, and stamp the
    /// result deltas with the generation they were published under.
    fn apply_batch(
        &mut self,
        deltas: Vec<EdgeDelta>,
        mutated: &BTreeMap<String, bool>,
        tracer: Option<&Tracer>,
    ) -> Result<Vec<ResultDelta>> {
        self.catalog.wal_begin_txn();
        let log_at = |db: &Database| db.catalog.durability().map_or(0, |d| d.bytes_appended());
        let logged = log_at(self);
        let mut views = std::mem::take(&mut self.views);
        let result = (|| {
            let mut inserted = BTreeMap::new();
            for d in deltas {
                // Only insert-only refreshes read the inserted rows, and
                // only views that read the table refresh.
                let read =
                    d.dels.is_empty() && views.iter().any(|v| v.base_tables.contains(&d.table));
                let adds = read.then(|| d.adds.clone());
                self.catalog
                    .apply_delta(&d.table, d.adds, d.dels, self.profile.wal_temp)?;
                if let Some(adds) = adds {
                    let schema = self.catalog.relation(&d.table)?.schema().clone();
                    inserted.insert(d.table, Relation::from_rows(schema, adds)?);
                }
            }
            views
                .iter_mut()
                .filter(|v| v.base_tables.iter().any(|t| mutated.contains_key(t)))
                .map(|v| refresh_view(self, tracer, v, mutated, &inserted))
                .collect::<Result<Vec<_>>>()
        })();
        self.views = views;
        // Commit on both paths: a failed refresh put back the version of
        // its view it started from, so committing the base delta keeps the
        // catalog consistent — views are stale, not torn — and the error
        // reports exactly that.
        let commit = self.catalog.wal_commit_txn();
        let mut out = result?;
        commit?;
        let generation = self.catalog.generation();
        let wal_bytes = log_at(self) - logged;
        for rd in &mut out {
            rd.generation = generation;
            let view = self.views.iter_mut().find(|v| v.name == rd.view);
            if let Some(last) = view.and_then(|v| v.last.as_mut()) {
                last.wal_bytes = wal_bytes;
            }
        }
        Ok(out)
    }

    /// Compile (which classifies) and rebind a view definition (no
    /// execution).
    fn compile_view(&self, name: &str, sql: &str, epsilon: f64) -> Result<ViewDef> {
        let mut compiled = self.plan_with_plus(sql, self.profile.optimizer)?;
        // R lives in the view's own table when the final query passes it
        // through, else in a state table of the view's; every
        // self-reference is rebound there, so refreshes cannot collide with
        // user tables or other views.
        let rec = compiled.rec_name.clone();
        let pass_through = passes_through(&compiled.final_plan, &rec, &compiled.rec_cols);
        let home = match pass_through {
            true => name.to_string(),
            false => state_table(name),
        };
        for (table, _) in compiled.index_specs.iter_mut() {
            if table.eq_ignore_ascii_case(&rec) {
                *table = home.to_ascii_lowercase();
            }
        }
        for plan in compiled.plans_mut() {
            *plan = rebind_scan(plan, &rec, &home);
        }
        compiled.rec_name = home.clone();

        let mut base_tables = BTreeSet::new();
        for plan in compiled.plans() {
            plan.visit(&mut |p| {
                if let Plan::Scan { table, .. } = p {
                    base_tables.insert(table.to_ascii_lowercase());
                }
            });
        }
        base_tables.remove(&home.to_ascii_lowercase());
        for computed in compiled.computed_names() {
            base_tables.remove(&computed.to_ascii_lowercase());
        }

        Ok(ViewDef {
            name: name.to_string(),
            sql: sql.to_string(),
            compiled,
            pass_through,
            index: None,
            epsilon,
            base_tables,
            subscribers: Vec::new(),
            refreshes: 0,
            fallbacks: 0,
            last: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psm::num;
    use aio_algebra::oracle_like;
    use aio_storage::{edge_schema, node_schema, row, FxHashMap, Value};

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

    /// DESIGN §19: a view keeps the improve fold's key lookup over R from
    /// one `frontier` refresh to the next. The first refresh builds it; the
    /// later ones only grow it and build none over all of R.
    #[test]
    fn frontier_refreshes_build_one_key_lookup() {
        use crate::psm::LOOKUP_BUILDS;
        use aio_algebra::{ExecMode, Optimizer};
        let _g = fault_guard();
        let builds = || LOOKUP_BUILDS.with(std::cell::Cell::get);
        let mut edges = vec![(0i64, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0), (4, 5, 1.0)];
        edges.extend((0..6).map(|v| (v, v, 0.0)));
        let nodes: Vec<(i64, f64)> = (0..6)
            .map(|v| (v, if v == 0 { 0.0 } else { 1e18 }))
            .collect();
        for exec in [ExecMode::Row, ExecMode::Batch] {
            let profile = oracle_like()
                .with_optimizer(Optimizer::Cost)
                .with_exec(exec);
            let mut db = Database::new(profile);
            db.create_table("E", edge_rel(&edges)).unwrap();
            db.create_table("V", node_rel(&nodes)).unwrap();
            db.create_view("sssp_v", SSSP_SQL).unwrap();
            let mut now = edges.clone();
            for (i, e) in [(3i64, 4, 1.0), (0, 2, 1.0), (1, 5, 9.0)]
                .into_iter()
                .enumerate()
            {
                let ctx = format!("{exec:?}, refresh {i}");
                let before = builds();
                now.push(e);
                db.apply_edges(vec![EdgeDelta::insert("E", vec![row![e.0, e.1, e.2]])])
                    .unwrap();
                let report = db.view_report("sssp_v").unwrap();
                assert_eq!(report.mode, RefreshMode::Frontier, "{ctx}");
                assert_eq!(builds() - before, u64::from(i == 0), "{ctx}");
                assert!(db.views[0].index.is_some(), "{ctx}: the lookup is held");
                let cold = cold_view(SSSP_SQL, &now, &nodes, &[], 1e-9);
                let got = db.view_relation("sssp_v").unwrap();
                assert_eq!(keyed_f64(got), keyed_f64(&cold), "{ctx}");
            }
        }
    }

    #[test]
    fn create_view_matches_plain_execute() {
        let edges = [(1i64, 2, 1.0), (2, 3, 1.0), (4, 1, 1.0)];
        let mut db = db_with(&edges, &[]);
        db.create_view("tc_v", TC_SQL).unwrap();
        let mut db2 = db_with(&edges, &[]);
        let direct = db2.execute(TC_SQL).unwrap().relation;
        assert!(db
            .view_relation("tc_v")
            .unwrap()
            .same_rows_unordered(&direct));
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
                db.view_relation("tc_v")
                    .unwrap()
                    .same_rows_unordered(&expect),
                "incremental TC diverged after batch"
            );
        }
    }

    #[test]
    fn tc_deletion_falls_back_to_full_recompute() {
        let _g = fault_guard();
        let mut db = db_with(&[(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)], &[]);
        db.create_view("tc_v", TC_SQL).unwrap();
        db.apply_edges(vec![EdgeDelta::delete("E", vec![row![2i64, 3, 1.0]])])
            .unwrap();
        assert_eq!(db.view_report("tc_v").unwrap().mode, RefreshMode::Full);
        let expect = cold_view(TC_SQL, &[(1, 2, 1.0), (3, 4, 1.0)], &[], &[], 1e-9);
        assert!(db
            .view_relation("tc_v")
            .unwrap()
            .same_rows_unordered(&expect));
    }

    /// SSSP graph: nodes carry 0 (src) / 1e18 (rest) seeds and every node
    /// has a 0-weight self-loop, mirroring `aio-algos`.
    #[allow(clippy::type_complexity)]
    fn sssp_fixture(n: i64, edges: &[(i64, i64, f64)]) -> (Vec<(i64, i64, f64)>, Vec<(i64, f64)>) {
        let mut e: Vec<(i64, i64, f64)> = (0..n).map(|v| (v, v, 0.0)).collect();
        e.extend_from_slice(edges);
        let v: Vec<(i64, f64)> = (0..n)
            .map(|v| (v, if v == 0 { 0.0 } else { 1e18 }))
            .collect();
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

            assert_eq!(
                db.view_report("sssp_v").unwrap().mode,
                RefreshMode::Frontier
            );
            let expect = cold_view(SSSP_SQL, &edges, &nodes, &[], 1e-9);
            assert!(
                db.view_relation("sssp_v")
                    .unwrap()
                    .same_rows_unordered(&expect),
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
        db.apply_edges(vec![EdgeDelta::delete("E", vec![row![1i64, 2, 1.0]])])
            .unwrap();
        assert_eq!(db.view_report("sssp_v").unwrap().mode, RefreshMode::Full);
        let (edges2, _) = sssp_fixture(4, &[(0, 1, 1.0), (0, 2, 5.0)]);
        let expect = cold_view(SSSP_SQL, &edges2, &nodes, &[], 1e-9);
        assert!(db
            .view_relation("sssp_v")
            .unwrap()
            .same_rows_unordered(&expect));
    }

    /// PageRank-style fixture: uniform out-degree weights 1/outdeg.
    fn pr_weights(raw: &[(i64, i64)]) -> Vec<(i64, i64, f64)> {
        let mut outdeg: FxHashMap<i64, usize> = FxHashMap::default();
        for &(f, _) in raw {
            *outdeg.entry(f).or_insert(0) += 1;
        }
        raw.iter()
            .map(|&(f, t)| (f, t, 1.0 / outdeg[&f] as f64))
            .collect()
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
        db.apply_edges(vec![EdgeDelta::new("E", adds, dels)])
            .unwrap();

        assert_eq!(
            db.view_report("pr_v").unwrap().mode,
            RefreshMode::Reconverge
        );
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
        assert!(db
            .view_relation("tc_v")
            .unwrap()
            .same_rows_unordered(&before));
    }

    #[test]
    fn subscribers_receive_sorted_result_deltas() {
        let _g = fault_guard();
        let (edges, nodes) = sssp_fixture(4, &[(0, 1, 5.0), (1, 2, 1.0)]);
        let mut db = db_with(&edges, &nodes);
        db.create_view("sssp_v", SSSP_SQL).unwrap();
        let rx = db.subscribe("sssp_v").unwrap();

        db.apply_edges(vec![EdgeDelta::insert("E", vec![row![0i64, 1, 2.0]])])
            .unwrap();
        let delta = rx.try_recv().expect("refresh must notify subscribers");
        assert_eq!(delta.view, "sssp_v");
        assert!(delta.generation > 0);
        assert!(delta.added.is_empty() && delta.removed.is_empty());
        // 1 and 2 improve (5→2, 6→3); keys arrive sorted by old row.
        let changed: Vec<i64> = delta
            .changed
            .iter()
            .map(|(old, _)| old[0].as_int().unwrap())
            .collect();
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
        db.apply_edges(vec![EdgeDelta::insert("E", vec![row![4i64, 5, 1.0]])])
            .unwrap();
        aio_algebra::fault::inject_ivm_seed_off_by_one(false);
        assert!(
            aio_algebra::fault::fault_hits() > 0,
            "fault must have fired"
        );

        let expect = cold_view(TC_SQL, &edges, &[], &[], 1e-9);
        assert!(
            !db.view_relation("tc_v")
                .unwrap()
                .same_rows_unordered(&expect),
            "clipped seed must lose derivations"
        );

        // refresh_all_views repairs the damage with a cold rebuild.
        db.refresh_all_views().unwrap();
        assert!(db
            .view_relation("tc_v")
            .unwrap()
            .same_rows_unordered(&expect));
    }

    #[test]
    fn show_view_reports_class_strategy_and_last_refresh() {
        let _g = fault_guard();
        let mut db = db_with(&[(1, 2, 1.0)], &[]);
        db.create_view("tc_v", TC_SQL).unwrap();
        db.apply_edges(vec![EdgeDelta::insert("E", vec![row![2i64, 3, 1.0]])])
            .unwrap();
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
