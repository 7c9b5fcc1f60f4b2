//! The engine boundary: the only file in this package that names engine
//! symbols. Workloads, statistics and tracing go through the wrappers here,
//! so an engine refactor (a vanished knob, a renamed operator) is repaired in
//! one place and the benchmark's own logic never changes with it.
//!
//! Everything here is a *public* call of the engine crates; nothing inside
//! `crates/` is modified or instrumented.

use aio_algebra::explain::walk_pre_order;
use aio_algebra::ops::{self, JoinKeys, JoinOrders, JoinType, UbuImpl};
use aio_algebra::{
    execute, last_wcoj_phases, optimize_plan, oracle_like, AggStrategy, EngineProfile, ExecMode,
    JoinStrategy, Optimizer, Plan,
};
use aio_graph::{load, reference};
use aio_storage::{row, Batch, Catalog, KeyIndex, Relation, Row, StdVfs, Value, Vfs};
use aio_withplus::lower::{lower_select, LowerCtx};
use aio_withplus::{
    compile, CompiledWithPlus, Database, EdgeDelta, Parser, QueryResult, RefreshMode, RunStats,
    Session, SharedDatabase, Statement, UnionMode,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use aio_trace::json::{parse as parse_json, Json, JsonArr, JsonObj};
pub use aio_trace::{SpanRecord, Trace, Tracer};

/// `(from, to, weight)`.
pub type Edge = (u32, u32, f64);

pub type Result<T> = std::result::Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// The two engine configurations every workload is measured under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Every modern knob on, one thread: cost optimizer + columnar batches.
    Best,
    /// `oracle_like()` untouched: row evaluator, optimizer off — the path
    /// the paper's Tables 4–7 / Figs. 7–13 depend on.
    Paper,
}

impl Profile {
    fn engine(self) -> EngineProfile {
        match self {
            Profile::Best => oracle_like()
                .with_optimizer(Optimizer::Cost)
                .with_exec(ExecMode::Batch)
                .with_parallelism(1),
            Profile::Paper => oracle_like(),
        }
    }
}

/// Switch the engine's metrics registry on or off (off for timed passes).
pub fn set_metrics(on: bool) {
    aio_metrics::set_enabled(on);
}

/// Counters of the engine's metrics registry the traced pass reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Registry {
    pub wcoj_seeks: u64,
    pub trie_hits: u64,
    pub trie_misses: u64,
    pub stats_hits: u64,
    pub stats_misses: u64,
    pub ivm_full_fallbacks: u64,
}

impl Registry {
    pub fn read() -> Registry {
        let e = &aio_metrics::global().engine;
        Registry {
            wcoj_seeks: e.wcoj_seeks_total.get(),
            trie_hits: e.trie_cache_hits_total.get(),
            trie_misses: e.trie_cache_misses_total.get(),
            stats_hits: e.stats_cache_hits_total.get(),
            stats_misses: e.stats_cache_misses_total.get(),
            ivm_full_fallbacks: e.ivm_full_fallbacks_total.get(),
        }
    }

    pub fn since(&self, earlier: &Registry) -> Registry {
        Registry {
            wcoj_seeks: self.wcoj_seeks - earlier.wcoj_seeks,
            trie_hits: self.trie_hits - earlier.trie_hits,
            trie_misses: self.trie_misses - earlier.trie_misses,
            stats_hits: self.stats_hits - earlier.stats_hits,
            stats_misses: self.stats_misses - earlier.stats_misses,
            ivm_full_fallbacks: self.ivm_full_fallbacks - earlier.ivm_full_fallbacks,
        }
    }
}

// ---------------------------------------------------------------------------
// Graphs and oracles
// ---------------------------------------------------------------------------

/// A CSR graph of the engine's graph crate.
pub struct Graph(aio_graph::Graph);

impl Graph {
    /// Exactly the given directed edges, in the given order.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Graph {
        Graph(aio_graph::Graph::from_edges(n, edges, true))
    }

    /// The same graph with `1/outdeg` edge weights (PageRank transitions).
    pub fn pagerank_weighted(&self) -> Graph {
        Graph(reference::with_pagerank_weights(&self.0))
    }

    /// `E(F, T, ew)` of this graph.
    pub fn edge_table(&self) -> Table {
        Table(load::edge_relation(&self.0))
    }

    pub fn oracle_pagerank(&self, c: f64, iters: usize) -> Vec<f64> {
        reference::pagerank(&self.0, c, iters)
    }

    pub fn oracle_sssp(&self, src: u32) -> Vec<f64> {
        reference::bellman_ford(&self.0, src)
    }

    pub fn oracle_wcc(&self) -> Vec<u32> {
        reference::wcc_min_label(&self.0)
    }

    /// Every edge with its weight, in adjacency order.
    pub fn edges(&self) -> Vec<Edge> {
        self.0.edges().collect()
    }
}

/// Seeded directed power-law edge list from the engine's own generator
/// (the stand-in for the paper's SNAP graphs), unit weights.
pub fn power_law_edges(n: usize, m: usize, seed: u64) -> Vec<Edge> {
    aio_graph::power_law(n, m, true, seed).edges().collect()
}

/// A relation ready to be registered as a base table.
pub struct Table(Relation);

impl Table {
    /// `V(ID, vw)` with `ID = 0..values.len()`.
    pub fn nodes(values: &[f64]) -> Table {
        let mut v = Relation::with_pk(aio_storage::node_schema(), &["ID"]).expect("static schema");
        v.rows_mut()
            .extend(values.iter().enumerate().map(|(id, &w)| row![id as i64, w]));
        Table(v)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// A result relation flattened to numbers, row-major (every benchmark
/// query returns Int / Float columns only).
pub struct Answer {
    pub arity: usize,
    pub values: Vec<f64>,
}

impl Answer {
    fn of(rel: &Relation) -> Answer {
        let arity = rel.schema().arity();
        let mut values = Vec::with_capacity(rel.len() * arity);
        for r in rel.iter() {
            values.extend(r.iter().map(|v| v.as_f64().unwrap_or(f64::NAN)));
        }
        Answer { arity, values }
    }

    pub fn rows(&self) -> usize {
        self.values.len().checked_div(self.arity).unwrap_or(0)
    }
}

/// What one executed statement returned, still in engine form.
pub struct Outcome(QueryResult);

impl Outcome {
    pub fn answer(&self) -> Answer {
        Answer::of(&self.0.relation)
    }

    pub fn run(&self) -> RunSummary {
        RunSummary::of(&self.0.stats)
    }
}

/// The `RunStats` / `IterStat` / `ExecStats` numbers the layer metrics use.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    pub elapsed_ms: f64,
    pub iter_ms: Vec<f64>,
    pub delta_rows: u64,
    pub ubu_changed_rows: u64,
    pub rows_scanned: u64,
    pub rows_produced: u64,
    pub peak_operator_bytes: u64,
}

impl RunSummary {
    fn of(s: &RunStats) -> RunSummary {
        RunSummary {
            elapsed_ms: ms(s.elapsed),
            iter_ms: s.iterations.iter().map(|i| ms(i.elapsed)).collect(),
            delta_rows: s.iterations.iter().map(|i| i.delta_rows as u64).sum(),
            ubu_changed_rows: s
                .iterations
                .iter()
                .flat_map(|i| &i.subqueries)
                .map(|q| q.ubu_changed_rows as u64)
                .sum(),
            rows_scanned: s.exec.rows_scanned,
            rows_produced: s.exec.rows_produced,
            peak_operator_bytes: s.peak_mem_bytes,
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// A database handle: SQL text in, result relation out
// ---------------------------------------------------------------------------

/// A parsed statement.
pub struct Parsed(Statement);

/// A compiled (and possibly optimized) statement.
pub enum Prepared {
    WithPlus(Box<CompiledWithPlus>),
    Select(Plan),
}

/// An in-memory or durable database plus the parameter bindings the
/// benchmark set on it (kept here as well, because compiling outside
/// `Database::execute` needs them and the engine keeps its copy private).
pub struct Db {
    db: Database,
    params: HashMap<String, Value>,
}

impl Db {
    pub fn in_memory(profile: Profile) -> Db {
        Db {
            db: Database::new(profile.engine()),
            params: HashMap::new(),
        }
    }

    pub fn create_table(&mut self, name: &str, table: Table) -> Result<()> {
        self.db.create_table(name, table.0).map_err(err)
    }

    pub fn set_param(&mut self, name: &str, value: f64) {
        self.db.set_param(name, value);
        self.params.insert(name.to_string(), Value::from(value));
    }

    /// The unit of account: SQL text in, result relation out.
    pub fn execute(&mut self, sql: &str) -> Result<Outcome> {
        self.db.execute(sql).map(Outcome).map_err(err)
    }

    /// Does the plan the engine picks for `sql` contain `operator`?
    pub fn plan_uses(&mut self, sql: &str, operator: &str) -> Result<bool> {
        let out = self.db.explain_analyze_opts(sql, false).map_err(err)?;
        Ok(out.report.contains(operator))
    }

    // -- the same statement, one public call per layer -----------------------

    pub fn parse(sql: &str) -> Result<Parsed> {
        Parser::parse_statement(sql).map(Parsed).map_err(err)
    }

    pub fn compile(&self, parsed: &Parsed) -> Result<Prepared> {
        let ctx = LowerCtx::new(&self.params, self.db.anti_impl);
        match &parsed.0 {
            Statement::WithPlus(w) => compile(w, &ctx)
                .map(|c| Prepared::WithPlus(Box::new(c)))
                .map_err(err),
            Statement::Select(s) => lower_select(s, &ctx).map(Prepared::Select).map_err(err),
        }
    }

    /// `optimize_plan` over every plan of the statement, as
    /// `Database::execute` does once before running it.
    pub fn optimize(&self, prepared: Prepared) -> Prepared {
        let level = self.db.profile.optimizer;
        let opt = |p: &Plan| optimize_plan(p, &self.db.catalog, level);
        match prepared {
            Prepared::Select(p) => Prepared::Select(opt(&p)),
            Prepared::WithPlus(mut c) => {
                if level != Optimizer::Off {
                    for step in c.init.iter_mut().chain(c.recursive.iter_mut()) {
                        for (_, _, plan) in step.computed.iter_mut() {
                            *plan = opt(plan);
                        }
                        step.plan = opt(&step.plan);
                    }
                    c.final_plan = opt(&c.final_plan);
                }
                Prepared::WithPlus(c)
            }
        }
    }

    pub fn run(&mut self, prepared: &Prepared) -> Result<Outcome> {
        match prepared {
            Prepared::WithPlus(c) => self.db.run_compiled(c).map(Outcome).map_err(err),
            Prepared::Select(plan) => {
                let t = Instant::now();
                let (relation, exec) =
                    execute(plan, &self.db.catalog, &self.db.profile).map_err(err)?;
                let stats = RunStats {
                    exec,
                    elapsed: t.elapsed(),
                    ..Default::default()
                };
                Ok(Outcome(QueryResult { relation, stats }))
            }
        }
    }

    /// Operands of the layer replays, captured from this database: for a
    /// with+ statement the catalog as the fixpoint's middle iteration saw
    /// it (base tables plus the recursive relation after the iteration
    /// before), for a SELECT the base tables.
    pub fn capture(&mut self, prepared: &Prepared) -> Result<Capture> {
        let profile = self.db.profile.clone();
        let plans: Vec<&Plan> = match prepared {
            Prepared::Select(p) => vec![p],
            Prepared::WithPlus(c) => c.init.iter().chain(&c.recursive).map(|s| &s.plan).collect(),
        };
        let mut catalog = copy_tables(&self.db.catalog, &plans)?;
        let mut rec = None;
        if let Prepared::WithPlus(c) = prepared {
            self.db.profile.capture_snapshots = true;
            let out = self.db.run_compiled(c);
            self.db.profile.capture_snapshots = false;
            let out = out.map_err(err)?;
            let snaps = &out.stats.snapshots;
            if snaps.len() < 2 {
                return Err(format!("{}: fixpoint too short to capture", c.rec_name));
            }
            let before = snaps[snaps.len() / 2 - 1].clone();
            catalog
                .create_temp(&c.rec_name, before.clone())
                .map_err(err)?;
            rec = Some((c.rec_name.clone(), before));
        }
        Ok(Capture {
            catalog,
            profile,
            rec,
        })
    }
}

// ---------------------------------------------------------------------------
// Layer replays: one public engine call each, on captured operands
// ---------------------------------------------------------------------------

/// A fresh catalog (no statistics, no cached tries) holding a copy of every
/// table of `from` that `plans` read; names that are not tables there (the
/// recursive relation) are skipped.
fn copy_tables(from: &Catalog, plans: &[&Plan]) -> Result<Catalog> {
    let mut names = Vec::new();
    for p in plans {
        p.collect_tables(&mut names);
    }
    names.sort();
    names.dedup();
    let mut copy = Catalog::new();
    for t in &names {
        if let Ok(rel) = from.relation(t) {
            copy.create_table(t, rel.clone()).map_err(err)?;
        }
    }
    Ok(copy)
}

/// Captured operands (see [`Db::capture`]).
pub struct Capture {
    catalog: Catalog,
    profile: EngineProfile,
    /// Name and pre-iteration contents of the recursive relation.
    rec: Option<(String, Relation)>,
}

/// Output of the replayed recursive step, fed to the union-by-update replay.
pub struct Delta(Relation);

type SelectItems = Vec<(aio_algebra::ScalarExpr, String)>;

/// Operands of the operator-level replays: the inputs of the step's join
/// and of its aggregation, materialized by executing the plan's subtrees.
pub struct StepOperands {
    join: Option<(Relation, Relation, JoinKeys, JoinType)>,
    agg: Option<(Relation, Vec<String>, SelectItems)>,
    scans: Vec<Relation>,
}

/// Build and probe time of one replayed hash join.
#[derive(Clone, Copy, Debug, Default)]
pub struct JoinSplit {
    pub build_ms: f64,
    pub probe_ms: f64,
}

fn find_node(plan: &Plan, pick: impl Fn(&Plan) -> bool) -> Option<&Plan> {
    let mut found = None;
    walk_pre_order(plan, &mut |_, node| {
        if found.is_none() && pick(node) {
            found = Some(node);
        }
    });
    found
}

impl Capture {
    fn step_plan<'p>(&self, prepared: &'p Prepared) -> &'p Plan {
        match prepared {
            Prepared::WithPlus(c) => &c.recursive[0].plan,
            Prepared::Select(p) => p,
        }
    }

    fn exec(&self, plan: &Plan) -> Result<Relation> {
        execute(plan, &self.catalog, &self.profile)
            .map(|(r, _)| r)
            .map_err(err)
    }

    /// `execute` of the recursive-step plan (with+) or of the whole plan
    /// (SELECT) on the captured catalog.
    pub fn rec_step(&self, prepared: &Prepared) -> Result<Delta> {
        self.exec(self.step_plan(prepared)).map(Delta)
    }

    /// `execute` of the statement's final SELECT on the captured catalog.
    pub fn final_select(&self, prepared: &Prepared) -> Result<usize> {
        match prepared {
            Prepared::WithPlus(c) => self.exec(&c.final_plan).map(|r| r.len()),
            Prepared::Select(_) => Ok(0),
        }
    }

    /// Clone of the recursive relation (the loop's `before` copy).
    pub fn clone_rec(&self) -> usize {
        self.rec
            .as_ref()
            .map_or(0, |(_, r)| std::hint::black_box(r.clone()).len())
    }

    /// Apply `delta` to the captured recursive relation with the engine's
    /// default union-by-update implementation.
    pub fn union_by_update(&mut self, prepared: &Prepared, delta: Delta) -> Result<()> {
        let (Some((name, before)), Prepared::WithPlus(c)) = (&self.rec, prepared) else {
            return Ok(());
        };
        let UnionMode::ByUpdate(Some(keys)) = &c.union else {
            return Ok(());
        };
        let key_cols: Vec<usize> = keys
            .iter()
            .map(|k| before.schema().index_of(k).map_err(err))
            .collect::<Result<_>>()?;
        // the engine renames the step's output to the declared columns
        let mut shaped = Relation::new(before.schema().clone());
        *shaped.rows_mut() = delta.0.into_rows();
        ops::union_by_update(
            &mut self.catalog,
            name,
            shaped,
            Some(&key_cols),
            UbuImpl::FullOuterJoin,
            &self.profile,
            &mut Default::default(),
        )
        .map_err(err)
    }

    /// Compare the recursive relation with its pre-iteration copy, as the
    /// loop does to decide whether anything changed.
    pub fn convergence_check(&self) -> Result<bool> {
        let Some((name, before)) = &self.rec else {
            return Ok(true);
        };
        Ok(self
            .catalog
            .relation(name)
            .map_err(err)?
            .same_rows_unordered(before))
    }

    /// Put the pre-iteration contents back (between replays; not a layer).
    pub fn restore(&mut self) -> Result<()> {
        match &self.rec {
            Some((name, before)) => self
                .catalog
                .create_or_replace(name, before.clone(), true)
                .map_err(err),
            None => Ok(()),
        }
    }

    /// `ANALYZE` of the recursive relation.
    pub fn analyze_rec(&mut self) -> Result<()> {
        match &self.rec {
            Some((name, _)) => self.catalog.analyze(name).map_err(err),
            None => Ok(()),
        }
    }

    /// Materialize the operands of the step's first join and aggregation.
    pub fn step_operands(&self, prepared: &Prepared) -> Result<StepOperands> {
        let plan = self.step_plan(prepared);
        let mut join = None;
        if let Some(Plan::Join {
            left,
            right,
            on,
            kind,
            ..
        }) = find_node(plan, |n| matches!(n, Plan::Join { .. }))
        {
            let (l, r) = (self.exec(left)?, self.exec(right)?);
            let keys = JoinKeys::resolve(&l, &r, on).map_err(err)?;
            join = Some((l, r, keys, *kind));
        }
        let mut agg = None;
        if let Some(Plan::Aggregate {
            input,
            group_by,
            items,
        }) = find_node(plan, |n| matches!(n, Plan::Aggregate { .. }))
        {
            agg = Some((self.exec(input)?, group_by.clone(), items.clone()));
        }
        let mut tables = Vec::new();
        plan.collect_tables(&mut tables);
        let scans = tables
            .iter()
            .filter_map(|t| self.catalog.relation(t).ok().cloned())
            .collect();
        Ok(StepOperands { join, agg, scans })
    }

    fn wcoj_node<'p>(&self, prepared: &'p Prepared) -> Option<&'p Plan> {
        find_node(self.step_plan(prepared), |n| {
            matches!(n, Plan::MultiwayJoin { .. })
        })
    }

    /// `execute` of the plan's `MultiwayJoin` node on a copy of its tables
    /// with no cached tries; returns the trie-build phase (ms).
    pub fn wcoj_cold(&self, prepared: &Prepared) -> Result<f64> {
        let Some(node) = self.wcoj_node(prepared) else {
            return Ok(0.0);
        };
        let cold = copy_tables(&self.catalog, &[node])?;
        execute(node, &cold, &self.profile).map_err(err)?;
        Ok(last_wcoj_phases().build_ns as f64 / 1e6)
    }

    /// `execute` of the `MultiwayJoin` node on the captured catalog, whose
    /// trie cache the first call fills; returns the output row count.
    pub fn wcoj(&self, prepared: &Prepared) -> Result<usize> {
        match self.wcoj_node(prepared) {
            Some(node) => self.exec(node).map(|r| r.len()),
            None => Ok(0),
        }
    }
}

impl StepOperands {
    pub fn has_join(&self) -> bool {
        self.join.is_some()
    }

    pub fn has_agg(&self) -> bool {
        self.agg.is_some()
    }

    /// `join_par` (hash, one thread) on the captured operands.
    pub fn join(&self) -> Result<JoinSplit> {
        let Some((l, r, keys, kind)) = &self.join else {
            return Ok(JoinSplit::default());
        };
        let mut stats = Default::default();
        let out = ops::join_par(
            l,
            r,
            keys,
            None,
            *kind,
            JoinStrategy::Hash,
            JoinOrders::default(),
            1,
            &mut stats,
        )
        .map_err(err)?;
        std::hint::black_box(out);
        let p = ops::last_join_phases();
        Ok(JoinSplit {
            build_ms: p.build_ns as f64 / 1e6,
            probe_ms: p.probe_ns as f64 / 1e6,
        })
    }

    /// `KeyIndex::build_partitioned` over the join's build side.
    pub fn key_index(&self) -> usize {
        match &self.join {
            Some((_, r, keys, _)) => {
                std::hint::black_box(KeyIndex::build_partitioned(r, &keys.right, 1)).partitions()
            }
            None => 0,
        }
    }

    /// `group_by_par` (hash, one thread) on the captured operand.
    pub fn group_by(&self) -> Result<usize> {
        let Some((input, group_by, items)) = &self.agg else {
            return Ok(0);
        };
        let mut stats = Default::default();
        ops::group_by_par(input, group_by, items, AggStrategy::Hash, 1, &mut stats)
            .map(|r| r.len())
            .map_err(err)
    }

    /// `Batch::from_relation` of every relation the step scans.
    pub fn columnarize(&self) -> Columns {
        Columns(self.scans.iter().map(Batch::from_relation).collect())
    }
}

/// Columnar copies of the scanned relations.
pub struct Columns(Vec<Batch>);

impl Columns {
    /// `Batch::to_relation` of every batch; returns the rows rebuilt.
    pub fn to_relations(&self) -> usize {
        self.0
            .iter()
            .map(|b| std::hint::black_box(b.to_relation()).len())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// The live database: durable, MVCC sessions, one maintained view
// ---------------------------------------------------------------------------

/// A `Vfs` that forwards to the real file system and times every `sync`.
/// Used by the traced pass only; timed passes open the directory with
/// `Database::open`.
#[derive(Debug, Default)]
struct TimedVfs {
    inner: StdVfs,
    sync_ns: AtomicU64,
}

impl Vfs for TimedVfs {
    fn read(&self, path: &str) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &str, data: &[u8]) -> std::io::Result<()> {
        self.inner.write(path, data)
    }
    fn append(&self, path: &str, data: &[u8]) -> std::io::Result<()> {
        self.inner.append(path, data)
    }
    fn sync(&self, path: &str) -> std::io::Result<()> {
        let t = Instant::now();
        let out = self.inner.sync(path);
        // Relaxed: a statistic, read after the writer is done
        self.sync_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
    fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &str) -> std::io::Result<()> {
        self.inner.remove(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, dir: &str) -> std::io::Result<Vec<String>> {
        self.inner.list(dir)
    }
    fn create_dir_all(&self, dir: &str) -> std::io::Result<()> {
        self.inner.create_dir_all(dir)
    }
}

/// WAL traffic since the database was opened.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalCounters {
    pub bytes: u64,
    pub fsyncs: u64,
    pub fsync_ms: f64,
}

/// What one ingested batch did to the maintained views.
#[derive(Clone, Copy, Debug, Default)]
pub struct Applied {
    pub view_delta_rows: usize,
    pub all_frontier: bool,
}

/// A durable database behind a session layer, with maintained views.
pub struct LiveDb {
    shared: Arc<SharedDatabase>,
    session: Session,
    views: Vec<String>,
    timed: Option<Arc<TimedVfs>>,
}

impl LiveDb {
    /// `Database::open` (engine-default flush policy: fsync at every commit
    /// point). With `time_syncs` the same directory is opened through a
    /// `Vfs` that also times each fsync.
    pub fn open(dir: &str, profile: Profile, time_syncs: bool) -> Result<(LiveDb, Duration)> {
        let t = Instant::now();
        let (db, timed) = if time_syncs {
            let vfs = Arc::new(TimedVfs::default());
            let (db, _) =
                Database::open_with_vfs(vfs.clone(), dir, profile.engine(), None).map_err(err)?;
            (db, Some(vfs))
        } else {
            (Database::open(dir, profile.engine()).map_err(err)?.0, None)
        };
        Ok((LiveDb::over(db, timed), t.elapsed()))
    }

    /// An in-memory database for the cold rebuild the durable one is
    /// compared against.
    pub fn cold(profile: Profile) -> LiveDb {
        LiveDb::over(Database::new(profile.engine()), None)
    }

    fn over(db: Database, timed: Option<Arc<TimedVfs>>) -> LiveDb {
        let shared = SharedDatabase::new(db);
        let session = shared.session();
        LiveDb {
            shared,
            session,
            views: Vec::new(),
            timed,
        }
    }

    pub fn create_table(&mut self, name: &str, table: Table) -> Result<()> {
        self.shared
            .with_writer(|db| db.create_table(name, table.0))
            .map_err(err)
    }

    /// Create the view, or re-attach it when its tables were recovered.
    pub fn register_view(&mut self, name: &str, sql: &str) -> Result<()> {
        self.shared
            .with_writer(|db| db.register_view(name, sql, 1e-9))
            .map_err(err)?;
        self.views.push(name.to_string());
        Ok(())
    }

    /// Pin the newest committed generation for this handle's session.
    pub fn pin(&mut self) -> u64 {
        self.session.begin_read()
    }

    pub fn unpin(&mut self) {
        self.session.end_read();
    }

    /// Ingest undirected unit-weight edges (both directions) into `table`
    /// as one WAL transaction + one MVCC generation, refreshing the views.
    pub fn apply_undirected(&mut self, table: &str, edges: &[(u32, u32)]) -> Result<Applied> {
        let adds: Vec<Row> = edges
            .iter()
            .flat_map(|&(u, v)| [row![u as i64, v as i64, 1.0], row![v as i64, u as i64, 1.0]])
            .collect();
        let views = &self.views;
        self.shared.with_writer(|db| {
            let deltas = db
                .apply_edges(vec![EdgeDelta::insert(table, adds)])
                .map_err(err)?;
            let all_frontier = views.iter().all(|v| {
                db.view_report(v)
                    .is_some_and(|r| r.mode == RefreshMode::Frontier)
            });
            Ok(Applied {
                view_delta_rows: deltas.iter().map(|d| d.row_count()).sum(),
                all_frontier,
            })
        })
    }

    /// One SELECT against the pinned snapshot.
    pub fn read(&mut self, sql: &str) -> Result<Outcome> {
        self.session.query(sql).map(Outcome).map_err(err)
    }

    pub fn checkpoint(&mut self) -> Result<()> {
        self.shared
            .with_writer(|db| db.checkpoint())
            .map(|_| ())
            .map_err(err)
    }

    pub fn generation(&self) -> u64 {
        self.shared.current_generation()
    }

    pub fn wal(&self) -> WalCounters {
        let (bytes, fsyncs) = self.shared.with_writer(|db| {
            db.catalog
                .durability()
                .map_or((0, 0), |d| (d.bytes_appended(), d.syncs()))
        });
        let fsync_ms = self
            .timed
            .as_ref()
            .map_or(0.0, |v| v.sync_ns.load(Ordering::Relaxed) as f64 / 1e6);
        WalCounters {
            bytes,
            fsyncs,
            fsync_ms,
        }
    }

    /// `Catalog::fork_readonly` of the writer's catalog.
    pub fn fork(&self) -> usize {
        self.shared.with_writer(|db| {
            std::hint::black_box(db.catalog.fork_readonly())
                .names()
                .len()
        })
    }

    /// The current contents of a table or view.
    pub fn contents(&self, name: &str) -> Result<Answer> {
        self.shared
            .with_writer(|db| db.catalog.relation(name).map(Answer::of))
            .map_err(err)
    }
}
