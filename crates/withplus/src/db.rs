//! The `Database` facade: the object a user of the library holds.
//!
//! Wraps a catalog + engine profile and executes SQL text — one-shot
//! SELECTs and full with+ statements — through parse → validate/compile
//! (Theorem 5.1) → PSM interpretation.

use crate::compile::{compile, CompiledWithPlus};
use crate::error::{Result, WithPlusError};
use crate::lower::{lower_select, LowerCtx};
use crate::parser::{Parser, Statement};
use crate::psm::{PsmRunner, QueryResult, RunStats};
use aio_algebra::ops::{AntiJoinImpl, UbuImpl};
use aio_algebra::{optimize_plan, EngineProfile, Evaluator, Optimizer, Plan, Prepared};
use aio_storage::{
    open_catalog, Catalog, CheckpointStats, Column, DataType, InterruptedRun, RecoveryReport,
    Relation, Schema, StdVfs, Value, Vfs,
};
use aio_trace::{Trace, Tracer};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// What [`Database::explain_analyze`] returns: the query result, the
/// annotated-plan report, and the raw trace (exportable with
/// [`Trace::to_chrome_json`] / [`Trace::to_jsonl`]).
#[derive(Debug)]
pub struct ExplainOutput {
    pub result: QueryResult,
    pub report: String,
    pub trace: Trace,
}

/// Optimize every plan of a compiled statement at the profile's level.
/// Runs exactly once per statement, before the PSM loop — never per
/// iteration — so EXPLAIN ANALYZE can re-derive the executed plans from
/// the same (plan, statistics) inputs.
fn optimize_compiled(
    mut c: CompiledWithPlus,
    catalog: &Catalog,
    level: Optimizer,
) -> CompiledWithPlus {
    if level == Optimizer::Off {
        return c;
    }
    for plan in c.plans_mut() {
        *plan = optimize_plan(plan, catalog, level);
    }
    c
}

/// What SQL text lowers to: the plans a statement runs as.
pub(crate) enum Planned {
    WithPlus(Box<CompiledWithPlus>),
    Select(Plan),
}

/// parse → `LowerCtx` → compile / lower → bind the system relations →
/// optimize at `level`: the one place SQL text becomes plans, for the
/// writer and for pinned reads.
pub(crate) fn plan_sql(
    sql: &str,
    catalog: &Catalog,
    params: &HashMap<String, Value>,
    anti_impl: AntiJoinImpl,
    level: Optimizer,
) -> Result<Planned> {
    let ctx = LowerCtx::new(params, anti_impl);
    let mut system = SystemRelations::default();
    Ok(match Parser::parse_statement(sql)? {
        Statement::WithPlus(w) => {
            let mut c = compile(&w, &ctx)?;
            // the relations the statement defines shadow a system relation
            // as a catalog table does
            let own: Vec<String> = c.computed_names().chain([&c.rec_name]).cloned().collect();
            let held =
                |t: &str| catalog.contains(t) || own.iter().any(|o| o.eq_ignore_ascii_case(t));
            for plan in c.plans_mut() {
                system.bind(plan, &held);
            }
            Planned::WithPlus(Box::new(optimize_compiled(c, catalog, level)))
        }
        Statement::Select(s) => {
            let mut plan = lower_select(&s, &ctx)?;
            system.bind(&mut plan, &|t| catalog.contains(t));
            Planned::Select(optimize_plan(&plan, catalog, level))
        }
    })
}

/// How a system relation is read off the metrics registry.
type ReadRegistry = fn(&aio_metrics::MetricsRegistry) -> Relation;

/// The system relations, by name.
const SYSTEM_RELATIONS: [(&str, ReadRegistry); 2] = [
    (METRICS_TABLE, metrics_relation),
    (QUERY_LOG_TABLE, query_log_relation),
];

/// The system relations one statement reads, each taken from the registry
/// at its first scan — before the statement runs, so it never sees itself
/// — and shared by every later scan of it in the statement.
#[derive(Default)]
struct SystemRelations([Option<Relation>; 2]);

impl SystemRelations {
    /// Rebind each scan of a system relation to `Plan::Values` of its rows,
    /// qualified as the scan was, unless `held(table)`: a catalog table of
    /// that name shadows it. With metrics off the scan stays, and fails as
    /// a scan of a missing table.
    fn bind(&mut self, plan: &mut Plan, held: &dyn Fn(&str) -> bool) {
        let Plan::Scan { table, alias } = plan else {
            for c in plan.children_mut() {
                self.bind(c, held);
            }
            return;
        };
        let Some(i) = SYSTEM_RELATIONS
            .iter()
            .position(|(name, _)| table.eq_ignore_ascii_case(name))
        else {
            return;
        };
        if held(table) || !aio_metrics::enabled() {
            return;
        }
        let rel = self.0[i].get_or_insert_with(|| SYSTEM_RELATIONS[i].1(aio_metrics::global()));
        let schema = rel
            .schema()
            .with_qualifier(alias.as_deref().unwrap_or(table));
        *plan = Plan::Values(rel.clone().with_schema(schema));
    }
}

/// Run a one-shot SELECT plan (the `query` span, the evaluator, its
/// counters); `start` is when the statement began.
pub(crate) fn run_select(
    plan: &Plan,
    catalog: &Catalog,
    profile: &EngineProfile,
    tracer: Option<&Tracer>,
    start: Instant,
) -> Result<QueryResult> {
    let span = aio_trace::maybe_span(tracer, "query");
    if let Some(sp) = &span {
        sp.field("plan", "select");
    }
    let mut ev = Evaluator::with_tracer(catalog, profile, tracer);
    let relation = ev.eval_root(plan, &mut Prepared::default())?;
    drop(span);
    let peak_mem_bytes = ev.mem_peak();
    let stats = RunStats {
        exec: ev.stats,
        elapsed: start.elapsed(),
        peak_mem_bytes,
        ..Default::default()
    };
    Ok(QueryResult { relation, stats })
}

/// Attribute this thread's cache/WAL traffic since `before` to the
/// statement and append its [`aio_metrics::QueryReport`] to the global
/// query log, under `session` at catalog `generation`.
pub(crate) fn log_query(
    sql: &str,
    started: Instant,
    before: &aio_metrics::CacheCounters,
    out: &mut QueryResult,
    profile: &EngineProfile,
    session: u64,
    generation: u64,
) {
    let cache = aio_metrics::local_counters().delta_since(before);
    out.stats.cache = cache;
    aio_metrics::global().record_query(aio_metrics::QueryReport {
        seq: 0, // assigned by record_query
        sql_hash: aio_metrics::fnv1a(sql),
        sql: aio_metrics::sql_snippet(sql),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        rows_out: out.relation.len() as u64,
        rows_scanned: out.stats.exec.rows_scanned,
        iterations: out.stats.iterations.len() as u64,
        peak_mem_bytes: out.stats.peak_mem_bytes,
        cache,
        par: profile.parallelism as u64,
        exec: profile.exec.label(),
        optimizer: profile.optimizer.label(),
        session,
        generation,
    });
}

/// Parameter bindings in a deterministic order for durable logging.
fn sorted_params(params: &HashMap<String, Value>) -> Vec<(String, Value)> {
    let mut v: Vec<(String, Value)> = params.iter().map(|(k, x)| (k.clone(), x.clone())).collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// Close a durable with+ run. On success the end-of-run commit must reach
/// disk; on failure it is best-effort — a dead log is exactly the state
/// crash recovery handles, and the original error wins.
fn finish_run(
    catalog: &mut Catalog,
    rec: &str,
    result: Result<QueryResult>,
) -> Result<QueryResult> {
    match result {
        Ok(out) => {
            catalog.wal_run_end(rec)?;
            Ok(out)
        }
        Err(e) => {
            let _ = catalog.wal_run_end(rec);
            Err(e)
        }
    }
}

/// Name of the self-queryable metrics system relation.
pub const METRICS_TABLE: &str = "aio_metrics";
/// Name of the self-queryable query-log system relation.
pub const QUERY_LOG_TABLE: &str = "aio_query_log";

/// `aio_metrics` as a relation: one row per registry sample, in
/// declaration order — exactly [`aio_metrics::MetricsRegistry::snapshot`].
fn metrics_relation(reg: &aio_metrics::MetricsRegistry) -> Relation {
    let schema = Schema::new(vec![
        Column::new("name", DataType::Text),
        Column::new("kind", DataType::Text),
        Column::new("value", DataType::Float),
        Column::new("help", DataType::Text),
    ]);
    let mut rel = Relation::new(schema);
    for s in reg.snapshot() {
        rel.push(
            vec![
                Value::from(s.name),
                Value::from(s.kind),
                Value::from(s.value),
                Value::from(s.help),
            ]
            .into_boxed_slice(),
        )
        .expect("one value per column");
    }
    rel
}

/// `aio_query_log` as a relation: one row per retained [`QueryReport`],
/// oldest first.
///
/// [`QueryReport`]: aio_metrics::QueryReport
fn query_log_relation(reg: &aio_metrics::MetricsRegistry) -> Relation {
    let schema = Schema::new(vec![
        Column::new("seq", DataType::Int),
        Column::new("sql_hash", DataType::Text),
        Column::new("sql", DataType::Text),
        Column::new("wall_ms", DataType::Float),
        Column::new("rows_out", DataType::Int),
        Column::new("rows_scanned", DataType::Int),
        Column::new("iterations", DataType::Int),
        Column::new("peak_mem_bytes", DataType::Int),
        Column::new("trie_hits", DataType::Int),
        Column::new("trie_misses", DataType::Int),
        Column::new("stats_hits", DataType::Int),
        Column::new("stats_misses", DataType::Int),
        Column::new("wal_records", DataType::Int),
        Column::new("wal_bytes", DataType::Int),
        Column::new("par", DataType::Int),
        Column::new("exec", DataType::Text),
        Column::new("optimizer", DataType::Text),
        Column::new("session", DataType::Int),
        Column::new("generation", DataType::Int),
        Column::new("cols_hits", DataType::Int),
        Column::new("cols_misses", DataType::Int),
    ]);
    let mut rel = Relation::new(schema);
    for q in reg.query_log() {
        rel.push(
            vec![
                Value::from(q.seq as i64),
                Value::from(format!("{:016x}", q.sql_hash)),
                Value::from(q.sql),
                Value::from(q.wall_ms),
                Value::from(q.rows_out as i64),
                Value::from(q.rows_scanned as i64),
                Value::from(q.iterations as i64),
                Value::from(q.peak_mem_bytes as i64),
                Value::from(q.cache.trie_hits as i64),
                Value::from(q.cache.trie_misses as i64),
                Value::from(q.cache.stats_hits as i64),
                Value::from(q.cache.stats_misses as i64),
                Value::from(q.cache.wal_records as i64),
                Value::from(q.cache.wal_bytes as i64),
                Value::from(q.par as i64),
                Value::from(q.exec),
                Value::from(q.optimizer),
                Value::from(q.session as i64),
                Value::from(q.generation as i64),
                Value::from(q.cache.cols_hits as i64),
                Value::from(q.cache.cols_misses as i64),
            ]
            .into_boxed_slice(),
        )
        .expect("one value per column");
    }
    rel
}

/// An embedded graph-capable relational database speaking with+.
pub struct Database {
    pub catalog: Catalog,
    pub profile: EngineProfile,
    /// Physical spelling of union-by-update (Tables 4 & 5). Default:
    /// `full outer join`, the winner of Exp-1.
    pub ubu_impl: UbuImpl,
    /// Physical spelling of anti-join (Tables 6 & 7). Default:
    /// `left outer join`, the paper's pick after Exp-1.
    pub anti_impl: AntiJoinImpl,
    pub(crate) params: HashMap<String, Value>,
    /// When set, every execution records hierarchical spans into it
    /// (per-operator, per-subquery, per-iteration). `None` (the default)
    /// costs one branch per plan node.
    pub(crate) tracer: Option<Tracer>,
    /// Set by [`Database::open`] when recovery found a with+ run that
    /// began but never logged its end-of-run commit. Consumed by
    /// [`Database::resume_interrupted`] / [`Database::discard_interrupted`].
    pending_resume: Option<InterruptedRun>,
    /// Session the current statement is attributed to in the query log
    /// (0 = the database handle itself). Set by
    /// [`Session::execute`](crate::session::Session::execute) around
    /// forwarded writes.
    pub(crate) session_id: u64,
    /// Materialized views maintained incrementally by
    /// [`Database::apply_edges`](crate::ivm), in registration order.
    pub(crate) views: Vec<crate::ivm::ViewDef>,
}

impl Database {
    pub fn new(profile: EngineProfile) -> Database {
        Database {
            catalog: Catalog::new(),
            profile,
            ubu_impl: UbuImpl::FullOuterJoin,
            anti_impl: AntiJoinImpl::LeftOuterNull,
            params: HashMap::new(),
            tracer: None,
            pending_resume: None,
            session_id: 0,
            views: Vec::new(),
        }
    }

    /// Swap this database's parameter bindings wholesale (sessions install
    /// their own bindings around forwarded writes and restore the writer's
    /// afterwards).
    pub(crate) fn swap_params(&mut self, params: HashMap<String, Value>) -> HashMap<String, Value> {
        std::mem::replace(&mut self.params, params)
    }

    /// Open (or create) a durable database rooted at directory `path` on
    /// the real file system. Recovers from the newest valid snapshot plus
    /// the committed WAL tail; every subsequent catalog mutation is logged.
    pub fn open(path: &str, profile: EngineProfile) -> Result<(Database, RecoveryReport)> {
        Database::open_with_vfs(Arc::new(StdVfs), path, profile, None)
    }

    /// [`Database::open`] over an explicit [`Vfs`] — the crash-simulation
    /// tests pass a [`aio_storage::SimVfs`] here. `tracer`, when given,
    /// receives the `recovery` span.
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: &str,
        profile: EngineProfile,
        tracer: Option<&Tracer>,
    ) -> Result<(Database, RecoveryReport)> {
        let (catalog, report) = open_catalog(vfs, path, tracer)?;
        let mut db = Database::new(profile);
        db.catalog = catalog;
        if let Some(ir) = &report.interrupted {
            // Restore the interrupted run's parameter bindings so resuming
            // (or re-running) sees exactly the environment it began under.
            for (k, v) in &ir.params {
                db.params.insert(k.clone(), v.clone());
            }
        }
        db.pending_resume = report.interrupted.clone();
        Ok((db, report))
    }

    /// Write a snapshot checkpoint and truncate the WAL. Errors on
    /// in-memory databases and inside a with+ run.
    pub fn checkpoint(&mut self) -> Result<CheckpointStats> {
        let span = aio_trace::maybe_span(self.tracer.as_ref(), "checkpoint");
        let stats = self.catalog.checkpoint()?;
        if let Some(s) = &span {
            s.field("seq", stats.seq);
            s.field("bytes", stats.bytes);
            s.field("tables", stats.tables);
        }
        Ok(stats)
    }

    /// The interrupted with+ run recovery found, if any (not yet resumed
    /// or discarded).
    pub fn interrupted(&self) -> Option<&InterruptedRun> {
        self.pending_resume.as_ref()
    }

    /// Finish the with+ run a crash interrupted. If at least one fixpoint
    /// iteration was durably committed, the loop resumes from that
    /// iteration over the recovered tables; otherwise the logged statement
    /// re-executes from scratch. Returns `Ok(None)` when there was nothing
    /// to resume.
    pub fn resume_interrupted(&mut self) -> Result<Option<QueryResult>> {
        let Some(ir) = self.pending_resume.take() else {
            return Ok(None);
        };
        for (k, v) in &ir.params {
            self.params.insert(k.clone(), v.clone());
        }
        match ir.committed_iters {
            // The run began but no iteration commit made it to disk: the
            // recovered catalog has none of its tables, so a plain
            // re-execution is the resume.
            None => self.execute(&ir.sql).map(Some),
            Some(k) => {
                let compiled = self.plan_with_plus(&ir.sql, self.profile.optimizer)?;
                self.catalog.wal_run_begin(
                    &compiled.rec_name,
                    &ir.sql,
                    &sorted_params(&self.params),
                )?;
                let mut runner = PsmRunner::new(&mut self.catalog, &self.profile, self.ubu_impl);
                runner.set_tracer(self.tracer.as_ref());
                let result = runner.run_resume(&compiled, k);
                finish_run(&mut self.catalog, &compiled.rec_name, result).map(Some)
            }
        }
    }

    /// Forget the interrupted run instead of resuming it, durably dropping
    /// the temp tables it left behind and logging the run's end, so the
    /// next open does not offer it again.
    pub fn discard_interrupted(&mut self) -> Result<()> {
        let Some(ir) = self.pending_resume.take() else {
            return Ok(());
        };
        for name in self.catalog.names() {
            if self.catalog.entry(&name).map(|e| e.temp).unwrap_or(false) {
                self.catalog.drop_table(&name)?;
            }
        }
        self.catalog.wal_run_end(&ir.rec_name)?;
        Ok(())
    }

    /// Set the plan-optimization level (a shorthand for rebuilding the
    /// profile; [`Optimizer::Off`] keeps the paper's fixed Algorithm 1
    /// plans).
    pub fn set_optimizer(&mut self, level: Optimizer) {
        self.profile.optimizer = level;
    }

    /// Switch between row-at-a-time and columnar batch execution for every
    /// plan this database runs (results are row-identical; only the
    /// physical operator implementations change).
    pub fn set_exec_mode(&mut self, mode: aio_algebra::ExecMode) {
        self.profile.exec = mode;
    }

    /// Start recording spans for subsequent executions.
    pub fn enable_tracing(&mut self) {
        self.tracer = Some(Tracer::new());
    }

    /// Stop tracing and return everything recorded since
    /// [`Database::enable_tracing`] (`None` if tracing was never enabled).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.tracer.take().map(Tracer::finish)
    }

    /// Is a tracer currently attached?
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Bind a named parameter referenced as `:name` in SQL.
    pub fn set_param(&mut self, name: &str, value: impl Into<Value>) {
        self.params.insert(name.to_string(), value.into());
    }

    /// Register a base table.
    pub fn create_table(&mut self, name: &str, rel: Relation) -> Result<()> {
        self.catalog.create_table(name, rel)?;
        Ok(())
    }

    /// Parse, validate and compile a with+ statement without running it
    /// (exposes the Theorem 5.1 DATALOG program for inspection).
    pub fn prepare(&self, sql: &str) -> Result<CompiledWithPlus> {
        self.plan_with_plus(sql, Optimizer::Off)
    }

    /// [`plan_sql`] over this database's catalog and bindings.
    fn plan(&self, sql: &str, level: Optimizer) -> Result<Planned> {
        plan_sql(sql, &self.catalog, &self.params, self.anti_impl, level)
    }

    /// [`Database::plan`] where only a with+ statement will do (`prepare`,
    /// resuming a logged run, view definitions).
    pub(crate) fn plan_with_plus(&self, sql: &str, level: Optimizer) -> Result<CompiledWithPlus> {
        match self.plan(sql, level)? {
            Planned::WithPlus(c) => Ok(*c),
            Planned::Select(_) => Err(WithPlusError::Restriction(
                "expected a with+ statement".into(),
            )),
        }
    }

    /// Execute SQL text: either a with+ statement or a one-shot SELECT.
    ///
    /// When metrics are enabled, also attributes this thread's cache/WAL
    /// traffic to the statement and appends a [`aio_metrics::QueryReport`]
    /// to the global query log.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let watcher = crate::session::spawn_armed_watcher(&mut self.catalog);
        let started = Instant::now();
        let before = aio_metrics::enabled().then(aio_metrics::local_counters);
        let mut result = self.execute_inner(sql, started);
        if let Some(w) = watcher {
            w.finish();
        }
        if let (Some(before), Ok(out)) = (before, &mut result) {
            let generation = self.catalog.generation();
            log_query(
                sql,
                started,
                &before,
                out,
                &self.profile,
                self.session_id,
                generation,
            );
        }
        result
    }

    fn execute_inner(&mut self, sql: &str, start: Instant) -> Result<QueryResult> {
        match self.plan(sql, self.profile.optimizer)? {
            Planned::WithPlus(compiled) => {
                // On a durable catalog, record the statement (SQL text +
                // params) so a crash mid-fixpoint can resume it, and group
                // all mutations into per-iteration WAL transactions.
                self.catalog.wal_run_begin(
                    &compiled.rec_name,
                    sql,
                    &sorted_params(&self.params),
                )?;
                let mut runner = PsmRunner::new(&mut self.catalog, &self.profile, self.ubu_impl);
                runner.set_tracer(self.tracer.as_ref());
                let result = runner.run(&compiled);
                finish_run(&mut self.catalog, &compiled.rec_name, result)
            }
            Planned::Select(plan) => run_select(
                &plan,
                &self.catalog,
                &self.profile,
                self.tracer.as_ref(),
                start,
            ),
        }
    }

    /// Execute a pre-compiled with+ statement (benchmarks reuse this to
    /// exclude parse/compile time from the measured loop).
    pub fn run_compiled(&mut self, compiled: &CompiledWithPlus) -> Result<QueryResult> {
        let mut runner = PsmRunner::new(&mut self.catalog, &self.profile, self.ubu_impl);
        runner.set_tracer(self.tracer.as_ref());
        runner.run(compiled)
    }

    /// EXPLAIN ANALYZE: execute `sql` under a fresh tracer and return the
    /// result together with the plan tree annotated per node with
    /// invocation counts, output cardinalities and wall time, plus the raw
    /// trace for Perfetto/JSONL export. Any tracer previously attached with
    /// [`Database::enable_tracing`] is preserved (its recording pauses for
    /// this one statement).
    pub fn explain_analyze(&mut self, sql: &str) -> Result<ExplainOutput> {
        self.explain_analyze_opts(sql, true)
    }

    /// [`Database::explain_analyze`] with wall-clock annotations optional —
    /// `timings: false` yields a deterministic report for snapshot tests.
    pub fn explain_analyze_opts(&mut self, sql: &str, timings: bool) -> Result<ExplainOutput> {
        // planned from what the run plans from: the catalog and the
        // registry before the statement ran
        let planned = self.plan(sql, self.profile.optimizer)?;
        let prev = self.tracer.replace(Tracer::new());
        let outcome = self.execute(sql);
        let trace = self.tracer.take().map(Tracer::finish).unwrap_or_default();
        self.tracer = prev;
        let result = outcome?;
        let report = match planned {
            Planned::WithPlus(compiled) => {
                crate::explain::render_with_plus(&compiled, &result.stats, &trace, timings)
            }
            Planned::Select(plan) => {
                crate::explain::render_select(&plan, &result.stats, &trace, timings)
            }
        };
        Ok(ExplainOutput {
            result,
            report,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::oracle_like;
    use aio_storage::{edge_schema, row};

    fn db_with_edges() -> Database {
        let mut db = Database::new(oracle_like());
        let mut e = Relation::new(edge_schema());
        e.extend([row![1, 2, 1.0], row![2, 3, 1.0]]).unwrap();
        db.create_table("E", e).unwrap();
        db
    }

    #[test]
    fn one_shot_select() {
        let mut db = db_with_edges();
        let out = db.execute("select E.F, E.T from E where E.F = 1").unwrap();
        assert_eq!(out.relation.len(), 1);
    }

    #[test]
    fn with_plus_end_to_end() {
        let mut db = db_with_edges();
        let out = db
            .execute(
                "with TC(F, T) as (\
                   (select E.F, E.T from E)\
                   union\
                   (select TC.F, E.T from TC, E where TC.T = E.F))\
                 select * from TC",
            )
            .unwrap();
        assert_eq!(out.relation.len(), 3); // (1,2),(2,3),(1,3)
    }

    #[test]
    fn params_flow_through() {
        let mut db = db_with_edges();
        db.set_param("w", 2.0);
        let out = db.execute("select E.F, :w * E.ew from E").unwrap();
        assert_eq!(out.relation[0][1].as_f64(), Some(2.0));
    }

    #[test]
    fn prepare_exposes_datalog() {
        let mut db = db_with_edges();
        db.set_param("c", 0.85);
        db.set_param("n", 2.0);
        let c = db
            .prepare(
                "with P(ID, W) as (\
                   (select E.F, 0.0 from E)\
                   union by update ID\
                   (select E.T, :c * sum(P.W * E.ew) + (1 - :c) / :n from P, E \
                    where P.ID = E.F group by E.T)\
                   maxrecursion 3)\
                 select * from P",
            )
            .unwrap();
        assert!(c.datalog.to_string().contains(":-"));
    }

    #[test]
    fn explain_analyze_annotates_every_section() {
        let mut db = db_with_edges();
        let out = db
            .explain_analyze(
                "with TC(F, T) as (\
                   (select E.F, E.T from E)\
                   union\
                   (select TC.F, E.T from TC, E where TC.T = E.F))\
                 select * from TC",
            )
            .unwrap();
        assert_eq!(out.result.relation.len(), 3);
        out.trace.validate().unwrap();
        let r = &out.report;
        assert!(r.contains("EXPLAIN ANALYZE with+ TC"), "{r}");
        assert!(r.contains("-- init[0] (executions=1)"), "{r}");
        // 2 iterations ran the recursive subquery; delta drains on the 2nd
        assert!(r.contains("-- rec[0] (executions=2)"), "{r}");
        assert!(r.contains("-- final (executions=1)"), "{r}");
        assert!(r.contains("Join[Inner]"), "{r}");
        assert!(r.contains("time="), "{r}");
        assert!(r.contains("it   1: delta="), "{r}");
        assert!(r.contains("total: scanned="), "{r}");
        assert!(!r.contains("never executed"), "{r}");
        // Perfetto export is valid JSON with events
        let chrome = out.trace.to_chrome_json();
        let v = aio_trace::json::parse(&chrome).unwrap();
        assert!(!v.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
        // tracing was transient: the db is not left tracing
        assert!(!db.tracing_enabled());
    }

    #[test]
    fn explain_analyze_select_and_determinism() {
        let mut db = db_with_edges();
        let a = db
            .explain_analyze_opts("select E.F, E.T from E where E.F = 1", false)
            .unwrap();
        assert!(a.report.contains("EXPLAIN ANALYZE select"), "{}", a.report);
        assert!(a.report.contains("Select"), "{}", a.report);
        assert!(!a.report.contains("time="), "{}", a.report);
        let b = db
            .explain_analyze_opts("select E.F, E.T from E where E.F = 1", false)
            .unwrap();
        assert_eq!(a.report, b.report, "timings-off report is deterministic");
    }

    #[test]
    fn enable_tracing_spans_multiple_statements() {
        let mut db = db_with_edges();
        db.enable_tracing();
        db.execute("select E.F from E").unwrap();
        db.execute("select E.T from E").unwrap();
        let trace = db.take_trace().unwrap();
        trace.validate().unwrap();
        assert_eq!(trace.spans_named("query").count(), 2);
        assert!(db.take_trace().is_none());
    }

    const TC_SQL: &str = "with TC(F, T) as (\
        (select E.F, E.T from E)\
        union\
        (select TC.F, E.T from TC, E where TC.T = E.F))\
        select * from TC";

    #[test]
    fn durable_execute_and_reopen() {
        use aio_storage::{SimVfs, UnsyncedFate};
        let vfs = Arc::new(SimVfs::new());
        let (mut db, report) =
            Database::open_with_vfs(vfs.clone(), "db", oracle_like(), None).unwrap();
        assert!(report.fresh);
        let mut e = Relation::new(edge_schema());
        e.extend([row![1, 2, 1.0], row![2, 3, 1.0]]).unwrap();
        db.create_table("E", e).unwrap();
        let out = db.execute(TC_SQL).unwrap();
        assert_eq!(out.relation.len(), 3);
        // reopen from the durable image only: E survives, the completed
        // run left neither temps nor an interrupted marker
        let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
        let (db2, r2) = Database::open_with_vfs(img, "db", oracle_like(), None).unwrap();
        assert!(!r2.fresh);
        assert!(r2.interrupted.is_none());
        assert_eq!(db2.catalog.relation("E").unwrap().len(), 2);
        assert!(!db2.catalog.contains("TC"));
    }

    #[test]
    fn durable_checkpoint_and_reopen() {
        use aio_storage::{SimVfs, UnsyncedFate};
        let vfs = Arc::new(SimVfs::new());
        let (mut db, _) = Database::open_with_vfs(vfs.clone(), "db", oracle_like(), None).unwrap();
        let mut e = Relation::new(edge_schema());
        e.extend([row![1, 2, 1.0]]).unwrap();
        db.create_table("E", e).unwrap();
        let cp = db.checkpoint().unwrap();
        assert_eq!(cp.tables, 1);
        let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
        let (db2, r2) = Database::open_with_vfs(img, "db", oracle_like(), None).unwrap();
        assert_eq!(r2.snapshot_seq, cp.seq);
        assert_eq!(r2.wal_records_replayed, 0);
        assert_eq!(db2.catalog.relation("E").unwrap().len(), 1);
    }

    #[test]
    fn checkpoint_errors_on_in_memory_db() {
        let mut db = db_with_edges();
        assert!(db.checkpoint().is_err());
    }

    #[test]
    fn resume_interrupted_reaches_same_fixpoint() {
        use aio_storage::{SimVfs, UnsyncedFate};
        // Baseline: the same query on an in-memory db.
        let mut mem = db_with_edges();
        let expected = mem.execute(TC_SQL).unwrap().relation;

        // Durable run, then "crash" by discarding the Database mid-flight:
        // simulate by taking a crash image right after the run — the run
        // completed, so instead exercise the interrupted path by writing a
        // RunBegin without a RunEnd through the catalog API.
        let vfs = Arc::new(SimVfs::new());
        {
            let (mut db, _) =
                Database::open_with_vfs(vfs.clone(), "db", oracle_like(), None).unwrap();
            let mut e = Relation::new(edge_schema());
            e.extend([row![1, 2, 1.0], row![2, 3, 1.0]]).unwrap();
            db.create_table("E", e).unwrap();
            db.catalog
                .wal_run_begin("TC", TC_SQL, &[("w".into(), Value::from(2.0))])
                .unwrap();
            // no iteration commit, no RunEnd: crash before any progress
        }
        let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
        let (mut db2, r2) = Database::open_with_vfs(img, "db", oracle_like(), None).unwrap();
        let ir = r2.interrupted.expect("run is interrupted");
        assert_eq!(ir.rec_name, "tc"); // names are normalized in the log
        assert_eq!(ir.committed_iters, None);
        assert_eq!(db2.interrupted().map(|i| i.rec_name.as_str()), Some("tc"));
        let out = db2.resume_interrupted().unwrap().expect("resumed");
        assert!(out.relation.same_rows_unordered(&expected));
        assert!(db2.interrupted().is_none());
        assert!(db2.resume_interrupted().unwrap().is_none());
    }

    #[test]
    fn discard_interrupted_drops_temps() {
        use aio_storage::{SimVfs, UnsyncedFate};
        let vfs = Arc::new(SimVfs::new());
        {
            let (mut db, _) =
                Database::open_with_vfs(vfs.clone(), "db", oracle_like(), None).unwrap();
            let mut e = Relation::new(edge_schema());
            e.extend([row![1, 2, 1.0], row![2, 3, 1.0]]).unwrap();
            db.create_table("E", e).unwrap();
            db.catalog.wal_run_begin("TC", TC_SQL, &[]).unwrap();
            let mut tc = Relation::new(edge_schema());
            tc.extend([row![1, 2, 1.0]]).unwrap();
            db.catalog.create_temp("TC", tc).unwrap();
            db.catalog.wal_commit_iter("TC", 0).unwrap();
            // crash: RunEnd never logged
        }
        let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
        let (mut db2, r2) =
            Database::open_with_vfs(img.clone(), "db", oracle_like(), None).unwrap();
        assert_eq!(
            r2.interrupted.as_ref().and_then(|i| i.committed_iters),
            Some(0)
        );
        assert!(db2.catalog.contains("TC"));
        db2.discard_interrupted().unwrap();
        assert!(!db2.catalog.contains("TC"));
        assert!(db2.catalog.contains("E"));
        // the drop is durable
        let img2 = Arc::new(img.crash_image(UnsyncedFate::DropAll));
        let (db3, _) = Database::open_with_vfs(img2, "db", oracle_like(), None).unwrap();
        assert!(!db3.catalog.contains("TC"));
    }

    #[test]
    fn parse_error_surfaces() {
        let mut db = db_with_edges();
        assert!(matches!(
            db.execute("selekt * from E"),
            Err(WithPlusError::Parse { .. })
        ));
    }
}
