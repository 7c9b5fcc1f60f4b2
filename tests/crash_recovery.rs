//! The deterministic crash-simulation sweep (FoundationDB-style).
//!
//! One fixed workload — batched edge loading with a mid-load checkpoint,
//! then five PageRank iterations under with+ — runs on a [`SimVfs`] that
//! counts every mutating file-system operation. The sweep then re-runs the
//! workload killing it at the K-th operation for every K, takes a crash
//! image of the disk under three fates for the unsynced bytes (all lost,
//! all kept, torn tail), recovers, and asserts:
//!
//! 1. **recovery is total** — `Database::open_with_vfs` never panics and
//!    never errors on a crash image;
//! 2. **committed data is exact** — the recovered edge table is a precise
//!    batch prefix of the load sequence (transactions are atomic: no
//!    partial batch is ever visible);
//! 3. **interrupted fixpoints resume** — whenever recovery reports an
//!    interrupted with+ run, [`Database::resume_interrupted`] completes it
//!    and the result equals the uninterrupted baseline under the testkit
//!    oracle comparison (`AlgoResult::NodeF64`, epsilon tolerance);
//! 4. **recovery is idempotent** — a second open of the recovered disk
//!    reproduces the same catalog content.
//!
//! Tier-1 strides through the crash points (`AIO_CRASH_STRIDE`, default 3);
//! `./ci.sh full` runs the `#[ignore]`d exhaustive sweep at stride 1.
//! The same harness also kills a delta-driven Eq. 7 run at every operation
//! (it must resume full-width), PageRank under the batch executor's column
//! fold at every third (it must resume to the same bits), and sweeps a
//! maintained view under churn.
//! A golden `RecoveryReport` rendering pins the report format.

use aio_testkit::AlgoResult;
use all_in_one::algebra::{oracle_like, EngineProfile, ExecMode, Optimizer};
use all_in_one::algos::{pagerank, sssp, Tolerance};
use all_in_one::graph::{generate, load, reference, GraphKind};
use all_in_one::storage::{row, Relation, Row, SimVfs, UnsyncedFate, Value, WalPolicy};
use all_in_one::withplus::{Database, QueryResult, Session, SharedDatabase};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const NODES: usize = 30;
const EDGES: usize = 90;
const BATCH: usize = 32;
const PR_ITERS: usize = 5;
const DIR: &str = "db";

/// The workload's edge rows (PageRank-normalized weights), fixed by seed.
fn edge_rows() -> (Vec<Row>, Relation) {
    let g = generate(GraphKind::PowerLaw, NODES, EDGES, true, 42);
    let gw = reference::with_pagerank_weights(&g);
    let e = load::edge_relation(&gw);
    (e.rows().to_vec(), load::node_relation(&g))
}

fn empty_like(rel_rows: &[Row]) -> Relation {
    let _ = rel_rows;
    Relation::new(all_in_one::storage::edge_schema())
}

/// Run the full workload on `vfs`. Any step may fail once the simulated
/// crash point is reached; the first error aborts the run (like a process
/// kill would). Returns the PageRank result when the run got that far.
fn workload(vfs: Arc<SimVfs>) -> all_in_one::withplus::Result<AlgoResult> {
    let (rows, v) = edge_rows();
    let (mut db, _report) = Database::open_with_vfs(vfs, DIR, oracle_like(), None)?;
    db.create_table("V", v)?;
    db.create_table("E", empty_like(&rows))?;
    let batches: Vec<&[Row]> = rows.chunks(BATCH).collect();
    let mid = batches.len() / 2;
    for (i, b) in batches.iter().enumerate() {
        db.catalog.insert_rows("E", b.to_vec(), WalPolicy::None)?;
        if i + 1 == mid {
            db.checkpoint()?;
        }
    }
    db.set_param("c", 0.85);
    db.set_param("n", NODES as f64);
    let out = db.execute(&pagerank::sql(PR_ITERS))?;
    Ok(node_f64(&out.relation))
}

fn node_f64(rel: &Relation) -> AlgoResult {
    let m: BTreeMap<i64, f64> = rel
        .iter()
        .filter_map(|r| Some((r[0].as_int()?, r[1].as_f64()?)))
        .collect();
    AlgoResult::NodeF64(m)
}

/// The uninterrupted run: the oracle every resumed run must agree with.
fn baseline() -> AlgoResult {
    workload(Arc::new(SimVfs::new())).expect("baseline workload must succeed")
}

/// The durable catalog changes where the statement's writes go, not what
/// it computes: the baseline equals the same statement on a plain
/// in-memory database over the same tables.
#[test]
fn durable_execute_equals_in_memory_execute() {
    let (rows, v) = edge_rows();
    let mut db = Database::new(oracle_like());
    db.create_table("V", v).unwrap();
    let mut e = empty_like(&rows);
    e.extend(rows).unwrap();
    db.create_table("E", e).unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", NODES as f64);
    let in_memory = node_f64(&db.execute(&pagerank::sql(PR_ITERS)).unwrap().relation);
    in_memory
        .compare(&baseline(), &Tolerance::Exact)
        .unwrap_or_else(|d| panic!("durable run diverges from in-memory: {d}"));
}

/// Count the mutating file-system operations of the uninterrupted run.
fn total_ops() -> u64 {
    let vfs = Arc::new(SimVfs::new());
    workload(vfs.clone()).expect("counting run must succeed");
    vfs.op_count()
}

fn assert_batch_prefix(e: &Relation, rows: &[Row], ctx: &str) {
    let n = e.len();
    assert!(
        n == rows.len() || n.is_multiple_of(BATCH),
        "{ctx}: recovered E has {n} rows — not a whole-batch prefix"
    );
    assert!(
        n <= rows.len(),
        "{ctx}: recovered E has {n} > {} rows",
        rows.len()
    );
    for (i, r) in e.iter().enumerate() {
        assert_eq!(
            r, &rows[i],
            "{ctx}: recovered E row {i} differs from the load order"
        );
    }
}

fn check_crash_point(k: u64, fate: UnsyncedFate, rows: &[Row], oracle: &AlgoResult) {
    let ctx = format!("crash at op {k}, fate {fate:?}");
    let vfs = Arc::new(SimVfs::new());
    vfs.set_crash_at(k);
    let run = workload(vfs.clone());
    if !vfs.has_crashed() {
        run.unwrap_or_else(|e| panic!("{ctx}: run failed without crashing: {e}"));
    }

    // Invariant 1: recovery is total on the crash image.
    let img = Arc::new(vfs.crash_image(fate));
    let (mut db, report) = Database::open_with_vfs(img.clone(), DIR, oracle_like(), None)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));

    // Invariant 2: committed data is an exact batch prefix.
    if db.catalog.contains("E") {
        assert_batch_prefix(db.catalog.relation("E").unwrap(), rows, &ctx);
    }
    if db.catalog.contains("V") {
        assert_eq!(
            db.catalog.relation("V").unwrap().len(),
            NODES,
            "{ctx}: V truncated"
        );
    }

    // Invariant 3: an interrupted fixpoint resumes to the oracle's answer.
    if report.interrupted.is_some() {
        let out = db
            .resume_interrupted()
            .unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"))
            .expect("interrupted implies resumable");
        let resumed = node_f64(&out.relation);
        resumed
            .compare(
                oracle,
                &Tolerance::Epsilon {
                    eps: 1e-9,
                    rank_top: 0,
                },
            )
            .unwrap_or_else(|e| panic!("{ctx}: resumed fixpoint diverges from baseline: {e}"));
    }

    // Invariant 4: recovery is idempotent — a second open of the same
    // (now repaired) disk reproduces the same content.
    let img2 = Arc::new(img.crash_image(UnsyncedFate::DropAll));
    let (db2, report2) = Database::open_with_vfs(img2, DIR, oracle_like(), None)
        .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
    assert!(
        report2.corrupt.is_none(),
        "{ctx}: second open still sees corruption: {:?}",
        report2.corrupt
    );
    // `resume_interrupted` above ran the fixpoint to completion on `db`,
    // so only compare images when nothing was resumed in between.
    if report.interrupted.is_none() {
        assert!(
            db.catalog.same_content(&db2.catalog),
            "{ctx}: second recovery produced different content"
        );
    }
}

fn sweep(stride: u64) {
    let (rows, _) = edge_rows();
    let oracle = baseline();
    let total = total_ops();
    assert!(
        total > 40,
        "workload too small to be interesting: {total} ops"
    );
    let fates = [
        UnsyncedFate::DropAll,
        UnsyncedFate::KeepAll,
        UnsyncedFate::Torn(0x5EED),
    ];
    let mut points = 0u64;
    let mut k = 1;
    while k <= total {
        for fate in fates {
            check_crash_point(k, fate, &rows, &oracle);
        }
        points += 1;
        k += stride;
    }
    eprintln!(
        "crash sweep: {points} crash points × {} fates over {total} ops",
        fates.len()
    );
}

/// Tier-1: strided sweep (`AIO_CRASH_STRIDE` to tune; default 3).
#[test]
fn crash_sweep_strided() {
    let stride = std::env::var("AIO_CRASH_STRIDE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(3);
    sweep(stride);
}

/// Exhaustive: every mutating operation is a crash point (`./ci.sh full`).
#[test]
#[ignore = "exhaustive crash sweep: run via ./ci.sh full"]
fn crash_sweep_exhaustive() {
    sweep(1);
}

// ---------------------------------------------------------------------------
// Concurrent-session crash points
// ---------------------------------------------------------------------------

/// The session workload: the same batched load + checkpoint + PageRank,
/// but driven through a [`SharedDatabase`] with a concurrent [`Session`]
/// holding a pinned read transaction across the checkpoint and the rest
/// of the load. At every step — including *after* the simulated crash
/// hits — the pinned read must keep answering from its generation:
/// snapshot reads live in memory and never touch the failing file system.
fn session_workload(vfs: Arc<SimVfs>) -> all_in_one::withplus::Result<AlgoResult> {
    let (rows, v) = edge_rows();
    let (db, _report) = Database::open_with_vfs(vfs, DIR, oracle_like(), None)?;
    let shared = SharedDatabase::new(db);
    shared.with_writer(|db| -> all_in_one::withplus::Result<()> {
        db.create_table("V", v)?;
        db.create_table("E", empty_like(&rows))?;
        Ok(())
    })?;

    let mut reader = shared.session();
    // (pinned generation, row count it must keep reporting)
    let mut pinned: Option<(u64, usize)> = None;
    let check_pin = |reader: &mut Session, pinned: &Option<(u64, usize)>, ctx: &str| {
        if let Some((gen, len)) = pinned {
            assert_eq!(reader.generation(), Some(*gen), "{ctx}: pin moved");
            let out = reader
                .query("select * from E")
                .unwrap_or_else(|e| panic!("{ctx}: pinned snapshot read failed: {e}"));
            assert_eq!(
                out.relation.len(),
                *len,
                "{ctx}: pinned read changed content"
            );
        }
    };

    let batches: Vec<&[Row]> = rows.chunks(BATCH).collect();
    let mid = batches.len() / 2;
    for (i, b) in batches.iter().enumerate() {
        let r = shared.with_writer(|db| db.catalog.insert_rows("E", b.to_vec(), WalPolicy::None));
        if let Err(e) = r {
            // The crash killed the writer mid-load; the open read txn is
            // process-local state that must still answer before we "die".
            check_pin(&mut reader, &pinned, "writer crashed mid-load");
            return Err(e.into());
        }
        if i + 1 == mid {
            // Pin mid-load, then checkpoint underneath the open read txn.
            let gen = reader.begin_read();
            let len = reader
                .query("select * from E")
                .expect("snapshot reads never touch the log")
                .relation
                .len();
            pinned = Some((gen, len));
            if let Err(e) = shared.with_writer(|db| db.checkpoint()) {
                check_pin(&mut reader, &pinned, "writer crashed in checkpoint");
                return Err(e);
            }
        }
        // Writer progress (and the checkpoint) must never disturb the pin.
        check_pin(&mut reader, &pinned, "mid-load");
    }

    let mut runner = shared.session();
    runner.set_param("c", 0.85);
    runner.set_param("n", NODES as f64);
    let out = match runner.execute(&pagerank::sql(PR_ITERS)) {
        Ok(out) => out,
        Err(e) => {
            check_pin(&mut reader, &pinned, "writer crashed mid-fixpoint");
            return Err(e);
        }
    };
    check_pin(&mut reader, &pinned, "after fixpoint");
    reader.end_read();
    Ok(node_f64(&out.relation))
}

fn check_session_crash_point(k: u64, fate: UnsyncedFate, rows: &[Row], oracle: &AlgoResult) {
    let ctx = format!("session crash at op {k}, fate {fate:?}");
    let vfs = Arc::new(SimVfs::new());
    vfs.set_crash_at(k);
    let run = session_workload(vfs.clone());
    if !vfs.has_crashed() {
        run.unwrap_or_else(|e| panic!("{ctx}: run failed without crashing: {e}"));
    }

    // Recovery invariants are unchanged by sessions: total, exact prefix,
    // resumable fixpoint.
    let img = Arc::new(vfs.crash_image(fate));
    let (mut db, report) = Database::open_with_vfs(img, DIR, oracle_like(), None)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    if db.catalog.contains("E") {
        assert_batch_prefix(db.catalog.relation("E").unwrap(), rows, &ctx);
    }
    if report.interrupted.is_some() {
        let out = db
            .resume_interrupted()
            .unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"))
            .expect("interrupted implies resumable");
        node_f64(&out.relation)
            .compare(
                oracle,
                &Tolerance::Epsilon {
                    eps: 1e-9,
                    rank_top: 0,
                },
            )
            .unwrap_or_else(|e| panic!("{ctx}: resumed fixpoint diverges from baseline: {e}"));
    }

    // New invariant: the recovered catalog is immediately session-capable,
    // and a fresh session reads exactly the recovered committed state.
    let recovered_e = db
        .catalog
        .contains("E")
        .then(|| db.catalog.relation("E").unwrap().len());
    let shared = SharedDatabase::new(db);
    if let Some(len) = recovered_e {
        let mut s = shared.session();
        let gen = s.begin_read();
        assert_eq!(
            s.query("select * from E")
                .unwrap_or_else(|e| panic!("{ctx}: post-recovery session read failed: {e}"))
                .relation
                .len(),
            len,
            "{ctx}: session over recovered catalog (gen {gen}) disagrees with it"
        );
        s.end_read();
    }
}

fn session_sweep(stride: u64) {
    let (rows, _) = edge_rows();
    let oracle = baseline();
    // Count the session workload's own mutating fs ops (sessions add
    // none: snapshot reads are memory-only, so this matches the plain
    // workload — asserted below as part of the isolation story).
    let vfs = Arc::new(SimVfs::new());
    session_workload(vfs.clone()).expect("counting run must succeed");
    let total = vfs.op_count();
    assert_eq!(
        total,
        total_ops(),
        "pinned snapshot reads must not add file-system operations"
    );
    let fates = [
        UnsyncedFate::DropAll,
        UnsyncedFate::KeepAll,
        UnsyncedFate::Torn(0x5EED),
    ];
    let mut points = 0u64;
    let mut k = 1;
    while k <= total {
        for fate in fates {
            check_session_crash_point(k, fate, &rows, &oracle);
        }
        points += 1;
        k += stride;
    }
    eprintln!(
        "session crash sweep: {points} crash points × {} fates over {total} ops",
        fates.len()
    );
}

/// Tier-1: strided concurrent-session sweep (`AIO_SESSION_CRASH_STRIDE`
/// to tune; default 5).
#[test]
fn session_crash_sweep_strided() {
    let stride = std::env::var("AIO_SESSION_CRASH_STRIDE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(5);
    session_sweep(stride);
}

/// Exhaustive: every mutating operation is a crash point with a pinned
/// concurrent session (`./ci.sh full`).
#[test]
#[ignore = "exhaustive session crash sweep: run via ./ci.sh full"]
fn session_crash_sweep_exhaustive() {
    session_sweep(1);
}

// ---------------------------------------------------------------------------
// Incremental-view crash points
// ---------------------------------------------------------------------------

use aio_testkit::corpus::rebuild;
use aio_testkit::ivm::{apply_batch, e_delta, e_rows, scripts_for, view_sql, IVM_EPSILON};
use all_in_one::withplus::EdgeDelta;

const IVM_ALGO: &str = "wcc";
const IVM_VIEW: &str = "w";

/// The live-graph crash fixture: a small uniform digraph and its `churn`
/// then its `grow` mutation script (mixed batches, so the view refreshes
/// take the full fallback, then insert-only ones, which fold in place on
/// the frontier fast path), expanded into the per-prefix E-table states,
/// the [`EdgeDelta`]s between them, and the cold view materialization for
/// every prefix.
struct IvmFixture {
    v: Relation,
    /// Sorted E-table rows after 0, 1, …, all batches.
    states: Vec<Vec<Row>>,
    /// `deltas[i]` turns `states[i]` into `states[i + 1]`.
    deltas: Vec<EdgeDelta>,
    /// Sorted cold view rows per prefix.
    views: Vec<Vec<Row>>,
}

fn sorted(rel: &Relation) -> Vec<Row> {
    let mut rows: Vec<Row> = rel.iter().cloned().collect();
    rows.sort();
    rows
}

/// Cold recompute of the view over one E-table state (fresh in-memory db).
fn cold_view_rows(v: &Relation, e_state: &[Row]) -> Vec<Row> {
    let (mut db, _) =
        Database::open_with_vfs(Arc::new(SimVfs::new()), DIR, oracle_like(), None).unwrap();
    db.create_table("V", v.clone()).unwrap();
    let mut e = Relation::new(all_in_one::storage::edge_schema());
    e.extend(e_state.iter().cloned()).unwrap();
    db.create_table("E", e).unwrap();
    db.create_view_with(IVM_VIEW, view_sql(IVM_ALGO), IVM_EPSILON)
        .unwrap();
    sorted(db.view_relation(IVM_VIEW).unwrap())
}

fn ivm_fixture() -> IvmFixture {
    let g = generate(GraphKind::Uniform, 12, 24, true, 77);
    let scripts = scripts_for(&g, 77);
    let script = |name: &str| {
        let s = scripts.iter().find(|s| s.name == name).expect(name);
        s.batches.clone()
    };
    // churn's batches take the full fallback; grow's insert-only ones take
    // the frontier path, which logs the view's changed rows as `EdgeDelta`
    // records on the view's own table
    let batches = [script("churn"), script("grow")].concat();
    let v = load::node_relation(&g);
    let mut edges: Vec<(u32, u32, f64)> = g.edges().collect();
    let mut cur = g.clone();
    let mut states = vec![e_rows(&cur, IVM_ALGO)];
    let mut deltas = Vec::new();
    for b in &batches {
        apply_batch(&mut edges, b).expect("script applies to its own graph");
        let next = rebuild(g.node_count(), &edges, &g);
        deltas.push(e_delta(&e_rows(&cur, IVM_ALGO), &e_rows(&next, IVM_ALGO)));
        states.push(e_rows(&next, IVM_ALGO));
        cur = next;
    }
    let views = states.iter().map(|s| cold_view_rows(&v, s)).collect();
    for s in &mut states {
        s.sort();
    }
    IvmFixture {
        v,
        states,
        deltas,
        views,
    }
}

/// The maintained-view workload: open, load V and the base E (the base load
/// goes through `apply_edges` too — one transaction, no views yet), create
/// the wcc view, then apply every mutation batch, checkpointing once after
/// the first so the sweep hits crash points on both sides of a checkpoint
/// that includes view state. Returns the refresh mode of every batch.
fn ivm_workload(
    vfs: Arc<SimVfs>,
    fx: &IvmFixture,
) -> all_in_one::withplus::Result<Vec<&'static str>> {
    let (mut db, _report) = Database::open_with_vfs(vfs, DIR, oracle_like(), None)?;
    db.create_table("V", fx.v.clone())?;
    db.create_table("E", Relation::new(all_in_one::storage::edge_schema()))?;
    db.apply_edges(vec![EdgeDelta::insert("E", fx.states[0].clone())])?;
    db.create_view_with(IVM_VIEW, view_sql(IVM_ALGO), IVM_EPSILON)?;
    let mut modes = Vec::new();
    for (i, d) in fx.deltas.iter().enumerate() {
        db.apply_edges(vec![d.clone()])?;
        modes.extend(db.view_report(IVM_VIEW).map(|r| r.mode.label()));
        if i == 0 {
            db.checkpoint()?;
        }
    }
    Ok(modes)
}

/// The mid-refresh crash invariant: recovery lands on a *per-batch
/// generation* — base table and view table from the same prefix of the
/// mutation script, never a torn mix — and that generation is live: the
/// view re-attaches and replaying the remaining batches reaches the same
/// final state as the uninterrupted run.
fn check_ivm_crash_point(k: u64, fate: UnsyncedFate, fx: &IvmFixture) {
    let ctx = format!("ivm crash at op {k}, fate {fate:?}");
    let vfs = Arc::new(SimVfs::new());
    vfs.set_crash_at(k);
    let run = ivm_workload(vfs.clone(), fx);
    if !vfs.has_crashed() {
        run.unwrap_or_else(|e| panic!("{ctx}: run failed without crashing: {e}"));
    }

    // Recovery is total on the crash image.
    let img = Arc::new(vfs.crash_image(fate));
    let (mut db, report) = Database::open_with_vfs(img, DIR, oracle_like(), None)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    if report.interrupted.is_some() {
        db.resume_interrupted()
            .unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"));
    }
    if !db.catalog.contains("E") {
        return; // crashed before the base tables were durably created
    }
    let e = sorted(db.catalog.relation("E").unwrap());
    if e.is_empty() {
        return; // crashed between table creation and the base load
    }

    // Atomic batches: the recovered E is exactly one per-batch generation.
    let prefix = fx.states.iter().position(|s| *s == e).unwrap_or_else(|| {
        panic!(
            "{ctx}: recovered E ({} rows) is not a per-batch generation",
            e.len()
        )
    });

    // Never torn: a materialized view matches the cold recompute for
    // exactly that generation — the view tables commit in the same WAL
    // transaction as the base delta that triggered the refresh.
    let had_view = db.catalog.contains(IVM_VIEW);
    if had_view {
        let w = sorted(db.catalog.relation(IVM_VIEW).unwrap());
        assert_eq!(
            w, fx.views[prefix],
            "{ctx}: view is torn: not the prefix-{prefix} materialization"
        );
    }

    // The generation is live: re-attach (or rebuild, when the crash
    // predates the view) and replay the rest of the script to the end.
    db.register_view(IVM_VIEW, view_sql(IVM_ALGO), IVM_EPSILON)
        .unwrap_or_else(|e| panic!("{ctx}: view re-attach failed: {e}"));
    for d in &fx.deltas[prefix..] {
        db.apply_edges(vec![d.clone()])
            .unwrap_or_else(|e| panic!("{ctx}: post-recovery batch failed: {e}"));
    }
    assert_eq!(
        sorted(db.view_relation(IVM_VIEW).unwrap()),
        *fx.views.last().unwrap(),
        "{ctx}: replayed run diverges from the uninterrupted baseline"
    );
}

fn ivm_sweep(stride: u64) {
    let fx = ivm_fixture();
    let vfs = Arc::new(SimVfs::new());
    let modes = ivm_workload(vfs.clone(), &fx).expect("counting run must succeed");
    assert_eq!(
        modes,
        ["full", "full", "full", "frontier", "frontier", "frontier"]
    );
    let total = vfs.op_count();
    assert!(
        total > 40,
        "ivm workload too small to be interesting: {total} ops"
    );
    let fates = [
        UnsyncedFate::DropAll,
        UnsyncedFate::KeepAll,
        UnsyncedFate::Torn(0x5EED),
    ];
    let mut points = 0u64;
    let mut k = 1;
    while k <= total {
        for fate in fates {
            check_ivm_crash_point(k, fate, &fx);
        }
        points += 1;
        k += stride;
    }
    eprintln!(
        "ivm crash sweep: {points} crash points × {} fates over {total} ops",
        fates.len()
    );
}

/// Tier-1: strided maintained-view sweep (`AIO_IVM_CRASH_STRIDE` to tune;
/// default 3).
#[test]
fn ivm_crash_sweep_strided() {
    let stride = std::env::var("AIO_IVM_CRASH_STRIDE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(3);
    ivm_sweep(stride);
}

/// Exhaustive: every mutating operation is a crash point while views are
/// being maintained (`./ci.sh full`).
#[test]
#[ignore = "exhaustive ivm crash sweep: run via ./ci.sh full"]
fn ivm_crash_sweep_exhaustive() {
    ivm_sweep(1);
}

// ---------------------------------------------------------------------------
// Crash points of a delta-driven fixpoint
// ---------------------------------------------------------------------------

fn cost_profile() -> EngineProfile {
    oracle_like().with_optimizer(Optimizer::Cost)
}

/// Eq. 7 from vertex 0 under the cost optimizer, on the sweep's graph with
/// zero-weight self-loops: a delta-driven run, which keeps its frontier in
/// the temp table `__delta_D`.
fn sssp_workload(vfs: Arc<SimVfs>) -> all_in_one::withplus::Result<QueryResult> {
    let g = generate(GraphKind::PowerLaw, NODES, EDGES, true, 42);
    let mut e = load::edge_relation(&g);
    e.extend((0..NODES as i64).map(|v| row![v, v, 0.0]))?;
    let mut v = load::node_relation(&g);
    for r in v.iter_mut() {
        r[1] = Value::Float(if r[0] == Value::Int(0) {
            0.0
        } else {
            f64::INFINITY
        });
    }
    let (mut db, _report) = Database::open_with_vfs(vfs, DIR, cost_profile(), None)?;
    db.create_table("E", e)?;
    db.create_table("V", v)?;
    db.execute(sssp::SQL)
}

/// Killed at every mutating fs op, and so at every iteration boundary, a
/// delta-driven run resumes full-width — R after iteration k is the same
/// under either fold — to the uninterrupted relation, and the frontier
/// table it left behind is dropped with the run's other temporaries.
#[test]
fn delta_driven_run_resumes_full_width_from_every_iteration() {
    let baseline = sssp_workload(Arc::new(SimVfs::new())).unwrap();
    assert!(baseline.stats.delta_driven);
    let want = sorted(&baseline.relation);
    let iterations = baseline.stats.iterations.len() as u64;
    let vfs = Arc::new(SimVfs::new());
    sssp_workload(vfs.clone()).unwrap();
    let mut resumed_at = BTreeSet::new();
    for k in 1..=vfs.op_count() {
        let ctx = format!("sssp crash at op {k}");
        let vfs = Arc::new(SimVfs::new());
        vfs.set_crash_at(k);
        let run = sssp_workload(vfs.clone());
        if !vfs.has_crashed() {
            run.unwrap_or_else(|e| panic!("{ctx}: run failed without crashing: {e}"));
        }
        let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
        let (mut db, report) = Database::open_with_vfs(img, DIR, cost_profile(), None)
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        let Some(done) = report.interrupted.and_then(|i| i.committed_iters) else {
            continue;
        };
        // iteration 0 chose the improve fold and wrote its first frontier
        assert_eq!(db.catalog.contains("__delta_D"), done > 0, "{ctx}");
        let out = db
            .resume_interrupted()
            .unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"))
            .expect("interrupted implies resumable");
        assert!(
            !out.stats.delta_driven,
            "{ctx}: a resumed run is full-width"
        );
        assert_eq!(sorted(&out.relation), want, "{ctx}: resumed at {done}");
        assert_eq!(db.catalog.names(), ["e", "v"], "{ctx}: temp tables left");
        resumed_at.insert(done);
    }
    assert_eq!(
        resumed_at,
        (0..=iterations).collect(),
        "every iteration boundary is a crash point"
    );
}

// ---------------------------------------------------------------------------
// Crash points of the keyed column fold
// ---------------------------------------------------------------------------

/// PageRank over the sweep's graph under `Cost` + `Batch`: every iteration
/// folds the step's columns into `P` and logs one patch (overwritten rows
/// out, written rows in) where the row path logs a full image.
fn pagerank_batch(vfs: Arc<SimVfs>) -> all_in_one::withplus::Result<QueryResult> {
    let (rows, v) = edge_rows();
    let profile = cost_profile().with_exec(ExecMode::Batch);
    let (mut db, _report) = Database::open_with_vfs(vfs, DIR, profile, None)?;
    let mut e = empty_like(&rows);
    e.extend(rows)?;
    db.create_table("E", e)?;
    db.create_table("V", v)?;
    db.set_param("c", 0.85);
    db.set_param("n", NODES as f64);
    db.execute(&pagerank::sql(PR_ITERS))
}

/// `rel`'s rows by their bits, sorted: replay appends the rows a patch
/// rewrote, so a recovered table holds them in another order.
fn sorted_bits(rel: &Relation) -> Vec<(i64, u64)> {
    let mut rows: Vec<(i64, u64)> = (rel.iter())
        .map(|r| (r[0].as_int().unwrap(), r[1].as_f64().unwrap().to_bits()))
        .collect();
    rows.sort();
    rows
}

/// Killed at every `AIO_CRASH_STRIDE`-th mutating fs op (default 3), and so
/// at every iteration boundary, the column-folded run resumes to the
/// uninterrupted relation, bit for bit.
#[test]
fn column_fold_resumes_from_every_iteration() {
    let stride = std::env::var("AIO_CRASH_STRIDE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(3);
    let want = sorted_bits(&pagerank_batch(Arc::new(SimVfs::new())).unwrap().relation);
    let vfs = Arc::new(SimVfs::new());
    pagerank_batch(vfs.clone()).unwrap();
    let mut resumed_at = BTreeSet::new();
    for k in (1..=vfs.op_count()).step_by(stride) {
        let ctx = format!("pagerank crash at op {k}");
        let vfs = Arc::new(SimVfs::new());
        vfs.set_crash_at(k);
        let run = pagerank_batch(vfs.clone());
        if !vfs.has_crashed() {
            run.unwrap_or_else(|e| panic!("{ctx}: run failed without crashing: {e}"));
        }
        let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
        let profile = cost_profile().with_exec(ExecMode::Batch);
        let (mut db, report) = Database::open_with_vfs(img, DIR, profile, None)
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        let Some(done) = report.interrupted.and_then(|i| i.committed_iters) else {
            continue;
        };
        let out = db
            .resume_interrupted()
            .unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"))
            .expect("interrupted implies resumable");
        assert_eq!(sorted_bits(&out.relation), want, "{ctx}: resumed at {done}");
        assert_eq!(db.catalog.names(), ["e", "v"], "{ctx}: temp tables left");
        resumed_at.insert(done);
    }
    assert_eq!(
        resumed_at,
        (0..=PR_ITERS as u64).collect(),
        "every iteration boundary is a crash point"
    );
}

/// A crash *between* statements (clean shutdown without checkpoint) loses
/// nothing that was committed.
#[test]
fn clean_image_recovers_everything() {
    let (rows, _) = edge_rows();
    let vfs = Arc::new(SimVfs::new());
    workload(vfs.clone()).unwrap();
    let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
    let (db, report) = Database::open_with_vfs(img, DIR, oracle_like(), None).unwrap();
    assert!(
        report.interrupted.is_none(),
        "completed run must not be interrupted"
    );
    assert!(report.corrupt.is_none());
    assert_eq!(db.catalog.relation("E").unwrap().len(), rows.len());
    assert_eq!(db.catalog.relation("V").unwrap().len(), NODES);
    // the with+ run's temporaries were durably dropped at run end
    for name in db.catalog.names() {
        assert!(
            !db.catalog.entry(&name).unwrap().temp,
            "temp table {name} survived a completed run"
        );
    }
}

/// The real file system end to end: `Database::open` on a temp directory,
/// tables holding Text, NULL, NaN, −0.0, a primary key and a temp table,
/// a checkpoint, more writes, then a reopen that must return every value
/// bit for bit.
#[test]
fn std_vfs_checkpoint_and_reopen_round_trip_every_value() {
    use all_in_one::storage::{DataType, Schema};
    let nanos = std::time::UNIX_EPOCH.elapsed().unwrap().as_nanos();
    let dir = std::env::temp_dir().join(format!("aio-std-vfs-{}-{nanos}", std::process::id()));
    let path = dir.to_str().expect("utf-8 temp path");
    let schema = Schema::of(&[
        ("id", DataType::Int),
        ("s", DataType::Text),
        ("w", DataType::Float),
    ]);
    let rows = |ids: std::ops::Range<i64>| -> Vec<Row> {
        ids.map(|i| {
            let s = match i % 3 {
                0 => Value::Null,
                _ => Value::Text(format!("node-{i}-ü").into()),
            };
            let w = [-f64::NAN, -0.0, 0.0, f64::NEG_INFINITY, i as f64 / 3.0][i as usize % 5];
            vec![Value::Int(i), s, Value::Float(w)].into_boxed_slice()
        })
        .collect()
    };
    let expected = {
        let (mut db, report) = Database::open(path, oracle_like()).unwrap();
        assert!(report.fresh, "{report}");
        let mut t = Relation::with_pk(schema.clone(), &["id"]).unwrap();
        t.extend(rows(0..40)).unwrap();
        db.create_table("T", t).unwrap();
        let mut scratch = Relation::new(schema.clone());
        scratch.extend(rows(100..110)).unwrap();
        db.catalog.create_temp("scratch", scratch).unwrap();
        assert_eq!(db.checkpoint().unwrap().tables, 2);
        db.catalog
            .insert_rows("T", rows(40..60), WalPolicy::None)
            .unwrap();
        db.catalog
            .insert_rows("scratch", rows(110..115), WalPolicy::None)
            .unwrap();
        db.catalog.fork_readonly()
    };
    let (db, report) = Database::open(path, oracle_like()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(report.corrupt.is_none() && !report.fresh, "{report}");
    assert_eq!((report.snapshot_seq, report.snapshot_tables), (1, 2));
    assert!(db.catalog.same_content(&expected));
    let bits = |v: &Value| match v {
        Value::Float(f) => Some(f.to_bits()),
        _ => None,
    };
    for name in ["t", "scratch"] {
        let (got, want) = (
            db.catalog.relation(name).unwrap(),
            expected.relation(name).unwrap(),
        );
        assert_eq!(got.len(), want.len(), "{name}");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g, w, "{name}");
            assert!(
                g.iter().map(bits).eq(w.iter().map(bits)),
                "{name}: {g:?} != {w:?} bit for bit"
            );
        }
    }
    assert_eq!(db.catalog.relation("t").unwrap().pk(), Some(&[0usize][..]));
    assert!(db.catalog.entry("scratch").unwrap().temp);
}

/// Golden rendering of the `RecoveryReport` for a fixed crash scenario:
/// regenerate with `GOLDEN_WRITE=1 cargo test --test crash_recovery`.
#[test]
fn recovery_report_matches_golden() {
    const GOLDEN_PATH: &str = "tests/golden/recovery_report.txt";
    let (rows, v) = edge_rows();
    let vfs = Arc::new(SimVfs::new());
    {
        let (mut db, _) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None).unwrap();
        db.create_table("V", v).unwrap();
        db.create_table("E", empty_like(&rows)).unwrap();
        db.catalog
            .insert_rows("E", rows[..BATCH].to_vec(), WalPolicy::None)
            .unwrap();
        db.checkpoint().unwrap();
        db.catalog
            .insert_rows("E", rows[BATCH..2 * BATCH].to_vec(), WalPolicy::None)
            .unwrap();
        // a with+ run that committed its init and one iteration, then died
        db.catalog
            .wal_run_begin("P", &pagerank::sql(PR_ITERS), &[("c".into(), 0.85.into())])
            .unwrap();
        db.catalog
            .create_temp(
                "P",
                load::node_relation(&generate(GraphKind::PowerLaw, 4, 4, true, 1)),
            )
            .unwrap();
        db.catalog.wal_commit_iter("P", 1).unwrap();
    }
    let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
    let (_db, report) = Database::open_with_vfs(img, DIR, oracle_like(), None).unwrap();
    let actual = report.to_string();

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::write(&path, &actual).unwrap();
        eprintln!("wrote {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {GOLDEN_PATH} ({e}); run with GOLDEN_WRITE=1")
    });
    assert_eq!(expected, actual, "RecoveryReport rendering changed");
}
