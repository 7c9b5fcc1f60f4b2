//! The incremental-vs-recompute differential suite (aio-testkit driver).
//!
//! Tier-1 (`cargo test`) runs the smoke slice: every IVM algorithm and
//! mutation-script family at serial row execution, the batch-metamorphic
//! relations on one case per algorithm, and the planted-fault
//! detection + shrink demonstration. `./ci.sh full` additionally runs the
//! `#[ignore]`d exhaustive matrix — 4 algorithms × 4 graph families ×
//! 3 mutation scripts × parallelism {1, 8} × exec {row, batch}, the view
//! re-checked against a cold recompute after every batch — asserting zero
//! divergences and that every refresh strategy (resume, frontier,
//! re-converge, full) actually ran.

use aio_testkit::corpus::rebuild;
use aio_testkit::ivm::{
    apply_batch, build_ivm_db, check_batch_metamorphic, check_net_zero_batch, e_delta, e_rows,
    ivm_case_fails, ivm_corpus, ivm_replay, parse_script, render_script, run_ivm_matrix,
    scripts_for, shrink_ivm_case, view_sql, IvmMatrixConfig, IvmMatrixReport, IVM_ALGOS,
    IVM_EPSILON,
};
use aio_testkit::Replay;
use all_in_one::algebra::{fault_hits, oracle_like};
use all_in_one::graph::{generate, GraphKind};

/// The seed fault flag is process-global; tests that arm it must not
/// interleave with tests exercising the clipped resume/frontier paths.
static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn fault_guard() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn assert_clean(report: &IvmMatrixReport) {
    assert!(
        report.divergences.is_empty(),
        "incremental maintenance diverged from recompute:\n{}",
        report
            .divergences
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Tier-1 smoke: all algorithms and script families, serial row exec.
#[test]
fn ivm_differential_smoke() {
    let _g = fault_guard();
    let report = run_ivm_matrix(&IvmMatrixConfig::smoke());
    assert_clean(&report);
    assert_eq!(report.algorithms.len(), 4, "{}", report.summary());
    assert_eq!(report.graph_families.len(), 4, "{}", report.summary());
    assert_eq!(report.scripts.len(), 3, "{}", report.summary());
    assert!(report.batches >= 100, "{}", report.summary());
}

/// The acceptance matrix: ≥ 3 algorithms × ≥ 4 graph families × ≥ 3
/// mutation scripts × parallelism {1, 8} × exec {row, batch}, zero
/// divergences, with every refresh strategy exercised.
#[test]
#[ignore = "full incremental-vs-recompute matrix: run via ./ci.sh full"]
fn ivm_differential_full_matrix() {
    let _g = fault_guard();
    let report = run_ivm_matrix(&IvmMatrixConfig::default());
    assert_clean(&report);
    assert!(report.algorithms.len() >= 3, "{}", report.summary());
    assert!(report.graph_families.len() >= 4, "{}", report.summary());
    assert!(report.scripts.len() >= 3, "{}", report.summary());
    // 4 algos × 4 families × 3 scripts × 2 parallelism × 2 exec modes
    assert_eq!(report.cells, 192, "{}", report.summary());
    for mode in ["resume", "frontier", "reconverge", "full"] {
        assert!(
            report.refresh_modes.get(mode).copied().unwrap_or(0) > 0,
            "refresh strategy {mode} never ran: {}",
            report.summary()
        );
    }
}

/// Batch metamorphic relations: per-batch application, one coalesced net
/// batch, and shuffled edit order must all land on the same view state;
/// a batch that inserts and deletes the same rows is a complete no-op.
#[test]
fn ivm_metamorphic_batches() {
    let _g = fault_guard();
    let profile = oracle_like();
    for (i, &algo) in IVM_ALGOS.iter().enumerate() {
        let g = generate(GraphKind::Uniform, 14, 32, true, 40 + i as u64);
        let script = scripts_for(&g, 41)
            .into_iter()
            .find(|s| s.name == "churn")
            .expect("churn script");
        check_batch_metamorphic(algo, &g, &script, &profile)
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
        check_net_zero_batch(algo, &g, &profile).unwrap_or_else(|e| panic!("{algo}: {e}"));
    }
}

/// The planted off-by-one in the incremental seed must be (a) caught by
/// the matrix, (b) shrunk to a witness of ≤ 8 nodes and ≤ 3 batches, and
/// (c) replayable: the witness still fails under the fault and passes on
/// the healthy engine.
#[test]
fn ivm_fault_injection_is_caught_and_shrunk() {
    let _g = fault_guard();
    let profile = oracle_like();
    let g = generate(GraphKind::CitationDag, 14, 30, true, 47);
    let script = scripts_for(&g, 47).remove(0); // grow: insert-only → resume
    assert!(
        !ivm_case_fails("tc", &g, &script, &profile),
        "healthy engine must pass the seed case"
    );

    all_in_one::algebra::fault::inject_ivm_seed_off_by_one(true);
    let hits_before = fault_hits();
    let caught = ivm_case_fails("tc", &g, &script, &profile);
    if !caught {
        all_in_one::algebra::fault::inject_ivm_seed_off_by_one(false);
        panic!("planted ivm seed fault was not detected by the matrix");
    }
    assert!(fault_hits() > hits_before, "fault must actually have fired");

    let (case, min_script) = shrink_ivm_case("tc", &g, &script, &profile);
    let still_fails = ivm_case_fails("tc", &case.to_graph(), &min_script, &profile);
    all_in_one::algebra::fault::inject_ivm_seed_off_by_one(false);

    assert!(
        still_fails,
        "shrunk witness must still fail under the fault"
    );
    assert!(case.n <= 8, "witness too large: {} nodes", case.n);
    assert!(
        min_script.batches.len() <= 3,
        "witness too long: {} batches",
        min_script.batches.len()
    );
    assert!(
        !ivm_case_fails("tc", &case.to_graph(), &min_script, &profile),
        "witness must pass once the fault is disarmed"
    );

    // the witness round-trips through the standard replay format with the
    // mutation script embedded in the detail line
    let rep = ivm_replay("tc", "planted seed off-by-one", &case, &min_script);
    let parsed = Replay::parse(&rep.render()).expect("replay must parse");
    assert_eq!(parsed.case, case);
    let script_text = parsed
        .detail
        .split("// script ")
        .nth(1)
        .expect("script in detail");
    assert_eq!(
        parse_script(script_text).expect("script must parse"),
        min_script
    );
}

/// Golden result-delta streams: TC, WCC, and PageRank views over a fixed
/// 10-node citation DAG driven by its 3-batch churn script, every
/// subscriber delta rendered (mode, generation, added/removed/changed
/// rows). Regenerate with `GOLDEN_WRITE=1 cargo test --test
/// ivm_differential golden`.
#[test]
fn ivm_result_delta_stream_matches_golden() {
    let _g = fault_guard();
    const GOLDEN_PATH: &str = "tests/golden/ivm.txt";
    let profile = oracle_like();
    let g = generate(GraphKind::CitationDag, 10, 18, true, 5);
    // grow pins the incremental fast paths (resume/frontier), churn the
    // deletion fallback and re-convergence
    let scripts: Vec<_> = scripts_for(&g, 5)
        .into_iter()
        .filter(|s| s.name == "grow" || s.name == "churn")
        .collect();
    assert_eq!(scripts.len(), 2);

    let val = |v: &all_in_one::storage::Value| match v.as_int() {
        Some(i) => i.to_string(),
        None => format!("{:.6}", v.as_f64().expect("int or float value")),
    };
    let row = |r: &all_in_one::storage::Row| {
        format!("({})", r.iter().map(&val).collect::<Vec<_>>().join(", "))
    };

    let mut out = String::from("# result-delta streams over a 10-node citation DAG\n");
    for script in &scripts {
        out.push_str(&format!("# script {}\n", render_script(script)));
    }
    for (algo, script) in ["tc", "wcc", "pr"]
        .into_iter()
        .flat_map(|a| scripts.iter().map(move |s| (a, s)))
    {
        let view = format!("ivm_{algo}");
        let mut db = build_ivm_db(&g, algo, &profile).unwrap_or_else(|e| panic!("{e}"));
        db.create_view_with(&view, view_sql(algo), IVM_EPSILON)
            .unwrap();
        let rx = db.subscribe(&view).unwrap();
        out.push_str(&format!("\n== {algo} / {} ==\n", script.name));
        let mut edges: Vec<(u32, u32, f64)> = g.edges().collect();
        let mut cur = g.clone();
        for (i, batch) in script.batches.iter().enumerate() {
            apply_batch(&mut edges, batch).expect("script applies");
            let next = rebuild(g.node_count(), &edges, &g);
            let delta = e_delta(&e_rows(&cur, algo), &e_rows(&next, algo));
            db.apply_edges(vec![delta]).unwrap();
            cur = next;
            let mode = db
                .view_report(&view)
                .map(|r| r.mode.label().to_string())
                .unwrap_or_else(|| "?".into());
            let rd = rx.try_recv().expect("one delta per refreshing batch");
            out.push_str(&format!(
                "batch {}: mode={mode} generation={} +{} -{} ~{}\n",
                i + 1,
                rd.generation,
                rd.added.len(),
                rd.removed.len(),
                rd.changed.len()
            ));
            for r in &rd.added {
                out.push_str(&format!("  + {}\n", row(r)));
            }
            for r in &rd.removed {
                out.push_str(&format!("  - {}\n", row(r)));
            }
            for (old, new) in &rd.changed {
                out.push_str(&format!("  ~ {} -> {}\n", row(old), row(new)));
            }
        }
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::write(&path, &out).unwrap();
        eprintln!("wrote {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {GOLDEN_PATH} ({e}); run with GOLDEN_WRITE=1")
    });
    assert_eq!(expected, out, "result-delta stream changed");
}

/// Iteration counts of the golden scenarios, pinned as literals: the cold
/// statement (`RunStats.iterations.len()`) on the initial graph, then per
/// batch the refresh's `mode:iterations` and the statement's count on the
/// mutated base. A change to any fixpoint loop must not shift these.
#[test]
fn ivm_iteration_counts_are_pinned() {
    let _g = fault_guard();
    const PINNED: &[&str] = &[
        "tc/grow: cold=3 | resume:2 cold=3 | resume:0 cold=3 | resume:4 cold=5",
        "tc/churn: cold=3 | full:3 cold=3 | full:4 cold=4 | full:4 cold=4",
        "sssp/grow: cold=1 | frontier:0 cold=1 | frontier:0 cold=1 | frontier:0 cold=1",
        "sssp/churn: cold=1 | full:1 cold=1 | full:1 cold=1 | full:1 cold=1",
        "wcc/grow: cold=4 | frontier:0 cold=4 | frontier:0 cold=4 | frontier:0 cold=4",
        "wcc/churn: cold=4 | full:3 cold=3 | full:4 cold=4 | full:4 cold=4",
        "pr/grow: cold=6 | reconverge:5 cold=7 | reconverge:5 cold=7 | reconverge:39 cold=86",
        "pr/churn: cold=6 | reconverge:4 cold=5 | reconverge:36 cold=76 | reconverge:34 cold=72",
    ];
    let profile = oracle_like();
    let g = generate(GraphKind::CitationDag, 10, 18, true, 5);
    let scripts: Vec<_> = scripts_for(&g, 5)
        .into_iter()
        .filter(|s| s.name == "grow" || s.name == "churn")
        .collect();
    let mut got = Vec::new();
    for (algo, script) in ["tc", "sssp", "wcc", "pr"]
        .into_iter()
        .flat_map(|a| scripts.iter().map(move |s| (a, s)))
    {
        let view = format!("ivm_{algo}");
        let mut db = build_ivm_db(&g, algo, &profile).unwrap_or_else(|e| panic!("{e}"));
        let cold = |db: &mut all_in_one::withplus::Database| {
            db.execute(view_sql(algo)).unwrap().stats.iterations.len()
        };
        let mut line = format!("{algo}/{}: cold={}", script.name, cold(&mut db));
        db.create_view_with(&view, view_sql(algo), IVM_EPSILON)
            .unwrap();
        let mut edges: Vec<(u32, u32, f64)> = g.edges().collect();
        let mut cur = g.clone();
        for batch in &script.batches {
            apply_batch(&mut edges, batch).expect("script applies");
            let next = rebuild(g.node_count(), &edges, &g);
            db.apply_edges(vec![e_delta(&e_rows(&cur, algo), &e_rows(&next, algo))])
                .unwrap();
            cur = next;
            let r = db.view_report(&view).expect("batch refreshes the view");
            let refresh = format!("{}:{}", r.mode.label(), r.iterations);
            line.push_str(&format!(" | {refresh} cold={}", cold(&mut db)));
        }
        got.push(line);
    }
    assert_eq!(got, PINNED, "a fixpoint iteration count moved");
}

/// The golden DAG never feeds the frontier path a productive seed (every
/// `frontier:` above is 0), so pin one that does: SSSP from node 0 over a
/// chain with 0-weight self-loops, a shortcut batch, then a batch reaching
/// a disconnected node.
#[test]
fn ivm_frontier_iteration_counts_are_pinned() {
    use all_in_one::storage::{edge_schema, node_schema, row, Relation};
    use all_in_one::withplus::{Database, EdgeDelta};
    let _g = fault_guard();
    let mut e = Relation::new(edge_schema());
    for v in 0..6i64 {
        e.push(row![v, v, 0.0]).unwrap();
    }
    for (f, t, w) in [(0i64, 1i64, 4.0), (1, 2, 3.0), (2, 3, 2.0), (0, 4, 10.0)] {
        e.push(row![f, t, w]).unwrap();
    }
    let mut v = Relation::new(node_schema());
    for id in 0..6i64 {
        v.push(row![id, if id == 0 { 0.0 } else { 1e18 }]).unwrap();
    }
    let mut db = Database::new(oracle_like());
    db.create_table("E", e).unwrap();
    db.create_table("V", v).unwrap();
    let cold = |db: &mut Database| db.execute(view_sql("sssp")).unwrap().stats.iterations.len();
    let mut got = format!("cold={}", cold(&mut db));
    db.create_view("sssp_v", view_sql("sssp")).unwrap();
    for batch in [
        vec![row![0i64, 2i64, 1.0]],
        vec![row![3i64, 5i64, 1.0], row![4i64, 3i64, 1.0]],
    ] {
        db.apply_edges(vec![EdgeDelta::insert("E", batch)]).unwrap();
        let r = db.view_report("sssp_v").unwrap();
        let refresh = format!("{}:{}", r.mode.label(), r.iterations);
        got.push_str(&format!(" | {refresh} cold={}", cold(&mut db)));
    }
    assert_eq!(
        got, "cold=4 | frontier:2 cold=3 | frontier:1 cold=4",
        "a fixpoint iteration count moved"
    );
}

/// Untouched corpora stay untouched: registering views and applying an
/// empty batch refreshes nothing and emits nothing.
#[test]
fn ivm_empty_batch_is_inert() {
    let _g = fault_guard();
    let profile = oracle_like();
    for (name, g) in ivm_corpus(7) {
        let mut db =
            aio_testkit::ivm::build_ivm_db(&g, "wcc", &profile).unwrap_or_else(|e| panic!("{e}"));
        db.create_view("w", aio_testkit::ivm::view_sql("wcc"))
            .unwrap();
        let before = db.view_relation("w").unwrap().clone();
        let out = db.apply_edges(Vec::new()).unwrap();
        assert!(out.is_empty(), "{name}: empty batch must refresh nothing");
        assert!(
            db.view_relation("w").unwrap().same_rows_unordered(&before),
            "{name}"
        );
    }
}
