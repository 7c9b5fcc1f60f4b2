//! Golden EXPLAIN ANALYZE plans for the optimizer (ISSUE 4 satellite).
//!
//! Pins the timing-free EXPLAIN ANALYZE report — operator tree, join
//! orders, and estimated vs. actual row annotations — for PageRank, TC,
//! SSSP and WCC on the fixed 10-node DAG of `golden_table2.rs`, at
//! `optimizer=Off` (the paper-faithful fixed plans) and `optimizer=Cost`
//! (stats-driven join ordering + pruning). Any unintentional plan or
//! estimator drift fails the diff. Regenerate after an *intentional*
//! change with:
//!
//! ```text
//! GOLDEN_WRITE=1 cargo test --test golden_plans
//! ```

use aio_testkit::Pattern;
use all_in_one::algebra::{oracle_like, ExecMode, Optimizer};
use all_in_one::algos::common::{db_for, EdgeStyle};
use all_in_one::algos::{pagerank, sssp, tc, wcc};
use all_in_one::graph::Graph;
use all_in_one::prelude::*;

const GOLDEN_PATH: &str = "tests/golden/plans.txt";

/// The same fixed 10-node DAG as `golden_table2.rs` / `golden_spans.rs`.
fn golden_graph() -> Graph {
    let edges: &[(u32, u32, f64)] = &[
        (0, 1, 1.0),
        (0, 2, 2.0),
        (1, 2, 1.0),
        (1, 3, 2.0),
        (1, 6, 1.0),
        (2, 3, 1.0),
        (2, 4, 3.0),
        (2, 7, 4.0),
        (3, 4, 1.0),
        (3, 5, 2.0),
        (4, 5, 1.0),
        (5, 7, 1.0),
        (6, 7, 2.0),
        (8, 9, 1.0),
    ];
    let mut g = Graph::from_edges(10, edges, true);
    g.node_weights = vec![5.0, 3.0, 8.0, 2.0, 7.0, 1.0, 4.0, 6.0, 9.0, 2.0];
    g.labels = vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0];
    assert!(g.is_dag(), "golden graph must stay acyclic for tc");
    g
}

fn pagerank_db(g: &Graph) -> Database {
    let mut db = db_for(g, &oracle_like(), EdgeStyle::PageRank).unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", g.node_count() as f64);
    db
}

fn sssp_db(g: &Graph) -> Database {
    let mut db = db_for(g, &oracle_like(), EdgeStyle::WithLoops(0.0)).unwrap();
    for row in db.catalog.relation_mut("V").unwrap().iter_mut() {
        let id = row[0].as_int().unwrap();
        row[1] = if id == 0 { 0.0 } else { f64::INFINITY }.into();
    }
    db
}

fn wcc_db(g: &Graph) -> Database {
    let mut db = db_for(g, &oracle_like(), EdgeStyle::WithLoops(1.0)).unwrap();
    let mut extra = Vec::new();
    for (u, v, w) in g.edges() {
        extra.push(row![v as i64, u as i64, w]);
    }
    db.catalog.relation_mut("E").unwrap().extend(extra).unwrap();
    db
}

/// One golden section: the timing-free EXPLAIN ANALYZE report (operator
/// tree with calls / actual rows / estimated rows) under optimizer=Off and
/// optimizer=Cost, row mode. Fully deterministic at parallelism 1. With
/// `batch`, also a `Cost` + `Batch` block on a warm database (the
/// statement ran twice before), which pins how the batch hash join ran:
/// `driven=…, index=…` when the small side drove it through a base
/// table's cached trie, nothing when it hashed.
fn section(name: &str, mut mk: impl FnMut() -> Database, sql: &str, batch: bool) -> String {
    let mut runs = vec![
        (Optimizer::Off, ExecMode::Row),
        (Optimizer::Cost, ExecMode::Row),
    ];
    if batch {
        runs.push((Optimizer::Cost, ExecMode::Batch));
    }
    let mut out = String::new();
    for (level, exec) in runs {
        let mut db = mk();
        db.set_optimizer(level);
        db.set_exec_mode(exec);
        let label = match exec {
            ExecMode::Row => "",
            ExecMode::Batch => {
                for _ in 0..2 {
                    db.execute(sql).unwrap();
                }
                ", exec=batch, warm"
            }
        };
        let rep = db.explain_analyze_opts(sql, false).unwrap();
        rep.trace.validate().unwrap();
        out.push_str(&format!(
            "## {name} (optimizer={}{label}): plan\n{}",
            level.label(),
            rep.report
        ));
    }
    out
}

fn compute_goldens() -> String {
    let g = golden_graph();
    let mut out = String::from(
        "# Golden EXPLAIN ANALYZE plans: PageRank, TC, SSSP and WCC on the\n\
         # fixed 10-node DAG (see golden_plans.rs), at optimizer=Off and\n\
         # optimizer=Cost. Pins join orders and est/actual row annotations;\n\
         # regenerate with GOLDEN_WRITE=1 after an intentional change.\n\
         # PageRank and SSSP also run at optimizer=Cost with batch execution\n\
         # after two warm-up runs, which pins how their join used E's trie.\n",
    );
    out.push_str(&section(
        "pagerank",
        || pagerank_db(&g),
        &pagerank::sql(5),
        true,
    ));
    out.push_str(&section(
        "tc",
        || db_for(&g, &oracle_like(), EdgeStyle::Raw).unwrap(),
        &tc::sql(8),
        false,
    ));
    out.push_str(&section("sssp", || sssp_db(&g), sssp::SQL, true));
    out.push_str(&section("wcc", || wcc_db(&g), wcc::SQL, false));
    // WCOJ decision goldens (ISSUE 7): the cyclic patterns must switch to
    // MultiwayJoin at Cost while the selective acyclic path keeps its
    // binary join tree.
    let raw = || db_for(&g, &oracle_like(), EdgeStyle::Raw).unwrap();
    out.push_str(&section(
        "wcoj-triangle",
        raw,
        &Pattern::triangle().sql(),
        false,
    ));
    out.push_str(&section(
        "wcoj-4clique",
        raw,
        &Pattern::clique(4).sql(),
        false,
    ));
    out.push_str(&section("acyclic-path", raw, ACYCLIC_PATH_SQL, false));
    out
}

/// A selective acyclic 3-leaf chain: cyclicity never holds, so the cost
/// pass must keep the binary join order no matter the estimates.
const ACYCLIC_PATH_SQL: &str = "select e0.F as a, e2.T as d from E e0, E e1, E e2 \
     where e0.T = e1.F and e1.T = e2.F";

#[test]
fn explain_plans_match_committed_goldens() {
    let actual = compute_goldens();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("wrote {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {GOLDEN_PATH} ({e}); run with GOLDEN_WRITE=1")
    });
    if expected != actual {
        let mismatches: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .filter(|(_, (e, a))| e != a)
            .take(12)
            .map(|(i, (e, a))| format!("line {}: expected `{e}`, got `{a}`", i + 1))
            .collect();
        panic!(
            "plan golden mismatch ({} vs {} lines):\n{}",
            expected.lines().count(),
            actual.lines().count(),
            mismatches.join("\n")
        );
    }
}

#[test]
fn plan_goldens_are_deterministic() {
    assert_eq!(compute_goldens(), compute_goldens());
}

/// The WCOJ decision rule, pinned independently of the golden text: Cost
/// rewrites the cyclic patterns into a `MultiwayJoin` (with its `vars=` /
/// `agm_est=` annotations) but never touches the acyclic chain, and
/// `Off` never emits the operator at all.
#[test]
fn cost_chooses_wcoj_for_cyclic_patterns_only() {
    let g = golden_graph();
    let explain = |sql: &str, level: Optimizer| {
        let mut db = db_for(&g, &oracle_like(), EdgeStyle::Raw).unwrap();
        db.set_optimizer(level);
        db.explain_analyze_opts(sql, false).unwrap().report
    };
    for pat in [Pattern::triangle(), Pattern::clique(4)] {
        let cost = explain(&pat.sql(), Optimizer::Cost);
        assert!(cost.contains("MultiwayJoin"), "{}: {cost}", pat.name);
        assert!(cost.contains("agm_est="), "{}: {cost}", pat.name);
        assert!(cost.contains("vars="), "{}: {cost}", pat.name);
        let off = explain(&pat.sql(), Optimizer::Off);
        assert!(!off.contains("MultiwayJoin"), "{}: {off}", pat.name);
    }
    let acyclic = explain(ACYCLIC_PATH_SQL, Optimizer::Cost);
    assert!(!acyclic.contains("MultiwayJoin"), "{acyclic}");
}

/// The cost-annotated report must actually carry est/actual pairs: every
/// operator line shows `rows=` and the estimator stamps `est=` alongside.
#[test]
fn reports_annotate_estimated_and_actual_rows() {
    let g = golden_graph();
    let mut db = db_for(&g, &oracle_like(), EdgeStyle::Raw).unwrap();
    db.set_optimizer(Optimizer::Cost);
    let rep = db.explain_analyze_opts(&tc::sql(8), false).unwrap();
    assert!(rep.report.contains("rows="), "{}", rep.report);
    assert!(rep.report.contains("est="), "{}", rep.report);
}

/// The resource-accounting footer (ISSUE 8): every report — with+ and
/// one-shot SELECT alike — ends with deterministic cache-hit-rate and
/// peak-memory lines, which the goldens above therefore also pin.
#[test]
fn reports_carry_resource_footer() {
    let g = golden_graph();
    let mut db = db_for(&g, &oracle_like(), EdgeStyle::Raw).unwrap();
    db.set_optimizer(Optimizer::Cost);
    let rec = db.explain_analyze_opts(&tc::sql(8), false).unwrap().report;
    assert!(rec.contains("cache: trie "), "{rec}");
    assert!(rec.contains(" hits, stats "), "{rec}");
    assert!(rec.contains("peak mem: "), "{rec}");
    let sel = db
        .explain_analyze_opts(ACYCLIC_PATH_SQL, false)
        .unwrap()
        .report;
    assert!(sel.contains("cache: trie "), "{sel}");
    assert!(sel.contains("peak mem: "), "{sel}");
}
