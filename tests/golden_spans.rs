//! Observability goldens and properties.
//!
//! 1. Golden span-tree snapshots: the traced execution shape (EXPLAIN
//!    ANALYZE report without wall-clock + the normalized span tree) of
//!    PageRank and TC on the fixed 10-node DAG of `golden_table2.rs`.
//!    Regenerate after an *intentional* change with:
//!
//!    ```text
//!    GOLDEN_WRITE=1 cargo test --test golden_spans
//!    ```
//! 2. Per-iteration fixpoint telemetry asserted against the known
//!    convergence of PR (union-by-update pins |R| = n) and TC
//!    (union-distinct deltas drain to the fixpoint).
//! 3. A property: traces stay well-formed (every span closed, parents
//!    nest) at parallelism {1, 2, 8}, with identical span shapes — the
//!    engine is deterministic at any parallelism, so only timings and
//!    morsel counts may differ.

use all_in_one::algebra::explain::render_analyzed;
use all_in_one::algebra::{
    execute_traced, oracle_like, AggFunc, BinOp, EngineProfile, ExecMode, Plan, ScalarExpr,
};
use all_in_one::algos::common::{db_for, EdgeStyle};
use all_in_one::algos::{pagerank, tc};
use all_in_one::graph::Graph;
use all_in_one::storage::{edge_schema, row, Catalog, Relation};
use all_in_one::trace::Tracer;
use all_in_one::withplus::Database;
use proptest::prelude::*;

const GOLDEN_PATH: &str = "tests/golden/spans.txt";
const GOLDEN_BATCH_PATH: &str = "tests/golden/spans_batch.txt";

/// The same fixed 10-node DAG as `golden_table2.rs` (kept in sync by this
/// edge list; see that file for why it is written out by hand).
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

fn pagerank_db(g: &Graph, profile: &EngineProfile) -> Database {
    let mut db = db_for(g, profile, EdgeStyle::PageRank).unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", g.node_count() as f64);
    db
}

/// One golden section: the timing-free EXPLAIN ANALYZE report plus the
/// normalized span tree (ids sequential, timestamps zeroed, `*_ns` fields
/// skipped by the renderer) — fully deterministic at parallelism 1.
fn section(name: &str, db: &mut Database, sql: &str) -> String {
    let out = db.explain_analyze_opts(sql, false).unwrap();
    out.trace.validate().unwrap();
    format!(
        "## {name}: report\n{}## {name}: spans\n{}",
        out.report,
        out.trace.normalized().render_tree()
    )
}

fn compute_goldens() -> String {
    let g = golden_graph();
    let mut out = String::from(
        "# Golden span trees: PageRank (5 iterations) and TC on the fixed\n\
         # 10-node DAG (see golden_spans.rs). Timestamps are normalized\n\
         # away. Regenerate with GOLDEN_WRITE=1 after an intentional\n\
         # execution-shape change.\n",
    );
    out.push_str(&section(
        "pagerank",
        &mut pagerank_db(&g, &oracle_like()),
        &pagerank::sql(5),
    ));
    let mut db = db_for(&g, &oracle_like(), EdgeStyle::Raw).unwrap();
    out.push_str(&section("tc", &mut db, &tc::sql(8)));
    out
}

/// [`section`] for a hand-built plan run straight through the evaluator.
fn plan_section(name: &str, plan: &Plan, catalog: &Catalog, profile: &EngineProfile) -> String {
    let tracer = Tracer::new();
    execute_traced(plan, catalog, profile, Some(&tracer)).unwrap();
    let trace = tracer.finish();
    trace.validate().unwrap();
    let spans: Vec<_> = trace.spans.iter().collect();
    format!(
        "## {name}: report\n{}## {name}: spans\n{}",
        render_analyzed(plan, &spans, false),
        trace.normalized().render_tree()
    )
}

/// `Aggregate(Select(Distinct(UnionAll(E, E))))`: a bridging operator
/// (distinct has no column kernel) fed by, and feeding, kernel operators.
fn bridging_plan() -> Plan {
    Plan::Aggregate {
        input: Box::new(Plan::Select {
            input: Box::new(Plan::Distinct(Box::new(Plan::UnionAll {
                left: Box::new(Plan::scan("E")),
                right: Box::new(Plan::scan("E")),
            }))),
            pred: ScalarExpr::binary(BinOp::Gt, ScalarExpr::col("E.ew"), ScalarExpr::lit(1.0)),
        }),
        group_by: vec!["E.F".into()],
        items: vec![
            (ScalarExpr::col("E.F"), "F".into()),
            (
                ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("E.ew"))),
                "s".into(),
            ),
        ],
    }
}

/// The triangle pattern E1(a,b) ⋈ E2(b,c) ⋈ E3(c,a) as a leapfrog join.
fn triangle_plan() -> Plan {
    Plan::MultiwayJoin {
        children: vec![
            Plan::scan_as("E", "E1"),
            Plan::scan_as("E", "E2"),
            Plan::scan_as("E", "E3"),
        ],
        vars: vec![
            vec![Some(0), Some(1), None],
            vec![Some(1), Some(2), None],
            vec![Some(2), Some(0), None],
        ],
        var_names: vec!["a".into(), "b".into(), "c".into()],
        agm_est: 11,
    }
}

/// The [`compute_goldens`] scenarios under [`ExecMode::Batch`], plus two
/// hand-built plans covering the row⇄column bridge in both directions.
fn compute_batch_goldens() -> String {
    let g = golden_graph();
    let batch = oracle_like().with_exec(ExecMode::Batch);
    let mut out = String::from(
        "# Golden span trees under ExecMode::Batch: the spans.txt scenarios\n\
         # plus a bridging plan and a multiway join (see golden_spans.rs).\n\
         # Regenerate with GOLDEN_WRITE=1 after an intentional change.\n",
    );
    out.push_str(&section(
        "pagerank",
        &mut pagerank_db(&g, &batch),
        &pagerank::sql(5),
    ));
    let mut db = db_for(&g, &batch, EdgeStyle::Raw).unwrap();
    out.push_str(&section("tc", &mut db, &tc::sql(8)));
    let mut c = Catalog::new();
    let mut e = Relation::new(edge_schema());
    e.extend([
        row![1, 2, 1.0],
        row![2, 3, 2.0],
        row![3, 1, 3.0],
        row![1, 3, 4.0],
        row![1, 2, 2.0],
    ])
    .unwrap();
    c.create_table("E", e).unwrap();
    out.push_str(&plan_section("bridging", &bridging_plan(), &c, &batch));
    out.push_str(&plan_section("triangle", &triangle_plan(), &c, &batch));
    out
}

fn assert_matches_golden(actual: &str, golden_path: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(golden_path);
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("wrote {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {golden_path} ({e}); run with GOLDEN_WRITE=1")
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
            "span-tree golden mismatch ({} vs {} lines):\n{}",
            expected.lines().count(),
            actual.lines().count(),
            mismatches.join("\n")
        );
    }
}

#[test]
fn span_trees_match_committed_goldens() {
    assert_matches_golden(&compute_goldens(), GOLDEN_PATH);
}

#[test]
fn batch_span_trees_match_committed_goldens() {
    assert_matches_golden(&compute_batch_goldens(), GOLDEN_BATCH_PATH);
}

#[test]
fn golden_runs_are_deterministic_modulo_timestamps() {
    // Two fresh executions must render identically once normalized.
    assert_eq!(compute_goldens(), compute_goldens());
    assert_eq!(compute_batch_goldens(), compute_batch_goldens());
}

#[test]
fn tc_iteration_deltas_drain_to_the_fixpoint() {
    let g = golden_graph();
    let mut db = db_for(&g, &oracle_like(), EdgeStyle::Raw).unwrap();
    let out = db.execute(&tc::sql(20)).unwrap();
    let deltas: Vec<usize> = out
        .stats
        .iterations
        .iter()
        .map(|it| it.delta_rows)
        .collect();
    // Known convergence on the 10-node DAG: the seminaive working delta
    // (new length-(k+1) paths, counted per middle vertex before the union's
    // dedup) shrinks every round and the loop stops when it drains.
    assert_eq!(deltas, vec![18, 7, 1]);
    // 25 reachable pairs on this DAG (hand-counted from the edge list).
    assert_eq!(out.relation.len(), 25);
    assert!(deltas.windows(2).all(|w| w[1] < w[0]));
    // §7.2: linear TC costs exactly one join per iteration.
    for it in &out.stats.iterations {
        assert_eq!(it.exec.joins, 1, "TC is one join per iteration");
    }
}

#[test]
fn pr_iteration_telemetry_matches_union_by_update_semantics() {
    let g = golden_graph();
    let mut db = pagerank_db(&g, &oracle_like());
    let out = db.execute(&pagerank::sql(5)).unwrap();
    assert_eq!(out.stats.iterations.len(), 5);
    // 8 of the 10 nodes have in-edges; the MV-join delta is exactly those
    // every iteration, while union-by-update pins |R| at n (Fig. 12(b)).
    for it in &out.stats.iterations {
        assert_eq!(it.delta_rows, 8);
        assert_eq!(it.r_rows, 10);
        assert_eq!(it.exec.joins, 1);
        assert_eq!(it.exec.aggregations, 1);
        assert_eq!(it.exec.union_by_updates, 1);
    }
}

/// Span shape = what must be identical across parallelism settings.
fn shape(db: &mut Database, sql: &str, par: usize) -> Vec<(String, u32)> {
    let out = db
        .explain_analyze_opts(sql, false)
        .unwrap_or_else(|e| panic!("par {par}: {e}"));
    out.trace
        .validate()
        .unwrap_or_else(|e| panic!("par {par}: ill-formed trace: {e}"));
    out.trace
        .spans
        .iter()
        .map(|s| (s.name.to_string(), s.depth))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Traces close and nest well-formed at parallelism 1, 2 and 8, and
    /// the span shapes agree (morsel workers never record spans, so the
    /// tree is a property of the plan, not of the thread count).
    #[test]
    fn traces_are_wellformed_at_any_parallelism(
        raw in proptest::collection::vec((0u32..12, 0u32..12, 0.1f64..2.0), 6..40),
    ) {
        let edges: Vec<(u32, u32, f64)> = raw;
        let g = Graph::from_edges(12, &edges, true);
        let mut shapes: Vec<Vec<(String, u32)>> = Vec::new();
        for par in [1usize, 2, 8] {
            let profile = oracle_like().with_parallelism(par);
            let mut db = db_for(&g, &profile, EdgeStyle::Raw).unwrap();
            let mut s = shape(&mut db, &tc::sql(6), par);
            let mut pr_db = db_for(&g, &profile, EdgeStyle::PageRank).unwrap();
            pr_db.set_param("c", 0.85);
            pr_db.set_param("n", g.node_count() as f64);
            s.extend(shape(&mut pr_db, &pagerank::sql(3), par));
            shapes.push(s);
        }
        prop_assert_eq!(&shapes[0], &shapes[1]);
        prop_assert_eq!(&shapes[0], &shapes[2]);
    }
}
