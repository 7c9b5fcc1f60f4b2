//! Golden-result tests: all 19 Table 2 algorithms on one fixed handcrafted
//! graph, with the expected outputs committed under `tests/golden/`.
//!
//! The graph is written out edge-by-edge (never generated) so the goldens
//! survive any change to the synthetic generators. Regenerate after an
//! *intentional* semantic change with:
//!
//! ```text
//! GOLDEN_WRITE=1 cargo test --test golden_table2
//! ```
//! and review the diff like any other code change.

use aio_testkit::{run_algo, AlgoResult, ExecKind, Executor, Params};
use all_in_one::algebra::oracle_like;
use all_in_one::algos::TABLE2;
use all_in_one::graph::Graph;

const GOLDEN_PATH: &str = "tests/golden/table2.txt";

/// A 10-node DAG with two components, four triangles, varied edge weights,
/// node weights for MNM, and labels 0/1/2 for KS and LP.
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
    assert!(g.is_dag(), "golden graph must stay acyclic for tc/ts");
    g
}

/// Canonical text rendering: sorted entries, floats at 9 significant
/// digits (stable under cross-profile reassociation noise, strict enough
/// to catch real changes).
fn render(r: &AlgoResult) -> String {
    fn f(x: f64) -> String {
        if x.is_infinite() {
            "inf".into()
        } else {
            format!("{x:.9}")
        }
    }
    let mut lines: Vec<String> = match r {
        AlgoResult::NodeF64(m) => m.iter().map(|(k, v)| format!("{k} {}", f(*v))).collect(),
        AlgoResult::NodeI64(m) => m.iter().map(|(k, v)| format!("{k} {v}")).collect(),
        AlgoResult::NodeSet(s) => s.iter().map(|k| k.to_string()).collect(),
        AlgoResult::PairSet(s) => s.iter().map(|(a, b)| format!("{a} {b}")).collect(),
        AlgoResult::PairScores(m) | AlgoResult::PairDist(m) => m
            .iter()
            .map(|((a, b), v)| format!("{a} {b} {}", f(*v)))
            .collect(),
        AlgoResult::HubAuth(m) => m
            .iter()
            .map(|(k, (h, a))| format!("{k} {} {}", f(*h), f(*a)))
            .collect(),
        AlgoResult::Matching(s) => s.iter().map(|(a, b)| format!("{a} {b}")).collect(),
        AlgoResult::Scalar(x) => vec![x.to_string()],
    };
    lines.sort();
    lines.join("\n")
}

fn compute_goldens() -> String {
    let g = golden_graph();
    let exec = Executor {
        name: "with+/oracle_like p1".into(),
        family: "with+/oracle_like".into(),
        kind: ExecKind::WithPlus(oracle_like()),
    };
    let p = Params::default();
    let mut out = String::from(
        "# Golden outputs: every Table 2 algorithm on the fixed 10-node DAG\n\
         # (see golden_table2.rs). Regenerate with GOLDEN_WRITE=1 after an\n\
         # intentional semantic change.\n",
    );
    for spec in &TABLE2 {
        let r = run_algo(spec.key, &g, &exec, &p).unwrap_or_else(|e| panic!("{}: {e}", spec.key));
        out.push_str(&format!("## {}\n{}\n", spec.key, render(&r)));
    }
    out
}

#[test]
fn all_nineteen_algorithms_match_committed_goldens() {
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
        // line-level diff keeps the failure message readable
        let mismatches: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .filter(|(_, (e, a))| e != a)
            .take(12)
            .map(|(i, (e, a))| format!("line {}: expected `{e}`, got `{a}`", i + 1))
            .collect();
        panic!(
            "golden mismatch ({} vs {} lines):\n{}",
            expected.lines().count(),
            actual.lines().count(),
            mismatches.join("\n")
        );
    }
}

#[test]
fn goldens_cover_the_whole_registry() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    let text = std::fs::read_to_string(path).expect("golden file committed");
    for spec in &TABLE2 {
        assert!(
            text.contains(&format!("## {}\n", spec.key)),
            "golden file lacks a section for {}",
            spec.key
        );
    }
    assert_eq!(
        text.matches("## ").count(),
        TABLE2.len(),
        "golden file has stray sections"
    );
}
