//! The differential & metamorphic correctness suite (aio-testkit driver).
//!
//! Tier-1 (`cargo test`) runs the smoke subset; `./ci.sh full` additionally
//! runs the `#[ignore]`d full matrix: every implemented Table 2 algorithm ×
//! every applicable executor × parallelism {1, 2, 8} over the seeded corpus
//! families, asserting zero divergences, plus the metamorphic sweep and the
//! fault-injection demonstration (an intentionally armed off-by-one in
//! union-by-update must be caught and shrunk to a tiny counterexample).

use aio_testkit::{
    check_metamorphic, corpus_graphs, run_matrix, shrink, CaseGraph, MatrixConfig, MetaRelation,
    Params, Replay, META_ALGOS,
};
use all_in_one::algebra::{fault_hits, inject_ubu_off_by_one, oracle_like};
use all_in_one::algos::wcc;
use all_in_one::graph::Graph;

fn assert_clean(report: &aio_testkit::MatrixReport) {
    assert!(
        report.divergences.is_empty(),
        "unexplained divergences:\n{}",
        report
            .divergences
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Tier-1 smoke: the natively-covered algorithms on two corpus families.
#[test]
fn differential_smoke() {
    let corpus: Vec<_> = corpus_graphs()
        .into_iter()
        .filter(|g| g.name == "erdos-renyi" || g.name == "citation-dag")
        .collect();
    assert_eq!(corpus.len(), 2);
    let report = run_matrix(&corpus, &MatrixConfig::smoke());
    assert_clean(&report);
    assert!(report.runs > 20, "{}", report.summary());
}

/// The full matrix of the issue's acceptance criteria: ≥ 10 algorithms ×
/// ≥ 3 engine families × parallelism {1, 2, 8} over ≥ 5 corpus families,
/// zero unexplained divergences. Heavyweight — `./ci.sh full` territory.
#[test]
#[ignore = "full differential matrix: run via ./ci.sh full"]
fn differential_full_matrix() {
    let corpus = corpus_graphs();
    assert!(corpus.len() >= 5);
    let report = run_matrix(&corpus, &MatrixConfig::default());
    assert_clean(&report);
    assert!(
        report.algorithms.len() >= 10,
        "only {} algorithms ran: {:?}",
        report.algorithms.len(),
        report.algorithms
    );
    assert!(
        report.engine_families.len() >= 3,
        "only engine families {:?}",
        report.engine_families
    );
    assert!(report.graph_families.len() >= 5, "{}", report.summary());
    println!("full matrix: {}", report.summary());
}

/// Tier-1 optimizer-equivalence smoke: the natively-covered algorithms
/// with the with+ PSM swept over optimizer ∈ {Off, Rules, Cost} ×
/// parallelism {1, 8}, every result row-identical (or tolerance-identical)
/// to the Off baseline and the textbook oracle.
#[test]
fn optimizer_equivalence_smoke() {
    let corpus: Vec<_> = corpus_graphs()
        .into_iter()
        .filter(|g| g.name == "erdos-renyi" || g.name == "citation-dag")
        .collect();
    let report = run_matrix(&corpus, &MatrixConfig::optimizer_smoke());
    assert_clean(&report);
    // the sweep actually forked cost/rules families
    assert!(
        report
            .engine_families
            .iter()
            .any(|f| f.ends_with(" opt=cost")),
        "{:?}",
        report.engine_families
    );
    assert!(
        report
            .engine_families
            .iter()
            .any(|f| f.ends_with(" opt=rules")),
        "{:?}",
        report.engine_families
    );
}

/// The full optimizer-equivalence matrix: every Table 2 algorithm ×
/// optimizer {Off, Rules, Cost} × parallelism {1, 8} over the whole
/// corpus, zero divergences. Heavyweight — `./ci.sh full` territory.
#[test]
#[ignore = "full optimizer-equivalence matrix: run via ./ci.sh full"]
fn optimizer_equivalence_full_matrix() {
    let corpus = corpus_graphs();
    let report = run_matrix(&corpus, &MatrixConfig::optimizer_equivalence());
    assert_clean(&report);
    assert!(
        report.algorithms.len() >= 10,
        "only {} algorithms ran: {:?}",
        report.algorithms.len(),
        report.algorithms
    );
    println!("optimizer matrix: {}", report.summary());
}

/// The full columnar-equivalence matrix: every Table 2 algorithm with the
/// with+ PSM swept over exec mode {Row, Batch} × parallelism {1, 2, 8}
/// over the whole corpus, zero divergences — the batch engine must be
/// row-identical to the row engine, the natives, SQL'99 and the oracle
/// everywhere. Heavyweight — `./ci.sh full` territory (the tier-1 slice
/// is `columnar_differential_smoke` in tests/columnar_equivalence.rs).
#[test]
#[ignore = "full columnar-equivalence matrix: run via ./ci.sh full"]
fn columnar_equivalence_full_matrix() {
    use all_in_one::algebra::ExecMode;
    let corpus = corpus_graphs();
    let cfg = aio_testkit::MatrixConfig {
        exec_modes: vec![ExecMode::Row, ExecMode::Batch],
        ..aio_testkit::MatrixConfig::default()
    };
    let report = run_matrix(&corpus, &cfg);
    assert_clean(&report);
    assert!(
        report.algorithms.len() >= 10,
        "only {} algorithms ran: {:?}",
        report.algorithms.len(),
        report.algorithms
    );
    assert!(
        report
            .engine_families
            .iter()
            .any(|f| f.ends_with(" exec=batch")),
        "{:?}",
        report.engine_families
    );
    println!("columnar matrix: {}", report.summary());
}

/// Tier-1 sessions smoke: the natively-covered algorithms additionally run
/// through a session-armed execution — a concurrent snapshot reader polls
/// pinned MVCC generations while each with+ fixpoint converges — and the
/// final answers must be row-identical to the serial executors. Any
/// isolation anomaly the reader observes surfaces as a divergence.
#[test]
fn sessions_matrix_smoke() {
    let corpus: Vec<_> = corpus_graphs()
        .into_iter()
        .filter(|g| g.name == "erdos-renyi" || g.name == "citation-dag")
        .collect();
    let cfg = MatrixConfig::sessions_smoke();
    let report = run_matrix(&corpus, &cfg);
    assert_clean(&report);
    // the axis actually added session runs (and their comparisons) on top
    // of the plain matrix
    let serial = run_matrix(
        &corpus,
        &MatrixConfig {
            sessions: false,
            ..cfg
        },
    );
    assert!(
        report.runs > serial.runs,
        "sessions axis added no runs: {} vs {}",
        report.runs,
        serial.runs
    );
    assert!(
        report.comparisons > serial.comparisons,
        "{}",
        report.summary()
    );
}

/// The full sessions matrix: every implemented Table 2 algorithm through a
/// Session with a concurrent snapshot reader, over the whole corpus, zero
/// divergences. Heavyweight — `./ci.sh full` territory.
#[test]
#[ignore = "full sessions matrix: run via ./ci.sh full"]
fn sessions_full_matrix() {
    let corpus = corpus_graphs();
    let report = run_matrix(&corpus, &MatrixConfig::sessions_full());
    assert_clean(&report);
    assert!(
        report.algorithms.len() >= 10,
        "only {} algorithms ran: {:?}",
        report.algorithms.len(),
        report.algorithms
    );
    println!("sessions matrix: {}", report.summary());
}

/// Metamorphic smoke: one relation per algorithm on one family.
#[test]
fn metamorphic_smoke() {
    let corpus = corpus_graphs();
    let er = &corpus
        .iter()
        .find(|g| g.name == "erdos-renyi")
        .unwrap()
        .graph;
    let dag = &corpus
        .iter()
        .find(|g| g.name == "citation-dag")
        .unwrap()
        .graph;
    let p = Params::default();
    for &key in META_ALGOS {
        let g = if key == "tc" { dag } else { er };
        check_metamorphic(key, g, MetaRelation::Relabel, 0xD1FF, &p)
            .unwrap_or_else(|e| panic!("{key}/Relabel: {e}"));
    }
}

/// Full metamorphic sweep: every relation × algorithm × corpus family.
#[test]
#[ignore = "full metamorphic sweep: run via ./ci.sh full"]
fn metamorphic_full() {
    let corpus = corpus_graphs();
    let p = Params::default();
    for named in &corpus {
        for &key in META_ALGOS {
            if matches!(key, "tc") && !named.graph.is_dag() {
                continue;
            }
            for rel in [
                MetaRelation::Relabel,
                MetaRelation::EdgeShuffle,
                MetaRelation::IsolatedVertices,
            ] {
                if key == "pr" && rel == MetaRelation::IsolatedVertices {
                    continue;
                }
                for seed in [1u64, 2, 3] {
                    check_metamorphic(key, &named.graph, rel, seed, &p).unwrap_or_else(|e| {
                        panic!("{key}/{rel:?}/{}/seed {seed}: {e}", named.name)
                    });
                }
            }
        }
    }
}

/// Does the armed union-by-update off-by-one change WCC's answer on `g`?
/// The predicate is deterministic: both runs use the serial oracle-like
/// profile and the fault clips exactly one delta row per iteration.
fn faulty_wcc_diverges(g: &Graph) -> bool {
    let profile = oracle_like();
    inject_ubu_off_by_one(false);
    let clean = wcc::run(g, &profile).map(|r| r.0);
    inject_ubu_off_by_one(true);
    let faulty = wcc::run(g, &profile).map(|r| r.0);
    inject_ubu_off_by_one(false);
    match (clean, faulty) {
        (Ok(a), Ok(b)) => a != b,
        _ => true,
    }
}

/// The harness catches an intentionally injected operator bug and shrinks
/// the failing graph to a small explicit counterexample with a replay file.
#[test]
fn injected_off_by_one_is_caught_and_shrunk() {
    // the fault is scoped to this thread and disarmed again inside the
    // predicate, so parallel test threads are unaffected
    let seed_case = corpus_graphs()
        .into_iter()
        .find(|named| faulty_wcc_diverges(&named.graph))
        .expect("the injected fault must diverge on at least one corpus family");
    assert!(fault_hits() > 0, "the fault hook never fired");

    let min = shrink(
        &CaseGraph::from_graph(&seed_case.graph),
        faulty_wcc_diverges,
    );
    assert!(
        faulty_wcc_diverges(&min.to_graph()),
        "shrunk case must still fail"
    );
    assert!(
        min.n <= 8,
        "expected a ≤ 8-node counterexample, got {} nodes / {} edges (from {})",
        min.n,
        min.edges.len(),
        seed_case.name
    );

    // replay file: save, reparse, re-reproduce
    let replay = Replay {
        algo: "wcc".into(),
        detail: format!(
            "union-by-update off-by-one (clipped delta) diverges; shrunk from corpus family {}",
            seed_case.name
        ),
        case: min,
    };
    let dir = std::env::temp_dir().join("aio-testkit-replays");
    let path = replay.save(&dir).expect("replay file written");
    let parsed = Replay::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(parsed.case, replay.case);
    assert!(
        faulty_wcc_diverges(&parsed.graph()),
        "replayed graph must reproduce the divergence"
    );
}
