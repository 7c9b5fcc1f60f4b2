//! The WCOJ pattern-query differential suite (aio-testkit driver).
//!
//! The leapfrog-triejoin operator is proven the same way everything else
//! in this repo is: differentially. The cyclic-pattern matrix pits forced
//! binary join trees against direct `MultiwayJoin` plans and the SQL
//! stack's optimizer sweep (≥ 500 runs over the seeded pattern corpus,
//! zero divergences), backed by trie-contract and cache-invalidation
//! checks and a fault-injection demonstration: an armed off-by-one in the
//! leapfrog `seek` must be caught and shrunk to a ≤ 8-node counterexample
//! with a replay file. All of it is cheap enough to run in tier-1.

use aio_testkit::{
    pattern_corpus, run_pattern_matrix, shrink, CaseGraph, Pattern, PatternMatrixConfig, Replay,
};
use all_in_one::algebra::{
    execute, fault_hits, inject_wcoj_seek_off_by_one, last_wcoj_phases, oracle_like, EngineProfile,
    ExecMode, JoinStrategy, JoinType, Optimizer, Plan,
};
use all_in_one::algos::common::{db_for, EdgeStyle};
use all_in_one::graph::Graph;
use all_in_one::storage::{
    Catalog, Column, DataType, Relation, Schema, TrieIndex, Value, WalPolicy,
};
use std::collections::BTreeSet;

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

fn sorted_rows(rel: &Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Tier-1 smoke: two graphs × two patterns under the full engine sweep.
#[test]
fn wcoj_differential_smoke() {
    let corpus: Vec<_> = pattern_corpus().into_iter().take(2).collect();
    let cfg = PatternMatrixConfig {
        patterns: vec![Pattern::triangle(), Pattern::four_cycle()],
        ..PatternMatrixConfig::default()
    };
    let report = run_pattern_matrix(&corpus, &cfg);
    assert_clean(&report);
    assert!(report.runs >= 60, "{}", report.summary());
    assert!(
        report
            .engine_families
            .iter()
            .any(|f| f.starts_with("pattern/wcoj")),
        "{:?}",
        report.engine_families
    );
}

/// The full pattern matrix of the issue's acceptance criteria: every
/// default pattern × every seeded pattern graph × parallelism {1, 8} ×
/// exec {row, batch} × optimizer {off, cost}, ≥ 500 runs, zero
/// divergences. Cheap enough (seconds on small seeded graphs) to stay in
/// tier-1 rather than behind `./ci.sh full`.
#[test]
fn wcoj_differential_full_matrix() {
    let corpus = pattern_corpus();
    let report = run_pattern_matrix(&corpus, &PatternMatrixConfig::default());
    assert_clean(&report);
    assert!(report.runs >= 500, "{}", report.summary());
    assert!(report.algorithms.len() >= 4, "{:?}", report.algorithms);
    assert!(
        report.engine_families.iter().any(|f| f.contains("wcoj")),
        "{:?}",
        report.engine_families
    );
    println!("wcoj matrix: {}", report.summary());
}

/// Integration-level trie contract: the level slices of a built trie
/// enumerate the sorted distinct tuples of the relation — each `(F, T)`
/// pair once, strictly increasing within its parent's child range — and
/// the row-id runs under the leaves partition the relation. (The seek
/// primitive over those slices is unit-tested against a naive scan where
/// it lives, in `algebra::wcoj`.)
#[test]
fn trie_contract_over_a_seeded_edge_relation() {
    let g = pattern_corpus().remove(3).graph;
    let db = db_for(&g, &oracle_like(), EdgeStyle::Raw).unwrap();
    let rel = db.catalog.relation("E").unwrap();
    let trie = TrieIndex::build(rel, &[0, 1]);
    assert_eq!(trie.len(), rel.len());
    assert!(trie.all_int(), "vertex ids index as raw i64 levels");

    let (froms, tos) = (trie.keys(0), trie.keys(1));
    assert!(froms.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    let mut walked = Vec::new();
    let mut matched = Vec::new();
    for (j, f) in froms.iter().enumerate() {
        let (lo, hi) = trie.child_range(0, j);
        assert!(lo < hi, "every node has a child");
        assert!(
            tos[lo..hi].windows(2).all(|w| w[0] < w[1]),
            "strictly increasing under {f:?}"
        );
        for (k, t) in tos.iter().enumerate().take(hi).skip(lo) {
            walked.push((f.clone(), t.clone()));
            matched.extend_from_slice(trie.rows_under(1, k));
        }
        assert_eq!(
            trie.rows_under(0, j).len(),
            (lo..hi).map(|k| trie.rows_under(1, k).len()).sum::<usize>(),
            "a node's rows are its children's rows"
        );
    }
    assert_eq!(walked.len(), tos.len(), "child ranges tile the level");
    let expected: BTreeSet<(Value, Value)> =
        rel.iter().map(|r| (r[0].clone(), r[1].clone())).collect();
    assert_eq!(walked.len(), expected.len(), "distinct pairs once each");
    assert_eq!(walked.into_iter().collect::<BTreeSet<_>>(), expected);
    assert_eq!(matched, trie.perm(), "leaf runs are the key-ordered rows");
    matched.sort_unstable();
    let all: Vec<u32> = (0..rel.len() as u32).collect();
    assert_eq!(matched, all, "row-id runs partition the relation");

    // the unboxed view the i64 instantiation reads is the same level
    for d in 0..2 {
        let ints: Vec<Value> = trie
            .int_keys(d)
            .unwrap()
            .iter()
            .map(|&k| k.into())
            .collect();
        assert_eq!(ints, trie.keys(d));
    }
}

// ---------------------------------------------------------------------------
// key domains beyond Int vertex ids: hand-built plans over hand-built tables
// ---------------------------------------------------------------------------

/// `name(k0.., w)`: `N` untyped key columns and a row-number payload that
/// tells duplicate keys apart.
fn keyed_table<const N: usize>(name: &str, keys: &[[Value; N]]) -> (String, Relation) {
    let mut cols: Vec<Column> = (0..N)
        .map(|i| Column::new(format!("k{i}"), DataType::Any))
        .collect();
    cols.push(Column::new("w", DataType::Int));
    let mut rel = Relation::new(Schema::new(cols));
    for (i, k) in keys.iter().enumerate() {
        let mut row = k.to_vec();
        row.push(Value::from(i));
        rel.push(row.into_boxed_slice()).unwrap();
    }
    (name.to_string(), rel)
}

fn inner_join(left: Plan, right: Plan, on: &[(&str, &str)]) -> Plan {
    Plan::Join {
        left: Box::new(left),
        right: Box::new(right),
        on: on
            .iter()
            .map(|(l, r)| (l.to_string(), r.to_string()))
            .collect(),
        residual: None,
        kind: JoinType::Inner,
    }
}

fn scan(table: &str) -> Plan {
    Plan::scan_as(table, table)
}

/// `multiway` and `binary` are the same query over `tables`: the multiway
/// join (Row and Batch, par {1, 8}) must return the bag the binary tree
/// returns under each of its three join algorithms. `Ok` is that bag's
/// size, `Err` every configuration that disagrees with the hash join.
fn multiway_vs_binary(
    tables: Vec<(String, Relation)>,
    multiway: &Plan,
    binary: &Plan,
) -> Result<usize, String> {
    let mut catalog = Catalog::new();
    for (name, rel) in tables {
        catalog.create_table(&name, rel).unwrap();
    }
    let mut runs: Vec<(String, Vec<String>)> = Vec::new();
    for join in [
        JoinStrategy::Hash,
        JoinStrategy::SortMerge,
        JoinStrategy::NestedLoop,
    ] {
        let profile = EngineProfile {
            join,
            ..oracle_like()
        };
        let out = execute(binary, &catalog, &profile).unwrap().0;
        runs.push((format!("binary {join:?}"), sorted_rows(&out)));
    }
    for exec in MODES {
        for par in [1, 8] {
            let profile = oracle_like().with_exec(exec).with_parallelism(par);
            let out = execute(multiway, &catalog, &profile).unwrap().0;
            runs.push((format!("multiway {exec:?} par {par}"), sorted_rows(&out)));
        }
    }
    let want = runs[0].1.clone();
    let wrong: Vec<String> = runs
        .iter()
        .filter(|(_, got)| *got != want)
        .map(|(who, got)| format!("{who} returns {} rows {got:?}", got.len()))
        .collect();
    if wrong.is_empty() {
        Ok(want.len())
    } else {
        Err(format!(
            "binary Hash returns {} rows {want:?}, but\n  {}",
            want.len(),
            wrong.join("\n  ")
        ))
    }
}

/// `A(k) ⋈ B(k)` as a one-variable multiway join and as a binary join.
fn two_way(a: &[Value], b: &[Value]) -> (Vec<(String, Relation)>, Plan, Plan) {
    let rows = |k: &[Value]| -> Vec<[Value; 1]> { k.iter().map(|v| [v.clone()]).collect() };
    let tables = vec![keyed_table("A", &rows(a)), keyed_table("B", &rows(b))];
    let multiway = Plan::MultiwayJoin {
        children: vec![scan("A"), scan("B")],
        vars: vec![vec![Some(0), None], vec![Some(0), None]],
        var_names: vec!["k".into()],
        agm_est: 1,
    };
    let binary = inner_join(scan("A"), scan("B"), &[("A.k0", "B.k0")]);
    (tables, multiway, binary)
}

/// The multiway join on keys that are not Int vertex ids — Text, Float,
/// NULL-bearing, and one column mixing Int, Float and both zeros — agrees
/// with the binary join under every join algorithm. Storage equality is
/// strict by type and folds the zeros, so in the mixed relation `Int 1`
/// meets `Int 1` twice, `Float 0.0` meets `Float -0.0` once, and
/// `Float 1.0` meets nothing.
#[test]
fn multiway_matches_binary_on_every_key_domain() {
    let t = Value::text;
    let (i, f) = (Value::Int, Value::Float);
    let cases: [(&str, Vec<Value>, Vec<Value>, usize); 4] = [
        (
            "text keys",
            vec![t("b"), t("a"), t("c"), t("a"), t("")],
            vec![t("a"), t("c"), t("d"), t("a"), t("")],
            6,
        ),
        (
            "float keys",
            vec![
                f(0.5),
                f(-0.0),
                f(f64::NAN),
                f(2.0),
                f(f64::INFINITY),
                f(0.0),
            ],
            vec![f(0.0), f(-f64::NAN), f(2.0), f(2.0), f(f64::NEG_INFINITY)],
            5,
        ),
        (
            "null-bearing keys",
            vec![Value::Null, i(1), Value::Null, t("x"), i(2)],
            vec![i(2), Value::Null, t("x"), i(2)],
            3,
        ),
        (
            "mixed Int/Float/±0.0 keys",
            vec![i(1), f(1.0), i(1), f(0.0)],
            vec![i(1), f(-0.0)],
            3,
        ),
    ];
    let wrong: Vec<String> = cases
        .into_iter()
        .filter_map(|(ctx, a, b, rows)| {
            let (tables, multiway, binary) = two_way(&a, &b);
            match multiway_vs_binary(tables, &multiway, &binary) {
                Ok(got) if got == rows => None,
                Ok(got) => Some(format!("{ctx}: {got} rows everywhere, expected {rows}")),
                Err(e) => Some(format!("{ctx}: {e}")),
            }
        })
        .collect();
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}

/// `R(a,b) ⋈ S(b,c) ⋈ T(c,a) ⋈ N(a)`: a triangle with a label atom on
/// `a`. `R` and `S` index as all-Int tries; `T` holds Text on its `c`
/// level, so the search runs on `Value` keys: three participants on `a`
/// (the general loop), two on `b` and on `c` (the two-way loop), a NULL
/// and a Text that match nothing, and a duplicated `R` row that every
/// triangle through it re-expands.
#[test]
fn labelled_triangle_over_a_text_bearing_trie_matches_binary() {
    let (i, t) = (Value::Int, Value::text);
    let edges: Vec<[Value; 2]> = [(1, 2), (2, 3), (3, 1), (1, 3), (3, 4), (4, 1), (1, 2)]
        .iter()
        .map(|&(x, y)| [i(x), i(y)])
        .collect();
    let mut closing = edges.clone();
    closing.extend([[t("x"), i(1)], [t("y"), t("z")], [Value::Null, i(2)]]);
    let labels = [[i(1)], [i(3)], [Value::Null], [t("x")], [i(1)], [i(7)]];
    let tables = vec![
        keyed_table("R", &edges),
        keyed_table("S", &edges),
        keyed_table("T", &closing),
        keyed_table("N", &labels),
    ];
    let tries: Vec<bool> = [("R", [0, 1]), ("S", [0, 1]), ("T", [1, 0])]
        .iter()
        .map(|(name, cols)| {
            let rel = &tables.iter().find(|(n, _)| n == name).unwrap().1;
            TrieIndex::build(rel, cols).all_int()
        })
        .collect();
    assert_eq!(tries, [true, true, false], "the instance under test");
    let multiway = Plan::MultiwayJoin {
        children: vec![scan("R"), scan("S"), scan("T"), scan("N")],
        vars: vec![
            vec![Some(0), Some(1), None],
            vec![Some(1), Some(2), None],
            vec![Some(2), Some(0), None],
            vec![Some(0), None],
        ],
        var_names: vec!["a".into(), "b".into(), "c".into()],
        agm_est: 1,
    };
    let binary = inner_join(
        inner_join(
            inner_join(scan("R"), scan("S"), &[("R.k1", "S.k0")]),
            scan("T"),
            &[("S.k1", "T.k0"), ("R.k0", "T.k1")],
        ),
        scan("N"),
        &[("R.k0", "N.k0")],
    );
    let rows = multiway_vs_binary(tables, &multiway, &binary).unwrap_or_else(|e| panic!("{e}"));
    // a = 1: 1→2→3→1 through the duplicated R row, and 1→3→4→1, each
    // under two `1` labels; a = 3: 3→1→2→3 (the duplicate is an S row
    // there) and 3→4→1→3 under one `3` label; 2 and 4 carry no label
    assert_eq!(rows, (2 + 1) * 2 + (2 + 1));
}

/// The planted seek off-by-one is caught on Text keys as well — through
/// the two-way loop and through the general one.
#[test]
fn injected_seek_off_by_one_is_caught_on_text_keys() {
    let t = Value::text;
    let (a, b) = (vec![t("a"), t("c")], vec![t("b"), t("c")]);
    let (mut tables, two, _) = two_way(&a, &b);
    tables.push(keyed_table("C", &[[t("c")]]));
    let three = Plan::MultiwayJoin {
        children: vec![scan("A"), scan("B"), scan("C")],
        vars: vec![vec![Some(0), None]; 3],
        var_names: vec!["k".into()],
        agm_est: 1,
    };
    let mut catalog = Catalog::new();
    for (name, rel) in tables {
        catalog.create_table(&name, rel).unwrap();
    }
    for (ctx, plan) in [("two-way", two), ("three-way", three)] {
        let clean = execute(&plan, &catalog, &oracle_like()).unwrap().0;
        assert_eq!(clean.len(), 1, "{ctx}: only \"c\" joins");
        inject_wcoj_seek_off_by_one(true);
        let faulty = execute(&plan, &catalog, &oracle_like());
        inject_wcoj_seek_off_by_one(false);
        assert!(fault_hits() > 0, "{ctx}: the seek fault hook never fired");
        assert_ne!(
            sorted_rows(&faulty.unwrap().0),
            sorted_rows(&clean),
            "{ctx}: a seek that overshoots its target must lose the match"
        );
    }
}

/// Mutating the edge table must invalidate the catalog's trie cache: a
/// re-run of the same multiway join sees the new triangle.
#[test]
fn trie_cache_invalidated_on_mutation() {
    let g = pattern_corpus().remove(0).graph;
    let pat = Pattern::triangle();
    let profile = oracle_like();
    let mut db = db_for(&g, &profile, EdgeStyle::Raw).unwrap();
    let plan = pat.wcoj_plan(g.edge_count());

    let (before, _) = execute(&plan, &db.catalog, &profile).unwrap();
    assert!(
        db.catalog.trie_on("E", &[0, 1]).is_some(),
        "trie cached by the run"
    );

    // close a brand-new triangle among fresh node ids
    let fresh: Vec<all_in_one::storage::Row> = [(901, 902), (902, 903), (903, 901)]
        .iter()
        .map(|&(f, t)| vec![Value::Int(f), Value::Int(t), Value::Float(1.0)].into_boxed_slice())
        .collect();
    db.catalog.insert_rows("E", fresh, WalPolicy::None).unwrap();
    assert!(
        db.catalog.trie_on("E", &[0, 1]).is_none(),
        "insert must drop the cached trie"
    );

    let (after, _) = execute(&plan, &db.catalog, &profile).unwrap();
    assert_eq!(
        after.len(),
        before.len() + 3,
        "the new triangle appears once per rotation"
    );
    let (binary_after, _) = execute(&pat.binary_plan(), &db.catalog, &profile).unwrap();
    assert_eq!(sorted_rows(&after), sorted_rows(&binary_after));

    // truncate is the other mutation path the cache must observe
    execute(&plan, &db.catalog, &profile).unwrap();
    assert!(db.catalog.trie_on("E", &[0, 1]).is_some());
    db.catalog.truncate("E").unwrap();
    assert!(
        db.catalog.trie_on("E", &[0, 1]).is_none(),
        "truncate drops tries"
    );
    let (empty, _) = execute(&plan, &db.catalog, &profile).unwrap();
    assert!(empty.is_empty());
}

/// Does the armed leapfrog-seek off-by-one change the triangle answer on
/// `g`? Deterministic: serial oracle-like profile, fresh database per run.
fn faulty_wcoj_diverges(g: &Graph) -> bool {
    let pat = Pattern::triangle();
    let profile = oracle_like();
    let db = match db_for(g, &profile, EdgeStyle::Raw) {
        Ok(db) => db,
        Err(_) => return true,
    };
    inject_wcoj_seek_off_by_one(false);
    let clean = execute(&pat.binary_plan(), &db.catalog, &profile);
    inject_wcoj_seek_off_by_one(true);
    let faulty = execute(&pat.wcoj_plan(g.edge_count()), &db.catalog, &profile);
    inject_wcoj_seek_off_by_one(false);
    match (clean, faulty) {
        (Ok((a, _)), Ok((b, _))) => sorted_rows(&a) != sorted_rows(&b),
        _ => true,
    }
}

/// The harness catches an intentionally injected leapfrog `seek` bug
/// (lower_bound miscomputed as upper_bound) and shrinks the failing graph
/// to a tiny explicit counterexample with a replay file.
#[test]
fn injected_seek_off_by_one_is_caught_and_shrunk() {
    let seed_case = pattern_corpus()
        .into_iter()
        .find(|named| faulty_wcoj_diverges(&named.graph))
        .expect("the injected fault must diverge on at least one pattern graph");
    assert!(fault_hits() > 0, "the seek fault hook never fired");

    let min = shrink(
        &CaseGraph::from_graph(&seed_case.graph),
        faulty_wcoj_diverges,
    );
    assert!(
        faulty_wcoj_diverges(&min.to_graph()),
        "shrunk case must still fail"
    );
    assert!(
        min.n <= 8,
        "expected a ≤ 8-node counterexample, got {} nodes / {} edges (from {})",
        min.n,
        min.edges.len(),
        seed_case.name
    );

    let replay = Replay {
        algo: "triangle-wcoj".into(),
        detail: format!(
            "leapfrog seek off-by-one (upper_bound) diverges; shrunk from pattern graph {}",
            seed_case.name
        ),
        case: min,
    };
    let dir = std::env::temp_dir().join("aio-testkit-replays");
    let path = replay.save(&dir).expect("replay file written");
    let parsed = Replay::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(parsed.case, replay.case);
    assert!(
        faulty_wcoj_diverges(&parsed.graph()),
        "replayed graph must reproduce the divergence"
    );
}

/// The disarmed fault is free: a clean run right after a faulty one is
/// byte-identical to a never-faulted run — and batch execution of the same
/// multiway join agrees with row execution.
#[test]
fn disarmed_fault_leaves_no_trace_and_batch_agrees() {
    let g = pattern_corpus().remove(1).graph;
    let pat = Pattern::diamond();
    let profile = oracle_like();
    let db = db_for(&g, &profile, EdgeStyle::Raw).unwrap();
    let plan = pat.wcoj_plan(g.edge_count());

    let (clean, _) = execute(&plan, &db.catalog, &profile).unwrap();
    inject_wcoj_seek_off_by_one(true);
    let _ = execute(&plan, &db.catalog, &profile).unwrap();
    inject_wcoj_seek_off_by_one(false);
    let (again, _) = execute(&plan, &db.catalog, &profile).unwrap();
    assert_eq!(sorted_rows(&clean), sorted_rows(&again));

    let batch_profile = oracle_like().with_exec(ExecMode::Batch);
    let (batch, _) = execute(&plan, &db.catalog, &batch_profile).unwrap();
    assert_eq!(sorted_rows(&clean), sorted_rows(&batch));

    // and the full SQL stack at Cost agrees with the forced plans
    let mut db2 = db_for(&g, &profile, EdgeStyle::Raw).unwrap();
    db2.set_optimizer(Optimizer::Cost);
    let out = db2.execute(&pat.sql()).unwrap();
    let mut db3 = db_for(&g, &profile, EdgeStyle::Raw).unwrap();
    db3.set_optimizer(Optimizer::Off);
    let base = db3.execute(&pat.sql()).unwrap();
    assert_eq!(sorted_rows(&out.relation), sorted_rows(&base.relation));
}

// ---------------------------------------------------------------------------
// the SQL path: what the cost optimizer emits must reach the trie cache
// ---------------------------------------------------------------------------

const MODES: [ExecMode; 2] = [ExecMode::Row, ExecMode::Batch];

fn cost_profile(exec: ExecMode) -> all_in_one::algebra::EngineProfile {
    oracle_like()
        .with_optimizer(Optimizer::Cost)
        .with_exec(exec)
}

fn edge_rows(edges: &[(i64, i64, f64)]) -> Vec<all_in_one::storage::Row> {
    edges
        .iter()
        .map(|&(f, t, w)| vec![Value::Int(f), Value::Int(t), Value::Float(w)].into_boxed_slice())
        .collect()
}

/// Every default pattern from SQL text under `Cost`, twice, in both
/// execution modes: multiset-equal to the forced binary plan both times;
/// when the optimizer picked the multiway join, its `Project(Scan E)`
/// children are all served from `E`'s trie cache — built once per key
/// order by the first execution, only fetched by the second.
#[test]
fn sql_path_reuses_catalog_tries() {
    let mut multiway_runs = 0;
    for named in pattern_corpus() {
        for pat in aio_testkit::default_patterns() {
            let atoms = pat.atoms.len() as u64;
            for exec in MODES {
                let ctx = format!("{} on {} ({exec:?})", pat.name, named.name);
                let profile = cost_profile(exec);
                let mut db = db_for(&named.graph, &profile, EdgeStyle::Raw).unwrap();
                // the same text with the optimizer off runs the binary plan
                let mut off = db_for(&named.graph, &oracle_like(), EdgeStyle::Raw).unwrap();
                off.set_optimizer(Optimizer::Off);
                let want = sorted_rows(&off.execute(&pat.sql()).unwrap().relation);

                let first = db.explain_analyze_opts(&pat.sql(), false).unwrap();
                let first_ph = last_wcoj_phases();
                assert_eq!(
                    sorted_rows(&first.result.relation),
                    want,
                    "{ctx}: first run"
                );
                let second = db.execute(&pat.sql()).unwrap();
                let second_ph = last_wcoj_phases();
                assert_eq!(sorted_rows(&second.relation), want, "{ctx}: second run");
                if !first.report.contains("MultiwayJoin") {
                    continue;
                }
                multiway_runs += 1;
                assert_eq!(first_ph.tries_built + first_ph.tries_cached, atoms, "{ctx}");
                // an edge atom is keyed [F, T] or [T, F]: two tries at most
                let cached = db.catalog.entry("E").unwrap().tries.len() as u64;
                assert!(cached <= 2, "{ctx}: {cached} tries for two key orders");
                assert_eq!(
                    first_ph.tries_built, cached,
                    "{ctx}: one build per key order"
                );
                assert_eq!(second_ph.tries_built, 0, "{ctx}: second run rebuilt a trie");
                assert_eq!(
                    second_ph.tries_cached, atoms,
                    "{ctx}: every child is scan-like"
                );
            }
        }
    }
    assert!(
        multiway_runs >= 16,
        "the cost pass picked MultiwayJoin only {multiway_runs} times"
    );
}

/// A mutation of `E` between two SQL executions drops the cached tries:
/// the next run rebuilds them and sees the new triangle.
#[test]
fn sql_path_rebuilds_after_mutation() {
    let g = pattern_corpus().remove(0).graph;
    let sql = Pattern::triangle().sql();
    for exec in MODES {
        let mut db = db_for(&g, &cost_profile(exec), EdgeStyle::Raw).unwrap();
        let before = db.explain_analyze_opts(&sql, false).unwrap();
        assert!(before.report.contains("MultiwayJoin"), "{}", before.report);
        db.execute(&sql).unwrap();
        assert_eq!(last_wcoj_phases().tries_built, 0, "{exec:?}: warm");

        let fresh = edge_rows(&[(901, 902, 1.0), (902, 903, 1.0), (903, 901, 1.0)]);
        db.catalog.insert_rows("E", fresh, WalPolicy::None).unwrap();
        let after = db.execute(&sql).unwrap();
        let ph = last_wcoj_phases();
        assert!(
            ph.tries_built >= 1,
            "{exec:?}: stale tries served after an insert"
        );
        assert_eq!(ph.tries_built + ph.tries_cached, 3, "{exec:?}");
        assert_eq!(
            after.relation.len(),
            before.result.relation.len() + 3,
            "{exec:?}: one per rotation"
        );
        assert!(
            sorted_rows(&after.relation)
                .iter()
                .any(|r| r.contains("901")),
            "{exec:?}: the new rows are in the result"
        );
    }
}

/// Payload columns and duplicate edge rows expand with bag semantics from
/// whatever the scan-like child is — boxed rows in `Row` mode, the cached
/// image's shared columns in `Batch` mode.
#[test]
fn sql_path_expands_payload_and_duplicates() {
    let sql = "select e0.F, e0.T, e0.ew, e1.ew, e2.ew from E e0, E e1, E e2 \
               where e0.T = e1.F and e1.T = e2.F and e2.T = e0.F";
    let edges = [
        (1, 2, 0.5),
        (2, 3, 1.5),
        (3, 1, 2.5),
        (1, 2, 0.5), // an exact duplicate row
        (1, 2, 7.0), // the same key with another payload
        (2, 3, -0.0),
        (3, 4, 1.0),
        (4, 1, f64::INFINITY),
    ];
    let mut want = None;
    for (optimizer, exec) in [
        (Optimizer::Off, ExecMode::Row),
        (Optimizer::Cost, ExecMode::Row),
        (Optimizer::Cost, ExecMode::Batch),
    ] {
        let mut db = all_in_one::withplus::Database::new(
            oracle_like().with_optimizer(optimizer).with_exec(exec),
        );
        let mut e = Relation::new(all_in_one::storage::edge_schema());
        e.extend(edge_rows(&edges)).unwrap();
        db.create_table("E", e).unwrap();
        for run in 0..2 {
            let out = db.explain_analyze_opts(sql, false).unwrap();
            assert_eq!(
                out.report.contains("MultiwayJoin"),
                optimizer == Optimizer::Cost,
                "{}",
                out.report
            );
            let got = sorted_rows(&out.result.relation);
            // 3 × 2 × 1 rotations of 1→2→3→1, each as e0 = every edge of it
            assert_eq!(got.len(), 18, "{optimizer:?}/{exec:?} run {run}");
            assert_eq!(
                want.get_or_insert_with(|| got.clone()),
                &got,
                "{optimizer:?}/{exec:?}"
            );
        }
    }
}

/// A filtered child is not scan-like: its rows are not the table's rows,
/// so it is indexed privately on every execution while its unfiltered
/// siblings still hit the cache. Same for a computed projection item.
#[test]
fn filtered_and_computed_children_build_privately() {
    use all_in_one::algebra::{BinOp, Plan, ScalarExpr};
    let g = pattern_corpus().remove(1).graph;
    let sql = "select e0.F, e1.F, e2.F from E e0, E e1, E e2 \
               where e0.T = e1.F and e1.T = e2.F and e2.T = e0.F and e0.ew > 0.0";
    for exec in MODES {
        let mut db = db_for(&g, &cost_profile(exec), EdgeStyle::Raw).unwrap();
        let mut off = db_for(&g, &oracle_like(), EdgeStyle::Raw).unwrap();
        off.set_optimizer(Optimizer::Off);
        let want = sorted_rows(&off.execute(sql).unwrap().relation);
        for run in 0..2 {
            let out = db.explain_analyze_opts(sql, false).unwrap();
            assert!(out.report.contains("MultiwayJoin"), "{}", out.report);
            assert_eq!(
                sorted_rows(&out.result.relation),
                want,
                "{exec:?} run {run}"
            );
            let ph = last_wcoj_phases();
            assert!(
                ph.tries_built >= 1,
                "{exec:?} run {run}: the filtered child builds"
            );
            assert_eq!(ph.tries_built + ph.tries_cached, 3);
        }
        assert_eq!(
            last_wcoj_phases().tries_built,
            1,
            "{exec:?}: only the filtered child"
        );

        // `F + 0` is not a plain column reference
        let computed = |alias: &str| Plan::Project {
            input: Box::new(Plan::scan_as("E", alias)),
            items: vec![
                (
                    ScalarExpr::binary(
                        BinOp::Add,
                        ScalarExpr::col(format!("{alias}.F")),
                        ScalarExpr::lit(0i64),
                    ),
                    "F".into(),
                ),
                (ScalarExpr::col(format!("{alias}.T")), "T".into()),
            ],
        };
        let pruned = |alias: &str| Plan::Project {
            input: Box::new(Plan::scan_as("E", alias)),
            items: vec![
                (ScalarExpr::col(format!("{alias}.T")), "T".into()),
                (ScalarExpr::col(format!("{alias}.F")), "F".into()),
            ],
        };
        let plan = Plan::MultiwayJoin {
            children: vec![computed("e0"), pruned("e1"), Plan::scan_as("E", "e2")],
            // e0(a, b), e1 swapped: (T, F) = (c, b), e2(c, a)
            vars: vec![
                vec![Some(0), Some(1)],
                vec![Some(2), Some(1)],
                vec![Some(2), Some(0), None],
            ],
            var_names: vec!["a".into(), "b".into(), "c".into()],
            agm_est: 1,
        };
        let profile = cost_profile(exec);
        execute(&plan, &db.catalog, &profile).unwrap();
        let (out, _) = execute(&plan, &db.catalog, &profile).unwrap();
        let ph = last_wcoj_phases();
        assert_eq!(
            (ph.tries_built, ph.tries_cached),
            (1, 2),
            "{exec:?}: {ph:?}"
        );
        // e0(a,b) ⋈ e1(b→c reversed: F=b, T=c) ⋈ e2(c,a): the triangle again
        let tri = sorted_rows(
            &execute(&Pattern::triangle().binary_plan(), &db.catalog, &profile)
                .unwrap()
                .0,
        );
        assert_eq!(out.len(), tri.len(), "{exec:?}");
    }
}

/// Guard, in the style of `mv_join_aggregate_stays_on_the_column_kernel`:
/// the benchmark's triangle-support statement under its `best` profile
/// (`Cost` + `Batch`) takes every trie from the catalog on its second run
/// and every scan from the cached image. A plan-shape or resolver change
/// that sends it back to per-query index builds fails here, not in the
/// next benchmark run.
#[test]
fn triangle_support_reuses_every_trie_on_its_second_run() {
    use all_in_one::trace::FieldValue;
    const TRIANGLE_SUPPORT_SQL: &str = "\
        select e0.F, e0.T, count(*) from E e0, E e1, E e2 \
        where e0.T = e1.F and e1.T = e2.F and e2.T = e0.F \
        group by e0.F, e0.T";
    let g = pattern_corpus().remove(5).graph;
    let mut db = db_for(&g, &cost_profile(ExecMode::Batch), EdgeStyle::Raw).unwrap();
    db.execute(TRIANGLE_SUPPORT_SQL).unwrap();
    all_in_one::metrics::set_enabled(true);
    let out = db
        .explain_analyze_opts(TRIANGLE_SUPPORT_SQL, false)
        .unwrap();
    all_in_one::metrics::set_enabled(false);
    let join = out
        .trace
        .spans
        .iter()
        .find(|s| s.name == "multiway_join")
        .unwrap_or_else(|| panic!("no multiway join:\n{}", out.report));
    assert!(
        matches!(join.field("tries_cached"), Some(FieldValue::UInt(3))),
        "a trie was rebuilt on the second run:\n{}",
        out.report
    );
    assert_eq!(last_wcoj_phases().tries_built, 0, "{}", out.report);
    assert!(
        out.report.contains("cache: trie 3/3 hits"),
        "{}",
        out.report
    );
    assert!(out.report.contains("cols 3/3 hits"), "{}", out.report);
}
