//! The batch join's driven path against the row engine.
//!
//! Under `Rules` / `Cost` with batch execution, an inner join on one `Int`
//! key whose probe side is a bare scan of a base table, and whose build
//! side has at most 1/8 as many rows as the table has distinct keys, is
//! driven by the small side through the table's adjacency on the key
//! column instead of hashing (DESIGN §17): the join line reads
//! `driven=S, index=E.F`. The rows must be exactly `Off`'s, in the same
//! order, at every parallelism; every other join — the mirrored plan with
//! the table as the build side included — must hash. Which path ran is read
//! off the EXPLAIN ANALYZE join line.

use all_in_one::algebra::explain::render_analyzed;
use all_in_one::algebra::{
    db2_like, execute, execute_traced, oracle_like, postgres_like, AggFunc, BinOp, EngineProfile,
    ExecMode, JoinType, Optimizer, Plan, ScalarExpr,
};
use all_in_one::algos::common::{db_for, EdgeStyle};
use all_in_one::algos::{pagerank, sssp};
use all_in_one::storage::{
    edge_schema, Catalog, DataType, Relation, Row, Schema, Value, WalPolicy,
};
use all_in_one::trace::Tracer;

/// `E(F, T, ew)` as a base table with the given `F` keys (`None` = NULL),
/// and `S(ID, k, vw)` as a temp table with the given `ID`s.
fn catalog(e_keys: &[Option<i64>], s_ids: &[i64]) -> Catalog {
    let mut e = Relation::new(edge_schema());
    for (i, f) in e_keys.iter().enumerate() {
        let f = f.map_or(Value::Null, Value::Int);
        let row: Row = vec![f, Value::Int(i as i64 % 3), Value::Float(i as f64 / 4.0)].into();
        e.push(row).unwrap();
    }
    let mut s = Relation::new(Schema::of(&[
        ("ID", DataType::Int),
        ("k", DataType::Int),
        ("vw", DataType::Float),
    ]));
    for (i, &id) in s_ids.iter().enumerate() {
        let row: Row = vec![
            Value::Int(id),
            Value::Int(i as i64 % 3),
            Value::Float(0.5 + i as f64),
        ]
        .into();
        s.push(row).unwrap();
    }
    let mut c = Catalog::new();
    c.create_table("E", e).unwrap();
    c.create_temp("S", s).unwrap();
    c
}

fn join(left: &str, right: &str, on: &[(&str, &str)]) -> Plan {
    Plan::Join {
        left: Box::new(Plan::scan(left)),
        right: Box::new(Plan::scan(right)),
        on: on
            .iter()
            .map(|(l, r)| (l.to_string(), r.to_string()))
            .collect(),
        residual: None,
        kind: JoinType::Inner,
    }
}

/// `Join(Scan E, Scan S)` on `E.F = S.ID`: `E` is the probe side.
fn e_s() -> Plan {
    join("E", "S", &[("E.F", "S.ID")])
}

/// The mirrored plan: `E` is the build side, so the join hashes.
fn s_e() -> Plan {
    join("S", "E", &[("S.ID", "E.F")])
}

fn best(par: usize) -> EngineProfile {
    oracle_like()
        .with_optimizer(Optimizer::Cost)
        .with_exec(ExecMode::Batch)
        .with_parallelism(par)
}

/// `plan` under `Cost` + `Batch` against `Off` (row mode): two warm-up runs
/// (joins hash a table twice before one builds its adjacency), then one traced
/// run at each of `par` ∈ {1, 2, 8}, each compared row for row and in
/// order. Returns the join line's annotation, which every traced run must
/// agree on: `""` when the join hashed.
fn check(plan: &Plan, c: &Catalog, what: &str) -> String {
    let (want, _) = execute(plan, c, &oracle_like()).unwrap();
    let same = |got: &Relation, how: &str| {
        assert_eq!(got.rows(), want.rows(), "{what}: {how} differs from Off");
        assert_eq!(got.schema(), want.schema(), "{what}: {how}");
    };
    for _ in 0..2 {
        same(&execute(plan, c, &best(1)).unwrap().0, "warm-up");
    }
    let mut seen: Option<String> = None;
    for par in [1, 2, 8] {
        let tracer = Tracer::new();
        let (got, _) = execute_traced(plan, c, &best(par), Some(&tracer)).unwrap();
        same(&got, &format!("par={par}"));
        let trace = tracer.finish();
        let spans: Vec<_> = trace.spans.iter().collect();
        let report = render_analyzed(plan, &spans, false);
        let line = report.lines().next().unwrap();
        let how = line
            .split_once(" morsels=")
            .and_then(|(_, rest)| rest.split_once(' '))
            .map_or("", |(_, how)| how.trim_end_matches(')'))
            .to_string();
        if let Some(prev) = &seen {
            assert_eq!(prev, &how, "{what}: par={par} ran another path: {line}");
        }
        seen = Some(how);
    }
    seen.unwrap()
}

const DRIVEN: &str = "driven=S, index=E.F";

#[test]
fn duplicate_keys_on_both_sides() {
    let e: Vec<Option<i64>> = (0..400).map(|i| Some((i * 7) % 80)).collect();
    let s = [3, 3, 5, 7, 7, 7, 19, 90];
    let c = catalog(&e, &s);
    assert_eq!(check(&e_s(), &c, "dups E⋈S"), DRIVEN);
    assert_eq!(check(&s_e(), &c, "dups S⋈E"), "");
}

/// Inputs big enough to split into morsels at `par` > 1 where the join
/// hashes, and a driven join that collects over a thousand pairs.
#[test]
fn inputs_large_enough_to_split() {
    let e: Vec<Option<i64>> = (0..9_000).map(|i| Some((i * 31) % 700)).collect();
    let s: Vec<i64> = (0..10_000).map(|i| (i * 17) % 900).collect();
    let c = catalog(&e, &s);
    assert_eq!(check(&s_e(), &c, "large S⋈E"), "");
    assert_eq!(check(&e_s(), &c, "large E⋈S"), "");
    // 87 × 8 ≤ 700 distinct keys, each held by ≈13 rows of E
    let s: Vec<i64> = (0..87).map(|i| (i * 17) % 700).collect();
    let c = catalog(&e, &s);
    assert_eq!(check(&e_s(), &c, "E⋈S, many pairs"), DRIVEN);
}

#[test]
fn sparse_key_span() {
    // span ≫ rows: the adjacency's keys are found by binary search
    let e: Vec<Option<i64>> = (0..120).map(|i| Some((i % 40) * 1_000_003 - 7)).collect();
    let s = [-7, 1_000_003 * 5 - 7, 1_000_003 * 39 - 7, 12, -7];
    let c = catalog(&e, &s);
    assert_eq!(check(&e_s(), &c, "sparse E⋈S"), DRIVEN);
    assert_eq!(check(&s_e(), &c, "sparse S⋈E"), "");
}

#[test]
fn null_keys_in_the_table_fall_back() {
    let e: Vec<Option<i64>> = (0..100).map(|i| (i % 9 != 4).then_some(i % 11)).collect();
    let c = catalog(&e, &[1, 4, 4, 10]);
    assert_eq!(check(&e_s(), &c, "NULL E⋈S"), "");
    assert_eq!(check(&s_e(), &c, "NULL S⋈E"), "");
}

#[test]
fn empty_small_side() {
    let e: Vec<Option<i64>> = (0..50).map(|i| Some(i % 5)).collect();
    let c = catalog(&e, &[]);
    assert_eq!(check(&e_s(), &c, "empty E⋈S"), DRIVEN);
    assert_eq!(check(&s_e(), &c, "empty S⋈E"), "");
}

/// The small side drives only at ≤ 1/8 of the table's distinct keys,
/// however many rows hold them; the mirrored plan hashes whatever the
/// ratio.
#[test]
fn size_ratio_around_eight() {
    let s: Vec<i64> = (0..6).map(|i| i * 2).collect();
    for (keys, driven) in [(8 * 6 - 1, false), (8 * 6, true), (8 * 6 + 1, true)] {
        let e: Vec<Option<i64>> = (0..500).map(|i| Some(i % keys)).collect();
        let c = catalog(&e, &s);
        let want = if driven { DRIVEN } else { "" };
        assert_eq!(check(&e_s(), &c, &format!("{keys} keys")), want);
        assert_eq!(check(&s_e(), &c, &format!("{keys} keys mirrored")), "");
    }
}

/// PageRank's shape: the small side holds every key of the table. It has
/// 1/8 of the table's rows but as many rows as the table has keys, so a
/// lookup per row would touch every run of the adjacency: it hashes. While
/// the table's statistics are current they count its keys, and the join
/// declines before paying rent; after an append, which drops them, the
/// adjacency's own count decides.
#[test]
fn a_side_covering_every_key_hashes() {
    let e: Vec<Option<i64>> = (0..400).map(|i| Some((i * 13) % 50)).collect();
    let s: Vec<i64> = (0..50).rev().collect();
    let mut c = catalog(&e, &s);
    assert_eq!(check(&e_s(), &c, "S covers E.F"), "");
    assert!(c.join_index_on("E", 0).is_none(), "no rent paid");
    let row: Row = vec![Value::Int(7), Value::Int(0), Value::Float(0.5)].into();
    c.insert_rows("E", vec![row], WalPolicy::None).unwrap();
    assert_eq!(check(&e_s(), &c, "S covers E.F, no statistics"), "");
    assert!(
        c.join_index_on("E", 0).is_some(),
        "the adjacency was built and read"
    );
}

#[test]
fn two_key_join_falls_back() {
    let e: Vec<Option<i64>> = (0..90).map(|i| Some(i % 6)).collect();
    let c = catalog(&e, &[0, 1, 2, 5]);
    let two = join("E", "S", &[("E.F", "S.ID"), ("E.T", "S.k")]);
    assert_eq!(check(&two, &c, "two keys"), "");
    let two = join("S", "E", &[("S.ID", "E.F"), ("S.k", "E.T")]);
    assert_eq!(check(&two, &c, "two keys mirrored"), "");
}

/// A join against a temp table, under `Off`, an outer join, or one with
/// the table as the build side hashes no matter how often it runs; the
/// first two eligible joins of a table hash too, and the third builds the
/// adjacency. The rent paid survives an append, and so does the
/// adjacency: after one, the first eligible join drives; after a delete,
/// joins rent again.
#[test]
fn only_eligible_joins_use_the_trie_and_only_from_the_third() {
    let e: Vec<Option<i64>> = (0..80).map(|i| Some(i % 20)).collect();
    let mut c = catalog(&e, &[2, 3]);
    let joins = |plan: &Plan, profile: &EngineProfile, c: &Catalog| {
        let tracer = Tracer::new();
        execute_traced(plan, c, profile, Some(&tracer)).unwrap();
        let trace = tracer.finish();
        trace
            .spans
            .iter()
            .filter(|s| s.name == "join")
            .map(|s| s.field("join_index").is_some())
            .collect::<Vec<bool>>()
    };
    let off = oracle_like().with_exec(ExecMode::Batch);
    let s_s = join("S", "S", &[("S.ID", "S.ID")]);
    let mut outer = e_s();
    if let Plan::Join { kind, .. } = &mut outer {
        *kind = JoinType::Left;
    }
    for _ in 0..3 {
        assert_eq!(joins(&e_s(), &off, &c), [false], "Off hashes");
        assert_eq!(joins(&s_s, &best(1), &c), [false], "temp tables hash");
        assert_eq!(joins(&outer, &best(1), &c), [false], "outer joins hash");
        assert_eq!(joins(&s_e(), &best(1), &c), [false], "a build-side table");
    }
    assert!(c.join_index_on("E", 0).is_none(), "no join paid rent yet");
    assert_eq!(joins(&e_s(), &best(1), &c), [false], "first rent");
    let row = |f: i64| -> Row { vec![Value::Int(f), Value::Int(0), Value::Float(0.5)].into() };
    c.insert_rows("E", vec![row(3)], WalPolicy::None).unwrap();
    assert_eq!(joins(&e_s(), &best(1), &c), [false], "the rent survived");
    assert!(c.join_index_on("E", 0).is_none());
    assert_eq!(joins(&e_s(), &best(1), &c), [true], "the third builds");
    assert_eq!(c.join_index_on("E", 0).map(|a| a.len()), Some(81));
    c.insert_rows("E", vec![row(2)], WalPolicy::None).unwrap();
    assert_eq!(joins(&e_s(), &best(1), &c), [true], "kept across an append");
    assert_eq!(c.join_index_on("E", 0).map(|a| a.len()), Some(82));
    assert_eq!(joins(&s_e(), &best(1), &c), [false], "still hashes");
    c.apply_delta("E", Vec::new(), vec![row(2)], WalPolicy::None)
        .unwrap();
    assert!(c.join_index_on("E", 0).is_none(), "a delete drops it");
    assert_eq!(joins(&e_s(), &best(1), &c), [false], "and the rent");
    assert_eq!(check(&e_s(), &c, "after the writes"), DRIVEN);
}

/// The paper's systems have no fused MV-join: no paper profile, in row or
/// batch mode, renders `fused` or the pull kernel's `pull` anywhere on
/// `γ(E ⋈ S)`, even once `E` could have paid rent on `T`, while `Cost` +
/// `Batch` does.
#[test]
fn no_paper_profile_fuses() {
    let e: Vec<Option<i64>> = (0..60).map(|i| Some(i % 7)).collect();
    let c = catalog(&e, &[0, 1, 2, 3, 4, 5, 6]);
    let weight = ScalarExpr::binary(BinOp::Mul, ScalarExpr::col("S.vw"), ScalarExpr::col("E.ew"));
    let plan = Plan::Aggregate {
        input: Box::new(e_s()),
        group_by: vec!["E.T".into()],
        items: vec![
            (ScalarExpr::col("E.T"), "T".into()),
            (ScalarExpr::Agg(AggFunc::Sum, Box::new(weight)), "w".into()),
        ],
    };
    let report = |profile: &EngineProfile| {
        let tracer = Tracer::new();
        execute_traced(&plan, &c, profile, Some(&tracer)).unwrap();
        let trace = tracer.finish();
        let spans: Vec<_> = trace.spans.iter().collect();
        render_analyzed(&plan, &spans, false)
    };
    for paper in [
        oracle_like(),
        db2_like(),
        postgres_like(false),
        postgres_like(true),
    ] {
        for exec in [ExecMode::Row, ExecMode::Batch] {
            for _ in 0..3 {
                let report = report(&paper.clone().with_exec(exec));
                let paper = &paper.name;
                assert!(!report.contains("fused"), "{paper} {exec:?}: {report}");
                assert!(!report.contains("pull"), "{paper} {exec:?}: {report}");
            }
        }
    }
    let line = report(&best(1)).lines().next().unwrap().to_string();
    assert!(line.ends_with(" fused)"), "{line}");
}

/// PageRank's step joins all of `P` against `E.F`: `E` has 1/8 as many
/// rows as `P` has, but far fewer distinct `F` keys, so the join can never
/// drive, and `E`'s statistics say so before it pays rent. Three runs leave
/// `E.F` without an adjacency, while the pull kernel keeps one on `E.T`;
/// SSSP's frontier still drives through `E.F`.
#[test]
fn pagerank_pays_no_rent_on_the_join_key() {
    let g = all_in_one::graph::gen::power_law(600, 6_000, true, 53);
    let mut db = db_for(&g, &best(1), EdgeStyle::PageRank).unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", g.node_count() as f64);
    for _ in 0..3 {
        db.execute(&pagerank::sql(10)).unwrap();
    }
    assert!(db.catalog.join_index_on("E", 0).is_none(), "rent on E.F");
    assert!(db.catalog.join_index_on("E", 1).is_some(), "the pull's E.T");
    // a 20 × 20 lattice: SSSP's frontier is a thin wave
    let id = |r: u32, c: u32| r * 20 + c;
    let edges: Vec<(u32, u32, f64)> = (0..20)
        .flat_map(|r| {
            (0..19).flat_map(move |c| [(id(r, c), id(r, c + 1)), (id(c, r), id(c + 1, r))])
        })
        .flat_map(|(a, b)| [(a, b, 1.0 + (a % 7) as f64), (b, a, 2.0 + (b % 5) as f64)])
        .collect();
    let lattice = all_in_one::graph::Graph::from_edges(400, &edges, true);
    let mut db = db_for(&lattice, &best(1), EdgeStyle::WithLoops(0.0)).unwrap();
    sssp::seed(&mut db, 0).unwrap();
    let report = db.explain_analyze_opts(sssp::SQL, false).unwrap().report;
    assert!(report.contains(DRIVEN_E), "{report}");
}

const DRIVEN_E: &str = "driven=D, index=E.F";
