//! The MV-join as one operator (DESIGN §18).
//!
//! Under `Rules` / `Cost` with batch execution, an aggregate over an inner
//! one-key join runs as one operator: the join hands the aggregate its
//! matching pairs, and the aggregate gathers only the columns it reads
//! (EXPLAIN ANALYZE marks it `fused`). Its rows must be those of the two
//! unfused operators (`Off` + `Batch`) and of the row engine (`Off`), floats
//! to the bit, at every parallelism, with the counters of the unfused run
//! that uses the same pair producer. The fixpoints built on it — PageRank,
//! SSSP, WCC — must match `Off` after every iteration.

use all_in_one::algebra::explain::render_analyzed;
use all_in_one::algebra::{
    execute, execute_traced, oracle_like, AggFunc, BinOp, EngineProfile, ExecMode, ExecStats,
    JoinType, Optimizer, Plan, ScalarExpr,
};
use all_in_one::algos::common::{db_for, EdgeStyle};
use all_in_one::algos::{pagerank, sssp, wcc};
use all_in_one::storage::{edge_schema, Catalog, DataType, Relation, Row, Schema, Value};
use all_in_one::trace::Tracer;

/// `E(F, T, ew)` as a base table and `S(ID, k, vw)` as a temp table, with
/// the given join keys (`None` = NULL). `E.ew` holds negative weights, a
/// `-0.0` and a NULL now and then.
fn catalog(e_keys: &[Option<i64>], s_ids: &[Option<i64>]) -> Catalog {
    let key = |k: &Option<i64>| k.map_or(Value::Null, Value::Int);
    let mut e = Relation::new(edge_schema());
    for (i, f) in e_keys.iter().enumerate() {
        let ew = match i % 13 {
            5 => Value::Null,
            9 => Value::Float(-0.0),
            m => Value::Float(m as f64 * 0.37 - 1.1),
        };
        let row: Row = vec![key(f), Value::Int(i as i64 % 7), ew].into();
        e.push(row).unwrap();
    }
    let mut s = Relation::new(Schema::of(&[
        ("ID", DataType::Int),
        ("k", DataType::Int),
        ("vw", DataType::Float),
    ]));
    for (i, id) in s_ids.iter().enumerate() {
        let vw = Value::Float(0.5 + i as f64 / 3.0);
        let row: Row = vec![key(id), Value::Int(i as i64 % 4), vw].into();
        s.push(row).unwrap();
    }
    let mut c = Catalog::new();
    c.create_table("E", e).unwrap();
    c.create_temp("S", s).unwrap();
    c
}

fn join() -> Plan {
    Plan::Join {
        left: Box::new(Plan::scan("E")),
        right: Box::new(Plan::scan("S")),
        on: vec![("E.F".into(), "S.ID".into())],
        residual: None,
        kind: JoinType::Inner,
    }
}

fn col(name: &str) -> ScalarExpr {
    ScalarExpr::col(name)
}

fn agg(f: AggFunc, op: BinOp, l: &str, r: &str) -> ScalarExpr {
    ScalarExpr::Agg(f, Box::new(ScalarExpr::binary(op, col(l), col(r))))
}

/// `γ_{group; sum, avg, min, max, count over both sides}(E ⋈ S)`.
fn mv_join(group: &str) -> Plan {
    Plan::Aggregate {
        input: Box::new(join()),
        group_by: vec![group.into()],
        items: vec![
            (col(group), "g".into()),
            (agg(AggFunc::Sum, BinOp::Mul, "S.vw", "E.ew"), "s".into()),
            (agg(AggFunc::Avg, BinOp::Add, "E.ew", "S.vw"), "a".into()),
            (agg(AggFunc::Min, BinOp::Sub, "S.vw", "E.ew"), "lo".into()),
            (agg(AggFunc::Max, BinOp::Mul, "E.ew", "S.vw"), "hi".into()),
            (agg(AggFunc::Count, BinOp::Add, "E.ew", "S.k"), "c".into()),
            (agg(AggFunc::Sum, BinOp::Add, "E.T", "S.k"), "si".into()),
        ],
    }
}

fn best(par: usize) -> EngineProfile {
    oracle_like()
        .with_optimizer(Optimizer::Cost)
        .with_exec(ExecMode::Batch)
        .with_parallelism(par)
}

/// Every value with its float bits: `-0.0` and `0.0` differ here.
fn bits(rel: &Relation) -> Vec<String> {
    rel.iter().map(|r| format!("{r:?}")).collect()
}

/// The counters the fused operator must share with the unfused pair.
fn counters(s: &ExecStats) -> [i64; 6] {
    [
        s.joins,
        s.aggregations,
        s.rows_scanned,
        s.rows_produced,
        s.parallel_ops,
        s.morsels,
    ]
    .map(|n| n as i64)
}

/// `mv_join(group)` fused (`Cost` + `Batch`, after two warm-up runs that
/// pay the join's trie rent) against the unfused batch pair (`Off` +
/// `Batch`) and the row engine (`Off`) at `par` ∈ {1, 2, 4}. The fused
/// counters equal the unfused run's with the same pair producer: those of
/// the join alone under `Cost` (driven or hashed, as the fused join ran)
/// plus what the aggregate adds under `Off`. Returns the join line's path
/// annotation (`""` when it hashed).
fn check(c: &Catalog, group: &str, what: &str) -> String {
    let plan = mv_join(group);
    for _ in 0..2 {
        execute(&plan, c, &best(1)).unwrap();
    }
    let mut path = None;
    for par in [1, 2, 4] {
        let off = oracle_like().with_parallelism(par);
        let unfused = off.clone().with_exec(ExecMode::Batch);
        let (want, _) = execute(&plan, c, &off).unwrap();
        let (pair, pair_stats) = execute(&plan, c, &unfused).unwrap();
        let tracer = Tracer::new();
        let (got, stats) = execute_traced(&plan, c, &best(par), Some(&tracer)).unwrap();
        let ctx = format!("{what}, group by {group}, par={par}");
        assert_eq!(bits(&pair), bits(&want), "{ctx}: unfused vs Off");
        assert_eq!(bits(&got), bits(&want), "{ctx}: fused vs Off");
        assert_eq!(got.schema(), want.schema(), "{ctx}");

        let trace = tracer.finish();
        let spans: Vec<_> = trace.spans.iter().collect();
        let report = render_analyzed(&plan, &spans, false);
        let mut lines = report.lines();
        let (root, join_line) = (lines.next().unwrap(), lines.next().unwrap());
        assert!(root.ends_with(" fused)"), "{ctx}: {root}");
        let how = join_line
            .split_once(" morsels=")
            .and_then(|(_, rest)| rest.split_once(' '))
            .map_or("", |(_, how)| how.trim_end_matches(')'))
            .to_string();
        assert_eq!(path.get_or_insert(how.clone()), &how, "{ctx}: {join_line}");

        let (_, join_best) = execute(&join(), c, &best(par)).unwrap();
        let (_, join_off) = execute(&join(), c, &unfused).unwrap();
        let want: Vec<i64> = (0..6)
            .map(|i| counters(&join_best)[i] + counters(&pair_stats)[i] - counters(&join_off)[i])
            .collect();
        assert_eq!(counters(&stats).to_vec(), want, "{ctx}: counters");
    }
    path.unwrap()
}

fn some(keys: impl IntoIterator<Item = i64>) -> Vec<Option<i64>> {
    keys.into_iter().map(Some).collect()
}

const DRIVEN: &str = "driven=S, index=E.F";

/// Every probe row matches exactly one build row (PageRank's `E ⋈ P`: the
/// probe side's columns are shared, the build is a slot table), in the
/// serial case and split into morsels.
#[test]
fn dense_unique_build_keys() {
    for rows in [300, 9_000] {
        let e = some((0..rows).map(|i| (i * 31) % 50));
        let s = some((0..50).rev());
        let c = catalog(&e, &s);
        for group in ["E.T", "S.k"] {
            assert_eq!(check(&c, group, &format!("{rows} rows")), "");
        }
    }
}

/// As many pairs as probe rows, yet not one each: a build key held twice
/// makes up for one held never, so the probe side is gathered, not shared.
#[test]
fn as_many_pairs_as_probe_rows_but_not_one_each() {
    let e = some((0..300).map(|i| i % 50));
    let s = some((0..50).map(|i| if i == 8 { 7 } else { i }));
    let c = catalog(&e, &s);
    for group in ["E.T", "S.k"] {
        assert_eq!(check(&c, group, "7 twice, 8 never"), "");
    }
}

/// Duplicate build keys chain; NULL keys on either side never match.
#[test]
fn duplicate_and_null_keys() {
    let e: Vec<Option<i64>> = (0..5_000)
        .map(|i| (i % 17 != 3).then_some((i * 7) % 40))
        .collect();
    let s: Vec<Option<i64>> = (0..60)
        .map(|i| (i % 11 != 4).then_some((i * 3) % 45))
        .collect();
    let c = catalog(&e, &s);
    for group in ["E.T", "S.k"] {
        assert_eq!(check(&c, group, "dups + NULLs"), "");
    }
}

/// Keys spread far beyond the row count: the build hashes (and chains its
/// duplicates) instead of direct-addressing, and probe rows without a
/// partner dangle, so no side is shared.
#[test]
fn sparse_span_and_dangling_probe_rows() {
    let e = some((0..4_500).map(|i| (i % 90) * 1_000_003 - 7));
    let s = some((0..80).map(|i| (i % 50) * 2 * 1_000_003 - 7));
    let c = catalog(&e, &s);
    for group in ["E.T", "S.k"] {
        assert_eq!(check(&c, group, "sparse"), "");
    }
}

/// An empty side on either end: no pairs, no groups.
#[test]
fn empty_sides() {
    let c = catalog(&some(0..300), &[]);
    assert_eq!(check(&c, "E.T", "empty S"), DRIVEN);
    let c = catalog(&[], &some(0..30));
    assert_eq!(check(&c, "S.k", "empty E"), "");
}

/// The driven producer feeds the fused aggregate too: a small build side
/// against a table with many distinct keys.
#[test]
fn driven_pairs_feed_the_fused_aggregate() {
    let e = some((0..6_000).map(|i| (i * 13) % 600));
    let s = some((0..70).map(|i| (i * 37) % 650));
    let c = catalog(&e, &s);
    for group in ["E.T", "S.k"] {
        assert_eq!(check(&c, group, "driven"), DRIVEN);
    }
}

/// `R` after every iteration of PageRank, SSSP and WCC is the same under
/// `Cost` + `Batch` (fused) as under `Off`, floats to the bit.
#[test]
fn fixpoints_match_off_after_every_iteration() {
    let g = all_in_one::graph::gen::power_law(300, 2_400, true, 53);
    let run = |profile: &EngineProfile, style: EdgeStyle, sql: &str| {
        let mut db = db_for(&g, &profile.clone().with_snapshots(true), style).unwrap();
        db.set_param("c", 0.85);
        db.set_param("n", g.node_count() as f64);
        db.execute(sql).unwrap().stats.snapshots
    };
    let cases = [
        ("pagerank", EdgeStyle::PageRank, pagerank::sql(8)),
        ("sssp", EdgeStyle::WithLoops(0.0), sssp::SQL.to_string()),
        ("wcc", EdgeStyle::WithLoops(1.0), wcc::SQL.to_string()),
    ];
    for (name, style, sql) in cases {
        let want = run(&oracle_like(), style, &sql);
        let got = run(&best(1), style, &sql);
        assert!(want.len() >= 2, "{name}: {} iterations", want.len());
        assert_eq!(got.len(), want.len(), "{name}");
        for (it, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(bits(g), bits(w), "{name}: iteration {it}");
        }
    }
}
