//! The MV-join as one operator (DESIGN §18).
//!
//! Under `Rules` / `Cost` with batch execution, an aggregate over an inner
//! one-key join whose aggregates are all semiring terms over NULL-free
//! columns runs as one operator: the join folds its pairs straight into
//! the aggregate's groups (the push: the join line ends `push`), and
//! EXPLAIN ANALYZE marks the aggregate `fused`; any other aggregate runs
//! unfused. Its rows must be those of the two unfused operators (`Off` +
//! `Batch`) and of the row engine (`Off`), floats to the bit, at every
//! parallelism, with the counters of the unfused run that uses the same
//! pair producer. When the vector's keys are unique and the table has paid
//! rent on the group key, the same fold reads the matrix's rows instead of
//! pairs (the pull: `pull, index=E.T`): the same rows and counters again,
//! and those of the runs that pushed while paying the rent. When a small
//! side drives the join, its pairs fold the same way (`driven=S,
//! index=E.F, push`), with the pushed rows and the driven pair's counters.
//! The fixpoints built on it — PageRank, SSSP, WCC — must match `Off` after
//! every iteration.

use all_in_one::algebra::explain::render_analyzed;
use all_in_one::algebra::{
    execute, execute_traced, oracle_like, AggFunc, BinOp, EngineProfile, ExecMode, ExecStats,
    JoinType, Optimizer, Plan, ScalarExpr,
};
use all_in_one::algos::common::{db_for, EdgeStyle};
use all_in_one::algos::{pagerank, sssp, wcc};
use all_in_one::storage::adjacency::JOIN_INDEX_RENT;
use all_in_one::storage::{
    edge_schema, Catalog, DataType, Relation, Row, Schema, Value, WalPolicy,
};
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
    check_plan(c, &mv_join(group), &format!("{what}, group by {group}"))
}

/// [`check`] for any aggregate over [`join`].
fn check_plan(c: &Catalog, plan: &Plan, what: &str) -> String {
    let plan = plan.clone();
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
        let ctx = format!("{what}, par={par}");
        assert_eq!(bits(&pair), bits(&want), "{ctx}: unfused vs Off");
        assert_eq!(bits(&got), bits(&want), "{ctx}: fused vs Off");
        assert_eq!(got.schema(), want.schema(), "{ctx}");

        let trace = tracer.finish();
        let spans: Vec<_> = trace.spans.iter().collect();
        let report = render_analyzed(&plan, &spans, false);
        let mut lines = report.lines();
        let (root, join_line) = (lines.next().unwrap(), lines.next().unwrap());
        let how = join_line
            .split_once(" morsels=")
            .and_then(|(_, rest)| rest.split_once(' '))
            .map_or("", |(_, how)| how.trim_end_matches(')'))
            .to_string();
        let folded = how.starts_with("pull") || how.ends_with("push");
        assert_eq!(
            root.ends_with(" fused)"),
            folded,
            "{ctx}: {root}\n{join_line}"
        );
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

/// The driven producer under the aggregate: a small build side against a
/// table with many distinct keys. `avg` and `count` are not semiring
/// terms, so the push declines and the join and the aggregate run unfused:
/// the join line reads `driven=` without `push`.
#[test]
fn driven_pairs_feed_the_fused_aggregate() {
    let e = some((0..6_000).map(|i| (i * 13) % 600));
    let s = some((0..70).map(|i| (i * 37) % 650));
    let c = catalog(&e, &s);
    for group in ["E.T", "S.k"] {
        assert_eq!(check(&c, group, "driven"), DRIVEN);
    }
}

/// A group key of two columns, one from each side — the shape of apsp,
/// simrank, lp and mcl: no semiring fold takes it, so the join gathers and
/// the aggregate runs unfused, hashed or driven.
#[test]
fn multi_column_group_key_runs_unfused() {
    let plan = Plan::Aggregate {
        input: Box::new(join()),
        group_by: vec!["E.T".into(), "S.k".into()],
        items: vec![
            (col("E.T"), "t".into()),
            (col("S.k"), "k".into()),
            (agg(AggFunc::Min, BinOp::Add, "S.vw", "E.ew"), "lo".into()),
            (agg(AggFunc::Sum, BinOp::Mul, "S.vw", "E.ew"), "s".into()),
            (agg(AggFunc::Count, BinOp::Add, "E.ew", "S.k"), "c".into()),
        ],
    };
    let e = some((0..9_000).map(|i| (i * 31) % 50));
    let c = catalog(&e, &some((0..50).rev()));
    assert_eq!(check_plan(&c, &plan, "E.T, S.k hashed"), "");
    let e = some((0..6_000).map(|i| (i * 13) % 600));
    let c = catalog(&e, &some((0..70).map(|i| (i * 37) % 650)));
    assert_eq!(check_plan(&c, &plan, "E.T, S.k driven"), DRIVEN);
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

/// The benchmark's `sssp_lattice` shape, built here: a 32 × 32 lattice,
/// both directions of every link weighted 1..=10, and a zero-weight loop on
/// every vertex, last. Under `Cost` + `Batch` SSSP runs delta-driven — the
/// frontier's pairs pushed into groups, the improve fold on columns — and R
/// must equal `Off`'s after every iteration, floats by bits, with the same
/// iteration count and changed rows, at `par` ∈ {1, 2}.
#[test]
fn sssp_lattice_matches_off_after_every_iteration() {
    let (side, mut seed) = (32u32, 53u64);
    let mut w = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (1 + (seed >> 33) % 10) as f64
    };
    let id = |r: u32, c: u32| r * side + c;
    let mut edges = Vec::new();
    for (r, c) in (0..side).flat_map(|r| (0..side).map(move |c| (r, c))) {
        for (a, b) in [
            (c + 1 < side).then(|| (id(r, c), id(r, c + 1))),
            (r + 1 < side).then(|| (id(r, c), id(r + 1, c))),
        ]
        .into_iter()
        .flatten()
        {
            edges.push((a, b, w()));
            edges.push((b, a, w()));
        }
    }
    let g = all_in_one::graph::Graph::from_edges((side * side) as usize, &edges, true);
    let db = |profile: EngineProfile| {
        let mut db = db_for(&g, &profile.with_snapshots(true), EdgeStyle::WithLoops(0.0)).unwrap();
        sssp::seed(&mut db, 0).unwrap();
        db
    };
    let want = db(oracle_like()).execute(sssp::SQL).unwrap().stats;
    let changed = |s: &all_in_one::withplus::RunStats| -> Vec<usize> {
        s.iterations
            .iter()
            .map(|i| i.subqueries[0].ubu_changed_rows)
            .collect()
    };
    assert!(
        want.iterations.len() > 50,
        "{} iterations",
        want.iterations.len()
    );
    for par in [1, 2] {
        let got = db(best(par)).execute(sssp::SQL).unwrap().stats;
        assert!(got.delta_driven, "par={par}");
        assert_eq!(changed(&got), changed(&want), "par={par}");
        assert_eq!(got.snapshots.len(), want.snapshots.len(), "par={par}");
        for (it, (g, w)) in got.snapshots.iter().zip(&want.snapshots).enumerate() {
            assert_eq!(bits(g), bits(w), "par={par}, iteration {it}");
        }
    }
    let report = db(best(1))
        .explain_analyze_opts(sssp::SQL, false)
        .unwrap()
        .report;
    assert!(report.contains("driven=D, index=E.F, push"), "{report}");
}

// -- the pull kernel --------------------------------------------------------

const PULL: &str = "pull, index=E.T";

type Edges = Vec<(Option<i64>, Option<i64>, f64)>;
type Ids = Vec<(Option<i64>, i64, f64)>;

/// `E(F, T, ew)` as a base table and `S(ID, k, vw)` as a temp table, every
/// column NULL-free unless a key is `None`.
fn pull_catalog(e: &Edges, s: &Ids) -> Catalog {
    let (e, s) = relations(e, s);
    let mut c = Catalog::new();
    c.create_table("E", e).unwrap();
    c.create_temp("S", s).unwrap();
    c
}

fn relations(e: &Edges, s: &Ids) -> (Relation, Relation) {
    let key = |k: Option<i64>| k.map_or(Value::Null, Value::Int);
    let mut er = Relation::new(edge_schema());
    for &(f, t, ew) in e {
        let row: Row = vec![key(f), key(t), Value::Float(ew)].into();
        er.push(row).unwrap();
    }
    let mut sr = Relation::new(Schema::of(&[
        ("ID", DataType::Int),
        ("k", DataType::Int),
        ("vw", DataType::Float),
    ]));
    for &(id, k, vw) in s {
        let row: Row = vec![key(id), Value::Int(k), Value::Float(vw)].into();
        sr.push(row).unwrap();
    }
    (er, sr)
}

/// `n` edges: `F` cycles through `0..f_span`, and `t(i, F)` picks `T`.
fn edges(n: i64, f_span: i64, t: impl Fn(i64, i64) -> i64) -> Edges {
    (0..n)
        .map(|i| {
            let f = (i * 7) % f_span;
            (Some(f), Some(t(i, f)), (i % 11) as f64 * 0.37 - 1.1)
        })
        .collect()
}

/// The vector `S`: one row per id in `ids`, in reverse.
fn vector(ids: std::ops::Range<i64>) -> Ids {
    ids.rev()
        .map(|id| (Some(id), id % 4, 0.5 + id as f64 / 3.0))
        .collect()
}

/// `γ_{E.T}` of `sum`, `min` and `max` over `S.vw ⊙ E.ew` under `*` and
/// `+`, operands either way round, an `Int ⊙ Int` and an `Int ⊙ Float`
/// term, and PageRank's post-aggregate item `c * sum(..) + (1 - c) / n`.
fn semiring_terms() -> Plan {
    let pagerank = ScalarExpr::binary(
        BinOp::Add,
        ScalarExpr::binary(
            BinOp::Mul,
            ScalarExpr::lit(0.85),
            agg(AggFunc::Sum, BinOp::Mul, "S.vw", "E.ew"),
        ),
        ScalarExpr::binary(
            BinOp::Div,
            ScalarExpr::binary(BinOp::Sub, ScalarExpr::lit(1.0), ScalarExpr::lit(0.85)),
            ScalarExpr::lit(60.0),
        ),
    );
    Plan::Aggregate {
        input: Box::new(join()),
        group_by: vec!["E.T".into()],
        items: vec![
            (col("E.T"), "g".into()),
            (agg(AggFunc::Sum, BinOp::Mul, "S.vw", "E.ew"), "s".into()),
            (agg(AggFunc::Sum, BinOp::Add, "E.ew", "S.vw"), "sa".into()),
            (agg(AggFunc::Min, BinOp::Add, "S.vw", "E.ew"), "lo".into()),
            (agg(AggFunc::Min, BinOp::Mul, "E.ew", "S.vw"), "lm".into()),
            (agg(AggFunc::Max, BinOp::Mul, "E.ew", "S.vw"), "hi".into()),
            (agg(AggFunc::Max, BinOp::Add, "S.vw", "E.ew"), "ha".into()),
            (pagerank, "pr".into()),
            (agg(AggFunc::Sum, BinOp::Add, "E.F", "S.k"), "si".into()),
            (agg(AggFunc::Min, BinOp::Mul, "S.k", "E.ew"), "mk".into()),
        ],
    }
}

/// One traced run: the rows, the counters and the join line.
fn traced(plan: &Plan, c: &Catalog, profile: &EngineProfile) -> (Relation, ExecStats, String) {
    let tracer = Tracer::new();
    let (rel, stats) = execute_traced(plan, c, profile, Some(&tracer)).unwrap();
    let trace = tracer.finish();
    let spans: Vec<_> = trace.spans.iter().collect();
    let report = render_analyzed(plan, &spans, false);
    let join = report.lines().nth(1).unwrap().to_string();
    (rel, stats, join)
}

/// On a fresh catalog from `fresh`, at `par` ∈ {1, 2, 4}: the first
/// [`JOIN_INDEX_RENT`] runs of `plan` under `Cost` + `Batch` take the fused
/// path while `E` pays rent on `T`, and the next one pulls — with the fused
/// runs' rows, floats by bits, and counters. Returns the last catalog.
fn pull_matches_fused(fresh: impl Fn() -> Catalog, plan: &Plan, what: &str) -> Catalog {
    let mut warm = None;
    for par in [1, 2, 4] {
        let c = fresh();
        let ctx = format!("{what}, par={par}");
        let (fused, fused_stats, line) = traced(plan, &c, &best(par));
        assert!(!line.contains("pull"), "{ctx}: paying rent: {line}");
        for _ in 1..JOIN_INDEX_RENT {
            let (again, _, line) = traced(plan, &c, &best(par));
            assert!(!line.contains("pull"), "{ctx}: still paying rent: {line}");
            assert_eq!(bits(&again), bits(&fused), "{ctx}");
        }
        let (pulled, stats, line) = traced(plan, &c, &best(par));
        assert!(line.ends_with(&format!(" {PULL})")), "{ctx}: {line}");
        assert_eq!(bits(&pulled), bits(&fused), "{ctx}: pull vs fused");
        assert_eq!(counters(&stats), counters(&fused_stats), "{ctx}: counters");
        warm = Some(c);
    }
    warm.unwrap()
}

/// [`pull_matches_fused`], then [`check_plan`] on the warm catalog: the
/// pull against the unfused operators and the row engine.
fn pull_matches_all(fresh: impl Fn() -> Catalog, plan: &Plan, what: &str) -> Catalog {
    let c = pull_matches_fused(fresh, plan, what);
    assert_eq!(check_plan(&c, plan, what), PULL);
    c
}

/// Every matrix row matches, at 300 rows and at 9,000 (split into
/// morsels at `par` > 1, where a row's pair index is its row id).
#[test]
fn pull_dense_every_row_matched() {
    for n in [300, 9_000] {
        let fresh = || pull_catalog(&edges(n, 50, |i, _| (i * 13) % 45), &vector(0..50));
        pull_matches_all(fresh, &semiring_terms(), &format!("{n} rows"));
    }
}

/// Matrix rows whose key misses the vector dangle, and the keys `150..160`
/// of `T` hold only dangling rows, so they form no group; at 9,000 rows a
/// matched row's pair index is its rank among the matched rows.
#[test]
fn pull_dangling_rows_and_unmatched_groups() {
    for n in [300, 9_000] {
        let t = |i: i64, f: i64| if f >= 50 { 100 + f } else { (i * 13) % 45 };
        let fresh = || pull_catalog(&edges(n, 60, t), &vector(0..50));
        let c = pull_matches_all(fresh, &semiring_terms(), &format!("{n} rows, dangling"));
        let (rel, _) = execute(&semiring_terms(), &c, &best(1)).unwrap();
        assert!(
            rel.iter().all(|r| r[0].as_int().unwrap() < 100),
            "no group without a match"
        );
    }
}

/// `T` spread far beyond the row count: the adjacency keeps sorted
/// distinct keys (`Csr::build_sorted`).
#[test]
fn pull_sparse_group_key_span() {
    let fresh = || {
        pull_catalog(
            &edges(5_000, 50, |i, _| (i % 40) * 1_000_003 - 7),
            &vector(0..50),
        )
    };
    pull_matches_all(fresh, &semiring_terms(), "sparse T");
}

/// Appends to `E` between runs leave its adjacency on `T` with a tail,
/// new keys of `T` included; the pull reads base run then tail run.
#[test]
fn pull_over_an_adjacency_with_a_tail() {
    let mut c = pull_matches_all(
        || pull_catalog(&edges(4_800, 50, |i, _| (i * 13) % 45), &vector(0..50)),
        &semiring_terms(),
        "before the appends",
    );
    for batch in 0..3i64 {
        let rows: Vec<Row> = (0..40)
            .map(|i| {
                let t = if i % 4 == 0 { 45 + batch } else { (i * 5) % 45 };
                vec![
                    Value::Int((i * 3) % 55),
                    Value::Int(t),
                    Value::Float(i as f64 - 7.5),
                ]
                .into()
            })
            .collect();
        c.apply_delta("E", rows, Vec::new(), WalPolicy::None)
            .unwrap();
        let what = format!("after append {batch}");
        assert_eq!(check_plan(&c, &semiring_terms(), &what), PULL);
        let adj = c.join_index_on("E", 1).expect("kept across appends");
        assert!(
            adj.tail_len() > 0 && adj.len() == c.relation("E").unwrap().len(),
            "{what}"
        );
    }
}

/// NaN, ±∞ and −0.0 weights: the pull folds them as the fused aggregate
/// does, bit for bit, under `sum`, `min` and `max`. (How the row engine
/// orders NaN is a separate question; it is not asserted here.)
#[test]
fn pull_special_floats_match_fused() {
    let special = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        -f64::NAN,
    ];
    let fresh = || {
        let e: Vec<_> = edges(600, 50, |i, _| (i * 13) % 45)
            .into_iter()
            .enumerate()
            .map(|(i, (f, t, ew))| {
                (
                    f,
                    t,
                    if i % 3 == 0 {
                        special[i % special.len()]
                    } else {
                        ew
                    },
                )
            })
            .collect();
        let mut s = vector(0..50);
        for (i, row) in s.iter_mut().enumerate().step_by(4) {
            row.2 = special[i % special.len()];
        }
        pull_catalog(&e, &s)
    };
    pull_matches_fused(fresh, &semiring_terms(), "NaN, ±∞, −0.0");
}

/// What the pull declines runs the fused path unchanged: after paying the
/// rent, the join line never reads `pull`, and the rows and counters are
/// [`check_plan`]'s.
fn declines(c: &Catalog, plan: &Plan, what: &str) {
    for _ in 0..JOIN_INDEX_RENT + 1 {
        execute(plan, c, &best(1)).unwrap();
    }
    let (_, _, line) = traced(plan, c, &best(1));
    assert!(!line.contains("pull"), "{what}: {line}");
    assert!(!check_plan(c, plan, what).contains("pull"), "{what}");
}

#[test]
fn pull_declines_duplicate_vector_keys() {
    let mut s = vector(0..50);
    s[7].0 = Some(8);
    declines(
        &pull_catalog(&edges(300, 50, |i, _| i % 45), &s),
        &semiring_terms(),
        "S.ID 8 twice",
    );
}

#[test]
fn pull_declines_null_keys_on_either_side() {
    let mut e = edges(300, 50, |i, _| i % 45);
    e[17].0 = None;
    declines(
        &pull_catalog(&e, &vector(0..50)),
        &semiring_terms(),
        "a NULL E.F",
    );
    let mut s = vector(0..50);
    s[3].0 = None;
    declines(
        &pull_catalog(&edges(300, 50, |i, _| i % 45), &s),
        &semiring_terms(),
        "a NULL S.ID",
    );
    let mut e = edges(300, 50, |i, _| i % 45);
    e[5].1 = None;
    declines(
        &pull_catalog(&e, &vector(0..50)),
        &semiring_terms(),
        "a NULL E.T",
    );
}

/// The matrix must be a bare scan of a base table.
#[test]
fn pull_declines_a_projected_or_temp_matrix() {
    let e = edges(300, 50, |i, _| i % 45);
    let c = pull_catalog(&e, &vector(0..50));
    let Plan::Aggregate {
        group_by, items, ..
    } = semiring_terms()
    else {
        unreachable!()
    };
    let projected = Plan::Aggregate {
        input: Box::new(Plan::Join {
            left: Box::new(Plan::Project {
                input: Box::new(Plan::scan("E")),
                items: ["F", "T", "ew"]
                    .map(|n| (col(&format!("E.{n}")), format!("E.{n}")))
                    .to_vec(),
            }),
            right: Box::new(Plan::scan("S")),
            on: vec![("E.F".into(), "S.ID".into())],
            residual: None,
            kind: JoinType::Inner,
        }),
        group_by,
        items,
    };
    declines(&c, &projected, "Project over E");
    let (er, sr) = relations(&e, &vector(0..50));
    let mut c = Catalog::new();
    c.create_temp("E", er).unwrap();
    c.create_temp("S", sr).unwrap();
    declines(&c, &semiring_terms(), "temp E");
}

// -- the push fold ----------------------------------------------------------

const PUSH: &str = "driven=S, index=E.F, push";

/// On a fresh catalog from `fresh`, at `par` ∈ {1, 2, 4}: the first
/// [`JOIN_INDEX_RENT`] runs of `plan` under `Cost` + `Batch` hash while `E`
/// pays rent on `F`, and the hashed pairs fold straight into groups (the
/// join line ends `push`); then the small side `S` drives and its pairs
/// fold the same way — the hashed runs' rows, floats by bits.
/// [`check_plan`] then holds the push to the unfused operators and the row
/// engine, with the driven pair's counters. Returns the last catalog.
fn push_matches(fresh: impl Fn() -> Catalog, plan: &Plan, what: &str) -> Catalog {
    let mut warm = None;
    for par in [1, 2, 4] {
        let (c, ctx) = (fresh(), format!("{what}, par={par}"));
        let (hashed, _, line) = traced(plan, &c, &best(par));
        assert!(
            line.ends_with(" push)") && !line.contains("driven"),
            "{ctx}: paying rent: {line}"
        );
        for _ in 1..JOIN_INDEX_RENT {
            traced(plan, &c, &best(par));
        }
        let (pushed, _, line) = traced(plan, &c, &best(par));
        assert!(line.ends_with(&format!(" {PUSH})")), "{ctx}: {line}");
        assert_eq!(bits(&pushed), bits(&hashed), "{ctx}: driven vs hashed");
        warm = Some(c);
    }
    let c = warm.unwrap();
    assert_eq!(check_plan(&c, plan, what), PUSH);
    c
}

/// 40,000 edges over 701 keys of `F` and a vector of 80 keys: ≈4,560 pairs,
/// cut into morsels at `par` > 1.
fn push_edges(t: impl Fn(i64, i64) -> i64) -> Edges {
    edges(40_000, 701, t)
}

/// Every key of the vector is in `E.F`, or — keys `701..` — none is.
#[test]
fn push_with_frontier_keys_missing_from_the_table() {
    let t = |i: i64, _| (i * 13) % 997;
    push_matches(
        || pull_catalog(&push_edges(t), &vector(600..680)),
        &semiring_terms(),
        "all",
    );
    push_matches(
        || pull_catalog(&push_edges(t), &vector(650..730)),
        &semiring_terms(),
        "some",
    );
}

/// `T` at multiples of 1,000,003, negative ones included: the pairs' group
/// keys span far more than 16 slots per pair, so the push numbers its
/// groups by rank among the sorted keys.
#[test]
fn push_ranks_a_sparse_group_key() {
    let t = |i: i64, _| ((i * 13) % 997 - 498) * 1_000_003;
    push_matches(
        || pull_catalog(&push_edges(t), &vector(600..680)),
        &semiring_terms(),
        "sparse T",
    );
}

/// `0.0` and `−0.0` from different matrix rows of one group: `min` and
/// `max` keep the first of the tie, `sum` its sign, as the fused path does.
#[test]
fn push_signed_zero_ties_within_a_group() {
    let fresh = || {
        let e: Edges = push_edges(|i, _| i % 40)
            .into_iter()
            .enumerate()
            .map(|(i, (f, t, _))| (f, t, if i % 2 == 0 { -0.0 } else { 0.0 }))
            .collect();
        let mut s = vector(600..680);
        s.iter_mut()
            .for_each(|r| r.2 = if r.1 % 2 == 0 { 0.0 } else { -0.0 });
        pull_catalog(&e, &s)
    };
    push_matches(fresh, &semiring_terms(), "±0.0");
}

/// NaN and ±∞ in the vector's value and in `ew`: the push folds them as the
/// fused aggregate and the row engine do, bit for bit.
#[test]
fn push_special_floats_match_fused() {
    let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, -f64::NAN];
    let fresh = || {
        let e: Edges = (push_edges(|i, _| (i * 13) % 45).into_iter().enumerate())
            .map(|(i, (f, t, ew))| (f, t, if i % 3 == 0 { special[i % 5] } else { ew }))
            .collect();
        let mut s = vector(600..680);
        for (i, row) in s.iter_mut().enumerate().step_by(3) {
            row.2 = special[i % 5];
        }
        pull_catalog(&e, &s)
    };
    push_matches(fresh, &semiring_terms(), "NaN, ±∞");
}

/// A term whose matrix operand is `Int` beside a `Float` vector operand
/// would convert the whole matrix column for a few pairs: the push declines
/// and the join and the aggregate run unfused, driven or hashed.
#[test]
fn push_declines_an_int_matrix_operand_beside_a_float() {
    let c = pull_catalog(&push_edges(|i, _| (i * 13) % 997), &vector(600..680));
    let mut plan = semiring_terms();
    let Plan::Aggregate { items, .. } = &mut plan else {
        unreachable!()
    };
    items.push((agg(AggFunc::Sum, BinOp::Add, "S.vw", "E.T"), "st".into()));
    let (_, _, line) = traced(&plan, &c, &best(1));
    assert!(!line.contains("push"), "hashed: {line}");
    assert_eq!(check_plan(&c, &plan, "Int E.T + Float S.vw"), DRIVEN);
}

/// Appends to `E` between runs leave its adjacency on `F` with a tail, new
/// keys of `F` included; the pairs read base run then tail run.
#[test]
fn push_over_an_adjacency_with_a_tail() {
    let fresh = || pull_catalog(&push_edges(|i, _| (i * 13) % 997), &vector(600..680));
    let mut c = push_matches(fresh, &semiring_terms(), "before the appends");
    for batch in 0..3i64 {
        let rows: Vec<Row> = (0..60)
            .map(|i| {
                let f = if i % 4 == 0 {
                    700 + batch
                } else {
                    600 + (i * 5) % 80
                };
                vec![
                    Value::Int(f),
                    Value::Int(i % 31),
                    Value::Float(i as f64 - 7.5),
                ]
                .into()
            })
            .collect();
        c.apply_delta("E", rows, Vec::new(), WalPolicy::None)
            .unwrap();
        let what = format!("after append {batch}");
        assert_eq!(check_plan(&c, &semiring_terms(), &what), PUSH);
        let adj = c.join_index_on("E", 0).expect("kept across appends");
        assert!(adj.tail_len() > 0, "{what}");
    }
}
