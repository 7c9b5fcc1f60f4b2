//! One fixpoint loop, three ways in: a with+ statement (`execute`), a cold
//! view build (`create_view`) and an incremental refresh (`apply_edges`)
//! must land on the same relation, under every engine profile — so
//! `postgres_like(true)` also drives temp-table index builds on the view
//! path — and under the cost optimizer, where statement and cold view run
//! SSSP delta-driven. Fixed fixture: a 10-node DAG in two weak components.

use all_in_one::algebra::{all_profiles, oracle_like, AlgebraError, EngineProfile, Optimizer};
use all_in_one::storage::{
    edge_schema, node_schema, row, Column, DataType, Relation, Row, Schema, Value,
};
use all_in_one::withplus::{
    Database, EdgeDelta, IterStat, QueryResult, RefreshMode, WithPlusError,
};

/// Edges run low → high, so any low → high addition keeps the graph a DAG
/// (`union all` terminates by emptiness). {0..6} and {7, 8, 9} are not
/// connected until `GROWN` bridges them.
const BASE: &[(i64, i64)] = &[
    (0, 1),
    (0, 2),
    (1, 3),
    (2, 3),
    (3, 4),
    (2, 5),
    (5, 6),
    (7, 8),
    (8, 9),
    (7, 9),
];
const GROWN: &[(i64, i64)] = &[(4, 7), (0, 5), (6, 9)];
const N: i64 = 10;

const ALGOS: &[&str] = &["tc", "tc_all", "sssp", "wcc", "pr"];

fn sql(algo: &str, maxrecursion: Option<usize>) -> String {
    let cap = maxrecursion
        .map(|k| format!(" maxrecursion {k}"))
        .unwrap_or_default();
    match algo {
        "tc" => format!(
            "with TC(F, T) as ((select E.F, E.T from E) union \
             (select TC.F, E.T from TC, E where TC.T = E.F){cap}) select * from TC"
        ),
        "tc_all" => format!(
            "with TC(F, T) as ((select E.F, E.T from E) union all \
             (select TC.F, E.T from TC, E where TC.T = E.F){cap}) select * from TC"
        ),
        "sssp" => format!(
            "with D(ID, vw) as ((select V.ID, V.vw from V) union by update ID \
             (select E.T, min(D.vw + E.ew) from D, E where D.ID = E.F group by E.T){cap}) \
             select * from D"
        ),
        "wcc" => format!(
            "with C(ID, vw) as ((select V.ID, 1.0 * V.ID from V) union by update ID \
             (select E.T, min(C.vw * E.ew) from C, E where C.ID = E.F group by E.T){cap}) \
             select * from C"
        ),
        "pr" => format!(
            "with P(ID, W) as ((select V.ID, 0.0 from V) union by update ID \
             (select E.T, :c * sum(P.W * E.ew) + (1 - :c) / :n from P, E \
              where P.ID = E.F group by E.T){cap}) select ID, W from P"
        ),
        other => panic!("no sql for {other}"),
    }
}

/// The `E` rows `algo` runs over for a given edge list: TC takes the edges
/// as they are; SSSP adds 0-weight self-loops; WCC is undirected with
/// unit self-loops; PageRank weighs each edge by 1 / out-degree.
fn e_rows(algo: &str, edges: &[(i64, i64)]) -> Vec<Row> {
    let outdeg = |f: i64| edges.iter().filter(|e| e.0 == f).count() as f64;
    let mut rows: Vec<Row> = edges
        .iter()
        .map(|&(f, t)| match algo {
            "sssp" => row![f, t, 1.0 + ((f + t) % 3) as f64],
            "pr" => row![f, t, 1.0 / outdeg(f)],
            _ => row![f, t, 1.0],
        })
        .collect();
    if algo == "wcc" {
        rows.extend(edges.iter().map(|&(f, t)| row![t, f, 1.0]));
    }
    if algo == "wcc" || algo == "sssp" {
        let w = if algo == "wcc" { 1.0 } else { 0.0 };
        rows.extend((0..N).map(|v| row![v, v, w]));
    }
    rows
}

fn db_over(profile: &EngineProfile, algo: &str, edges: &[(i64, i64)]) -> Database {
    let mut e = Relation::new(edge_schema());
    e.extend(e_rows(algo, edges)).unwrap();
    let mut v = Relation::new(node_schema());
    // SSSP seeds: distance 0 at the source, "infinity" elsewhere.
    v.extend((0..N).map(|id| row![id, if id == 0 { 0.0 } else { 1e18 }]))
        .unwrap();
    let mut db = Database::new(profile.clone());
    db.create_table("E", e).unwrap();
    db.create_table("V", v).unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", N as f64);
    db
}

/// The delta that turns `E` over `old` into `E` over `new` (PageRank's
/// out-degree renormalization makes even a pure growth a mixed delta).
fn e_delta(algo: &str, old: &[(i64, i64)], new: &[(i64, i64)]) -> EdgeDelta {
    let (old, new) = (e_rows(algo, old), e_rows(algo, new));
    let adds = new.iter().filter(|r| !old.contains(r)).cloned().collect();
    let dels = old.iter().filter(|r| !new.contains(r)).cloned().collect();
    EdgeDelta::new("E", adds, dels)
}

fn sorted(rel: &Relation) -> Vec<Row> {
    let mut rows: Vec<Row> = rel.iter().cloned().collect();
    rows.sort();
    rows
}

/// Row-for-row equality; PageRank's re-convergence is compared within 1e-9.
fn assert_same(algo: &str, got: &Relation, want: &Relation, ctx: &str) {
    let (got, want) = (sorted(got), sorted(want));
    if algo != "pr" {
        assert_eq!(got, want, "{ctx}");
        return;
    }
    assert_eq!(got.len(), want.len(), "{ctx}");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g[0], w[0], "{ctx}");
        let (g, w) = (g[1].as_f64().unwrap(), w[1].as_f64().unwrap());
        assert!((g - w).abs() < 1e-9, "{ctx}: {g} vs {w}");
    }
}

/// The paper's three profiles, and the first with the cost optimizer on.
fn profiles() -> Vec<EngineProfile> {
    let mut out = all_profiles();
    out.push(oracle_like().with_optimizer(Optimizer::Cost));
    out
}

#[test]
fn statement_cold_view_and_refresh_agree_under_every_profile() {
    let grown: Vec<(i64, i64)> = BASE.iter().chain(GROWN).copied().collect();
    for profile in profiles() {
        for &algo in ALGOS {
            let ctx = format!("{algo} under {:?}", (profile.name, profile.optimizer));
            let sql = sql(algo, None);
            let mut db = db_over(&profile, algo, BASE);
            let stmt = db.execute(&sql).unwrap().relation;
            db.create_view("fp", &sql).unwrap();
            assert_same(
                algo,
                db.view_relation("fp").unwrap(),
                &stmt,
                &format!("{ctx}: cold view"),
            );

            db.apply_edges(vec![e_delta(algo, BASE, &grown)]).unwrap();
            let report = db.view_report("fp").unwrap();
            let want_mode = match algo {
                "tc" => RefreshMode::Resume,
                "sssp" | "wcc" => RefreshMode::Frontier,
                "pr" => RefreshMode::Reconverge,
                _ => RefreshMode::Full,
            };
            assert_eq!(report.mode, want_mode, "{ctx}");
            assert!(
                report.iterations > 0 && report.added + report.changed > 0,
                "{ctx}: {report:?}"
            );
            let stmt = db.execute(&sql).unwrap().relation;
            assert_same(
                algo,
                db.view_relation("fp").unwrap(),
                &stmt,
                &format!("{ctx}: refreshed"),
            );
            assert_eq!(
                db.catalog.names(),
                ["e", "fp", "v"],
                "{ctx}: temp tables left behind"
            );
        }
    }
}

#[test]
fn maxrecursion_truncates_statement_and_view_alike() {
    for profile in profiles() {
        for &algo in &["tc", "tc_all", "sssp", "wcc"] {
            let ctx = format!("{algo} under {:?}", (profile.name, profile.optimizer));
            let mut db = db_over(&profile, algo, BASE);
            let full = db.execute(&sql(algo, None)).unwrap().relation;
            let capped = sql(algo, Some(1));
            let out = db.execute(&capped).unwrap();
            assert_eq!(out.stats.iterations.len(), 1, "{ctx}");
            assert_ne!(
                sorted(&out.relation),
                sorted(&full),
                "{ctx}: the cap must bite"
            );
            db.create_view("fp", &capped).unwrap();
            assert_same(algo, db.view_relation("fp").unwrap(), &out.relation, &ctx);
        }
    }
}

#[test]
fn empty_seed_refresh_is_a_zero_iteration_no_op() {
    // A parallel copy of an existing edge (TC) / a heavier one (SSSP)
    // derives nothing the state lacks.
    for (algo, add, mode) in [
        ("tc", row![1i64, 3i64, 1.0], RefreshMode::Resume),
        ("sssp", row![1i64, 3i64, 50.0], RefreshMode::Frontier),
    ] {
        let mut db = db_over(&oracle_like(), algo, BASE);
        db.create_view("fp", &sql(algo, None)).unwrap();
        let before = db.view_relation("fp").unwrap().clone();
        let deltas = db
            .apply_edges(vec![EdgeDelta::insert("E", vec![add])])
            .unwrap();
        assert_eq!(deltas.len(), 1, "{algo}: the view reads E, so it refreshes");
        assert!(deltas[0].is_empty(), "{algo}: {:?}", deltas[0]);
        let report = db.view_report("fp").unwrap();
        assert_eq!((report.mode, report.iterations), (mode, 0), "{algo}");
        assert_eq!(
            sorted(db.view_relation("fp").unwrap()),
            sorted(&before),
            "{algo}"
        );
        let stmt = db.execute(&sql(algo, None)).unwrap().relation;
        assert_same(algo, db.view_relation("fp").unwrap(), &stmt, algo);
    }
}

#[test]
fn empty_init_view_builds_refreshes_and_falls_back() {
    let sql = sql("tc", None);
    let mut db = db_over(&oracle_like(), "tc", &[]);
    db.create_view("fp", &sql).unwrap();
    assert!(db.view_relation("fp").unwrap().is_empty());
    // `select * from TC` passes R through: the view's table is R, no state
    assert_eq!(db.catalog.names(), ["e", "fp", "v"]);

    // growth out of nothing resumes from the delta alone
    db.apply_edges(vec![e_delta("tc", &[], &[(1, 2), (2, 3)])])
        .unwrap();
    assert_eq!(db.view_report("fp").unwrap().mode, RefreshMode::Resume);
    assert_eq!(db.view_relation("fp").unwrap().len(), 3);

    // deleting everything is the full fallback over an empty init: the
    // statement's one fruitless iteration, an empty view
    db.apply_edges(vec![e_delta("tc", &[(1, 2), (2, 3)], &[])])
        .unwrap();
    let report = db.view_report("fp").unwrap().clone();
    assert_eq!((report.mode, report.removed), (RefreshMode::Full, 3));
    assert!(db.view_relation("fp").unwrap().is_empty());
    let stmt = db.execute(&sql).unwrap();
    assert!(stmt.relation.is_empty());
    assert_eq!(report.iterations, stmt.stats.iterations.len());
}

/// Eq. 7 at `optimizer` over `e`/`v`, traced, with per-iteration
/// snapshots; also returns the `psm_run` span's `fold` field.
/// `rel`'s row `i` with column `col` set to `v`.
fn set_cell(rel: &mut Relation, i: usize, col: usize, v: Value) {
    let mut row = rel[i].clone();
    row[col] = v;
    rel.set(i, row);
}

fn eq7_run(optimizer: Optimizer, e: Relation, v: Relation) -> (QueryResult, Option<String>) {
    let profile = oracle_like().with_optimizer(optimizer).with_snapshots(true);
    let mut db = Database::new(profile);
    db.create_table("E", e).unwrap();
    db.create_table("V", v).unwrap();
    db.enable_tracing();
    let out = db.execute(&sql("sssp", None)).unwrap();
    let trace = db.take_trace().unwrap();
    let run = trace.spans_named("psm_run").next().unwrap();
    let fold = run.field("fold").map(|f| f.to_string());
    (out, fold)
}

/// Under `Cost`, Eq. 7 with its zero-weight self-loops folds by improvement
/// and reads only the frontier; wherever a data check fails it replaces,
/// full-width. Either way every iteration leaves R exactly as `Off`'s
/// full-width run does: same iteration count, same rows changed, same
/// relation after every iteration.
#[test]
fn cost_runs_eq7_delta_driven_exactly_where_it_matches_off() {
    let grown: Vec<(i64, i64)> = BASE.iter().chain(GROWN).copied().collect();
    let edges = || {
        let mut e = Relation::new(edge_schema());
        e.extend(e_rows("sssp", &grown)).unwrap();
        e
    };
    let nodes = || {
        db_over(&oracle_like(), "sssp", &[])
            .catalog
            .relation("V")
            .unwrap()
            .clone()
    };
    let with_weight = |w: f64| {
        let mut e = edges();
        set_cell(&mut e, 3, 2, Value::Float(w));
        e
    };
    let int_nodes = {
        let schema = Schema::new(vec![
            Column::new("ID", DataType::Int),
            Column::new("vw", DataType::Int),
        ]);
        let rows = (0..N).map(|id| row![id, if id == 0 { 0 } else { 1_000_000 }]);
        Relation::from_rows(schema, rows.collect()).unwrap()
    };
    let mut null_nodes = nodes();
    set_cell(&mut null_nodes, 4, 1, Value::Null);
    let mut loopless = edges();
    loopless.retain(|r| r[0] != r[1]);
    // Where improving would diverge from replacing. 3 starts below every
    // derivation of it (and has no self-loop), which replacing overwrites:
    let mut no_loop_at_3 = edges();
    no_loop_at_3.retain(|r| r[0] != r[1] || r[0] != Value::Int(3));
    let mut low_3 = nodes();
    set_cell(&mut low_3, 3, 1, Value::Float(0.5));
    // 1 is not derived at iteration 0; iteration 1 derives it through the
    // new key 2 at 101, worse than its seed 5, which replacing writes.
    let late = (
        Relation::from_rows(
            edge_schema(),
            vec![row![0i64, 2i64, 100.0], row![2i64, 1i64, 1.0]],
        ),
        Relation::from_rows(node_schema(), vec![row![0i64, 0.0], row![1i64, 5.0]]),
    );
    let cases = [
        ("zero-weight self-loops", edges(), nodes(), "improve"),
        ("no zero self-loops", loopless, nodes(), "replace"),
        (
            "a seed better than it derives",
            no_loop_at_3,
            low_3,
            "replace",
        ),
        (
            "a key first derived late",
            late.0.unwrap(),
            late.1.unwrap(),
            "replace",
        ),
        ("a NaN weight", with_weight(f64::NAN), nodes(), "replace"),
        (
            "a -inf weight",
            with_weight(f64::NEG_INFINITY),
            nodes(),
            "replace",
        ),
        ("a NULL distance", edges(), null_nodes, "replace"),
        ("an Int value column", edges(), int_nodes, "replace"),
    ];
    for (case, e, v, want) in cases {
        let (off, off_fold) = eq7_run(Optimizer::Off, e.clone(), v.clone());
        let (cost, cost_fold) = eq7_run(Optimizer::Cost, e, v);
        assert_eq!(off_fold, None, "{case}: Off never tries the improve fold");
        assert_eq!(cost_fold.as_deref(), Some(want), "{case}");
        assert_eq!(cost.stats.delta_driven, want == "improve", "{case}");
        assert_eq!(sorted(&cost.relation), sorted(&off.relation), "{case}");
        let (its, off_its) = (&cost.stats.iterations, &off.stats.iterations);
        assert_eq!(its.len(), off_its.len(), "{case}: iteration count");
        assert_eq!(cost.stats.snapshots.len(), its.len(), "{case}");
        for (k, (a, b)) in cost
            .stats
            .snapshots
            .iter()
            .zip(&off.stats.snapshots)
            .enumerate()
        {
            assert_eq!(sorted(a), sorted(b), "{case}: R after iteration {k}");
        }
        let changed = |s: &[IterStat]| -> Vec<usize> {
            s.iter().map(|i| i.subqueries[0].ubu_changed_rows).collect()
        };
        assert_eq!(changed(its), changed(off_its), "{case}: rows changed");
        let derived = |s: &[IterStat]| s.iter().map(|i| i.delta_rows).sum::<usize>();
        if want == "improve" {
            assert!(
                derived(its) < derived(off_its),
                "{case}: reads the frontier"
            );
        } else {
            assert_eq!(derived(its), derived(off_its), "{case}: full-width");
        }
    }

    // A NaN distance: which NaN-carrying derivation `min` keeps depends on
    // the order rows reach it, so even two replacing runs whose join orders
    // differ (`Off` and `Cost`) part ways between iterations here. It must
    // keep the improve fold off; only the fold is compared. (At the sink 9
    // the NaN reaches no other vertex, so no other check sees it.)
    let mut nan_nodes = nodes();
    set_cell(&mut nan_nodes, 9, 1, Value::Float(f64::NAN));
    let (cost, fold) = eq7_run(Optimizer::Cost, edges(), nan_nodes);
    assert_eq!(fold.as_deref(), Some("replace"), "a NaN distance");
    assert!(!cost.stats.delta_driven, "a NaN distance");
}

/// An epsilon stop reads the largest move of the fold; a move to or from
/// NaN has no size, so it must count as a change rather than as zero. The
/// view (ε = 1e-9) must run as long as the statement does.
#[test]
fn epsilon_stop_counts_a_move_to_nan_as_a_change() {
    let mut v = Relation::new(node_schema());
    v.extend([row![1i64, f64::NAN], row![2i64, 1.0], row![3i64, 1.0]])
        .unwrap();
    let mut e = Relation::new(edge_schema());
    e.extend([row![1i64, 2i64, 1.0], row![2i64, 3i64, 1.0]])
        .unwrap();
    let mut db = Database::new(oracle_like());
    db.create_table("E", e).unwrap();
    db.create_table("V", v).unwrap();
    let sql = "with P(ID, vw) as ((select V.ID, V.vw from V) union by update ID \
               (select E.T, sum(P.vw * E.ew) from P, E where P.ID = E.F group by E.T)) \
               select * from P";
    let stmt = db.execute(sql).unwrap();
    assert_eq!(stmt.stats.iterations.len(), 3);
    let want = vec![
        row![1i64, f64::NAN],
        row![2i64, f64::NAN],
        row![3i64, f64::NAN],
    ];
    assert_eq!(sorted(&stmt.relation), want);
    db.create_view("pv", sql).unwrap();
    assert_eq!(sorted(db.view_relation("pv").unwrap()), want);
}

/// A refresh that fails mid-fixpoint must not leak its temp tables into
/// the catalog the batch then commits, and must leave the view as it was:
/// the fold wrote R in place, so the failure puts R's pre-batch version
/// back — the view's own table when the final query passes R through, the
/// state table (and an untouched output) otherwise.
#[test]
fn failed_refresh_drops_its_temp_tables_and_leaves_the_view_intact() {
    // No aggregate: two edges into one node derive two rows for its key,
    // which replace-by-key rejects.
    let with = "with L(ID, vw) as ((select V.ID, V.vw from V) union by update ID \
                (select E.T, L.vw from L, E where L.ID = E.F) maxrecursion 4)";
    let cases: [(&str, &[&str]); 2] = [
        ("select * from L", &["e", "lv", "v"]),
        (
            "select L.vw, L.ID from L",
            &["__ivm_state_lv", "e", "lv", "v"],
        ),
    ];
    for (last, tables) in cases {
        let sql = format!("{with} {last}");
        let mut db = db_over(&oracle_like(), "tc", &[(1, 2), (2, 3)]);
        db.create_view("lv", &sql).unwrap();
        let names = db.catalog.names();
        assert_eq!(names, tables, "{last}");
        let before: Vec<Relation> = names
            .iter()
            .map(|t| db.catalog.relation(t).unwrap().clone())
            .collect();

        let err = db
            .apply_edges(vec![EdgeDelta::insert("E", vec![row![1i64, 3i64, 1.0]])])
            .unwrap_err();
        assert!(
            matches!(
                err,
                WithPlusError::Algebra(AlgebraError::NonUniqueUpdate(_))
            ),
            "{last}: {err:?}"
        );
        assert_eq!(
            db.catalog.names(),
            names,
            "{last}: failed refresh leaked temp tables"
        );
        for (t, rel) in names.iter().zip(&before) {
            if t != "e" {
                let now = db.catalog.relation(t).unwrap();
                assert_eq!(now.rows(), rel.rows(), "{last}: {t} changed");
            }
        }

        // the base delta committed; removing the offending edge again is a
        // valid batch and refreshes normally
        let deltas = db
            .apply_edges(vec![EdgeDelta::delete("E", vec![row![1i64, 3i64, 1.0]])])
            .unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(db.catalog.names(), names);
        let stmt = db.execute(&sql).unwrap().relation;
        assert_eq!(sorted(db.view_relation("lv").unwrap()), sorted(&stmt));
    }
}
