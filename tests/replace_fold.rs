//! The replace rule of the keyed column fold (`ubu_replace_cols`, DESIGN
//! §16): under `Cost` + `Batch` a `union by update` on one key column folds
//! the step's columns into R's rows and columnar image, and leaves R as the
//! full-outer-join row path does — after every iteration, by bits, with the
//! same change counts — while everything it cannot fold that way declines
//! to the row path.

use all_in_one::algebra::ops::{ubu_replace_cols, union_by_update, KeyLookup, Replaced, UbuImpl};
use all_in_one::algebra::{
    oracle_like, AlgebraError, EngineProfile, ExecMode, ExecStats, Optimizer,
};
use all_in_one::algos::common::{add_reverse_edges, db_for, EdgeStyle};
use all_in_one::algos::{pagerank, wcc};
use all_in_one::graph::{generate, Graph, GraphKind};
use all_in_one::storage::{
    node_schema, row, Batch, Catalog, DataType, Relation, Row, Schema, Value, WalPolicy,
};
use all_in_one::withplus::{EdgeDelta, QueryResult, RefreshMode, WithPlusError};

fn best(par: usize) -> EngineProfile {
    oracle_like()
        .with_optimizer(Optimizer::Cost)
        .with_exec(ExecMode::Batch)
        .with_parallelism(par)
        .with_snapshots(true)
}

fn off() -> EngineProfile {
    oracle_like().with_snapshots(true)
}

/// A value by its bits: −0.0 and 0.0 differ, and so do NaN payloads.
fn bits(v: &Value) -> (u8, u64) {
    match v {
        Value::Null => (0, 0),
        Value::Int(i) => (1, *i as u64),
        Value::Float(f) => (2, f.to_bits()),
        other => panic!("no bits for {other:?}"),
    }
}

/// A relation's rows by their bits, in order.
fn bit_rows(rel: &Relation) -> Vec<Vec<(u8, u64)>> {
    rel.iter().map(|r| r.iter().map(bits).collect()).collect()
}

/// [`bit_rows`], sorted: the engines may append new keys in another order.
fn sorted_bits(rel: &Relation) -> Vec<Vec<(u8, u64)>> {
    let mut rows = bit_rows(rel);
    rows.sort();
    rows
}

fn graph() -> Graph {
    generate(GraphKind::PowerLaw, 400, 2_400, true, 7)
}

fn pagerank_run(profile: &EngineProfile) -> QueryResult {
    let g = graph();
    let mut db = db_for(&g, profile, EdgeStyle::PageRank).unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", g.node_count() as f64);
    all_in_one::metrics::set_enabled(true);
    db.execute(&pagerank::sql(12)).unwrap()
}

/// WCC over the undirected graph, with one vertex no edge reaches: it is
/// never derived again, so the delta-driven data checks fail and the loop
/// replaces full-width.
fn wcc_run(profile: &EngineProfile) -> QueryResult {
    let g = graph();
    let mut db = db_for(&g, profile, EdgeStyle::WithLoops(1.0)).unwrap();
    add_reverse_edges(&mut db, &g).unwrap();
    let lone = row![g.node_count() as i64, 0.0];
    db.catalog
        .insert_rows("V", vec![lone], WalPolicy::None)
        .unwrap();
    all_in_one::metrics::set_enabled(true);
    db.execute(wcc::SQL).unwrap()
}

fn changed_rows(out: &QueryResult) -> Vec<usize> {
    let its = &out.stats.iterations;
    its.iter()
        .map(|i| i.subqueries[0].ubu_changed_rows)
        .collect()
}

/// `Cost` + `Batch` ≡ `Off` by bits after every iteration, with the same
/// rows changed per iteration, at every parallelism; and R's scans hit its
/// installed image from the second iteration on.
#[test]
fn column_fold_equals_the_row_path_after_every_iteration() {
    for (name, run) in [
        (
            "pagerank",
            pagerank_run as fn(&EngineProfile) -> QueryResult,
        ),
        ("wcc", wcc_run),
    ] {
        let want = run(&off());
        assert!(!want.stats.delta_driven, "{name}");
        for par in [1, 2, 4] {
            let ctx = format!("{name} par={par}");
            let got = run(&best(par));
            assert!(!got.stats.delta_driven, "{ctx}: full-width");
            assert_eq!(changed_rows(&got), changed_rows(&want), "{ctx}");
            assert_eq!(got.stats.snapshots.len(), want.stats.snapshots.len());
            for (k, (g, w)) in (got.stats.snapshots.iter())
                .zip(&want.stats.snapshots)
                .enumerate()
            {
                assert_eq!(
                    sorted_bits(g),
                    sorted_bits(w),
                    "{ctx}: R after iteration {k}"
                );
            }
            assert_eq!(
                sorted_bits(&got.relation),
                sorted_bits(&want.relation),
                "{ctx}"
            );
            // misses: V, E and R's first scan; every later scan of R hits
            let cache = &got.stats.cache;
            assert!(cache.cols_misses <= 3, "{ctx}: {cache:?}");
        }
    }
}

fn target(rows: &[Row]) -> Catalog {
    let mut c = Catalog::new();
    let mut r = Relation::with_pk(node_schema(), &["ID"]).unwrap();
    r.extend(rows.iter().cloned()).unwrap();
    c.create_temp("V", r).unwrap();
    c
}

fn rel(schema: Schema, rows: &[Row]) -> Relation {
    let mut d = Relation::new(schema);
    d.extend(rows.iter().cloned()).unwrap();
    d
}

/// One keyed replace of `delta` into `V`, by the row path (on a copy of
/// `V`) and by the column fold (under `lookup`, held by the caller): both
/// leave the same rows by bits, in the same order, and count the same; the
/// column fold leaves `V`'s image installed. Returns the fold's move.
fn both(c: &mut Catalog, lookup: &mut Option<KeyLookup>, delta: &[Row]) -> Option<f64> {
    let delta = rel(node_schema(), delta);
    let mut rows = target(&c.relation("V").unwrap().rows().to_vec());
    let mut want = ExecStats::new();
    let foj = UbuImpl::FullOuterJoin;
    union_by_update(
        &mut rows,
        "V",
        delta.clone(),
        Some(&[0]),
        foj,
        &oracle_like(),
        &mut want,
    )
    .unwrap();
    let mut got = ExecStats::new();
    let b = Batch::from_relation(&delta);
    let Replaced::Folded { moved } = ubu_replace_cols(c, "V", &b, &[0], lookup, &mut got).unwrap()
    else {
        panic!("declined {delta:?}");
    };
    let (r, w) = (c.relation("V").unwrap(), rows.relation("V").unwrap());
    assert_eq!(bit_rows(r), bit_rows(w));
    assert_eq!(
        (
            got.ubu_changed_rows,
            got.rows_produced,
            got.union_by_updates
        ),
        (
            want.ubu_changed_rows,
            want.rows_produced,
            want.union_by_updates
        )
    );
    let image = c.entry("V").unwrap().image.cached().expect("installed");
    assert_eq!(image.len(), r.len());
    moved
}

#[test]
fn takes_the_deltas_bits_and_counts_by_storage_equality() {
    let (nan_a, nan_b) = (
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0x7ff8_0000_0000_0002),
    );
    let mut c = target(&[row![1, 0.0], row![2, nan_a], row![3, 5.0], row![4, 1.0]]);
    let mut lookup = None;
    let delta = [row![1, -0.0], row![2, nan_b], row![3, 5.0], row![4, 2.5]];
    // only 4 counts: −0.0 = 0.0 and NaN = NaN
    let moved = both(&mut c, &mut lookup, &delta);
    assert_eq!(moved, Some(1.5));
    let v = c.relation("V").unwrap();
    assert_eq!(v[0][1].as_f64().unwrap().to_bits(), (-0.0f64).to_bits());
    assert_eq!(v[1][1].as_f64().unwrap().to_bits(), nan_b.to_bits());
    // a move to NaN has no size
    assert_eq!(both(&mut c, &mut lookup, &[row![3, f64::NAN]]), None);
}

#[test]
fn new_keys_append_and_the_held_lookup_finds_them() {
    let mut c = target(&[row![0, 1.0], row![1, 1.0]]);
    let mut lookup = None;
    assert_eq!(
        both(
            &mut c,
            &mut lookup,
            &[row![1, 2.0], row![2, 3.0], row![5, 4.0]]
        ),
        None
    );
    assert_eq!(c.relation("V").unwrap().len(), 4);
    let held = lookup.as_ref().expect("held");
    let v = c.relation("V").unwrap();
    assert_eq!(held.row_of(v, &[Value::Int(5)], &[0]), Some(3));
    // the next fold overwrites the appended keys in place
    assert_eq!(
        both(&mut c, &mut lookup, &[row![2, 3.5], row![5, 4.0]]),
        Some(0.5)
    );
    assert_eq!(c.relation("V").unwrap().len(), 4);
}

#[test]
fn a_sparse_key_span_folds_through_a_key_index() {
    let mut c = target(&[row![0, 1.0], row![1_000_000, 2.0], row![5_000_000, 3.0]]);
    let mut lookup = None;
    let delta = [row![0, 1.0], row![5_000_000, 7.0], row![9_000_000, 8.0]];
    assert_eq!(both(&mut c, &mut lookup, &delta), None);
    assert_eq!(
        both(&mut c, &mut lookup, &[row![9_000_000, 9.0]]),
        Some(1.0)
    );
}

/// What the column fold declines leaves R's rows, the lookup and the
/// counters as they were, for the row path to fold.
#[test]
fn declines_what_it_cannot_fold_as_columns() {
    let int_vals = Schema::of(&[("ID", DataType::Int), ("vw", DataType::Int)]);
    let text = Schema::of(&[("ID", DataType::Int), ("vw", DataType::Any)]);
    let cases: Vec<(&str, Relation)> = vec![
        ("Int beside Float", rel(int_vals, &[row![1, 5]])),
        (
            "NULL value",
            rel(node_schema(), &[row![1, 5.0], row![2, Value::Null]]),
        ),
        ("text value", rel(text, &[row![1, "x"]])),
        (
            "repeated key",
            rel(node_schema(), &[row![1, 5.0], row![1, 6.0]]),
        ),
        (
            "descending keys",
            rel(node_schema(), &[row![2, 5.0], row![1, 6.0]]),
        ),
    ];
    for (ctx, delta) in cases {
        let mut c = target(&[row![1, 1.0], row![2, 2.0]]);
        let before = bit_rows(c.relation("V").unwrap());
        let mut lookup = None;
        let mut s = ExecStats::new();
        let b = Batch::from_relation(&delta);
        let out = ubu_replace_cols(&mut c, "V", &b, &[0], &mut lookup, &mut s).unwrap();
        assert_eq!(out, Replaced::Declined, "{ctx}");
        assert_eq!(bit_rows(c.relation("V").unwrap()), before, "{ctx}");
        assert_eq!((s.union_by_updates, s.ubu_changed_rows), (0, 0), "{ctx}");
        assert!(lookup.is_none(), "{ctx}");
    }
    // a repeated key in R declines, and holds no lookup
    let mut c = target(&[]);
    let dup = vec![row![1, 1.0], row![1, 2.0]];
    c.insert_rows("V", dup, WalPolicy::None).unwrap();
    let b = Batch::from_relation(&rel(node_schema(), &[row![1, 3.0]]));
    let mut lookup = None;
    let mut s = ExecStats::new();
    let out = ubu_replace_cols(&mut c, "V", &b, &[0], &mut lookup, &mut s).unwrap();
    assert_eq!(out, Replaced::Declined);
    assert!(lookup.is_none());
}

/// A step whose keys repeat raises the row path's `NonUniqueUpdate` under
/// either engine.
#[test]
fn repeated_step_keys_raise_the_row_paths_error() {
    let sql = "with P(ID, W) as ((select V.ID, 0.0 from V) union by update ID \
               (select E.T, P.W from P, E where P.ID = E.F)) select * from P";
    for profile in [off(), best(1)] {
        let g = graph();
        let mut db = db_for(&g, &profile, EdgeStyle::PageRank).unwrap();
        match db.execute(sql) {
            Err(WithPlusError::Algebra(AlgebraError::NonUniqueUpdate(_))) => {}
            other => panic!("{:?}: {other:?}", profile.exec),
        }
    }
}

const PR_VIEW: &str = "with P(ID, W) as ((select V.ID, 0.0 from V) union by update ID \
     (select E.T, :c * sum(P.W * E.ew) + (1 - :c) / :n from P, E \
      where P.ID = E.F group by E.T)) select ID, W from P";

/// An epsilon-stopped PageRank view builds to the same bits under the
/// column fold as under `Off`, and re-converges in as many iterations: the
/// fold's move, read off the lanes, is the rows' move. (After the edge
/// delta the two engines sum `E`'s reordered rows in different orders, so
/// the re-converged ranks agree to rounding only.)
#[test]
fn an_epsilon_stopped_view_stops_where_off_stops() {
    let run = |profile: EngineProfile| {
        let g = graph();
        let mut db = db_for(&g, &profile, EdgeStyle::PageRank).unwrap();
        db.set_param("c", 0.85);
        db.set_param("n", g.node_count() as f64);
        db.create_view_with("pr_v", PR_VIEW, 1e-6).unwrap();
        let cold = sorted_bits(db.view_relation("pr_v").unwrap());
        // re-weigh vertex 0's out-edges: a mixed delta on E
        let e = db.catalog.relation("E").unwrap();
        let out: Vec<Row> = e
            .iter()
            .filter(|r| r[0] == Value::Int(0))
            .cloned()
            .collect();
        let w = 0.5 / out.len() as f64;
        let halved = out.iter().map(|r| row![r[0].clone(), r[1].clone(), w]);
        db.apply_edges(vec![EdgeDelta::new("E", halved.collect(), out.clone())])
            .unwrap();
        let report = db.view_report("pr_v").unwrap();
        assert_eq!(report.mode, RefreshMode::Reconverge);
        let ranks = db.view_relation("pr_v").unwrap().iter();
        let mut warm: Vec<(Value, f64)> =
            (ranks.map(|r| (r[0].clone(), r[1].as_f64().unwrap()))).collect();
        warm.sort_by(|a, b| a.0.cmp(&b.0));
        (report.iterations, cold, warm)
    };
    let (iterations, cold, warm) = run(oracle_like());
    assert!(iterations > 1 && iterations < 100, "{iterations}");
    let got = run(best(1));
    assert_eq!((got.0, &got.1), (iterations, &cold));
    for ((gk, g), (wk, w)) in got.2.iter().zip(&warm) {
        assert_eq!(gk, wk);
        assert!((g - w).abs() <= 1e-12 * w.abs(), "{gk:?}: {g} vs {w}");
    }
}
