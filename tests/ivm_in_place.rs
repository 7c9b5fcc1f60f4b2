//! Live views refresh in place (DESIGN §19): the fold writes the view's own
//! table and logs only the rows it changed.
//!
//! 1. The [`ResultDelta`] a refresh emits is the diff of the view before
//!    and after it — TC (`resume`), SSSP and WCC (`frontier`) over random
//!    insert scripts on several graph families, with and without a pinned
//!    session reader that holds the pre-batch generation (and must keep
//!    reading it).
//! 2. A durable WCC view over 5,000 nodes appends at most 200 WAL bytes
//!    per delta edge per batch, as the refresh report says, and logs the
//!    batch's inserted rows once: in the base table's `EdgeDelta` record.
//! 3. After reopen, the view's table is — as a multiset — the live one and
//!    a cold rebuild's.
//! 4. The catalog call the fold writes through (`Catalog::patch_rows`)
//!    rejects a bad row or a bad or repeated position before it logs
//!    anything; a bad-arity `insert_rows` / `apply_delta` is charged to
//!    neither the durable log nor the cost model's.

use aio_testkit::corpus::rebuild;
use aio_testkit::ivm::{
    apply_batch, build_ivm_db, e_delta, e_rows, scripts_for, view_sql, IVM_EPSILON,
};
use all_in_one::algebra::oracle_like;
use all_in_one::graph::{generate, load, Graph, GraphKind};
use all_in_one::storage::wal::{scan_wal, wal_file};
use all_in_one::storage::{
    edge_schema, node_schema, open_catalog, row, Mutation, Relation, Row, SimVfs, UnsyncedFate,
    Value, Vfs, WalPolicy, WalRecord,
};
use all_in_one::withplus::{Database, RefreshMode, ResultDelta, SharedDatabase};
use std::collections::BTreeMap;
use std::sync::Arc;

const VIEW: &str = "w";

fn sorted<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Vec<Row> {
    let mut rows: Vec<Row> = rows.into_iter().cloned().collect();
    rows.sort();
    rows
}

/// The diff of two materializations, spelled out: keyed on the first
/// column for the `union by update` views (a key whose row moved is
/// changed), a multiset difference for TC; sorted as the stream is.
fn diff(old: &[Row], new: &[Row], keyed: bool) -> (Vec<Row>, Vec<Row>, Vec<(Row, Row)>) {
    if keyed {
        let by_key = |rows: &[Row]| -> BTreeMap<Value, Row> {
            rows.iter().map(|r| (r[0].clone(), r.clone())).collect()
        };
        let (o, n) = (by_key(old), by_key(new));
        assert_eq!(
            (o.len(), n.len()),
            (old.len(), new.len()),
            "keys are unique"
        );
        let added = n
            .iter()
            .filter(|(k, _)| !o.contains_key(*k))
            .map(|(_, r)| r.clone());
        let removed = o
            .iter()
            .filter(|(k, _)| !n.contains_key(*k))
            .map(|(_, r)| r.clone());
        let changed = o
            .iter()
            .filter_map(|(k, r)| Some((r.clone(), n.get(k).filter(|m| *m != r)?.clone())));
        return (
            sorted(&added.collect::<Vec<_>>()),
            sorted(&removed.collect::<Vec<_>>()),
            changed.collect(),
        );
    }
    let mut count: BTreeMap<&Row, i64> = BTreeMap::new();
    for r in new {
        *count.entry(r).or_insert(0) += 1;
    }
    for r in old {
        *count.entry(r).or_insert(0) -= 1;
    }
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    for (r, c) in count {
        let side = if c > 0 { &mut added } else { &mut removed };
        side.extend(std::iter::repeat_n(r.clone(), c.unsigned_abs() as usize));
    }
    (added, removed, Vec::new())
}

fn assert_is_diff(got: &ResultDelta, old: &[Row], new: &[Row], keyed: bool, ctx: &str) {
    let (added, removed, changed) = diff(old, new, keyed);
    assert_eq!(got.added, added, "{ctx}: added");
    assert_eq!(got.removed, removed, "{ctx}: removed");
    assert_eq!(got.changed, changed, "{ctx}: changed");
}

/// Every insert-only batch of `algo`'s view over `g` (the `grow` script),
/// applied under a pinned reader when `pinned`: the emitted delta is the
/// diff of the view's rows before and after, and the reader keeps reading
/// the rows it pinned.
fn check_deltas(algo: &str, g: &Graph, seed: u64, pinned: bool) {
    let ctx = format!("{algo} seed {seed} pinned={pinned}");
    let (mode, keyed) = match algo {
        "tc" => (RefreshMode::Resume, false),
        _ => (RefreshMode::Frontier, true),
    };
    let mut db = build_ivm_db(g, algo, &oracle_like()).unwrap();
    db.create_view_with(VIEW, view_sql(algo), IVM_EPSILON)
        .unwrap();
    let shared = SharedDatabase::new(db);
    let mut reader = shared.session();
    let script = scripts_for(g, seed)
        .into_iter()
        .find(|s| s.name == "grow")
        .unwrap();
    let mut edges: Vec<(u32, u32, f64)> = g.edges().collect();
    let mut cur = g.clone();
    for (i, batch) in script.batches.iter().enumerate() {
        let ctx = format!("{ctx} batch {i}");
        apply_batch(&mut edges, batch).unwrap();
        let next = rebuild(g.node_count(), &edges, g);
        let delta = e_delta(&e_rows(&cur, algo), &e_rows(&next, algo));
        let before = shared.with_writer(|db| db.view_relation(VIEW).unwrap().rows().to_vec());
        if pinned {
            reader.begin_read();
        }
        let (out, after, report) = shared.with_writer(|db| {
            let out = db.apply_edges(vec![delta]).unwrap();
            let after = db.view_relation(VIEW).unwrap().rows().to_vec();
            (out, after, db.view_report(VIEW).unwrap().clone())
        });
        if pinned {
            let read = reader.query(&format!("select * from {VIEW}")).unwrap();
            assert_eq!(
                sorted(read.relation.rows()),
                sorted(&before),
                "{ctx}: pinned read"
            );
            reader.end_read();
        }
        assert_eq!(report.mode, mode, "{ctx}");
        assert_eq!(out.len(), 1, "{ctx}");
        assert_is_diff(&out[0], &before, &after, keyed, &ctx);
        assert_eq!(
            (report.added, report.removed, report.changed),
            (
                out[0].added.len(),
                out[0].removed.len(),
                out[0].changed.len()
            ),
            "{ctx}: report"
        );
        cur = next;
    }
}

#[test]
fn refresh_deltas_are_the_diff_of_the_view() {
    let graphs = [
        (GraphKind::Uniform, 14, 24),
        (GraphKind::PowerLaw, 16, 30),
        (GraphKind::Disconnected, 18, 20),
        (GraphKind::Noisy, 12, 24),
    ];
    for (kind, n, m) in graphs {
        for seed in [3u64, 11, 29] {
            let g = generate(kind, n, m, true, seed);
            for algo in ["tc", "sssp", "wcc"] {
                for pinned in [false, true] {
                    check_deltas(algo, &g, seed, pinned);
                }
            }
        }
    }
}

const DIR: &str = "db";

/// The records the durable log of `db` holds past byte `from` of its
/// current file, and the file's length.
fn records_since(vfs: &SimVfs, db: &Database, from: usize) -> (Vec<WalRecord>, usize) {
    let seq = db.catalog.durability().unwrap().seq();
    let bytes = vfs.read(&wal_file(DIR, seq)).unwrap();
    let scan = scan_wal(&bytes);
    assert_eq!(scan.torn, None);
    let recs = scan.records.into_iter().filter(|(end, _)| *end > from);
    (recs.map(|(_, r)| r).collect(), bytes.len())
}

/// The rows a mutation record writes: what a table it creates holds, or
/// what it adds to one.
fn written(m: &Mutation) -> Vec<Row> {
    match m {
        Mutation::Create { rel, .. } | Mutation::ReplaceRows { rel, .. } => rel.rows().to_vec(),
        Mutation::Insert { rows, .. } | Mutation::EdgeDelta { adds: rows, .. } => rows.clone(),
        _ => Vec::new(),
    }
}

/// A durable WCC view over 5,000 nodes absorbs insert-only batches for at
/// most 200 log bytes per delta edge each, and after reopen its table holds
/// the live rows and a cold rebuild's.
#[test]
fn durable_wcc_view_logs_per_changed_row_and_survives_reopen() {
    let g = generate(GraphKind::Uniform, 5_000, 6_000, true, 5);
    let v = load::node_relation(&g);
    let vfs = Arc::new(SimVfs::new());
    let (mut db, _) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None).unwrap();
    let mut e = Relation::new(edge_schema());
    e.extend(e_rows(&g, "wcc")).unwrap();
    db.create_table("E", e).unwrap();
    db.create_table("V", v.clone()).unwrap();
    db.create_view_with(VIEW, view_sql("wcc"), IVM_EPSILON)
        .unwrap();

    let script = scripts_for(&g, 5)
        .into_iter()
        .find(|s| s.name == "grow")
        .unwrap();
    let mut edges: Vec<(u32, u32, f64)> = g.edges().collect();
    let mut cur = g.clone();
    let mut wal_len = records_since(&vfs, &db, 0).1;
    for (i, batch) in script.batches.iter().enumerate() {
        apply_batch(&mut edges, batch).unwrap();
        let next = rebuild(g.node_count(), &edges, &g);
        let delta = e_delta(&e_rows(&cur, "wcc"), &e_rows(&next, "wcc"));
        let delta_edges = delta.adds.len() as u64;
        let adds = delta.adds.clone();
        let logged = db.catalog.durability().unwrap().bytes_appended();
        db.apply_edges(vec![delta]).unwrap();
        let logged = db.catalog.durability().unwrap().bytes_appended() - logged;
        let (records, len) = records_since(&vfs, &db, wal_len);
        wal_len = len;
        // the batch's inserted rows are logged once, by the base table's
        // delta; the only table the refresh creates or drops is its
        // fixpoint's frontier, never one holding those rows
        let mutations = records.iter().filter_map(|r| match r {
            WalRecord::Mutation(m) => Some(m),
            _ => None,
        });
        let carrying: Vec<&Mutation> = mutations
            .clone()
            .filter(|m| written(m).iter().any(|r| adds.contains(r)))
            .collect();
        assert!(
            matches!(carrying[..], [Mutation::EdgeDelta { table, .. }] if table == "e"),
            "batch {i}: records carrying the inserted rows: {carrying:?}"
        );
        for m in mutations {
            if let Mutation::Create { name: t, .. } | Mutation::Drop { table: t } = m {
                assert_eq!(
                    t,
                    &format!("__delta_{VIEW}"),
                    "batch {i} creates or drops {t}"
                );
            }
        }
        let report = db.view_report(VIEW).unwrap();
        assert_eq!(report.mode, RefreshMode::Frontier, "batch {i}");
        assert_eq!(
            report.wal_bytes, logged,
            "batch {i}: the report's log bytes"
        );
        assert!(
            logged <= 200 * delta_edges,
            "batch {i}: {logged} log bytes for {delta_edges} delta edges"
        );
        assert!(
            db.show_view(VIEW)
                .unwrap()
                .contains(&format!("{logged} WAL bytes")),
            "batch {i}: SHOW VIEW prints the log bytes"
        );
        cur = next;
    }
    let live = sorted(db.view_relation(VIEW).unwrap().rows());
    drop(db);

    let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
    let (mut reopened, report) = Database::open_with_vfs(img, DIR, oracle_like(), None).unwrap();
    assert!(report.corrupt.is_none(), "{:?}", report.corrupt);
    reopened
        .register_view(VIEW, view_sql("wcc"), IVM_EPSILON)
        .unwrap();
    assert_eq!(
        reopened.view_report(VIEW).map(|r| r.mode),
        None,
        "re-attached, not rebuilt"
    );
    assert_eq!(
        sorted(reopened.view_relation(VIEW).unwrap().rows()),
        live,
        "reopened vs live"
    );

    let mut cold = Database::new(oracle_like());
    let mut e = Relation::new(edge_schema());
    e.extend(e_rows(&cur, "wcc")).unwrap();
    cold.create_table("E", e).unwrap();
    cold.create_table("V", v).unwrap();
    cold.create_view_with(VIEW, view_sql("wcc"), IVM_EPSILON)
        .unwrap();
    assert_eq!(
        sorted(cold.view_relation(VIEW).unwrap().rows()),
        live,
        "cold rebuild vs live"
    );
}

/// A keyed fold's in-place rewrite: a bad row or position fails before
/// anything is logged or applied; a good one replays to the same multiset.
#[test]
fn patch_rows_validates_before_logging_and_replays() {
    let vfs = Arc::new(SimVfs::new());
    let (mut cat, _) = open_catalog(vfs.clone(), DIR, None).unwrap();
    cat.create_table("V", Relation::new(node_schema())).unwrap();
    cat.insert_rows("V", vec![row![1, 1.0], row![2, 2.0]], WalPolicy::None)
        .unwrap();
    let logged = cat.durability().unwrap().bytes_appended();
    for (set, append) in [
        (vec![(0, row![1])], vec![]),
        (vec![], vec![row![3, 3.0, 3.0]]),
        (vec![(2, row![3, 3.0])], vec![]),
        // a repeated position would log dels [x, x] and replay to [y, a, b]
        (vec![(0, row![5, 5.0]), (0, row![6, 6.0])], vec![]),
    ] {
        assert!(cat.patch_rows("V", set, append).is_err());
        assert_eq!(
            cat.durability().unwrap().bytes_appended(),
            logged,
            "nothing logged"
        );
    }
    assert_eq!(
        cat.relation("V").unwrap().rows().to_vec(),
        vec![row![1, 1.0], row![2, 2.0]],
        "nothing applied"
    );

    cat.patch_rows("V", vec![(0, row![1, 0.5])], vec![row![3, 3.0]])
        .unwrap();
    let (recovered, report) = open_catalog(vfs, DIR, None).unwrap();
    assert!(report.corrupt.is_none(), "{report}");
    assert_eq!(
        sorted(recovered.relation("V").unwrap().rows()),
        sorted(cat.relation("V").unwrap().rows())
    );
}

#[test]
fn rejected_inserts_are_logged_nowhere() {
    let (mut cat, _) = open_catalog(Arc::new(SimVfs::new()), DIR, None).unwrap();
    cat.create_table("V", Relation::new(node_schema())).unwrap();
    cat.insert_rows("V", vec![row![1, 1.0]], WalPolicy::Full)
        .unwrap();
    let durable = cat.durability().unwrap().bytes_appended();
    let cost = cat.wal.bytes_written();
    assert!(cost > 0, "the cost model charged the good insert");
    assert!(cat
        .insert_rows("V", vec![row![2, 2.0], row![3]], WalPolicy::Full)
        .is_err());
    assert!(cat
        .apply_delta("V", vec![row![4, 4.0, 4.0]], vec![], WalPolicy::Full)
        .is_err());
    assert!(cat
        .apply_delta("V", vec![], vec![row![1]], WalPolicy::Full)
        .is_err());
    assert_eq!(
        cat.relation("V").unwrap().rows().to_vec(),
        vec![row![1, 1.0]]
    );
    assert_eq!(cat.durability().unwrap().bytes_appended(), durable);
    assert_eq!(cat.wal.bytes_written(), cost, "cost-model WAL charged");
}
