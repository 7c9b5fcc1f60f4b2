//! A result that is a stored table's rows shares the table's chunks.
//!
//! A scan whose consumer takes rows — the root, a row-only operator, an
//! identity projection — hands out the table's rows in O(chunks), in every
//! profile, without building the columnar image or a row (DESIGN §12, §20).
//! Three reads: `select * from t`, a pinned session's `select ID, vw` of a
//! live view, and a with+ statement whose final select is `select * from
//! C`. Under `Off` / `Cost` × row / batch each must return what the engine
//! returned before it shared anything: the table's rows bit for bit (NaN,
//! `-0.0`, NULL, text), the schema the statement names, and the primary key
//! — the table's through a bare scan in the row engine, none through a
//! projection or from the batch engine (whose columns never carried one).
//! The first two must share every chunk with the table they read (the
//! third's table is dropped with the run; `psm.rs` checks its chunks), the
//! pinned read must leave the pinned entry without an image, and writing
//! to a returned relation must leave the catalog as it was.

use all_in_one::algebra::{ExecMode, Optimizer};
use all_in_one::prelude::*;
use all_in_one::storage::{Column, DataType, Row, Schema, CHUNK_ROWS};
use all_in_one::withplus::EdgeDelta;

const WCC: &str = "with C(ID, vw) as (
    (select V.ID, 1.0 * V.ID from V)
    union by update ID
    (select E.T, min(C.vw * E.ew) from C, E where C.ID = E.F group by E.T))
  select * from C";

fn profiles() -> Vec<(String, EngineProfile)> {
    let mut out = Vec::new();
    for opt in [Optimizer::Off, Optimizer::Cost] {
        for exec in [ExecMode::Row, ExecMode::Batch] {
            let p = oracle_like().with_optimizer(opt).with_exec(exec);
            out.push((format!("{opt:?}/{exec:?}"), p));
        }
    }
    out
}

/// `T(k, f, s)` over three chunks, its float column holding NaN, `-0.0` and
/// NULL, with a primary key.
fn t() -> Relation {
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("f", DataType::Float),
        Column::new("s", DataType::Text),
    ]);
    let mut rel = Relation::new(schema);
    for i in 0..2 * CHUNK_ROWS as i64 + 5 {
        let f = match i % 4 {
            0 => Value::Float(f64::NAN),
            1 => Value::Float(-0.0),
            2 => Value::Null,
            _ => Value::Float(i as f64 / 8.0),
        };
        let s = if i % 3 == 0 {
            Value::Null
        } else {
            Value::from("x")
        };
        rel.push(vec![Value::Int(i), f, s].into()).unwrap();
    }
    rel.set_pk(Some(vec![0]));
    rel
}

/// A ring of `n` vertices cut in two, both directions, with a unit
/// self-loop per vertex: two components.
fn graph(n: i64) -> (Relation, Relation) {
    let mut e = Relation::new(edge_schema());
    for v in 0..n {
        e.push(row![v, v, 1.0]).unwrap();
        if v + 1 != n && v + 1 != n / 2 {
            e.push(row![v, v + 1, 1.0]).unwrap();
            e.push(row![v + 1, v, 1.0]).unwrap();
        }
    }
    let mut nodes = Relation::new(node_schema());
    nodes.extend((0..n).map(|v| row![v, 0.0])).unwrap();
    (e, nodes)
}

fn bits(rows: &[Row]) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("f{:x}", f.to_bits()),
        v => format!("{v:?}"),
    };
    rows.iter().map(|r| r.iter().map(cell).collect()).collect()
}

/// Column names as a statement would write them, qualified where they are.
fn names(rel: &Relation) -> Vec<String> {
    let name = |c: &Column| match &c.qualifier {
        Some(q) => format!("{q}.{}", c.name),
        None => c.name.clone(),
    };
    rel.schema().columns().iter().map(name).collect()
}

fn shares_every_chunk(got: &Relation, table: &Relation) -> bool {
    got.chunks().len() == table.chunks().len()
        && got
            .chunks()
            .zip(table.chunks())
            .all(|(a, b)| std::ptr::eq(a, b))
}

/// Write to every chunk of `rel`: a returned relation is the caller's.
fn scribble(mut rel: Relation) {
    let arity = rel.schema().arity();
    for i in (0..rel.len()).step_by(CHUNK_ROWS) {
        rel.set(i, vec![Value::Int(-1); arity].into());
    }
}

#[test]
fn a_bare_scan_shares_the_table_rows() {
    let table = t();
    let rows = table.rows().to_vec();
    for (what, p) in profiles() {
        let batch = p.exec == ExecMode::Batch;
        let mut db = Database::new(p);
        db.create_table("T", table.clone()).unwrap();
        let got = db.execute("select * from T").unwrap().relation;
        let stored = db.catalog.relation("T").unwrap();
        assert!(shares_every_chunk(&got, stored), "{what}: chunks copied");
        assert_eq!(bits(&got.rows().to_vec()), bits(&rows), "{what}: rows");
        assert_eq!(got.schema(), &table.schema().with_qualifier("T"), "{what}");
        let pk = (!batch).then_some(&[0][..]);
        assert_eq!(got.pk(), pk, "{what}: primary key");
        assert!(
            db.catalog.entry("T").unwrap().image.prefix().is_none(),
            "{what}: the read built an image"
        );
        scribble(got);
        let stored = db.catalog.relation("T").unwrap();
        assert_eq!(
            bits(&stored.rows().to_vec()),
            bits(&rows),
            "{what}: catalog"
        );
    }
}

#[test]
fn a_pinned_view_read_shares_the_view_rows() {
    let (e, nodes) = graph(40);
    for (what, p) in profiles() {
        let mut db = Database::new(p);
        db.create_table("E", e.clone()).unwrap();
        db.create_table("V", nodes.clone()).unwrap();
        db.create_view("cc", WCC).unwrap();
        let shared = SharedDatabase::new(db);
        let mut reader = shared.session();
        // the live pattern: pin, write (the view refreshes), read the pin
        let gen = reader.begin_read();
        let pinned = shared.hub().pin();
        assert_eq!(pinned.generation(), gen, "{what}: the reader's generation");
        shared.with_writer(|db| {
            let join = vec![row![19, 20, 1.0], row![20, 19, 1.0]];
            db.apply_edges(vec![EdgeDelta::insert("E", join)]).unwrap();
        });
        let got = reader.query("select ID, vw from cc").unwrap().relation;
        let entry = pinned.catalog().entry("cc").unwrap();
        assert!(
            shares_every_chunk(&got, &entry.rel),
            "{what}: chunks copied"
        );
        assert!(
            entry.image.cached().is_none(),
            "{what}: the read built an image"
        );
        let want = entry.rel.rows().to_vec();
        assert_eq!(bits(&got.rows().to_vec()), bits(&want), "{what}: rows");
        assert_eq!(names(&got), ["ID", "vw"], "{what}");
        assert_eq!(got.pk(), None, "{what}: a projection has no key");
        // the pinned components: the two halves, unjoined
        let labels: Vec<f64> = got.iter().map(|r| r[1].as_f64().unwrap()).collect();
        assert!(
            labels.iter().all(|&l| l == 0.0 || l == 20.0),
            "{what}: {labels:?}"
        );
        scribble(got);
        let entry = pinned.catalog().entry("cc").unwrap();
        assert_eq!(
            bits(&entry.rel.rows().to_vec()),
            bits(&want),
            "{what}: catalog"
        );
        reader.end_read();
    }
}

#[test]
fn a_with_plus_final_scan_returns_the_fixpoint() {
    let (e, nodes) = graph(40);
    let mut want: Option<Vec<Vec<String>>> = None;
    for (what, p) in profiles() {
        let batch = p.exec == ExecMode::Batch;
        let mut db = Database::new(p);
        db.create_table("E", e.clone()).unwrap();
        db.create_table("V", nodes.clone()).unwrap();
        let got = db.execute(WCC).unwrap().relation;
        assert_eq!(names(&got), ["C.ID", "C.vw"], "{what}");
        assert_eq!(
            got.pk(),
            (!batch).then_some(&[0][..]),
            "{what}: primary key"
        );
        let rows = bits(&got.rows().to_vec());
        assert_eq!(
            rows,
            *want.get_or_insert_with(|| rows.clone()),
            "{what}: rows"
        );
        assert!(
            !db.catalog.contains("C"),
            "{what}: the run dropped its tables"
        );
        scribble(got);
    }
}
