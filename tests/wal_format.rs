//! The on-disk format, frozen byte for byte.
//!
//! A fixed sequence of catalog mutations runs through
//! `Database::open_with_vfs` on a [`SimVfs`]: creates (base and temp),
//! inserts of NaN, −0.0, NULL and Text, truncate, rename, drop, an edge
//! delta, a patch, a whole-table replace (full-outer-join union-by-update
//! inside a transaction), the run markers of a with+ statement, a
//! checkpoint and more inserts. The WAL generation before the checkpoint,
//! the snapshot it writes and the WAL generation after it are compared, as
//! hex, with `tests/golden/wal_format.txt`. Every record tag appears.
//!
//! DESIGN §11 freezes the record tags and their layouts: a database
//! directory written by one build must open in the next. So a mismatch
//! here is a format break to fix in the code, not a golden to refresh —
//! do **not** update this file with `GOLDEN_WRITE=1` (that switch exists
//! only to write it where it is missing).

use all_in_one::algebra::ops::union_by_update;
use all_in_one::algebra::{oracle_like, ExecStats, UbuImpl};
use all_in_one::storage::{
    node_schema, row, DataType, Relation, Row, Schema, SimVfs, Value, Vfs, WalPolicy,
};
use all_in_one::withplus::Database;
use std::sync::Arc;

const GOLDEN_PATH: &str = "tests/golden/wal_format.txt";
const DIR: &str = "db";

fn schema() -> Schema {
    Schema::of(&[
        ("F", DataType::Int),
        ("T", DataType::Int),
        ("ew", DataType::Float),
        ("label", DataType::Text),
    ])
}

/// Rows over every value kind the codec distinguishes, the floats a
/// codec most easily gets wrong included.
fn rows(a: i64, n: i64) -> Vec<Row> {
    (a..a + n)
        .map(|k| {
            let ew = match k.rem_euclid(4) {
                0 => Value::Float(f64::NAN),
                1 => Value::Float(-0.0),
                2 => Value::Null,
                _ => Value::Float(k as f64 * 0.25),
            };
            let label = match k.rem_euclid(3) {
                0 => Value::Null,
                1 => Value::Text(format!("v{k}-ü").into()),
                _ => Value::Text("".into()),
            };
            row![k, -k * 1000, ew, label]
        })
        .collect()
}

fn hex(name: &str, bytes: &[u8]) -> String {
    let mut out = format!("== {name} ({} bytes)\n", bytes.len());
    for line in bytes.chunks(32) {
        out.extend(line.iter().map(|b| format!("{b:02x}")));
        out.push('\n');
    }
    out
}

/// The distinct record tags of a WAL file (`magic (len crc payload)*`,
/// the tag the payload's first byte), sorted.
fn record_tags(wal: &[u8]) -> Vec<u8> {
    let (mut tags, mut pos) = (Vec::new(), 8);
    while pos < wal.len() {
        let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
        tags.push(wal[pos + 8]);
        pos += 8 + len;
    }
    tags.sort_unstable();
    tags.dedup();
    tags
}

fn read(vfs: &SimVfs, path: &str) -> Vec<u8> {
    vfs.read(path)
        .unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn wal_and_snapshot_bytes_match_golden() {
    let vfs = Arc::new(SimVfs::new());
    let (mut db, _) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None).unwrap();
    let mut t = Relation::with_pk(schema(), &["F", "T"]).unwrap();
    t.extend(rows(0, 3)).unwrap();
    db.create_table("T", t).unwrap();
    let mut s = Relation::new(schema());
    s.extend(rows(10, 2)).unwrap();
    db.catalog.create_temp("S", s).unwrap();
    db.catalog
        .insert_rows("T", rows(3, 5), WalPolicy::None)
        .unwrap();
    db.catalog.truncate("S").unwrap();
    db.catalog
        .insert_rows("S", rows(20, 2), WalPolicy::Light)
        .unwrap();
    db.catalog.rename_table("S", "S2").unwrap();
    db.catalog
        .create_table("gone", Relation::new(schema()))
        .unwrap();
    db.catalog.drop_table("gone").unwrap();
    db.catalog
        .apply_delta("T", rows(30, 2), rows(1, 2), WalPolicy::None)
        .unwrap();
    db.catalog
        .patch_rows("T", vec![(0, rows(40, 1).remove(0))], rows(41, 1))
        .unwrap();

    // a whole-table replace inside a transaction: one image, then the commit
    let mut v = Relation::with_pk(node_schema(), &["ID"]).unwrap();
    v.extend([row![1, 1.0], row![2, 2.0], row![3, -0.0]])
        .unwrap();
    db.catalog.create_temp("V", v).unwrap();
    db.catalog.wal_begin_txn();
    let mut delta = Relation::new(node_schema());
    delta.extend([row![2, 0.5], row![4, 4.0]]).unwrap();
    let (profile, mut stats) = (oracle_like(), ExecStats::new());
    union_by_update(
        &mut db.catalog,
        "V",
        delta,
        Some(&[0]),
        UbuImpl::FullOuterJoin,
        &profile,
        &mut stats,
    )
    .unwrap();
    db.catalog.wal_commit_txn().unwrap();

    // the markers of a with+ run: begin, an iteration commit, the end
    let params = [("c".to_string(), Value::Float(0.85))];
    db.catalog
        .wal_run_begin("R", "with+ R ...", &params)
        .unwrap();
    db.catalog
        .create_or_replace("R", Relation::new(node_schema()), true)
        .unwrap();
    db.catalog.wal_commit_iter("R", 1).unwrap();
    db.catalog.wal_run_end("R").unwrap();

    let wal0 = read(&vfs, "db/wal.0");
    assert_eq!(record_tags(&wal0), (1..=9).collect::<Vec<u8>>());
    db.checkpoint().unwrap();
    db.catalog
        .insert_rows("T", rows(50, 2), WalPolicy::Full)
        .unwrap();
    db.catalog
        .insert_rows("S2", rows(60, 1), WalPolicy::None)
        .unwrap();
    let actual = [
        hex("wal.0", &wal0),
        hex("snapshot.1", &read(&vfs, "db/snapshot.1")),
        hex("wal.1", &read(&vfs, "db/wal.1")),
    ]
    .concat();

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("GOLDEN_WRITE").is_some() && !path.exists() {
        std::fs::write(&path, &actual).unwrap();
        eprintln!("wrote {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {GOLDEN_PATH} ({e})"));
    assert!(
        expected == actual,
        "the on-disk format changed (record tags are format-frozen):\n{actual}"
    );
}
