//! Torn-write & corruption fuzzing of the durable files (satellite of the
//! crash harness).
//!
//! Build a known-good durable database on a [`SimVfs`], then mangle its
//! on-disk bytes — bit flips, truncations, and appended garbage, applied
//! to the WAL and/or the snapshot — and recover. The contract under *any*
//! corruption:
//!
//! 1. recovery never panics and never errors (it is total);
//! 2. no invented data: every recovered row comes from the set of rows a
//!    table held at some commit point — base rows as written, and the rows
//!    of a maintained view whose refreshes logged their in-place folds as
//!    `EdgeDelta` records on the view's table;
//! 3. the damage is reported in the typed [`RecoveryReport`] whenever the
//!    surviving state differs from the pristine recovery, and a follow-up
//!    open of the repaired disk is clean (corruption never propagates).

use aio_testkit::ivm::{view_sql, IVM_EPSILON};
use all_in_one::algebra::oracle_like;
use all_in_one::storage::{edge_schema, node_schema, row, Relation, Row, SimVfs, UnsyncedFate};
use all_in_one::withplus::{Database, EdgeDelta, RefreshMode};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

const DIR: &str = "db";

/// A durable database with a snapshot generation *and* a live WAL tail:
/// `K` is only in the snapshot, `E`'s last two batches of four only in the
/// WAL. The view `w` (WCC over `E`) absorbs every batch on its frontier
/// path, so the tail also holds the `EdgeDelta` records of its in-place
/// folds. Returns a copy of that disk (built once) and every row a table
/// held at a commit point.
fn build_disk() -> (Arc<SimVfs>, &'static BTreeSet<Row>) {
    static DISK: OnceLock<(SimVfs, BTreeSet<Row>)> = OnceLock::new();
    let (disk, valid) = DISK.get_or_init(build);
    (Arc::new(disk.crash_image(UnsyncedFate::DropAll)), valid)
}

fn build() -> (SimVfs, BTreeSet<Row>) {
    let vfs = Arc::new(SimVfs::new());
    let (mut db, _) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None).unwrap();
    let mut valid = BTreeSet::new();
    let mut seen = |db: &Database| {
        for name in db.catalog.names() {
            valid.extend(db.catalog.relation(&name).unwrap().rows().iter().cloned());
        }
    };
    let mut k = Relation::new(edge_schema());
    k.extend([row![99, 99, 9.9]]).unwrap();
    db.create_table("K", k).unwrap();
    db.create_table("E", Relation::new(edge_schema())).unwrap();
    let mut v = Relation::new(node_schema());
    v.extend((0..13).map(|i| row![i as i64, 0.0])).unwrap();
    db.create_table("V", v).unwrap();
    db.create_view_with("w", view_sql("wcc"), IVM_EPSILON)
        .unwrap();
    seen(&db);
    // a star out of 0: each batch relabels its four targets in the seed's
    // fold, and the loop stops an iteration later
    let rows: Vec<Row> = (0..12).map(|i| row![0i64, (i + 1) as i64, 1.0]).collect();
    for (i, batch) in rows.chunks(4).enumerate() {
        db.apply_edges(vec![EdgeDelta::insert("E", batch.to_vec())])
            .unwrap();
        assert_eq!(db.view_report("w").unwrap().mode, RefreshMode::Frontier);
        seen(&db);
        if i == 0 {
            db.checkpoint().unwrap();
        }
    }
    (vfs.crash_image(UnsyncedFate::DropAll), valid)
}

/// One corruption step: which file, and what to do to its bytes.
#[derive(Clone, Debug)]
struct Mangle {
    wal: bool, // WAL or snapshot
    kind: u8,  // 0 = bit flip, 1 = truncate, 2 = append garbage
    at: usize, // position (mod len)
    bit: u8,   // bit index for flips / byte value for garbage
}

fn apply(vfs: &SimVfs, m: &Mangle) {
    let path = vfs
        .paths()
        .into_iter()
        .filter(|p| {
            let name = p.rsplit('/').next().unwrap_or(p);
            if m.wal {
                name.starts_with("wal.")
            } else {
                name.starts_with("snapshot.")
            }
        })
        .max();
    let Some(path) = path else { return };
    vfs.corrupt(&path, |bytes| {
        if bytes.is_empty() {
            return;
        }
        match m.kind % 3 {
            0 => {
                let i = m.at % bytes.len();
                bytes[i] ^= 1 << (m.bit % 8);
            }
            1 => {
                let keep = m.at % (bytes.len() + 1);
                bytes.truncate(keep);
            }
            _ => {
                for _ in 0..(m.at % 7) + 1 {
                    bytes.push(m.bit);
                }
            }
        }
    });
}

fn check_recovery(vfs: Arc<SimVfs>, valid: &BTreeSet<Row>, ctx: &str) {
    let (db, report) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None)
        .unwrap_or_else(|e| panic!("{ctx}: recovery errored: {e}"));
    for name in db.catalog.names() {
        let rel = db.catalog.relation(&name).unwrap();
        for (i, r) in rel.iter().enumerate() {
            assert!(
                valid.contains(r),
                "{ctx}: recovered {name} row {i} = {r:?} was never written"
            );
        }
    }
    // Committed batches are atomic even under corruption: E is a prefix.
    if db.catalog.contains("E") {
        let e = db.catalog.relation("E").unwrap();
        assert!(
            e.len().is_multiple_of(4) && e.len() <= 12,
            "{ctx}: E has {} rows",
            e.len()
        );
    }
    // The repaired disk must open cleanly (second-order corruption is a bug).
    let img2 = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
    let (db2, report2) = Database::open_with_vfs(img2, DIR, oracle_like(), None)
        .unwrap_or_else(|e| panic!("{ctx}: reopen after repair errored: {e}"));
    assert!(
        report2.corrupt.is_none(),
        "{ctx}: corruption survived repair: {:?} (first open: {:?})",
        report2.corrupt,
        report.corrupt
    );
    assert!(
        db.catalog.same_content(&db2.catalog),
        "{ctx}: repaired disk reopened with different content"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random mangle sequences over WAL + snapshot never break recovery.
    #[test]
    fn recovery_survives_arbitrary_corruption(
        raw in proptest::collection::vec(
            (0u8..2, 0u8..3, 0usize..4096, 0u8..255),
            1..4,
        ),
    ) {
        let steps: Vec<Mangle> = raw
            .into_iter()
            .map(|(w, kind, at, bit)| Mangle { wal: w == 0, kind, at, bit })
            .collect();
        let (vfs, valid) = build_disk();
        for m in &steps {
            apply(&vfs, m);
        }
        check_recovery(vfs, valid, &format!("{steps:?}"));
    }
}

/// Every single-bit flip of the live WAL keeps recovery total and honest.
/// (Exhaustive over the whole file.)
#[test]
fn exhaustive_single_bit_flips_of_the_wal() {
    let (pristine, valid) = build_disk();
    let wal_path = pristine
        .paths()
        .into_iter()
        .find(|p| p.rsplit('/').next().unwrap_or(p).starts_with("wal."))
        .expect("live wal");
    let mut len = 0;
    pristine.corrupt(&wal_path, |b| len = b.len());
    assert!(len > 100, "wal unexpectedly small: {len} bytes");
    for byte in 0..len {
        for bit in 0..8u8 {
            let (vfs, _) = build_disk();
            vfs.corrupt(&wal_path, |b| b[byte] ^= 1 << bit);
            check_recovery(vfs, valid, &format!("flip byte {byte} bit {bit}"));
        }
    }
}

/// Every truncation point of the snapshot falls back without inventing
/// data; the WAL tail of the *current* generation is then unreadable
/// (it references snapshot state), so recovery restarts from scratch or
/// an older generation — but never errors.
#[test]
fn exhaustive_snapshot_truncations() {
    let (pristine, valid) = build_disk();
    let snap_path = pristine
        .paths()
        .into_iter()
        .find(|p| p.rsplit('/').next().unwrap_or(p).starts_with("snapshot."))
        .expect("snapshot");
    let mut len = 0;
    pristine.corrupt(&snap_path, |b| len = b.len());
    for keep in 0..len {
        let (vfs, _) = build_disk();
        vfs.corrupt(&snap_path, |b| b.truncate(keep));
        check_recovery(vfs, valid, &format!("snapshot truncated to {keep} bytes"));
    }
}

/// An intact snapshot in another format version (its checksum holds) is
/// not damage: the open fails with a typed error and writes nothing, where
/// falling back or starting empty would silently drop its tables. The same
/// file with one flipped bit is corruption again and falls back as usual.
#[test]
fn snapshot_of_another_version_fails_the_open_and_writes_nothing() {
    use all_in_one::storage::{wal::crc32, StorageError, Vfs};
    use all_in_one::withplus::WithPlusError;

    let (pristine, valid) = build_disk();
    let snap_path = pristine
        .paths()
        .into_iter()
        .find(|p| p.rsplit('/').next().unwrap_or(p).starts_with("snapshot."))
        .expect("snapshot");
    // the envelope every version shares: magic, version-led body, CRC
    pristine.corrupt(&snap_path, |b| {
        b[8..12].copy_from_slice(&2u32.to_le_bytes());
        let n = b.len();
        let crc = crc32(&b[8..n - 4]);
        b[n - 4..].copy_from_slice(&crc.to_le_bytes());
    });
    let files = |vfs: &SimVfs| -> Vec<(String, Vec<u8>)> {
        vfs.paths()
            .into_iter()
            .map(|p| {
                let bytes = vfs.read(&p).unwrap();
                (p, bytes)
            })
            .collect()
    };
    let before = files(&pristine);
    let ops = pristine.op_count();
    match Database::open_with_vfs(pristine.clone(), DIR, oracle_like(), None) {
        Err(WithPlusError::Storage(StorageError::UnsupportedVersion {
            found: 2,
            supported,
        })) => assert_ne!(supported, 2),
        Err(e) => panic!("wrong error: {e}"),
        Ok((_, report)) => panic!("opened an unreadable snapshot:\n{report}"),
    }
    assert_eq!(pristine.op_count(), ops, "the failed open wrote");
    assert!(before == files(&pristine), "the failed open changed a file");

    pristine.corrupt(&snap_path, |b| b[12] ^= 1);
    check_recovery(pristine, valid, "flipped bit in a version-2 snapshot");
}

/// A create whose primary key names a column the table lacks is rejected
/// live, before anything is logged: it used to be logged and applied, and
/// on reopen its transaction failed validation, so replay stopped there
/// and lost every committed transaction after it.
#[test]
fn an_out_of_range_primary_key_is_rejected_before_it_is_logged() {
    use all_in_one::storage::{StorageError, WalPolicy};
    use all_in_one::withplus::WithPlusError;

    let vfs = Arc::new(SimVfs::new());
    let (mut db, _) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None).unwrap();
    db.create_table("good", Relation::new(node_schema()))
        .unwrap();
    db.catalog
        .insert_rows("good", vec![row![1, 1.0]], WalPolicy::None)
        .unwrap();
    let logged = db.catalog.durability().unwrap().bytes_appended();
    let mut bad = Relation::new(node_schema());
    bad.set_pk(Some(vec![7]));
    match db.create_table("bad", bad) {
        Err(WithPlusError::Storage(StorageError::Invalid(m))) => assert!(m.contains("bad"), "{m}"),
        other => panic!("an out-of-range primary key was accepted: {other:?}"),
    }
    assert_eq!(
        db.catalog.durability().unwrap().bytes_appended(),
        logged,
        "the rejected create was logged"
    );
    assert!(!db.catalog.contains("bad"), "the rejected create applied");
    db.catalog
        .insert_rows("good", vec![row![2, 2.0]], WalPolicy::None)
        .unwrap();
    drop(db);

    let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
    let (db, report) = Database::open_with_vfs(img, DIR, oracle_like(), None).unwrap();
    assert_eq!(report.corrupt, None, "{report}");
    assert_eq!(db.catalog.relation("good").unwrap().len(), 2);
    assert!(!db.catalog.contains("bad"));
}

/// System relations (`aio_metrics`, `aio_query_log`) are derived data that
/// replay never sees, so no mutation may name them: a drop of or an insert
/// into one is rejected before it is logged (it used to be logged, and
/// replay then stopped on the missing table, losing every committed
/// transaction after it), and a checkpoint leaves them out.
#[test]
fn system_tables_are_neither_mutated_nor_checkpointed() {
    use all_in_one::storage::{StorageError, WalPolicy};

    let vfs = Arc::new(SimVfs::new());
    let (mut db, _) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None).unwrap();
    db.create_table("good", Relation::new(node_schema()))
        .unwrap();
    let sys = || Relation::from_rows(node_schema(), vec![row![0, 0.0]]).unwrap();
    db.catalog.put_system_table("aio_metrics", sys());
    let logged = db.catalog.durability().unwrap().bytes_appended();
    let no_such = |r: Result<(), StorageError>| matches!(r, Err(StorageError::NoSuchTable(_)));
    assert!(no_such(db.catalog.drop_table("aio_metrics")));
    let rows = vec![row![1, 1.0]];
    assert!(no_such(db.catalog.insert_rows(
        "aio_metrics",
        rows,
        WalPolicy::None
    )));
    assert_eq!(
        db.catalog.durability().unwrap().bytes_appended(),
        logged,
        "a write to a system table was logged"
    );
    let good = |db: &mut Database, id: i64| {
        let rows = vec![row![id, id as f64]];
        db.catalog
            .insert_rows("good", rows, WalPolicy::None)
            .unwrap();
    };
    good(&mut db, 1);
    let reopen = |vfs: &SimVfs| {
        let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
        let (db, report) = Database::open_with_vfs(img, DIR, oracle_like(), None).unwrap();
        assert_eq!(report.corrupt, None, "{report}");
        assert!(!db.catalog.contains("aio_metrics"));
        db.catalog.relation("good").unwrap().len()
    };
    assert_eq!(reopen(&vfs), 1);
    db.checkpoint().unwrap();
    good(&mut db, 2);
    assert_eq!(reopen(&vfs), 2);
}

/// Every row of a relation has its schema's arity, so every create record
/// the log writes of one decodes (a create whose rows misfit its schema
/// does not, and replay would stop there). The writes that skip
/// `Relation::extend`'s check refuse a misfit row; `iter_mut` hands out
/// values, not rows, and cannot change a row's length.
#[test]
fn a_relation_refuses_rows_its_create_record_could_not_decode() {
    let misfits = |write: fn(&mut Relation)| {
        let mut r = Relation::from_rows(node_schema(), vec![row![1, 1.0]]).unwrap();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| write(&mut r))).is_err()
    };
    assert!(misfits(|r| r.rows_mut().push(row![2])));
    assert!(misfits(|r| {
        r.set(0, row![1, 1.0, 1.0]);
    }));
    assert!(!misfits(|r| {
        r.set(0, row![1, 2.0]);
        r.rows_mut().push(row![2, 2.0]);
    }));
}
