//! Algebraic properties of the durable WAL (proptest over random
//! mutation sequences):
//!
//! 1. **append ∘ replay = identity** — applying a random sequence of
//!    catalog mutations to a durable database and recovering its crash
//!    image reproduces, row for row, the same content as applying the
//!    sequence to a plain in-memory catalog;
//! 2. **checkpoints are transparent** — interleaving snapshot checkpoints
//!    anywhere in the sequence changes nothing about the recovered
//!    content, down to the bits of NaN and −0.0 (it only truncates the
//!    log);
//! 3. **replay is idempotent** — recovering the same disk twice (the
//!    first recovery may rewrite the WAL's committed prefix) yields
//!    identical content.

use all_in_one::algebra::oracle_like;
use all_in_one::storage::{
    row, Catalog, DataType, Relation, Row, Schema, SimVfs, UnsyncedFate, Value, WalPolicy,
};
use all_in_one::withplus::Database;
use proptest::prelude::*;
use std::sync::Arc;

const DIR: &str = "db";
const TABLES: [&str; 3] = ["t0", "t1", "t2"];

/// One mutation, encoded so that any random tuple is meaningful.
#[derive(Clone, Debug)]
enum Op {
    Create {
        t: usize,
        n: usize,
    },
    Insert {
        t: usize,
        a: i64,
        n: usize,
    },
    Truncate {
        t: usize,
    },
    Drop {
        t: usize,
    },
    Rename {
        from: usize,
        to: usize,
    },
    /// Interpreted as a checkpoint in the checkpointing twin, skipped in
    /// the plain twin (property 2: it must not matter).
    Checkpoint,
}

fn decode(raw: (u8, u8, u8, u8)) -> Op {
    let (kind, t, a, n) = raw;
    let t = t as usize % TABLES.len();
    match kind % 6 {
        0 => Op::Create {
            t,
            n: n as usize % 5,
        },
        1 => Op::Insert {
            t,
            a: a as i64,
            n: n as usize % 5 + 1,
        },
        2 => Op::Truncate { t },
        3 => Op::Drop { t },
        4 => Op::Rename {
            from: t,
            to: a as usize % TABLES.len(),
        },
        _ => Op::Checkpoint,
    }
}

/// `(F, T, ew, label)`: the weight and label columns also take NULL, NaN,
/// −0.0 and Text, the values a codec most easily gets wrong.
fn schema() -> Schema {
    Schema::of(&[
        ("F", DataType::Int),
        ("T", DataType::Int),
        ("ew", DataType::Float),
        ("label", DataType::Text),
    ])
}

fn batch(a: i64, n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let k = a + i as i64;
            let ew = match k.rem_euclid(4) {
                0 => Value::Float(f64::NAN),
                1 => Value::Float(-0.0),
                2 => Value::Null,
                _ => Value::Float(i as f64 * 0.5),
            };
            let label = match k.rem_euclid(3) {
                0 => Value::Null,
                _ => Value::Text(format!("v{k}").into()),
            };
            row![a, k, ew, label]
        })
        .collect()
}

/// `same_content`, and every float bit for bit (it equates ±0.0).
fn same_bits(a: &Catalog, b: &Catalog) -> bool {
    let bits = |v: &Value| match v {
        Value::Float(f) => Some(f.to_bits()),
        _ => None,
    };
    a.same_content(b)
        && a.names().iter().all(|n| {
            let (x, y) = (a.relation(n).unwrap(), b.relation(n).unwrap());
            x.iter()
                .zip(y.iter())
                .all(|(r, s)| r.iter().map(bits).eq(s.iter().map(bits)))
        })
}

/// Apply one op to a catalog (durable or not — same code path), skipping
/// ops whose preconditions don't hold so both twins skip identically.
fn apply(cat: &mut Catalog, op: &Op) {
    match *op {
        Op::Create { t, n } => {
            if !cat.contains(TABLES[t]) {
                let mut rel = Relation::new(schema());
                rel.extend(batch(t as i64, n)).unwrap();
                cat.create_table(TABLES[t], rel).unwrap();
            }
        }
        Op::Insert { t, a, n } => {
            if cat.contains(TABLES[t]) {
                cat.insert_rows(TABLES[t], batch(a, n), WalPolicy::None)
                    .unwrap();
            }
        }
        Op::Truncate { t } => {
            if cat.contains(TABLES[t]) {
                cat.truncate(TABLES[t]).unwrap();
            }
        }
        Op::Drop { t } => {
            if cat.contains(TABLES[t]) {
                cat.drop_table(TABLES[t]).unwrap();
            }
        }
        Op::Rename { from, to } => {
            if cat.contains(TABLES[from]) && !cat.contains(TABLES[to]) {
                cat.rename_table(TABLES[from], TABLES[to]).unwrap();
            }
        }
        Op::Checkpoint => {}
    }
}

/// Run `ops` on a fresh durable database; `with_checkpoints` interprets
/// the `Checkpoint` ops. Returns the crash image of the synced disk.
fn durable_run(ops: &[Op], with_checkpoints: bool) -> Arc<SimVfs> {
    let vfs = Arc::new(SimVfs::new());
    let (mut db, _) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None).unwrap();
    for op in ops {
        if matches!(op, Op::Checkpoint) {
            if with_checkpoints {
                db.checkpoint().unwrap();
            }
            continue;
        }
        apply(&mut db.catalog, op);
    }
    Arc::new(vfs.crash_image(UnsyncedFate::DropAll))
}

fn recover(img: &Arc<SimVfs>) -> Catalog {
    let (db, report) = Database::open_with_vfs(img.clone(), DIR, oracle_like(), None).unwrap();
    assert!(
        report.corrupt.is_none(),
        "clean disk reported corrupt: {:?}",
        report.corrupt
    );
    db.catalog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Properties 1–3 on one random op sequence each.
    #[test]
    fn append_replay_roundtrips(
        raw in proptest::collection::vec((0u8..6, 0u8..3, 0u8..8, 0u8..5), 1..25),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode).collect();

        // in-memory shadow: the ground truth
        let mut shadow = Catalog::new();
        for op in &ops {
            apply(&mut shadow, op);
        }

        // 1. append ∘ replay = identity
        let img = durable_run(&ops, false);
        let recovered = recover(&img);
        prop_assert!(
            recovered.same_content(&shadow),
            "recovered content diverges from the in-memory shadow\nops: {:?}", ops
        );

        // 2. checkpoints are transparent
        let img_cp = durable_run(&ops, true);
        let recovered_cp = recover(&img_cp);
        prop_assert!(
            same_bits(&recovered_cp, &shadow),
            "checkpointing changed the recovered content\nops: {:?}", ops
        );

        // 3. replay is idempotent
        let again = recover(&img);
        prop_assert!(
            again.same_content(&recovered),
            "second recovery diverged from the first\nops: {:?}", ops
        );
    }
}

/// Checkpoint bounds the log: after a checkpoint the WAL holds only the
/// magic header, and the old generation's files are gone.
#[test]
fn checkpoint_truncates_the_log() {
    let vfs = Arc::new(SimVfs::new());
    let (mut db, _) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None).unwrap();
    let mut rel = Relation::new(schema());
    rel.extend(batch(1, 4)).unwrap();
    db.create_table("t0", rel).unwrap();
    for i in 0..8 {
        db.catalog
            .insert_rows("t0", batch(i, 3), WalPolicy::None)
            .unwrap();
    }
    let d = db.catalog.durability().unwrap();
    let before = d.bytes_appended();
    assert!(before > 500, "log unexpectedly small: {before}");
    let cp = db.checkpoint().unwrap();
    assert_eq!(cp.seq, 1);
    let paths = vfs.paths();
    assert!(
        paths.iter().any(|p| p.ends_with("wal.1"))
            && paths.iter().any(|p| p.ends_with("snapshot.1")),
        "new generation missing: {paths:?}"
    );
    assert!(
        !paths.iter().any(|p| p.ends_with("wal.0"))
            && !paths.iter().any(|p| p.ends_with("snapshot.0")),
        "old generation not removed: {paths:?}"
    );
    // the fresh WAL is just the magic header
    let mut wal_len = usize::MAX;
    vfs.corrupt("db/wal.1", |b| wal_len = b.len());
    assert_eq!(wal_len, 8, "fresh wal should be exactly the magic header");
}

/// A long multi-transaction log replays completely: every record that was
/// appended (inserts and commit markers alike) is replayed, none is
/// discarded, and every inserted row is back. Counts, not seconds — replay
/// *time* is `storage.recover.reopen_ms` in the benchmark.
#[test]
fn long_multi_transaction_log_replays_every_record() {
    const TXNS: usize = 110;
    const PER_TXN: usize = 50;
    let vfs = Arc::new(SimVfs::new());
    let (mut db, _) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None).unwrap();
    db.create_table("t0", Relation::new(schema())).unwrap();
    for t in 0..TXNS {
        db.catalog.wal_begin_txn();
        for i in 0..PER_TXN {
            db.catalog
                .insert_rows("t0", batch((t * PER_TXN + i) as i64, 1), WalPolicy::None)
                .unwrap();
        }
        db.catalog.wal_commit_txn().unwrap();
    }
    let appended = db.catalog.durability().unwrap().records_appended();
    assert!(
        appended >= 5_000,
        "log shorter than intended: {appended} records"
    );
    drop(db);

    let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
    let (db, report) = Database::open_with_vfs(img, DIR, oracle_like(), None).unwrap();
    assert!(report.corrupt.is_none(), "{:?}", report.corrupt);
    assert_eq!(report.wal_records_replayed as u64, appended);
    assert_eq!(report.wal_records_discarded, 0);
    assert_eq!(
        report.wal_txns_applied,
        TXNS + 1,
        "one per insert txn + the create"
    );
    assert_eq!(db.catalog.relation("t0").unwrap().len(), TXNS * PER_TXN);
}
