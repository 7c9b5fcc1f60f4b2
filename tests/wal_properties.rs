//! Algebraic properties of the durable WAL (proptest over random
//! mutation sequences), and of the one write path every mutation takes
//! (`Catalog::apply`):
//!
//! 1. **append ∘ replay = identity** — the crash image of a durable
//!    database, recovered, holds what the live catalog held: per table the
//!    same name, kind, schema, key and rows as a multiset, down to the bits
//!    of NaN and −0.0 (a patch's replay moves the rows it rewrote to the
//!    end, DESIGN §19), and the live catalog equals, row for row, an
//!    in-memory catalog given the same sequence;
//! 2. **checkpoints are transparent** — interleaving snapshot checkpoints
//!    anywhere in the sequence changes nothing about the recovered
//!    content (it only truncates the log);
//! 3. **replay is idempotent** — recovering the same disk twice (the
//!    first recovery may rewrite the WAL's committed prefix) yields
//!    identical content;
//! 4. **a rejected mutation leaves no trace** — no op is skipped for its
//!    preconditions: creates of existing tables or with an out-of-range
//!    key, writes to missing tables, rows of the wrong arity, patches at
//!    repeated or missing positions and renames onto a taken name return
//!    `Err`, and leave the content, the durable log's bytes, the cost
//!    model's bytes and the generation as they were.

use all_in_one::algebra::oracle_like;
use all_in_one::storage::{
    row, Batch, Catalog, DataType, Mutation, Relation, Row, Schema, SimVfs, UnsyncedFate, Value,
    WalPolicy,
};
use all_in_one::withplus::Database;
use proptest::prelude::*;
use std::sync::Arc;

const DIR: &str = "db";
const TABLES: [&str; 3] = ["t0", "t1", "t2"];
const POLICIES: [WalPolicy; 3] = [WalPolicy::None, WalPolicy::Light, WalPolicy::Full];

/// One mutation, encoded so that any random tuple is meaningful — and
/// some are meant to be rejected.
#[derive(Clone, Debug)]
enum Op {
    Create {
        t: usize,
        n: usize,
        temp: bool,
        replace: bool,
        bad_pk: bool,
    },
    Insert {
        t: usize,
        a: i64,
        n: usize,
        policy: WalPolicy,
        bad_arity: bool,
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
    /// Adds one batch, deletes the rows of an earlier one where present.
    EdgeDelta {
        t: usize,
        a: i64,
        n: usize,
        policy: WalPolicy,
    },
    /// Positions past the end or repeated are rejected.
    Patch {
        t: usize,
        a: i64,
        at: Vec<usize>,
    },
    ReplaceRows {
        t: usize,
        a: i64,
        n: usize,
        policy: WalPolicy,
        bad_arity: bool,
    },
    /// Interpreted as a checkpoint in the checkpointing twin, skipped in
    /// the plain twin (property 2: it must not matter).
    Checkpoint,
}

fn decode(raw: (u8, u8, u8, u8)) -> Op {
    let (kind, t, a, n) = raw;
    let t = t as usize % TABLES.len();
    let policy = POLICIES[a as usize % 3];
    let (a, n) = (a as i64, n as usize);
    match kind % 9 {
        0 => Op::Create {
            t,
            n: n % 5,
            temp: a & 1 == 1,
            replace: a & 2 == 2,
            bad_pk: a & 12 == 12,
        },
        1 => Op::Insert {
            t,
            a,
            n: n % 5 + 1,
            policy,
            bad_arity: a % 7 == 6,
        },
        2 => Op::Truncate { t },
        3 => Op::Drop { t },
        4 => Op::Rename {
            from: t,
            to: a as usize % TABLES.len(),
        },
        5 => Op::EdgeDelta {
            t,
            a,
            n: n % 4,
            policy,
        },
        6 => Op::Patch {
            t,
            a,
            at: match n % 2 {
                0 => vec![a as usize % 6],
                _ => vec![a as usize % 6, n % 6],
            },
        },
        7 => Op::ReplaceRows {
            t,
            a,
            n: n % 5,
            policy,
            bad_arity: a % 7 == 6,
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

/// `batch`, one column short.
fn short(a: i64, n: usize) -> Vec<Row> {
    batch(a, n).into_iter().map(|r| r[..3].into()).collect()
}

/// Apply one op to a catalog (durable or not — same code path). Nothing is
/// skipped: an op whose preconditions fail is the catalog's to reject.
fn apply(cat: &mut Catalog, op: &Op) -> Result<(), String> {
    let table = |t: usize| TABLES[t].to_string();
    match *op {
        Op::Create {
            t,
            n,
            temp,
            replace,
            bad_pk,
        } => {
            let mut rel = Relation::new(schema());
            rel.extend(batch(t as i64, n)).unwrap();
            rel.set_pk(Some(if bad_pk { vec![0, 4] } else { vec![0, 1] }));
            let create = Mutation::Create {
                name: table(t),
                rel,
                temp,
                replace,
            };
            cat.apply(create, WalPolicy::None)
        }
        Op::Insert {
            t,
            a,
            n,
            policy,
            bad_arity,
        } => {
            let mut rows = batch(a, n);
            if bad_arity {
                rows.extend(short(a + 9, 1));
            }
            cat.insert_rows(TABLES[t], rows, policy)
        }
        Op::Truncate { t } => cat.truncate(TABLES[t]),
        Op::Drop { t } => cat.drop_table(TABLES[t]),
        Op::Rename { from, to } => cat.rename_table(TABLES[from], TABLES[to]),
        Op::EdgeDelta { t, a, n, policy } => {
            cat.apply_delta(TABLES[t], batch(a + 1, n), batch(a, n), policy)
        }
        Op::Patch { t, a, ref at } => {
            let set = at.iter().copied().zip(batch(a + 2, at.len())).collect();
            cat.patch_rows(TABLES[t], set, batch(a + 3, 1))
        }
        Op::ReplaceRows {
            t,
            a,
            n,
            policy,
            bad_arity,
        } => {
            let rel = match bad_arity {
                false => Relation::from_rows(schema(), batch(a, n)).unwrap(),
                true => {
                    let narrow = Schema::new(schema().columns()[..3].to_vec());
                    Relation::from_rows(narrow, short(a, n + 1)).unwrap()
                }
            };
            cat.apply(
                Mutation::ReplaceRows {
                    table: table(t),
                    rel,
                },
                policy,
            )
        }
        Op::Checkpoint => Ok(()),
    }
    .map_err(|e| e.to_string())
}

/// Apply `op`, and if the catalog rejects it check that nothing moved:
/// content, durable bytes, cost-model bytes and generation.
fn apply_checked(cat: &mut Catalog, op: &Op) -> Result<(), String> {
    let durable = |c: &Catalog| c.durability().map(|d| d.bytes_appended());
    let before = (
        cat.fork_readonly(),
        durable(cat),
        cat.wal.bytes_written(),
        cat.generation(),
    );
    let out = apply(cat, op);
    if out.is_err() {
        assert!(cat.same_content(&before.0), "{op:?} rejected, but applied");
        assert_eq!(durable(cat), before.1, "{op:?} rejected, but logged");
        assert_eq!(
            cat.wal.bytes_written(),
            before.2,
            "{op:?} rejected, but charged"
        );
        assert_eq!(cat.generation(), before.3, "{op:?} rejected, but committed");
    }
    out
}

/// Same tables (names, kinds, schemas, keys) holding the same rows as
/// multisets, every float bit for bit: rows sort and compare by a key in
/// which a float is its `to_bits` (a NaN's sign and payload, −0.0).
fn same_multisets(a: &Catalog, b: &Catalog) -> bool {
    let rows = |c: &Catalog, n: &str| {
        let key = |r: &Row| -> Vec<Result<u64, String>> {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => Ok(f.to_bits()),
                    v => Err(format!("{v:?}")),
                })
                .collect()
        };
        let mut rows: Vec<_> = c.relation(n).unwrap().iter().map(key).collect();
        rows.sort();
        rows
    };
    a.names() == b.names()
        && a.names().iter().all(|n| {
            let (x, y) = (a.entry(n).unwrap(), b.entry(n).unwrap());
            x.temp == y.temp
                && x.rel.schema() == y.rel.schema()
                && x.rel.pk() == y.rel.pk()
                && rows(a, n) == rows(b, n)
        })
}

/// Run `ops` on a fresh durable database; `with_checkpoints` interprets
/// the `Checkpoint` ops. Returns each op's outcome, the live catalog and
/// the crash image of the synced disk.
fn durable_run(ops: &[Op], with_checkpoints: bool) -> (Vec<bool>, Catalog, Arc<SimVfs>) {
    let vfs = Arc::new(SimVfs::new());
    let (mut db, _) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None).unwrap();
    let mut outcomes = Vec::new();
    for op in ops {
        if matches!(op, Op::Checkpoint) && with_checkpoints {
            db.checkpoint().unwrap();
        }
        outcomes.push(apply_checked(&mut db.catalog, op).is_ok());
    }
    let live = db.catalog.fork_readonly();
    (
        outcomes,
        live,
        Arc::new(vfs.crash_image(UnsyncedFate::DropAll)),
    )
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

    /// Properties 1–4 on one random op sequence each.
    #[test]
    fn append_replay_roundtrips(
        raw in proptest::collection::vec((0u8..9, 0u8..3, 0u8..16, 0u8..6), 1..25),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode).collect();

        // in-memory twin: same outcomes, same rows in the same order
        let mut memory = Catalog::new();
        let outcomes: Vec<bool> = ops.iter().map(|op| apply_checked(&mut memory, op).is_ok()).collect();

        // 1. append ∘ replay = identity
        let (durable_outcomes, live, img) = durable_run(&ops, false);
        prop_assert_eq!(&durable_outcomes, &outcomes, "ops: {:?}", ops);
        prop_assert!(live.same_content(&memory), "durable and in-memory runs diverge\nops: {:?}", ops);
        let recovered = recover(&img);
        prop_assert!(
            same_multisets(&recovered, &live),
            "recovered content diverges from the live catalog\nops: {:?}", ops
        );

        // 2. checkpoints are transparent
        let (_, live_cp, img_cp) = durable_run(&ops, true);
        prop_assert!(live_cp.same_content(&live), "checkpointing changed the live content\nops: {:?}", ops);
        prop_assert!(
            same_multisets(&recover(&img_cp), &live),
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

/// A keyed union-by-update logs what it changed. `Merge` and `UpdateFrom`
/// overwrite matched rows in place and append the rest: inside a
/// transaction a 3-row delta over a 1,000-row durable R appends a patch
/// and an insert of those rows, not R's after-image. `FullOuterJoin`
/// rebuilds R, so its record stays a full image. Each replays to the live
/// rows (as a multiset: a patch's rewritten rows move to the end).
#[test]
fn keyed_union_by_update_logs_in_proportion_to_its_delta() {
    use all_in_one::algebra::ops::union_by_update;
    use all_in_one::algebra::{ExecStats, UbuImpl};
    use all_in_one::storage::node_schema;

    let logged = |imp: UbuImpl| {
        let vfs = Arc::new(SimVfs::new());
        let (mut db, _) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None).unwrap();
        let mut r = Relation::with_pk(node_schema(), &["ID"]).unwrap();
        r.extend((0..1_000).map(|i| row![i, i as f64 / 7.0]))
            .unwrap();
        db.catalog.create_temp("R", r).unwrap();
        let delta = Relation::from_rows(
            node_schema(),
            vec![row![3, -1.0], row![500, -2.0], row![1_000, 1_000.0]],
        )
        .unwrap();
        let before = db.catalog.durability().unwrap().bytes_appended();
        db.catalog.wal_begin_txn();
        let (profile, mut stats) = (oracle_like(), ExecStats::new());
        union_by_update(
            &mut db.catalog,
            "R",
            delta,
            Some(&[0]),
            imp,
            &profile,
            &mut stats,
        )
        .unwrap();
        db.catalog.wal_commit_txn().unwrap();
        let bytes = db.catalog.durability().unwrap().bytes_appended() - before;
        assert_eq!(stats.ubu_changed_rows, 3, "{}", imp.name());
        let live = db.catalog.fork_readonly();
        let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
        assert!(
            same_multisets(&recover(&img), &live),
            "{}: replay diverges",
            imp.name()
        );
        bytes
    };
    let image = logged(UbuImpl::FullOuterJoin);
    assert!(image > 10_000, "a full image of R is {image} bytes");
    for imp in [UbuImpl::Merge, UbuImpl::UpdateFrom] {
        let bytes = logged(imp);
        assert!(
            bytes < 300,
            "{}: {bytes} log bytes for a 3-row delta (R's image: {image})",
            imp.name()
        );
    }
}

/// Outside a transaction a keyed union-by-update is one commit: `Merge`
/// writes one patch, `UpdateFrom` its patch and its insert in a
/// transaction of its own, so no reader or crash sees R patched but not
/// yet extended. A delta that changes nothing writes nothing.
#[test]
fn keyed_union_by_update_commits_once() {
    use all_in_one::algebra::ops::union_by_update;
    use all_in_one::algebra::{ExecStats, UbuImpl};
    use all_in_one::storage::node_schema;

    for imp in [UbuImpl::Merge, UbuImpl::UpdateFrom] {
        let vfs = Arc::new(SimVfs::new());
        let (mut db, _) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None).unwrap();
        let mut r = Relation::with_pk(node_schema(), &["ID"]).unwrap();
        r.extend((0..100).map(|i| row![i, i as f64])).unwrap();
        db.catalog.create_temp("R", r).unwrap();
        let mut fold = |rows: Vec<Row>| {
            let delta = Relation::from_rows(node_schema(), rows).unwrap();
            let (profile, mut stats) = (oracle_like(), ExecStats::new());
            let (gen, bytes) = (
                db.catalog.generation(),
                db.catalog.durability().unwrap().bytes_appended(),
            );
            union_by_update(
                &mut db.catalog,
                "R",
                delta,
                Some(&[0]),
                imp,
                &profile,
                &mut stats,
            )
            .unwrap();
            let logged = db.catalog.durability().unwrap().bytes_appended() - bytes;
            (db.catalog.generation() - gen, logged)
        };
        let (commits, _) = fold(vec![row![3, -1.0], row![100, 100.0]]);
        assert_eq!(commits, 1, "{}: one fold, one commit", imp.name());
        assert_eq!(fold(vec![]), (0, 0), "{}: an empty fold wrote", imp.name());
        let live = db.catalog.fork_readonly();
        let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
        assert!(
            same_multisets(&recover(&img), &live),
            "{}: replay diverges",
            imp.name()
        );
    }
}

/// A patch's positions are checked in any order (`Catalog::apply`): an
/// unsorted set of valid positions writes, and an out-of-range or a
/// repeated position is rejected with the same message whether the other
/// positions ascend or not — for a patch of rows and of lanes alike.
#[test]
fn patch_positions_are_checked_in_any_order() {
    let rows = |a: i64| batch(a, 4);
    let column_t = |cat: &Catalog| -> Vec<Value> {
        cat.relation("T")
            .unwrap()
            .iter()
            .map(|r| r[1].clone())
            .collect()
    };
    let fresh = || {
        let mut cat = Catalog::new();
        let mut rel = Relation::new(schema());
        rel.extend(batch(0, 4)).unwrap();
        cat.create_table("T", rel).unwrap();
        cat
    };
    let lanes = || {
        let mut rel = Relation::new(schema());
        rel.extend(rows(10)).unwrap();
        Batch::from_relation(&rel)
    };
    type Patch = fn(&mut Catalog, &[usize], Vec<Row>, Batch) -> all_in_one::storage::Result<()>;
    let patches: [(&str, Patch); 2] = [
        ("rows", |cat, at, rows, _| {
            let set = at.iter().zip(rows).map(|(&i, r)| (i, r)).collect();
            cat.patch_rows("T", set, Vec::new())
        }),
        ("lanes", |cat, at, _, cols| {
            let set = at.iter().enumerate().map(|(l, &i)| (i, l as u32)).collect();
            cat.patch_lanes("T", cols, set, Vec::new())
        }),
    ];
    for (kind, patch) in patches {
        let mut cat = fresh();
        patch(&mut cat, &[2, 0, 3], rows(10), lanes()).unwrap();
        let t = cat.relation("T").unwrap();
        for (k, i) in [2, 0, 3].into_iter().enumerate() {
            assert_eq!(t[i][1], rows(10)[k][1], "{kind}: row {i}");
        }
        assert_eq!(t[1][1], batch(0, 4)[1][1], "{kind}: row 1 untouched");
        for (at, message) in [
            (
                &[0, 4][..],
                "patch_rows: position 4 out of range for T (4 rows)",
            ),
            (
                &[4, 0],
                "patch_rows: position 4 out of range for T (4 rows)",
            ),
            (&[1, 1], "patch_rows: position 1 repeated for T"),
            (&[3, 1, 3], "patch_rows: position 3 repeated for T"),
            (
                &[2, 1, 1, 9],
                "patch_rows: position 9 out of range for T (4 rows)",
            ),
        ] {
            let mut cat = fresh();
            let err = patch(&mut cat, at, rows(10), lanes()).unwrap_err();
            assert_eq!(err.to_string(), message, "{kind} {at:?}");
            assert_eq!(column_t(&cat), column_t(&fresh()), "{kind} {at:?}: wrote");
        }
    }
}
