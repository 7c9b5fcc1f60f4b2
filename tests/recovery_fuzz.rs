//! Torn-write & corruption fuzzing of the durable files (satellite of the
//! crash harness).
//!
//! Build a known-good durable database on a [`SimVfs`], then mangle its
//! on-disk bytes — bit flips, truncations, and appended garbage, applied
//! to the WAL and/or the snapshot — and recover. The contract under *any*
//! corruption:
//!
//! 1. recovery never panics and never errors (it is total);
//! 2. no invented data: every recovered row of the base tables comes from
//!    the set of rows that were actually written;
//! 3. the damage is reported in the typed [`RecoveryReport`] whenever the
//!    surviving state differs from the pristine recovery, and a follow-up
//!    open of the repaired disk is clean (corruption never propagates).

use all_in_one::algebra::oracle_like;
use all_in_one::storage::{edge_schema, row, Relation, Row, SimVfs, UnsyncedFate, WalPolicy};
use all_in_one::withplus::Database;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const DIR: &str = "db";

/// All rows ever inserted into `E` (three committed batches of four) plus
/// the single row of `K`, created before the checkpoint.
fn valid_rows() -> Vec<Row> {
    let mut v: Vec<Row> = (0..12)
        .map(|i| row![i as i64, (i + 1) as i64, 1.0])
        .collect();
    v.push(row![99, 99, 9.9]);
    v
}

/// A durable database with a snapshot generation *and* a live WAL tail:
/// `K` is only in the snapshot, `E`'s last two batches only in the WAL.
fn build_disk() -> Arc<SimVfs> {
    let vfs = Arc::new(SimVfs::new());
    let (mut db, _) = Database::open_with_vfs(vfs.clone(), DIR, oracle_like(), None).unwrap();
    let mut k = Relation::new(edge_schema());
    k.extend([row![99, 99, 9.9]]).unwrap();
    db.create_table("K", k).unwrap();
    db.create_table("E", Relation::new(edge_schema())).unwrap();
    let rows: Vec<Row> = (0..12)
        .map(|i| row![i as i64, (i + 1) as i64, 1.0])
        .collect();
    db.catalog
        .insert_rows("E", rows[0..4].to_vec(), WalPolicy::None)
        .unwrap();
    db.checkpoint().unwrap();
    db.catalog
        .insert_rows("E", rows[4..8].to_vec(), WalPolicy::None)
        .unwrap();
    db.catalog
        .insert_rows("E", rows[8..12].to_vec(), WalPolicy::None)
        .unwrap();
    Arc::new(vfs.crash_image(UnsyncedFate::DropAll))
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

fn check_recovery(vfs: Arc<SimVfs>, ctx: &str) {
    let valid: BTreeSet<Row> = valid_rows().into_iter().collect();
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
        let vfs = build_disk();
        for m in &steps {
            apply(&vfs, m);
        }
        check_recovery(vfs, &format!("{steps:?}"));
    }
}

/// Every single-bit flip of the live WAL keeps recovery total and honest.
/// (Exhaustive over the whole file — cheap, the tail is ~1 KiB.)
#[test]
fn exhaustive_single_bit_flips_of_the_wal() {
    let pristine = build_disk();
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
            let vfs = build_disk();
            vfs.corrupt(&wal_path, |b| b[byte] ^= 1 << bit);
            check_recovery(vfs, &format!("flip byte {byte} bit {bit}"));
        }
    }
}

/// Every truncation point of the snapshot falls back without inventing
/// data; the WAL tail of the *current* generation is then unreadable
/// (it references snapshot state), so recovery restarts from scratch or
/// an older generation — but never errors.
#[test]
fn exhaustive_snapshot_truncations() {
    let pristine = build_disk();
    let snap_path = pristine
        .paths()
        .into_iter()
        .find(|p| p.rsplit('/').next().unwrap_or(p).starts_with("snapshot."))
        .expect("snapshot");
    let mut len = 0;
    pristine.corrupt(&snap_path, |b| len = b.len());
    for keep in 0..len {
        let vfs = build_disk();
        vfs.corrupt(&snap_path, |b| b.truncate(keep));
        check_recovery(vfs, &format!("snapshot truncated to {keep} bytes"));
    }
}
