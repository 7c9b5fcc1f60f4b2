//! Crash recovery: latest valid snapshot + committed WAL tail → a live,
//! durable [`Catalog`].
//!
//! The protocol (`open_catalog`):
//!
//! 1. Pick the newest snapshot that passes its whole-file CRC; corrupt
//!    newer generations fall back to older ones (checkpointing never
//!    deletes generation *n* before *n+1* is durable, so one of them is
//!    valid unless the disk lost both). A snapshot is a list of
//!    `CreateTable` records, validated and applied like one WAL
//!    transaction. An intact snapshot of another format version fails the
//!    open before anything is written: falling back past it would drop
//!    its data.
//! 2. Scan `wal.<seq>` frame by frame, stopping at the first torn or
//!    CRC-failing frame. Group records into transactions at `Commit`
//!    markers; *validate* each transaction against a lightweight shadow of
//!    the catalog before applying it, so a half-applied transaction can
//!    never leave the catalog inconsistent. Uncommitted or invalid tails
//!    are discarded and the file is rewritten to its committed prefix.
//! 3. `RunBegin` / `Commit(Iter)` / `Commit(RunEnd)` records reconstruct
//!    whether a with+ statement was interrupted mid-fixpoint and how many
//!    iterations are durable — surfaced as [`InterruptedRun`] so the
//!    caller (withplus' `Database::resume_interrupted`) can resume from
//!    the last completed iteration instead of restarting.
//! 4. Recompute optimizer statistics for every base table: replay
//!    invalidates them, and the cost optimizer must never plan against
//!    sketches that predate the replayed tail.
//!
//! Recovery is *total*: any corruption degrades to an older consistent
//! state and is reported in the typed [`RecoveryReport`]; it never panics
//! and never surfaces partial rows.

use crate::catalog::Catalog;
use crate::error::{Result, StorageError};
use crate::mutation::Mutation;
use crate::snapshot;
use crate::value::Value;
use crate::vfs::Vfs;
use crate::wal::{self, CommitKind, Durability, WalPolicy, WalRecord};
use aio_trace::{maybe_span, Tracer};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A with+ statement that began but never logged its `RunEnd`: everything
/// needed to resume (or discard) it.
#[derive(Clone, Debug, PartialEq)]
pub struct InterruptedRun {
    /// Normalized name of the recursive relation.
    pub rec_name: String,
    /// The original statement text.
    pub sql: String,
    /// Parameter bindings in effect when the run began.
    pub params: Vec<(String, Value)>,
    /// `None` — the run began but no iteration boundary committed: re-run
    /// from scratch. `Some(0)` — the init queries are durable. `Some(k)` —
    /// `k` fixpoint iterations are durable; resume at iteration `k`.
    pub committed_iters: Option<u64>,
}

/// What recovery found and did. `Display` renders a deterministic
/// multi-line summary (no timings) used by the golden test.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Fresh directory: nothing to recover, generation 0 was initialized.
    pub fresh: bool,
    /// Generation of the snapshot recovery started from.
    pub snapshot_seq: u64,
    pub snapshot_tables: usize,
    /// Newer snapshot generations that failed validation and were skipped.
    pub snapshots_skipped: usize,
    /// WAL records applied (commit markers included).
    pub wal_records_replayed: usize,
    /// Committed transactions applied.
    pub wal_txns_applied: usize,
    /// Records discarded: decoded but uncommitted, plus any unreadable tail.
    pub wal_records_discarded: usize,
    pub wal_bytes_replayed: u64,
    /// Bytes truncated off the WAL's torn/uncommitted suffix.
    pub wal_bytes_truncated: u64,
    /// First corruption encountered, if any.
    pub corrupt: Option<String>,
    /// A with+ run that never completed; resumable via the withplus layer.
    pub interrupted: Option<InterruptedRun>,
    /// Base tables marked to keep optimizer statistics after replay (which
    /// dropped them): each is sketched afresh when first read.
    pub stats_recomputed: usize,
    /// Recovery checkpointed immediately because it found corruption.
    pub post_recovery_checkpoint: bool,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "recovery report")?;
        writeln!(f, "  fresh: {}", self.fresh)?;
        writeln!(
            f,
            "  snapshot: seq {} ({} tables, {} newer skipped)",
            self.snapshot_seq, self.snapshot_tables, self.snapshots_skipped
        )?;
        writeln!(
            f,
            "  wal: {} records in {} txns replayed ({} bytes), {} records discarded ({} bytes truncated)",
            self.wal_records_replayed,
            self.wal_txns_applied,
            self.wal_bytes_replayed,
            self.wal_records_discarded,
            self.wal_bytes_truncated
        )?;
        writeln!(
            f,
            "  corrupt: {}",
            self.corrupt.as_deref().unwrap_or("none")
        )?;
        match &self.interrupted {
            None => writeln!(f, "  interrupted run: none")?,
            Some(ir) => writeln!(
                f,
                "  interrupted run: {} at {}",
                ir.rec_name,
                match ir.committed_iters {
                    None => "begin (no durable iterations)".to_string(),
                    Some(k) => format!("iteration {k}"),
                }
            )?,
        }
        writeln!(f, "  stats recomputed: {}", self.stats_recomputed)?;
        write!(
            f,
            "  post-recovery checkpoint: {}",
            self.post_recovery_checkpoint
        )
    }
}

/// Cheap simulation of the catalog (name → arity) used to validate a whole
/// transaction — or a whole snapshot — before any of it is applied, with
/// the check `Catalog::apply` runs (`Mutation::check`). A record that
/// decoded and passes it applies.
#[derive(Clone, Default)]
struct Shadow {
    arity: HashMap<String, usize>,
}

impl Shadow {
    fn check(&mut self, m: &Mutation) -> std::result::Result<(), String> {
        m.check(|t| self.arity.get(t).copied())
            .map_err(|e| e.to_string())?;
        match m {
            Mutation::Create { name, rel, .. } => {
                self.arity.insert(name.clone(), rel.schema().arity());
            }
            Mutation::Drop { table } => {
                self.arity.remove(table);
            }
            Mutation::Rename { old, new } => {
                let a = self.arity.remove(old).expect("checked");
                self.arity.insert(new.clone(), a);
            }
            _ => {}
        }
        Ok(())
    }
}

fn io_err(op: &str, path: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{op} {path}: {e}"))
}

/// Open (or initialize) the database directory `dir` through `vfs`,
/// recovering to the last durable, consistent state. Returns the catalog
/// with durability attached plus a report of what happened.
pub fn open_catalog(
    vfs: Arc<dyn Vfs>,
    dir: &str,
    tracer: Option<&Tracer>,
) -> Result<(Catalog, RecoveryReport)> {
    let span = maybe_span(tracer, "recovery");
    let recovery_started = std::time::Instant::now();
    let mut report = RecoveryReport::default();
    vfs.create_dir_all(dir)
        .map_err(|e| io_err("mkdir", dir, e))?;
    let names = vfs.list(dir).unwrap_or_default();

    // Newest-first snapshot candidates; also track every generation number
    // seen so a fresh WAL generation never collides with leftovers.
    let mut snap_seqs: Vec<u64> = names
        .iter()
        .filter_map(|n| snapshot::parse_snapshot_name(n))
        .collect();
    snap_seqs.sort_unstable();
    snap_seqs.reverse();
    let max_seen = names
        .iter()
        .filter_map(|n| snapshot::parse_snapshot_name(n).or_else(|| snapshot::parse_wal_name(n)))
        .max();

    // The newest snapshot that decodes, names its own generation and
    // validates as one transaction; `shadow` then tracks the catalog it
    // loads into for the WAL tail.
    let mut shadow = Shadow::default();
    let mut chosen: Option<(u64, Vec<Mutation>)> = None;
    for &seq in &snap_seqs {
        let path = snapshot::snapshot_file(dir, seq);
        let why = match vfs
            .read(&path)
            .map_err(|e| io_err("read", &path, e))
            .and_then(|b| snapshot::decode_snapshot(&b))
        {
            Ok((stored_seq, _)) if stored_seq != seq => "sequence mismatch".to_string(),
            Ok((_, tables)) => {
                let mut trial = Shadow::default();
                match tables.iter().try_for_each(|r| trial.check(r)) {
                    Ok(()) => {
                        shadow = trial;
                        chosen = Some((seq, tables));
                        break;
                    }
                    Err(e) => e,
                }
            }
            Err(e @ StorageError::UnsupportedVersion { .. }) => return Err(e),
            Err(e) => e.to_string(),
        };
        report.snapshots_skipped += 1;
        if report.corrupt.is_none() {
            report.corrupt = Some(format!("snapshot {seq}: {why}"));
        }
    }

    let mut catalog = Catalog::new();
    let seq = match chosen {
        Some((seq, tables)) => {
            report.snapshot_seq = seq;
            report.snapshot_tables = tables.len();
            for m in tables {
                catalog.apply(m, WalPolicy::None)?;
            }
            seq
        }
        None if max_seen.is_none() => {
            // Brand-new directory: initialize generation 0.
            report.fresh = true;
            let path = snapshot::snapshot_file(dir, 0);
            let bytes = snapshot::encode_snapshot(0, &catalog);
            vfs.write(&path, &bytes)
                .map_err(|e| io_err("write", &path, e))?;
            vfs.sync(&path).map_err(|e| io_err("sync", &path, e))?;
            wal::init_wal(&vfs, dir, 0)?;
            0
        }
        None => {
            // Files exist but no snapshot decodes: total snapshot loss.
            // Start empty at a generation past everything seen, and
            // checkpoint below so the directory becomes consistent again.
            let seq = max_seen.unwrap_or(0) + 1;
            if report.corrupt.is_none() {
                report.corrupt = Some("no valid snapshot found".to_string());
            }
            report.snapshot_seq = seq;
            let path = snapshot::snapshot_file(dir, seq);
            let bytes = snapshot::encode_snapshot(seq, &catalog);
            vfs.write(&path, &bytes)
                .map_err(|e| io_err("write", &path, e))?;
            vfs.sync(&path).map_err(|e| io_err("sync", &path, e))?;
            wal::init_wal(&vfs, dir, seq)?;
            seq
        }
    };

    // Replay the matching WAL generation.
    let wal_path = wal::wal_file(dir, seq);
    let bytes = if vfs.exists(&wal_path) {
        vfs.read(&wal_path)
            .map_err(|e| io_err("read", &wal_path, e))?
    } else {
        wal::init_wal(&vfs, dir, seq)?;
        wal::WAL_MAGIC.to_vec()
    };

    let scan = wal::scan_wal(&bytes);
    if let Some(reason) = &scan.torn {
        // An empty-but-unreadable file (e.g. crash before the magic
        // synced) is normal, not corruption worth reporting.
        if !(scan.records.is_empty() && bytes.len() < wal::WAL_MAGIC.len() + 8)
            && report.corrupt.is_none()
        {
            report.corrupt = Some(format!("wal: {reason}"));
        }
    }

    let mut pending: Vec<WalRecord> = Vec::new();
    let mut committed_end: usize = wal::WAL_MAGIC.len().min(bytes.len());
    let mut interrupted: Option<InterruptedRun> = None;
    let mut stopped: Option<String> = None;
    let total_records = scan.records.len();

    'replay: for (end, rec) in scan.records {
        match rec {
            WalRecord::Commit(kind) => {
                // Validate the whole transaction against the shadow before
                // touching the catalog: all-or-nothing.
                let mut trial = shadow.clone();
                for r in &pending {
                    if let Err(e) = match r {
                        WalRecord::Mutation(m) => trial.check(m),
                        _ => Ok(()),
                    } {
                        stopped = Some(e);
                        break 'replay;
                    }
                }
                shadow = trial;
                for r in pending.drain(..) {
                    match r {
                        WalRecord::RunBegin { rec, sql, params } => {
                            interrupted = Some(InterruptedRun {
                                rec_name: rec,
                                sql,
                                params,
                                committed_iters: None,
                            });
                        }
                        WalRecord::Mutation(m) => catalog.apply(m, WalPolicy::None)?,
                        WalRecord::Commit(_) => {} // ends a transaction, never pends
                    }
                    report.wal_records_replayed += 1;
                }
                match &kind {
                    CommitKind::Auto => {}
                    CommitKind::Iter { rec, iters_done } => {
                        if let Some(ir) = interrupted.as_mut() {
                            if ir.rec_name == *rec {
                                ir.committed_iters = Some(*iters_done);
                            }
                        }
                    }
                    CommitKind::RunEnd { rec } => {
                        if interrupted.as_ref().is_some_and(|ir| ir.rec_name == *rec) {
                            interrupted = None;
                        }
                    }
                }
                report.wal_records_replayed += 1;
                report.wal_txns_applied += 1;
                committed_end = end;
            }
            other => pending.push(other),
        }
    }

    report.wal_records_discarded = total_records - report.wal_records_replayed;
    if let Some(reason) = stopped {
        if report.corrupt.is_none() {
            report.corrupt = Some(format!("wal: unreplayable transaction: {reason}"));
        }
    }
    report.wal_bytes_replayed = committed_end.saturating_sub(wal::WAL_MAGIC.len()) as u64;

    // Rewrite the WAL to its committed prefix whenever a tail was
    // discarded, so new appends never land after garbage.
    if committed_end < bytes.len() || bytes.len() < wal::WAL_MAGIC.len() {
        let keep = if committed_end >= wal::WAL_MAGIC.len() {
            bytes[..committed_end].to_vec()
        } else {
            wal::WAL_MAGIC.to_vec()
        };
        report.wal_bytes_truncated = (bytes.len() as u64).saturating_sub(keep.len() as u64);
        vfs.write(&wal_path, &keep)
            .map_err(|e| io_err("write", &wal_path, e))?;
        vfs.sync(&wal_path)
            .map_err(|e| io_err("sync", &wal_path, e))?;
    }

    // Replay drops statistics; every base table keeps them again, sketched
    // from the recovered rows when first read, never trusted from disk.
    for name in catalog.names() {
        if !catalog.entry(&name)?.temp {
            catalog.analyze(&name)?;
            report.stats_recomputed += 1;
        }
    }

    report.interrupted = interrupted;
    catalog.attach_durability(Durability::new(Arc::clone(&vfs), dir, seq));

    // If recovery had to discard anything structural, fold the repaired
    // state into a fresh generation immediately.
    if report.corrupt.is_some() {
        catalog.checkpoint()?;
        report.post_recovery_checkpoint = true;
    }

    if let Some(s) = &span {
        s.field("snapshot_seq", report.snapshot_seq);
        s.field("records_replayed", report.wal_records_replayed as u64);
        s.field("records_discarded", report.wal_records_discarded as u64);
        s.field("txns", report.wal_txns_applied as u64);
        s.field("corrupt", report.corrupt.is_some());
        s.field("interrupted", report.interrupted.is_some());
        s.field("stats_recomputed", report.stats_recomputed as u64);
    }
    aio_metrics::hooks::recovery(recovery_started.elapsed().as_millis() as u64);
    Ok((catalog, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{edge_schema, node_schema, Relation};
    use crate::row;
    use crate::vfs::SimVfs;

    fn open(vfs: &Arc<dyn Vfs>) -> (Catalog, RecoveryReport) {
        open_catalog(Arc::clone(vfs), "db", None).expect("recovery is total")
    }

    fn sim() -> (Arc<SimVfs>, Arc<dyn Vfs>) {
        let v = Arc::new(SimVfs::new());
        let d: Arc<dyn Vfs> = Arc::clone(&v) as Arc<dyn Vfs>;
        (v, d)
    }

    #[test]
    fn fresh_directory_initializes_generation_zero() {
        let (_, vfs) = sim();
        let (cat, report) = open(&vfs);
        assert!(report.fresh);
        assert!(cat.is_durable());
        assert!(vfs.exists("db/snapshot.0") && vfs.exists("db/wal.0"));
        // Re-open: no longer fresh, nothing replayed.
        let (_, report) = open(&vfs);
        assert!(!report.fresh);
        assert_eq!(report.wal_txns_applied, 0);
    }

    #[test]
    fn mutations_survive_reopen() {
        let (_, vfs) = sim();
        let (mut cat, _) = open(&vfs);
        let mut e = Relation::new(edge_schema());
        e.set_pk(Some(vec![0, 1]));
        cat.create_table("E", e).unwrap();
        cat.insert_rows("E", vec![row![1, 2, 1.0], row![2, 3, 0.5]], WalPolicy::None)
            .unwrap();
        cat.create_temp("tmp", Relation::new(node_schema()))
            .unwrap();
        cat.rename_table("tmp", "tmp2").unwrap();
        cat.truncate("tmp2").unwrap();

        let (recovered, report) = open(&vfs);
        assert!(report.corrupt.is_none(), "{report}");
        assert!(cat.same_content(&recovered));
        assert_eq!(recovered.relation("E").unwrap().len(), 2);
        assert_eq!(
            recovered.relation("E").unwrap().pk(),
            Some(&[0usize, 1][..])
        );
        assert!(recovered.contains("tmp2") && !recovered.contains("tmp"));
    }

    #[test]
    fn checkpoint_truncates_log_and_reopens() {
        let (_, vfs) = sim();
        let (mut cat, _) = open(&vfs);
        cat.create_table("V", Relation::new(node_schema())).unwrap();
        cat.insert_rows("V", vec![row![1, 0.5]], WalPolicy::None)
            .unwrap();
        let stats = cat.checkpoint().unwrap();
        assert_eq!(stats.seq, 1);
        assert!(vfs.exists("db/snapshot.1") && vfs.exists("db/wal.1"));
        assert!(!vfs.exists("db/snapshot.0") && !vfs.exists("db/wal.0"));

        let (recovered, report) = open(&vfs);
        assert_eq!(report.snapshot_seq, 1);
        assert_eq!(report.wal_txns_applied, 0, "log was truncated");
        assert!(cat.same_content(&recovered));
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let (_, vfs) = sim();
        let (mut cat, _) = open(&vfs);
        cat.create_table("V", Relation::new(node_schema())).unwrap();
        // Open a txn and leave a mutation uncommitted.
        cat.wal_begin_txn();
        cat.insert_rows("V", vec![row![9, 9.0]], WalPolicy::None)
            .unwrap();
        // No commit marker: replay must not see the insert.
        let (recovered, report) = open(&vfs);
        assert!(recovered.relation("V").unwrap().is_empty());
        assert!(report.wal_records_discarded > 0);
        assert!(report.wal_bytes_truncated > 0);
        // And the rewritten WAL stays consistent on a third open.
        let (again, _) = open(&vfs);
        assert!(recovered.same_content(&again));
    }

    #[test]
    fn torn_wal_suffix_keeps_committed_prefix() {
        let (sv, vfs) = sim();
        let (mut cat, _) = open(&vfs);
        cat.create_table("V", Relation::new(node_schema())).unwrap();
        cat.insert_rows("V", vec![row![1, 1.0]], WalPolicy::None)
            .unwrap();
        cat.insert_rows("V", vec![row![2, 2.0]], WalPolicy::None)
            .unwrap();
        // Tear the file mid-frame: the second insert's commit marker is
        // damaged, so that whole transaction rolls back; the first insert
        // is untouched.
        sv.corrupt("db/wal.0", |b| {
            let n = b.len();
            b.truncate(n - 3);
        });
        let (recovered, report) = open(&vfs);
        assert_eq!(recovered.relation("V").unwrap().len(), 1);
        assert_eq!(recovered.relation("V").unwrap().rows()[0], row![1, 1.0]);
        assert!(report.corrupt.is_some());
        assert!(report.post_recovery_checkpoint);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_previous_generation() {
        let (sv, vfs) = sim();
        let (mut cat, _) = open(&vfs);
        cat.create_table("V", Relation::new(node_schema())).unwrap();
        cat.insert_rows("V", vec![row![1, 1.0]], WalPolicy::None)
            .unwrap();
        cat.checkpoint().unwrap(); // generation 1
                                   // Resurrect a stale-but-valid generation 0 as the fallback, then
                                   // corrupt generation 1.
        let bytes = snapshot::encode_snapshot(0, &Catalog::new());
        vfs.write("db/snapshot.0", &bytes).unwrap();
        vfs.sync("db/snapshot.0").unwrap();
        sv.corrupt("db/snapshot.1", |b| b[10] ^= 0xFF);
        let (recovered, report) = open(&vfs);
        assert_eq!(report.snapshots_skipped, 1);
        assert_eq!(report.snapshot_seq, 0);
        assert!(report.corrupt.is_some());
        // Fallback is the *older* durable state: V does not exist there.
        assert!(!recovered.contains("V"));
        assert!(report.post_recovery_checkpoint);
    }

    #[test]
    fn edge_deltas_survive_reopen() {
        let (_, vfs) = sim();
        let (mut cat, _) = open(&vfs);
        cat.create_table("E", Relation::new(edge_schema())).unwrap();
        cat.insert_rows("E", vec![row![1, 2, 1.0], row![2, 3, 1.0]], WalPolicy::None)
            .unwrap();
        cat.apply_delta(
            "E",
            vec![row![3, 4, 1.0]],
            vec![row![1, 2, 1.0]],
            WalPolicy::None,
        )
        .unwrap();
        let (recovered, report) = open(&vfs);
        assert!(report.corrupt.is_none(), "{report}");
        assert!(cat.same_content(&recovered));
        let mut got: Vec<(i64, i64)> = recovered
            .relation("E")
            .unwrap()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![(2, 3), (3, 4)]);
    }

    #[test]
    fn interrupted_run_reported_with_last_iteration() {
        let (_, vfs) = sim();
        let (mut cat, _) = open(&vfs);
        cat.create_table("E", Relation::new(edge_schema())).unwrap();
        let params = vec![("c".to_string(), Value::Float(0.85))];
        cat.wal_run_begin("pr", "with+ ...", &params).unwrap();
        cat.create_or_replace("pr", Relation::new(node_schema()), true)
            .unwrap();
        cat.wal_commit_iter("pr", 0).unwrap();
        cat.insert_rows("pr", vec![row![1, 0.1]], WalPolicy::None)
            .unwrap();
        cat.wal_commit_iter("pr", 3).unwrap();
        // Crash here: no RunEnd.
        let (recovered, report) = open(&vfs);
        let ir = report.interrupted.expect("interrupted run");
        assert_eq!(ir.rec_name, "pr");
        assert_eq!(ir.sql, "with+ ...");
        assert_eq!(ir.params, params);
        assert_eq!(ir.committed_iters, Some(3));
        assert_eq!(recovered.relation("pr").unwrap().len(), 1);

        // A completed run reports nothing.
        let (mut cat2, _) = open(&vfs);
        cat2.wal_run_begin("pr2", "with+ 2", &[]).unwrap();
        cat2.wal_run_end("pr2").unwrap();
        let (_, report) = open(&vfs);
        assert!(report.interrupted.is_none());
    }
}
