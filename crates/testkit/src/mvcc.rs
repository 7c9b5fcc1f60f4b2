//! Deterministic interleaving scheduler + snapshot-isolation checker.
//!
//! The host has one CPU, so "run writers and readers on threads and hope
//! the race shows up" proves nothing. Instead this module makes the
//! concurrency *explicit*: a [`Workload`] is one writer script plus any
//! number of reader scripts, a schedule is one interleaving of those
//! scripts (per-actor order preserved), and [`run_history`] executes a
//! schedule step by step on a single thread — writer steps through the
//! shared database's writer lock, reader steps through MVCC [`Session`]s.
//! [`sweep`] enumerates *every* interleaving (optionally strided) and
//! checks each one, so tier-1 covers the exact set of orderings a
//! preemptive scheduler could ever produce for these scripts.
//!
//! The checker maintains a history of committed states: after every
//! writer step it pins the newest published snapshot and digests it,
//! keyed by generation. Each read then must satisfy snapshot isolation:
//!
//! 1. **committed reads only** — the digest a reader observes equals the
//!    recorded committed digest of the generation it pinned (no dirty
//!    reads, no torn states);
//! 2. **repeatable reads** — within one `BeginRead`…`EndRead` span, every
//!    read reports the same generation and the same digest, regardless of
//!    writer progress in between.
//!
//! A failing schedule is minimized with the generic [`crate::shrink::ddmin`]
//! before being reported: the witness drops every step that isn't needed
//! to reproduce the violation. [`FaultMode::DirtyRead`] deliberately
//! breaks the reader (it reads the writer's live catalog while claiming
//! its pinned generation) to prove the checker and the shrinker actually
//! catch and minimize violations.

use crate::shrink::ddmin;
use aio_algebra::oracle_like;
use aio_storage::{edge_schema, row, Relation, SimVfs, WalPolicy};
use aio_withplus::{Database, Session, SharedDatabase};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One writer action. `Insert` batches auto-commit unless bracketed by
/// `Begin`/`Commit`; `Ubu` runs a full with+ union-by-update fixpoint
/// (PageRank, Fig. 3), committing one generation per iteration;
/// `Checkpoint` snapshots a durable catalog (no-op error on in-memory).
#[derive(Clone, Debug, PartialEq)]
pub enum WriterOp {
    Insert(Vec<(i64, i64)>),
    Begin,
    Commit,
    Ubu { iters: usize },
    Checkpoint,
}

/// One reader action, executed through a pinned-snapshot [`Session`].
/// A `ReadAll` outside a read transaction pins the newest committed
/// generation for just that statement.
#[derive(Clone, Debug, PartialEq)]
pub enum ReaderOp {
    BeginRead,
    ReadAll,
    EndRead,
}

/// One step of an interleaved history: a writer op, or reader `i`'s op.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    W(WriterOp),
    R(usize, ReaderOp),
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::W(WriterOp::Insert(rows)) => write!(f, "writer: insert {rows:?}"),
            Step::W(WriterOp::Begin) => write!(f, "writer: begin"),
            Step::W(WriterOp::Commit) => write!(f, "writer: commit"),
            Step::W(WriterOp::Ubu { iters }) => write!(f, "writer: ubu x{iters}"),
            Step::W(WriterOp::Checkpoint) => write!(f, "writer: checkpoint"),
            Step::R(i, ReaderOp::BeginRead) => write!(f, "reader{i}: begin-read"),
            Step::R(i, ReaderOp::ReadAll) => write!(f, "reader{i}: read-all"),
            Step::R(i, ReaderOp::EndRead) => write!(f, "reader{i}: end-read"),
        }
    }
}

/// Render a history one step per line (witness reports, golden files).
pub fn render_history(history: &[Step]) -> String {
    let mut out = String::new();
    for (i, s) in history.iter().enumerate() {
        out.push_str(&format!("{i:3}  {s}\n"));
    }
    out
}

/// One writer script plus N reader scripts. A schedule interleaves them.
#[derive(Clone, Debug)]
pub struct Workload {
    pub writer: Vec<WriterOp>,
    pub readers: Vec<Vec<ReaderOp>>,
}

impl Workload {
    /// The number of distinct interleavings (multinomial coefficient).
    pub fn schedule_count(&self) -> u64 {
        let mut total = self.writer.len() as u64;
        let mut count = 1u64;
        for r in &self.readers {
            for k in 1..=(r.len() as u64) {
                total += 1;
                count = count * total / k;
            }
        }
        count
    }

    /// Every interleaving of the scripts, each preserving per-actor op
    /// order. Actor 0 is the writer; actor i+1 is reader i.
    pub fn schedules(&self) -> Vec<Vec<Step>> {
        let mut lens: Vec<usize> = Vec::with_capacity(1 + self.readers.len());
        lens.push(self.writer.len());
        lens.extend(self.readers.iter().map(Vec::len));
        let mut out = Vec::new();
        let mut taken = vec![0usize; lens.len()];
        let mut cur: Vec<Step> = Vec::new();
        self.rec(&lens, &mut taken, &mut cur, &mut out);
        out
    }

    fn step_for(&self, actor: usize, idx: usize) -> Step {
        if actor == 0 {
            Step::W(self.writer[idx].clone())
        } else {
            Step::R(actor - 1, self.readers[actor - 1][idx].clone())
        }
    }

    fn rec(
        &self,
        lens: &[usize],
        taken: &mut Vec<usize>,
        cur: &mut Vec<Step>,
        out: &mut Vec<Vec<Step>>,
    ) {
        if taken.iter().zip(lens).all(|(t, l)| t == l) {
            out.push(cur.clone());
            return;
        }
        for actor in 0..lens.len() {
            if taken[actor] < lens[actor] {
                cur.push(self.step_for(actor, taken[actor]));
                taken[actor] += 1;
                self.rec(lens, taken, cur, out);
                taken[actor] -= 1;
                cur.pop();
            }
        }
    }
}

/// How the scheduler executes reads. `DirtyRead` is the planted fault:
/// the reader inspects the writer's *live* catalog while claiming its
/// pinned generation — exactly the bug MVCC exists to prevent — so a test
/// can prove the checker rejects it and the shrinker minimizes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    None,
    DirtyRead,
}

/// What one executed history produced.
#[derive(Debug)]
pub struct HistoryOutcome {
    /// Snapshot-isolation violations, empty on a correct engine.
    pub anomalies: Vec<String>,
    /// Reads performed.
    pub reads: usize,
    /// Distinct committed generations observed by readers, ascending.
    pub generations_read: Vec<u64>,
    /// Writer ops that errored or were skipped (tolerated so that
    /// ddmin-shrunk sub-histories stay executable).
    pub writer_noops: usize,
}

/// FNV-1a over the canonical text of a relation's rows: the state digest
/// the checker compares. Row order is part of the digest — committed
/// snapshots and session reads traverse storage order identically.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn digest_relation(rel: &Relation) -> u64 {
    fnv1a(&format!("{:?}", rel.rows()))
}

/// The observable table. Writer mutations in this module target `E`;
/// `Ubu` reads it and writes only run-temporary tables.
const TABLE: &str = "E";

/// Execute one interleaved history and check snapshot isolation.
///
/// Histories containing `Checkpoint` run on a simulated durable file
/// system ([`SimVfs`]); everything else runs in memory. Writer ops that
/// cannot apply in context (commit without a transaction, checkpoint
/// mid-transaction or in memory, `Ubu` inside an open explicit
/// transaction — the engine forbids starting a run there) are tolerated
/// and counted, so shrunk sub-histories remain executable.
pub fn run_history(history: &[Step], fault: FaultMode) -> HistoryOutcome {
    let durable = history
        .iter()
        .any(|s| matches!(s, Step::W(WriterOp::Checkpoint)));
    let mut db = if durable {
        let vfs = Arc::new(SimVfs::new());
        Database::open_with_vfs(vfs, "db", oracle_like(), None)
            .expect("fresh sim database opens")
            .0
    } else {
        Database::new(oracle_like())
    };
    // Seed: two nodes, one edge — enough for Ubu to iterate.
    let mut e = Relation::new(edge_schema());
    e.extend([row![1, 2, 1.0]]).unwrap();
    db.create_table(TABLE, e).unwrap();
    let mut v = Relation::new(aio_storage::node_schema());
    v.extend([row![1, 1.0], row![2, 1.0]]).unwrap();
    db.create_table("V", v).unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", 2.0f64);

    let shared = SharedDatabase::new(db);
    let n_readers = history
        .iter()
        .filter_map(|s| match s {
            Step::R(i, _) => Some(i + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut sessions: Vec<Session> = (0..n_readers).map(|_| shared.session()).collect();

    // gen → digest of the committed state published at that generation.
    let mut committed: HashMap<u64, u64> = HashMap::new();
    // Per-reader (generation, digest) of the open read txn's first read.
    let mut read_txn_first: Vec<Option<(u64, u64)>> = vec![None; n_readers];
    let mut anomalies: Vec<String> = Vec::new();
    let mut reads = 0usize;
    let mut generations_read: Vec<u64> = Vec::new();
    let mut writer_noops = 0usize;

    let record_committed = |committed: &mut HashMap<u64, u64>, anomalies: &mut Vec<String>| {
        let pin = shared.hub().pin();
        let gen = pin.generation();
        let digest = digest_relation(pin.catalog().relation(TABLE).expect("table exists"));
        if let Some(prev) = committed.insert(gen, digest) {
            if prev != digest {
                anomalies.push(format!(
                    "generation {gen} published twice with different states"
                ));
            }
        }
    };
    record_committed(&mut committed, &mut anomalies);

    for (pos, step) in history.iter().enumerate() {
        match step {
            Step::W(op) => {
                let applied = shared.with_writer(|db| match op {
                    WriterOp::Insert(pairs) => {
                        let rows = pairs.iter().map(|&(f, t)| row![f, t, 1.0]).collect();
                        db.catalog.insert_rows(TABLE, rows, WalPolicy::None).is_ok()
                    }
                    WriterOp::Begin => {
                        db.catalog.wal_begin_txn();
                        true
                    }
                    WriterOp::Commit => db.catalog.wal_commit_txn().is_ok(),
                    WriterOp::Ubu { iters } => {
                        // Starting a with+ run inside an open explicit
                        // transaction would publish its uncommitted state;
                        // the real client API never does this, so neither
                        // does the scheduler.
                        !db.catalog.in_txn()
                            && db.execute(&aio_algos::pagerank::sql(*iters)).is_ok()
                    }
                    WriterOp::Checkpoint => db.checkpoint().is_ok(),
                });
                if !applied {
                    writer_noops += 1;
                }
                record_committed(&mut committed, &mut anomalies);
            }
            Step::R(i, op) => {
                let sess = &mut sessions[*i];
                match op {
                    ReaderOp::BeginRead => {
                        sess.begin_read();
                        read_txn_first[*i] = None;
                    }
                    ReaderOp::EndRead => {
                        sess.end_read();
                        read_txn_first[*i] = None;
                    }
                    ReaderOp::ReadAll => {
                        let in_txn = sess.generation().is_some();
                        let (gen, digest) = match fault {
                            FaultMode::None => {
                                let scoped = if in_txn {
                                    None
                                } else {
                                    Some(sess.begin_read())
                                };
                                let gen = sess.generation().expect("read txn open");
                                let out = sess
                                    .query(&format!("select * from {TABLE}"))
                                    .expect("snapshot read succeeds");
                                if scoped.is_some() {
                                    sess.end_read();
                                }
                                (gen, digest_relation(&out.relation))
                            }
                            FaultMode::DirtyRead => {
                                // The planted bug: claim the pinned (or
                                // newest) generation but read the writer's
                                // live, possibly uncommitted, catalog.
                                let gen = sess
                                    .generation()
                                    .unwrap_or_else(|| shared.current_generation());
                                let digest = shared.with_writer(|db| {
                                    digest_relation(db.catalog.relation(TABLE).unwrap())
                                });
                                (gen, digest)
                            }
                        };
                        reads += 1;
                        generations_read.push(gen);
                        match committed.get(&gen) {
                            None => anomalies.push(format!(
                                "step {pos}: reader{i} pinned unpublished generation {gen}"
                            )),
                            Some(&want) if want != digest => anomalies.push(format!(
                                "step {pos}: reader{i} saw uncommitted/torn state at \
                                 generation {gen}"
                            )),
                            Some(_) => {}
                        }
                        if in_txn {
                            match read_txn_first[*i] {
                                None => read_txn_first[*i] = Some((gen, digest)),
                                Some((g0, d0)) if (g0, d0) != (gen, digest) => {
                                    anomalies.push(format!(
                                        "step {pos}: reader{i} non-repeatable read \
                                         (gen {g0} → {gen})"
                                    ));
                                }
                                Some(_) => {}
                            }
                        }
                    }
                }
            }
        }
    }

    generations_read.sort_unstable();
    generations_read.dedup();
    HistoryOutcome {
        anomalies,
        reads,
        generations_read,
        writer_noops,
    }
}

/// Aggregate statistics of a clean sweep.
#[derive(Debug, Default)]
pub struct SweepStats {
    pub schedules_run: usize,
    pub reads: usize,
    /// Distinct committed generations read across all schedules.
    pub generations_read: usize,
}

/// A minimized failing schedule.
#[derive(Debug)]
pub struct SweepFailure {
    /// Index of the first failing interleaving in enumeration order.
    pub schedule_index: usize,
    /// The ddmin-minimized witness.
    pub witness: Vec<Step>,
    /// Anomalies reported by the minimized witness.
    pub anomalies: Vec<String>,
}

impl fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule #{} violates snapshot isolation; minimal witness:",
            self.schedule_index
        )?;
        write!(f, "{}", render_history(&self.witness))?;
        for a in &self.anomalies {
            writeln!(f, "anomaly: {a}")?;
        }
        Ok(())
    }
}

/// Run every `stride`-th interleaving of `workload` (stride 1 =
/// exhaustive) and check each against the snapshot-isolation invariants.
/// The first failing schedule is ddmin-minimized into a witness.
pub fn sweep(
    workload: &Workload,
    fault: FaultMode,
    stride: usize,
) -> Result<SweepStats, SweepFailure> {
    let stride = stride.max(1);
    let mut stats = SweepStats::default();
    let mut all_gens: Vec<u64> = Vec::new();
    for (idx, schedule) in workload.schedules().into_iter().enumerate() {
        if idx % stride != 0 {
            continue;
        }
        let outcome = run_history(&schedule, fault);
        stats.schedules_run += 1;
        stats.reads += outcome.reads;
        all_gens.extend(&outcome.generations_read);
        if !outcome.anomalies.is_empty() {
            let witness = ddmin(&schedule, |h| !run_history(h, fault).anomalies.is_empty());
            let anomalies = run_history(&witness, fault).anomalies;
            return Err(SweepFailure {
                schedule_index: idx,
                witness,
                anomalies,
            });
        }
    }
    all_gens.sort_unstable();
    all_gens.dedup();
    stats.generations_read = all_gens.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_count_matches_enumeration() {
        let w = Workload {
            writer: vec![
                WriterOp::Begin,
                WriterOp::Insert(vec![(2, 3)]),
                WriterOp::Commit,
            ],
            readers: vec![vec![ReaderOp::BeginRead, ReaderOp::ReadAll]],
        };
        let schedules = w.schedules();
        assert_eq!(schedules.len() as u64, w.schedule_count()); // C(5,2) = 10
        assert_eq!(schedules.len(), 10);
        // per-actor order is preserved in every interleaving
        for s in &schedules {
            let writer: Vec<&Step> = s.iter().filter(|x| matches!(x, Step::W(_))).collect();
            assert_eq!(writer.len(), 3);
            assert!(matches!(writer[0], Step::W(WriterOp::Begin)));
            assert!(matches!(writer[2], Step::W(WriterOp::Commit)));
        }
    }

    #[test]
    fn two_readers_count() {
        let w = Workload {
            writer: vec![WriterOp::Insert(vec![(2, 3)])],
            readers: vec![vec![ReaderOp::ReadAll], vec![ReaderOp::ReadAll]],
        };
        // 3 steps, multinomial 3!/(1!1!1!) = 6
        assert_eq!(w.schedule_count(), 6);
        assert_eq!(w.schedules().len(), 6);
    }

    #[test]
    fn clean_history_has_no_anomalies() {
        let h = vec![
            Step::R(0, ReaderOp::BeginRead),
            Step::W(WriterOp::Insert(vec![(2, 3)])),
            Step::R(0, ReaderOp::ReadAll),
            Step::W(WriterOp::Insert(vec![(3, 4)])),
            Step::R(0, ReaderOp::ReadAll),
            Step::R(0, ReaderOp::EndRead),
            Step::R(0, ReaderOp::ReadAll),
        ];
        let out = run_history(&h, FaultMode::None);
        assert!(out.anomalies.is_empty(), "{:?}", out.anomalies);
        assert_eq!(out.reads, 3);
        // the txn reads saw one generation; the last read saw a newer one
        assert_eq!(out.generations_read.len(), 2);
    }

    #[test]
    fn dirty_read_fault_is_caught_and_shrunk() {
        let w = Workload {
            writer: vec![
                WriterOp::Insert(vec![(2, 3)]),
                WriterOp::Begin,
                WriterOp::Insert(vec![(3, 4)]),
                WriterOp::Commit,
            ],
            readers: vec![vec![ReaderOp::ReadAll]],
        };
        let failure = sweep(&w, FaultMode::DirtyRead, 1).expect_err("planted fault must be caught");
        assert!(!failure.anomalies.is_empty());
        // the witness reproduces with as few steps as possible: the fault
        // fires on any schedule where the read lands mid-transaction, so
        // the minimal history is begin, dirty insert, read.
        assert!(
            failure.witness.len() <= 3,
            "witness not minimal:\n{}",
            render_history(&failure.witness)
        );
        let replay = run_history(&failure.witness, FaultMode::DirtyRead);
        assert!(!replay.anomalies.is_empty(), "witness must still fail");
    }

    #[test]
    fn ubu_publishes_one_generation_per_iteration() {
        let h = vec![
            Step::R(0, ReaderOp::ReadAll),
            Step::W(WriterOp::Ubu { iters: 3 }),
            Step::R(0, ReaderOp::ReadAll),
        ];
        let out = run_history(&h, FaultMode::None);
        assert!(out.anomalies.is_empty(), "{:?}", out.anomalies);
    }
}
