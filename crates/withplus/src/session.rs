//! Sessions over a shared database: one writer, many snapshot readers.
//!
//! [`SharedDatabase`] wraps a [`Database`] so it can be shared across
//! threads: writes serialize through an internal mutex while reads run
//! lock-free against pinned MVCC snapshots
//! ([`aio_storage::GenerationHub`]). Each [`Session`] opened on it gets
//!
//! - **snapshot reads** — [`Session::query`] evaluates a one-shot SELECT
//!   against the newest *committed* catalog generation. Inside an explicit
//!   read transaction ([`Session::begin_read`] … [`Session::end_read`])
//!   every query sees the *same* pinned generation, no matter how far the
//!   writer advances — repeatable reads with zero writer stalls;
//! - **forwarded writes** — [`Session::execute`] takes the writer lock,
//!   installs the session's parameter bindings and runs the statement
//!   through the ordinary [`Database::execute`] path (WAL, metrics, query
//!   log — attributed to this session's id).
//!
//! Because with+ fixpoints commit each iteration (a generation boundary),
//! a reader polling generations while another session runs PageRank
//! watches the ranks converge live, one committed iteration at a time,
//! never a torn in-between state.
//!
//! The module also carries the *armable concurrent-reader harness* the
//! differential test matrix uses to prove exactly that. A test calls
//! [`arm_concurrent_reader`]; the next [`Database::execute`] on the same
//! thread spawns a reader thread that pins snapshots in a loop while the
//! statement runs, digesting every generation it observes and checking
//! the snapshot-isolation invariants (generations never regress, a pinned
//! generation's contents never change). The verdict is retrieved with
//! [`take_concurrent_report`]. The same pattern as the fault-injection
//! hook in `aio_algebra::fault`: thread-local arming keeps the hot path
//! at one branch when the harness is idle.

use crate::db::{log_query, plan_sql, run_select, Database, Planned};
use crate::error::{Result, WithPlusError};
use crate::psm::QueryResult;
use aio_algebra::ops::AntiJoinImpl;
use aio_algebra::EngineProfile;
use aio_storage::{Catalog, GenerationHub, PinnedSnapshot, Value};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A [`Database`] shareable across threads: a single serialized writer
/// plus any number of snapshot-reading [`Session`]s.
pub struct SharedDatabase {
    writer: Mutex<Database>,
    hub: Arc<GenerationHub>,
    profile: EngineProfile,
    anti_impl: AntiJoinImpl,
    next_session: AtomicU64,
}

impl SharedDatabase {
    /// Take ownership of a database and make it session-capable. Enables
    /// MVCC publication on its catalog; the hub is primed with the current
    /// state, so sessions can read immediately.
    pub fn new(mut db: Database) -> Arc<SharedDatabase> {
        let hub = db.catalog.enable_mvcc();
        Arc::new(SharedDatabase {
            profile: db.profile.clone(),
            anti_impl: db.anti_impl,
            writer: Mutex::new(db),
            hub,
            next_session: AtomicU64::new(1),
        })
    }

    /// Open a new session. Session ids start at 1 and are unique for the
    /// lifetime of this shared database (id 0 means "no session" in the
    /// query log).
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            shared: Arc::clone(self),
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
            pin: None,
            params: HashMap::new(),
            profile: self.profile.clone(),
            anti_impl: self.anti_impl,
        }
    }

    /// The publication hub (benchmarks pin through it directly).
    pub fn hub(&self) -> Arc<GenerationHub> {
        Arc::clone(&self.hub)
    }

    /// The newest committed catalog generation.
    pub fn current_generation(&self) -> u64 {
        self.hub.current_gen()
    }

    /// Run `f` with exclusive access to the writer database — bulk loads,
    /// checkpoints, admin. Commits made inside publish generations exactly
    /// as writes forwarded through [`Session::execute`] do.
    pub fn with_writer<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut w)
    }
}

impl std::fmt::Debug for SharedDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedDatabase")
            .field("generation", &self.hub.current_gen())
            .field("pinned", &self.hub.pinned())
            .finish()
    }
}

/// One client's view of a [`SharedDatabase`]: private parameter bindings,
/// snapshot reads, forwarded writes.
pub struct Session {
    shared: Arc<SharedDatabase>,
    id: u64,
    /// The read transaction's pin, when one is open. All queries resolve
    /// against this generation until [`Session::end_read`].
    pin: Option<PinnedSnapshot>,
    params: HashMap<String, Value>,
    /// Per-session engine profile (starts as a copy of the writer's;
    /// mutate freely — it only affects this session's reads).
    pub profile: EngineProfile,
    anti_impl: AntiJoinImpl,
}

impl Session {
    /// This session's id, as recorded in `aio_query_log`.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Bind a named parameter referenced as `:name` in this session's SQL
    /// (reads and forwarded writes alike).
    pub fn set_param(&mut self, name: &str, value: impl Into<Value>) {
        self.params.insert(name.to_string(), value.into());
    }

    /// Open a read transaction: pin the newest committed generation.
    /// Every [`Session::query`] until [`Session::end_read`] sees exactly
    /// this generation. Re-pinning while already open moves the
    /// transaction forward to the newest generation. Returns the pinned
    /// generation number.
    pub fn begin_read(&mut self) -> u64 {
        self.pin = None; // drop (and unpin) any previous read txn first
        let pin = self.shared.hub.pin();
        let gen = pin.generation();
        self.pin = Some(pin);
        gen
    }

    /// Close the read transaction, releasing the pinned generation.
    pub fn end_read(&mut self) {
        self.pin = None;
    }

    /// The generation this session's open read transaction is pinned to
    /// (`None` outside a read transaction).
    pub fn generation(&self) -> Option<u64> {
        self.pin.as_ref().map(|p| p.generation())
    }

    /// Evaluate a one-shot SELECT against a committed snapshot — never the
    /// writer's live catalog, never blocking (or blocked by) the writer.
    ///
    /// Inside a read transaction the pinned generation answers; outside,
    /// the newest committed generation is pinned for just this statement.
    /// System relations (`aio_metrics`, `aio_query_log`) are read from the
    /// registry as the statement is planned. with+ statements are
    /// rejected: recursion writes temp tables, so it must go through
    /// [`Session::execute`].
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt_pin; // statement-scoped pin when no read txn is open
        let pin = match &self.pin {
            Some(p) => p,
            None => {
                stmt_pin = self.shared.hub.pin();
                &stmt_pin
            }
        };
        let gen = pin.generation();
        let cat = pin.catalog();
        let started = Instant::now();
        let before = aio_metrics::enabled().then(aio_metrics::local_counters);
        let level = self.profile.optimizer;
        let Planned::Select(plan) = plan_sql(sql, cat, &self.params, self.anti_impl, level)? else {
            return Err(WithPlusError::Restriction(
                "session read: only SELECT runs against a pinned snapshot; \
                 route with+ statements through Session::execute"
                    .into(),
            ));
        };
        let mut out = run_select(&plan, cat, &self.profile, None, started)?;
        if let Some(before) = before {
            log_query(sql, started, &before, &mut out, &self.profile, self.id, gen);
        }
        Ok(out)
    }

    /// Forward a statement to the single writer: take the writer lock,
    /// install this session's parameter bindings, run the ordinary
    /// [`Database::execute`] path (WAL, per-iteration generation
    /// publication, query log attributed to this session), then restore
    /// the writer's own bindings.
    ///
    /// An open read transaction is unaffected: its pin keeps answering
    /// queries from the pre-write generation until [`Session::end_read`].
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let mut w = self.shared.writer.lock().unwrap_or_else(|e| e.into_inner());
        let saved = w.swap_params(std::mem::take(&mut self.params));
        w.session_id = self.id;
        let result = w.execute(sql);
        w.session_id = 0;
        self.params = w.swap_params(saved);
        result
    }
}

// ---------------------------------------------------------------------------
// Armable concurrent-reader harness
// ---------------------------------------------------------------------------

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static REPORT: RefCell<Option<ConcurrentReaderReport>> = const { RefCell::new(None) };
}

/// What the concurrent snapshot reader saw while one statement executed.
#[derive(Debug, Clone)]
pub struct ConcurrentReaderReport {
    /// Snapshot pins the reader took (≥ 1: the loop always completes at
    /// least one poll before honoring the stop flag).
    pub polls: u64,
    /// Distinct committed generations observed, ascending. An iterative
    /// with+ statement shows one entry per committed fixpoint iteration —
    /// the reader watched it converge.
    pub generations: Vec<u64>,
    /// Snapshot-isolation violations. Empty on a correct engine: a pinned
    /// generation's contents never change, and published generations never
    /// regress.
    pub anomalies: Vec<String>,
}

/// Arm the harness on this thread: the *next* [`Database::execute`] (on
/// any database) runs with a concurrent snapshot-reader thread pinning and
/// digesting generations until the statement finishes. Retrieve the
/// verdict with [`take_concurrent_report`]. One-shot: executing disarms.
pub fn arm_concurrent_reader() {
    ARMED.with(|a| a.set(true));
}

/// The report stashed by the most recent armed execution on this thread
/// (`None` if the harness never ran).
pub fn take_concurrent_report() -> Option<ConcurrentReaderReport> {
    REPORT.with(|r| r.borrow_mut().take())
}

/// Clear the arm flag without executing (harness cleanup when the armed
/// statement errored before reaching the engine).
pub fn disarm_concurrent_reader() {
    ARMED.with(|a| a.set(false));
}

/// A running reader thread plus its stop flag; [`ArmedWatcher::finish`]
/// joins it and stashes the report for [`take_concurrent_report`].
pub(crate) struct ArmedWatcher {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<ConcurrentReaderReport>,
}

/// Consult the thread-local arm flag; when set, enable MVCC on `catalog`
/// and spawn the reader. Costs one thread-local read when idle.
pub(crate) fn spawn_armed_watcher(catalog: &mut Catalog) -> Option<ArmedWatcher> {
    if !ARMED.with(|a| a.replace(false)) {
        return None;
    }
    let hub = catalog.enable_mvcc();
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::spawn(move || watch(hub, thread_stop));
    Some(ArmedWatcher { stop, handle })
}

impl ArmedWatcher {
    pub(crate) fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        let report = self
            .handle
            .join()
            .unwrap_or_else(|_| ConcurrentReaderReport {
                polls: 0,
                generations: Vec::new(),
                anomalies: vec!["concurrent reader thread panicked".into()],
            });
        REPORT.with(|r| *r.borrow_mut() = Some(report));
    }
}

/// Everything a generation claims to contain, folded to one number. Two
/// observations of the same generation must digest identically.
fn digest(cat: &Catalog) -> u64 {
    use std::fmt::Write;
    let mut s = String::new();
    for name in cat.names() {
        if let Ok(rel) = cat.relation(&name) {
            let _ = write!(s, "{name}:{:?};", rel.rows());
        }
    }
    aio_metrics::fnv1a(&s)
}

/// The reader loop: pin → digest twice → check invariants → unpin, until
/// the statement thread raises the stop flag (then one final poll).
fn watch(hub: Arc<GenerationHub>, stop: Arc<AtomicBool>) -> ConcurrentReaderReport {
    let mut polls = 0u64;
    let mut generations: Vec<u64> = Vec::new();
    let mut anomalies: Vec<String> = Vec::new();
    let mut seen: HashMap<u64, u64> = HashMap::new();
    let mut last_gen = 0u64;
    loop {
        let done = stop.load(Ordering::Relaxed);
        let pin = hub.pin();
        polls += 1;
        let gen = pin.generation();
        if gen < last_gen {
            anomalies.push(format!(
                "generation regressed: pinned {gen} after {last_gen}"
            ));
        }
        last_gen = gen;
        if generations.last() != Some(&gen) {
            generations.push(gen);
        }
        let d1 = digest(pin.catalog());
        let d2 = digest(pin.catalog());
        if d1 != d2 {
            anomalies.push(format!(
                "non-repeatable read within pinned generation {gen}"
            ));
        }
        match seen.entry(gen) {
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != d1 {
                    anomalies.push(format!(
                        "generation {gen} observed with two different states"
                    ));
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(d1);
            }
        }
        drop(pin);
        if done {
            break;
        }
        // Yield the (possibly only) CPU to the writer between polls.
        std::thread::sleep(Duration::from_micros(100));
    }
    generations.sort_unstable();
    generations.dedup();
    ConcurrentReaderReport {
        polls,
        generations,
        anomalies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::oracle_like;
    use aio_storage::{edge_schema, row, Relation, WalPolicy};

    fn shared_with_edges() -> Arc<SharedDatabase> {
        let mut db = Database::new(oracle_like());
        let mut e = Relation::new(edge_schema());
        e.extend([row![1, 2, 1.0], row![2, 3, 1.0]]).unwrap();
        db.create_table("E", e).unwrap();
        SharedDatabase::new(db)
    }

    #[test]
    fn read_txn_pins_while_writer_advances() {
        let shared = shared_with_edges();
        let mut reader = shared.session();
        let g = reader.begin_read();
        assert_eq!(reader.generation(), Some(g));
        assert_eq!(reader.query("select * from E").unwrap().relation.len(), 2);

        // the writer commits more edges…
        shared.with_writer(|db| {
            db.catalog
                .insert_rows("E", vec![row![3, 4, 1.0]], WalPolicy::None)
                .unwrap()
        });
        assert!(shared.current_generation() > g);

        // …but the open read txn keeps seeing its pinned generation
        assert_eq!(reader.query("select * from E").unwrap().relation.len(), 2);
        reader.end_read();
        // outside a read txn, each query pins the newest commit
        assert_eq!(reader.query("select * from E").unwrap().relation.len(), 3);
    }

    #[test]
    fn query_rejects_withplus_statements() {
        let shared = shared_with_edges();
        let mut s = shared.session();
        let err = s
            .query(
                "with TC(F, T) as ((select E.F, E.T from E) union \
                 (select TC.F, E.T from TC, E where TC.T = E.F)) select * from TC",
            )
            .unwrap_err();
        assert!(err.to_string().contains("Session::execute"), "{err}");
    }

    #[test]
    fn execute_forwards_with_session_params() {
        let shared = shared_with_edges();
        let mut s = shared.session();
        s.set_param("src", 1i64);
        let out = s
            .execute("select E.F, E.T from E where E.F = :src")
            .unwrap();
        assert_eq!(out.relation.len(), 1);
        // the writer's own bindings stayed untouched
        let has_src = shared.with_writer(|db| {
            db.execute("select E.F, E.T from E where E.F = :src")
                .is_err()
        });
        assert!(has_src, "writer must not inherit session params");
    }

    #[test]
    fn sessions_cross_threads() {
        // compile-time: a shared handle fans out to reader threads, and a
        // session (pin and all) may live on a non-owner thread
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<SharedDatabase>();
        assert_send::<Session>();

        // runtime: a reader thread pins a generation while this thread writes
        let shared = shared_with_edges();
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut s = shared.session();
                s.begin_read();
                let n = s.query("select * from E").unwrap().relation.len();
                (s.generation().unwrap(), n)
            })
        };
        let (gen, n) = worker.join().unwrap();
        assert!(gen >= 1);
        assert_eq!(n, 2);
    }

    #[test]
    fn sessions_get_distinct_ids() {
        let shared = shared_with_edges();
        let a = shared.session();
        let b = shared.session();
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), 0, "0 means no session");
    }

    #[test]
    fn armed_reader_watches_a_fixpoint_converge() {
        let mut db = Database::new(oracle_like());
        let mut e = Relation::new(edge_schema());
        e.extend([
            row![1, 2, 1.0],
            row![2, 3, 1.0],
            row![3, 4, 1.0],
            row![4, 5, 1.0],
        ])
        .unwrap();
        db.create_table("E", e).unwrap();
        arm_concurrent_reader();
        let out = db
            .execute(
                "with TC(F, T) as ((select E.F, E.T from E) union \
                 (select TC.F, E.T from TC, E where TC.T = E.F)) select * from TC",
            )
            .unwrap();
        assert_eq!(out.relation.len(), 10);
        let report = take_concurrent_report().expect("armed execute stashes a report");
        assert!(report.polls >= 1);
        assert!(!report.generations.is_empty());
        assert!(
            report.anomalies.is_empty(),
            "anomalies: {:?}",
            report.anomalies
        );
        // one-shot: the next execute is unwatched
        db.execute("select * from E").unwrap();
        assert!(take_concurrent_report().is_none());
    }
}
