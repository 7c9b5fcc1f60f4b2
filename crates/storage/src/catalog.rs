//! The catalog: named base tables and session temporary tables.
//!
//! The PSM translation of a with+ query (Algorithm 1) creates a temporary
//! table per `computed by` relation plus the recursive relation itself,
//! fills them with `INSERT ... SELECT`, and truncates them between
//! iterations. The catalog tracks which tables are temporary because the
//! paper's PostgreSQL behaviour hinges on it: *"PostgreSQL does not generate
//! the optimal plan for temporary tables due to the lack of sufficient
//! statistical information"* (Section 7.2). Base tables have statistics;
//! temp tables do not.

use crate::column::{Batch, ImageCache};
use crate::error::{Result, StorageError};
use crate::index::SortedIndex;
use crate::mvcc::{GenerationHub, Snapshot};
use crate::relation::{Relation, RelationStats, Row};
use crate::snapshot;
use crate::trie::{TrieCache, TrieIndex};
use crate::value::Value;
use crate::wal::{self, CommitKind, Durability, Wal, WalPolicy};
use std::collections::HashMap;
use std::sync::Arc;

/// A catalog entry.
#[derive(Clone, Debug)]
pub struct TableEntry {
    pub rel: Relation,
    /// Temporary (session) table: no optimizer statistics.
    pub temp: bool,
    /// Sorted indexes built over this table (Exp-A, Fig. 10).
    pub indexes: Vec<SortedIndex>,
    /// Trie indexes, built lazily per key order through `&Catalog` and
    /// invalidated on any mutation: the leapfrog's multi-level tries, and
    /// the single-level tries a batch hash join looks keys up in instead of
    /// hashing this table again (the cached adjacency `E[F]`). Derived
    /// data: never WAL-logged, rebuilt on demand after recovery.
    pub tries: TrieCache,
    /// The table's columnar image — what `Batch::from_relation(&rel)`
    /// produces — transposed by the first batch-mode scan through
    /// `&Catalog` and handed out as shared `Arc` columns from then on.
    /// Derived data with the tries' lifetime: dropped on any mutation,
    /// never logged or checkpointed.
    pub image: ImageCache,
    /// Optimizer statistics. Base tables get them at load time; temp
    /// tables only via an explicit [`Catalog::analyze`] (the paper's
    /// PostgreSQL pain point is exactly their absence). Mutation through
    /// `insert_rows`/`truncate`/`relation_mut` invalidates them.
    pub stats: Option<RelationStats>,
}

impl TableEntry {
    fn new(rel: Relation, temp: bool, stats: Option<RelationStats>) -> Self {
        TableEntry {
            rel,
            temp,
            indexes: Vec::new(),
            tries: TrieCache::default(),
            image: ImageCache::default(),
            stats,
        }
    }

    /// Drop everything derived from the rows — statistics, sorted indexes,
    /// tries, the columnar image. Every mutation path calls this (and
    /// nothing else) before it touches `rel`, so no derived structure can
    /// outlive the rows it describes.
    fn invalidate(&mut self) {
        self.stats = None;
        self.indexes.clear();
        self.tries.clear();
        self.image.clear();
    }
}

/// Named relations plus the WAL.
///
/// Entries are held behind `Arc` so a committed generation can be forked
/// as a read-only snapshot in O(tables) ([`Catalog::fork_readonly`]): the
/// fork shares every entry, and the writer's next mutation of a shared
/// entry clones only that entry, whose rows the clone shares chunk by
/// chunk: the write then copies only the chunks it touches (copy-on-write,
/// see `Catalog::table_mut_for_write` and DESIGN §20).
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<TableEntry>>,
    /// Simulated redo log shared by all tables (the paper's logging cost
    /// model; see `wal.rs`).
    pub wal: Wal,
    /// The *real* durable log, present when this catalog was opened from a
    /// database directory (`recover::open_catalog`). `None` = in-memory
    /// catalog, every durable hook below is a no-op.
    pub(crate) durable: Option<Durability>,
    /// Committed-generation counter: bumped at every commit point
    /// (auto-commit, explicit/iteration commit, run end, checkpoint).
    gen: u64,
    /// MVCC publication point, present after [`Catalog::enable_mvcc`].
    /// Every commit point publishes a read-only snapshot fork into it.
    hub: Option<Arc<GenerationHub>>,
    /// Inside an explicit transaction (a with+ run or a caller batch):
    /// mutations neither auto-commit to the durable log nor publish a
    /// generation until the next commit marker.
    in_txn: bool,
}

/// What a [`Catalog::checkpoint`] wrote.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointStats {
    /// The new generation number.
    pub seq: u64,
    /// Snapshot file size.
    pub bytes: u64,
    pub tables: usize,
}

fn norm(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a base table (has statistics).
    pub fn create_table(&mut self, name: &str, rel: Relation) -> Result<()> {
        self.create(name, rel, false)
    }

    /// Register a temporary table (no statistics; optimizer-relevant).
    pub fn create_temp(&mut self, name: &str, rel: Relation) -> Result<()> {
        self.create(name, rel, true)
    }

    fn create(&mut self, name: &str, rel: Relation, temp: bool) -> Result<()> {
        let key = norm(name);
        if self.tables.contains_key(&key) {
            return Err(StorageError::TableExists(name.to_string()));
        }
        if self.durable.is_some() {
            self.wal_append(wal::enc_create_table(
                &key,
                temp,
                false,
                rel.schema(),
                rel.pk(),
                rel.rows(),
            ))?;
        }
        // Base tables are analyzed at load time; temp tables start without
        // statistics, like the paper's PostgreSQL temp tables.
        let stats = (!temp).then(|| rel.collect_stats());
        aio_metrics::global()
            .engine
            .relation_bytes_total
            .add(rel.approx_bytes());
        self.tables
            .insert(key, Arc::new(TableEntry::new(rel, temp, stats)));
        self.refresh_size_gauges();
        self.maybe_autocommit_publish();
        Ok(())
    }

    /// Register, replacing any previous table of that name (used by the
    /// `drop`/`alter` union-by-update implementation and by experiment
    /// set-up code). Only fails on a durable catalog whose log append
    /// failed; in-memory it cannot error.
    pub fn create_or_replace(&mut self, name: &str, rel: Relation, temp: bool) -> Result<()> {
        let key = norm(name);
        if self.durable.is_some() {
            self.wal_append(wal::enc_create_table(
                &key,
                temp,
                true,
                rel.schema(),
                rel.pk(),
                rel.rows(),
            ))?;
        }
        let stats = (!temp).then(|| rel.collect_stats());
        aio_metrics::global()
            .engine
            .relation_bytes_total
            .add(rel.approx_bytes());
        self.tables
            .insert(key, Arc::new(TableEntry::new(rel, temp, stats)));
        self.refresh_size_gauges();
        self.maybe_autocommit_publish();
        Ok(())
    }

    /// Install or overwrite a *system* relation (`aio_metrics`,
    /// `aio_query_log`): derived data like tries — never WAL-logged, gone
    /// after recovery, re-materialized on demand by the engine. Gets fresh
    /// statistics so the cost optimizer can plan over it.
    pub fn put_system_table(&mut self, name: &str, rel: Relation) {
        let stats = Some(rel.collect_stats());
        self.tables
            .insert(norm(name), Arc::new(TableEntry::new(rel, true, stats)));
    }

    /// `ANALYZE name` — (re)collect statistics for one table, temp or not.
    /// This is the cheap per-iteration refresh path for the recursive
    /// delta relation under the cost-based optimizer.
    pub fn analyze(&mut self, name: &str) -> Result<()> {
        let e = self.entry_mut_keep_derived(name)?;
        e.stats = Some(e.rel.collect_stats());
        Ok(())
    }

    /// Statistics for `name`, if collected and still valid. Probes on
    /// existing tables count toward the stats-cache hit/miss metrics (a
    /// miss is the paper's "temp table without statistics" pain point).
    pub fn stats(&self, name: &str) -> Option<&RelationStats> {
        let e = self.tables.get(&norm(name))?;
        let stats = e.stats.as_ref();
        aio_metrics::hooks::stats_cache(stats.is_some());
        stats
    }

    /// Mutable access to one entry with copy-on-write: if the entry is
    /// shared with a published snapshot (or a pinned reader), it is cloned
    /// first so the snapshot keeps its own statistics, trie cache and
    /// columnar image untouched (the caches clone as `Arc`s, the rows as
    /// shared chunks). For changes that leave the rows alone (statistics,
    /// index builds); row mutations diverge through
    /// [`Catalog::table_mut_for_write`].
    fn table_mut(&mut self, key: &str) -> Option<&mut TableEntry> {
        let arc = self.tables.get_mut(key)?;
        if Arc::strong_count(arc) > 1 {
            aio_metrics::hooks::mvcc_cow_clone();
        }
        Some(Arc::make_mut(arc))
    }

    /// Copy-on-write access for a row mutation: the writer's copy starts
    /// with the rows — every chunk shared with the old entry, so the write
    /// then copies only the chunks it touches (DESIGN §20) — and nothing
    /// derived (so nothing derived is cloned just to be dropped). A copy
    /// left behind in a snapshot keeps its rows, statistics, indexes and
    /// tries but releases its columnar image — two generations of a table
    /// the writer keeps changing would otherwise each hold one (+14 % peak
    /// RSS on the benchmark's `live_views`); a pinned reader that still
    /// batch-scans the old generation transposes again, into its own copy.
    fn table_mut_for_write(&mut self, key: &str) -> Option<&mut TableEntry> {
        let arc = self.tables.get_mut(key)?;
        if Arc::strong_count(arc) > 1 {
            aio_metrics::hooks::mvcc_cow_clone();
            arc.image.clear();
            *arc = Arc::new(TableEntry::new(arc.rel.clone(), arc.temp, None));
        }
        let e = Arc::make_mut(arc);
        e.invalidate();
        Some(e)
    }

    fn entry_mut_keep_derived(&mut self, name: &str) -> Result<&mut TableEntry> {
        let key = norm(name);
        self.table_mut(&key)
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    pub fn drop_table(&mut self, name: &str) -> Result<Relation> {
        let key = norm(name);
        if !self.tables.contains_key(&key) {
            return Err(StorageError::NoSuchTable(name.to_string()));
        }
        if self.durable.is_some() {
            self.wal_append(wal::enc_drop(&key))?;
        }
        let entry = self.tables.remove(&key).expect("checked above");
        // Snapshots may still share the entry; the caller's copy shares
        // its chunks.
        let rel = entry.rel.clone();
        self.refresh_size_gauges();
        self.maybe_autocommit_publish();
        Ok(rel)
    }

    /// `ALTER TABLE old RENAME TO new` (the second half of the drop/alter
    /// union-by-update implementation, Table 4/5).
    pub fn rename_table(&mut self, old: &str, new: &str) -> Result<()> {
        let (okey, nkey) = (norm(old), norm(new));
        if self.tables.contains_key(&nkey) {
            return Err(StorageError::TableExists(new.to_string()));
        }
        if !self.tables.contains_key(&okey) {
            return Err(StorageError::NoSuchTable(old.to_string()));
        }
        if self.durable.is_some() {
            self.wal_append(wal::enc_rename(&okey, &nkey))?;
        }
        let e = self.tables.remove(&okey).expect("checked above");
        self.tables.insert(nkey.clone(), e);
        // A pending in-place-mutation image must follow the table to its
        // new name, or the mutation silently vanishes on replay.
        if let Some(d) = self.durable.as_mut() {
            for n in d.dirty.iter_mut() {
                if *n == okey {
                    *n = nkey.clone();
                }
            }
        }
        self.maybe_autocommit_publish();
        Ok(())
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&norm(name))
    }

    pub fn entry(&self, name: &str) -> Result<&TableEntry> {
        self.tables
            .get(&norm(name))
            .map(|e| e.as_ref())
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Mutable entry access. Conservatively drops everything derived from
    /// the rows (statistics, sorted indexes, tries, the columnar image):
    /// the caller may mutate rows, and stale sketches are worse for the
    /// optimizer than none. Use [`Catalog::analyze`] to re-collect.
    ///
    /// On a durable catalog this also marks the table *dirty*: in-place
    /// mutations cannot be logged physically, so the table's full
    /// after-image is appended to the WAL at the next commit point.
    pub fn entry_mut(&mut self, name: &str) -> Result<&mut TableEntry> {
        let key = norm(name);
        if !self.tables.contains_key(&key) {
            return Err(StorageError::NoSuchTable(name.to_string()));
        }
        if let Some(d) = self.durable.as_mut() {
            if !d.dirty.contains(&key) {
                d.dirty.push(key.clone());
            }
        }
        // The caller may mutate rows in place; anything derived from them
        // would silently describe the old contents.
        Ok(self.table_mut_for_write(&key).expect("checked above"))
    }

    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.entry(name).map(|e| &e.rel)
    }

    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.entry_mut(name).map(|e| &mut e.rel)
    }

    /// `TRUNCATE TABLE` — the paper's per-iteration cleanup of intermediate
    /// results ("the intermediate result of Q_i is cleaned up by the
    /// truncate table clause", appendix). Drops indexes too, since they
    /// index nothing afterwards.
    pub fn truncate(&mut self, name: &str) -> Result<()> {
        if !self.contains(name) {
            return Err(StorageError::NoSuchTable(name.to_string()));
        }
        if self.durable.is_some() {
            self.wal_append(wal::enc_truncate(&norm(name)))?;
        }
        let e = self
            .table_mut_for_write(&norm(name))
            .expect("checked above");
        e.rel.truncate(0);
        self.refresh_size_gauges();
        self.maybe_autocommit_publish();
        Ok(())
    }

    /// Bulk insert, logging per `policy`.
    pub fn insert_rows(&mut self, name: &str, rows: Vec<Row>, policy: WalPolicy) -> Result<()> {
        self.wal.log_insert(policy, &rows);
        // Validate arity *before* logging durably: a record must never hit
        // the WAL for a mutation that then fails to apply.
        let expected = self.relation(name)?.schema().arity();
        if let Some(r) = rows.iter().find(|r| r.len() != expected) {
            return Err(StorageError::ArityMismatch {
                expected,
                got: r.len(),
            });
        }
        if self.durable.is_some() {
            self.wal_append(wal::enc_insert(&norm(name), &rows))?;
        }
        aio_metrics::global()
            .engine
            .relation_bytes_total
            .add(rows.len() as u64 * crate::relation::approx_row_bytes(expected));
        // Inserts invalidate sorted order; a real engine maintains the
        // B-tree incrementally, we rebuild lazily on next use instead.
        let e = self
            .table_mut_for_write(&norm(name))
            .expect("checked above");
        let out = e.rel.extend(rows);
        self.refresh_size_gauges();
        self.maybe_autocommit_publish();
        out
    }

    /// Apply a logical edge-delta batch: append `adds`, remove `dels` by
    /// full-row match (multiset, first occurrence). The IVM ingestion path:
    /// one `EdgeDelta` WAL record of size O(|delta|) instead of a full
    /// after-image. Rows in `dels` absent from the table are ignored, so
    /// replaying the same record is idempotent on the add/remove pairing.
    /// Returns the number of rows actually removed.
    pub fn apply_delta(
        &mut self,
        name: &str,
        adds: Vec<Row>,
        dels: Vec<Row>,
        policy: WalPolicy,
    ) -> Result<usize> {
        self.wal.log_insert(policy, &adds);
        self.wal.log_insert(policy, &dels);
        // Validate arity *before* the durable log, as insert_rows does.
        let expected = self.relation(name)?.schema().arity();
        if let Some(r) = adds.iter().chain(dels.iter()).find(|r| r.len() != expected) {
            return Err(StorageError::ArityMismatch {
                expected,
                got: r.len(),
            });
        }
        if self.durable.is_some() {
            self.wal_append(wal::enc_edge_delta(&norm(name), &adds, &dels))?;
        }
        aio_metrics::hooks::ivm_base_delta(adds.len() as u64, dels.len() as u64);
        let e = self
            .table_mut_for_write(&norm(name))
            .expect("checked above");
        // Adds land before deletes so a batch that inserts and deletes the
        // same row nets out (insert-then-delete is a no-op).
        e.rel.extend(adds)?;
        let removed = e.rel.remove_rows(&dels);
        self.refresh_size_gauges();
        self.maybe_autocommit_publish();
        Ok(removed)
    }

    /// Overwrite rows in place (`set`: position, new row) and append
    /// `append`, logging one `EdgeDelta` record — `dels` the rows
    /// overwritten, `adds` the rows written — instead of marking the table
    /// for a full after-image at commit. Replaying the record yields the
    /// same rows as a multiset; the rewritten ones move to the end (DESIGN
    /// §19). The keyed fold of a fixpoint writes through here, so its log
    /// is O(|changed|), not O(|R|). Positions must be distinct.
    pub fn patch_rows(
        &mut self,
        name: &str,
        set: Vec<(usize, Row)>,
        append: Vec<Row>,
    ) -> Result<()> {
        let key = norm(name);
        // Validate *before* the durable log, as insert_rows does.
        let rel = self.relation(name)?;
        let (expected, len) = (rel.schema().arity(), rel.len());
        let rows = set.iter().map(|(_, r)| r).chain(&append);
        if let Some(r) = rows.clone().find(|r| r.len() != expected) {
            return Err(StorageError::ArityMismatch {
                expected,
                got: r.len(),
            });
        }
        if let Some((i, _)) = set.iter().find(|(i, _)| *i >= len) {
            return Err(StorageError::Invalid(format!(
                "patch_rows: position {i} out of range for {name} ({len} rows)"
            )));
        }
        if self.durable.is_some() {
            let dels: Vec<&Row> = set.iter().map(|(i, _)| &rel[*i]).collect();
            let adds: Vec<&Row> = rows.collect();
            self.wal_append(wal::enc_edge_delta(&key, adds, dels))?;
        }
        aio_metrics::global()
            .engine
            .relation_bytes_total
            .add(append.len() as u64 * crate::relation::approx_row_bytes(expected));
        let e = self.table_mut_for_write(&key).expect("checked above");
        for (i, row) in set {
            e.rel.set(i, row);
        }
        e.rel.extend(append)?;
        self.refresh_size_gauges();
        self.maybe_autocommit_publish();
        Ok(())
    }

    /// The entry behind `name`, shared: a caller about to change the table
    /// keeps the version it can compare against or put back.
    pub fn shared_entry(&self, name: &str) -> Result<Arc<TableEntry>> {
        self.tables
            .get(&norm(name))
            .cloned()
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Build (or rebuild) a sorted index on `cols`. Leaves statistics
    /// intact — indexing does not change row contents.
    pub fn build_index(&mut self, name: &str, cols: &[usize]) -> Result<()> {
        let e = self.entry_mut_keep_derived(name)?;
        if e.indexes.iter().any(|i| i.covers(cols)) {
            return Ok(());
        }
        let idx = SortedIndex::build(&e.rel, cols);
        e.indexes.push(idx);
        Ok(())
    }

    /// A sorted index covering exactly `cols`, if one was built.
    pub fn index_on(&self, name: &str, cols: &[usize]) -> Option<&SortedIndex> {
        self.tables
            .get(&norm(name))
            .and_then(|e| e.indexes.iter().find(|i| i.covers(cols)))
    }

    /// The trie for `name[cols]`, building and caching it on a miss. Works
    /// through `&self` (interior mutability) so plan execution can build
    /// lazily; any mutation of the table drops the cache.
    pub fn trie_for(&self, name: &str, cols: &[usize]) -> Result<std::sync::Arc<TrieIndex>> {
        let e = self.entry(name)?;
        Ok(e.tries.get_or_build(&e.rel, cols))
    }

    /// The trie on `name[cols]` for a join that would otherwise hash the
    /// table: cached, or built once joins have hashed this version of it
    /// [`JOIN_TRIE_RENT`](crate::trie::JOIN_TRIE_RENT) times
    /// ([`TrieCache::fetch_after`]); `None` means hash this time. Same
    /// cache and lifetime as [`Catalog::trie_for`].
    pub fn join_trie(
        &self,
        name: &str,
        cols: &[usize],
    ) -> Result<Option<(std::sync::Arc<TrieIndex>, Option<u64>)>> {
        let e = self.entry(name)?;
        Ok(e.tries.fetch_after(&e.rel, cols))
    }

    /// The columnar image of `name`: built by the first batch-mode scan
    /// after a mutation, shared (`Arc` columns) by every scan until the
    /// next one. Same lifetime rule as [`Catalog::trie_for`].
    pub fn columnar(&self, name: &str) -> Result<Batch> {
        let e = self.entry(name)?;
        Ok(e.image.get_or_build(&e.rel))
    }

    /// The cached trie covering exactly `cols`, if one was built and has
    /// not been invalidated since.
    pub fn trie_on(&self, name: &str, cols: &[usize]) -> Option<std::sync::Arc<TrieIndex>> {
        self.tables
            .get(&norm(name))
            .and_then(|e| e.tries.cached(cols))
    }

    /// Eagerly build (or rebuild) the trie on `cols` — the warm-up path
    /// benchmarks use; lazy builds via [`Catalog::trie_for`] are the norm.
    pub fn build_trie(&mut self, name: &str, cols: &[usize]) -> Result<()> {
        let e = self.entry_mut_keep_derived(name)?;
        e.tries.get_or_build(&e.rel, cols);
        Ok(())
    }

    /// All table names (normalized), sorted for determinism.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }

    // -- MVCC generations --------------------------------------------------

    /// The committed-generation counter. Bumped at every commit point:
    /// auto-commits (any mutating method outside a transaction), explicit
    /// commits, fixpoint-iteration commits, run begin/end, checkpoints.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Is a transaction open (durable WAL transaction, or the in-memory
    /// equivalent)? While open, mutations do not publish generations —
    /// readers keep seeing the pre-transaction state until the commit.
    pub fn in_txn(&self) -> bool {
        self.in_txn
    }

    /// Turn on MVCC publication: every commit point from here on publishes
    /// a read-only snapshot of this catalog into the returned
    /// [`GenerationHub`], which readers pin via [`GenerationHub::pin`].
    /// The hub is primed with the current state; calling again returns the
    /// existing hub. Catalogs without a hub pay nothing (one `Option`
    /// check per commit point).
    pub fn enable_mvcc(&mut self) -> Arc<GenerationHub> {
        if let Some(h) = &self.hub {
            return Arc::clone(h);
        }
        let hub = Arc::new(GenerationHub::new(Snapshot {
            gen: self.gen,
            catalog: self.fork_readonly(),
        }));
        self.hub = Some(Arc::clone(&hub));
        hub
    }

    /// A read-only fork: shares every table entry with this catalog
    /// (copy-on-write protects it from future writer mutations), carries
    /// the same generation number, and has no durable log, no hub and a
    /// fresh cost-model WAL. O(tables), independent of row counts.
    pub fn fork_readonly(&self) -> Catalog {
        Catalog {
            tables: self.tables.clone(),
            wal: Wal::new(),
            durable: None,
            gen: self.gen,
            hub: None,
            in_txn: false,
        }
    }

    /// A commit point: bump the generation and, when MVCC is on, publish
    /// the new committed state.
    fn bump_generation(&mut self) {
        self.gen += 1;
        if let Some(hub) = &self.hub {
            hub.publish(Snapshot {
                gen: self.gen,
                catalog: self.fork_readonly(),
            });
        }
    }

    /// Auto-commit boundary at the end of every mutating method: outside a
    /// transaction each mutation is its own committed generation (matching
    /// the durable WAL's auto-commit records); inside one, the commit
    /// publishes instead.
    fn maybe_autocommit_publish(&mut self) {
        if !self.in_txn {
            self.bump_generation();
        }
    }

    // -- durability -------------------------------------------------------

    /// Whether this catalog writes a durable WAL.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The durable-log handle, for counters and paths.
    pub fn durability(&self) -> Option<&Durability> {
        self.durable.as_ref()
    }

    /// Attach a durable log (done by `recover::open_catalog` after replay;
    /// mutations from here on are logged).
    pub fn attach_durability(&mut self, d: Durability) {
        self.durable = Some(d);
    }

    /// Append one record; outside a transaction this is its own committed,
    /// synced transaction (auto-commit).
    fn wal_append(&mut self, payload: Vec<u8>) -> Result<()> {
        if self.durable.is_none() {
            return Ok(());
        }
        if !self.in_txn {
            // Straggler in-place mutations commit together with this record.
            self.wal_flush_dirty()?;
        }
        let d = self.durable.as_mut().expect("checked above");
        d.append_record(&payload)?;
        if !self.in_txn {
            d.append_record(&wal::enc_commit(&CommitKind::Auto))?;
            d.sync_wal()?;
        }
        Ok(())
    }

    /// Turn every dirty table into a `ReplaceRows` after-image. Tables
    /// dropped since they were dirtied are skipped (the drop record already
    /// covers them).
    fn wal_flush_dirty(&mut self) -> Result<()> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        let names = std::mem::take(&mut d.dirty);
        for n in names {
            if let Some(e) = self.tables.get(&n) {
                d.append_record(&wal::enc_replace_rows(&n, e.rel.rows()))?;
            }
        }
        Ok(())
    }

    /// Start an explicit WAL transaction: mutations accumulate un-synced
    /// until the next commit marker. Used by the PSM loop (a whole
    /// iteration is one transaction) and by bulk loaders. On an in-memory
    /// catalog the flag still groups mutations into one MVCC generation.
    pub fn wal_begin_txn(&mut self) {
        self.in_txn = true;
    }

    fn wal_commit(&mut self, kind: CommitKind, close: bool) -> Result<(u64, u64)> {
        let out = if self.durable.is_some() {
            let d = self.durable.as_ref().expect("checked above");
            let before = (d.records_appended(), d.bytes_appended());
            self.wal_flush_dirty()?;
            let d = self.durable.as_mut().expect("checked above");
            d.append_record(&wal::enc_commit(&kind))?;
            d.sync_wal()?;
            (
                d.records_appended() - before.0,
                d.bytes_appended() - before.1,
            )
        } else {
            (0, 0)
        };
        if close {
            self.in_txn = false;
        }
        // Every commit marker — including the iteration commits that leave
        // the run transaction open — is an MVCC generation boundary.
        self.bump_generation();
        Ok(out)
    }

    /// Commit and close an explicit transaction. Returns (records, bytes)
    /// appended by the commit (dirty images + marker).
    pub fn wal_commit_txn(&mut self) -> Result<(u64, u64)> {
        self.wal_commit(CommitKind::Auto, true)
    }

    /// Iteration-boundary commit emitted by the PSM fixpoint loop:
    /// `iters_done` iterations of `rec`'s recursion are now durable
    /// (0 = the init queries). Leaves the run's transaction open.
    pub fn wal_commit_iter(&mut self, rec: &str, iters_done: u64) -> Result<(u64, u64)> {
        self.wal_commit(
            CommitKind::Iter {
                rec: norm(rec),
                iters_done,
            },
            false,
        )
    }

    /// A with+ statement is starting: durably record enough context (SQL
    /// text + parameter bindings) to resume it after a crash, then open its
    /// transaction.
    pub fn wal_run_begin(
        &mut self,
        rec: &str,
        sql: &str,
        params: &[(String, Value)],
    ) -> Result<()> {
        if self.durable.is_some() {
            self.wal_flush_dirty()?;
            let d = self.durable.as_mut().expect("checked above");
            d.append_record(&wal::enc_run_begin(&norm(rec), sql, params))?;
            d.append_record(&wal::enc_commit(&CommitKind::Auto))?;
            d.sync_wal()?;
        }
        // The pre-run state commits here (stragglers flush durably above);
        // publish it, then open the run's transaction so the fixpoint's
        // mutations stay invisible until the first iteration commit.
        self.bump_generation();
        self.wal_begin_txn();
        Ok(())
    }

    /// The with+ statement finished (or aborted): commit its trailing
    /// mutations and mark the run complete so recovery won't offer it for
    /// resumption.
    pub fn wal_run_end(&mut self, rec: &str) -> Result<()> {
        self.wal_commit(CommitKind::RunEnd { rec: norm(rec) }, true)
            .map(|_| ())
    }

    /// Write snapshot generation `seq+1`, start a fresh WAL generation and
    /// delete the previous generation's files.
    ///
    /// Crash-safe ordering: tmp-write → fsync → rename → new WAL (synced)
    /// → delete old files. A crash anywhere leaves either the old
    /// generation intact or both generations present — recovery picks the
    /// newest *valid* snapshot, so no window loses data.
    pub fn checkpoint(&mut self) -> Result<CheckpointStats> {
        let Some(d) = self.durable.as_ref() else {
            return Err(StorageError::Invalid(
                "checkpoint: catalog is not durable".into(),
            ));
        };
        if self.in_txn {
            return Err(StorageError::Invalid(
                "checkpoint: WAL transaction in progress".into(),
            ));
        }
        let old_seq = d.seq();
        let next = old_seq + 1;
        let dir = d.dir().to_string();
        let vfs = d.vfs();
        let started = std::time::Instant::now();
        let bytes = snapshot::encode_snapshot(next, self);
        let fin = snapshot::snapshot_file(&dir, next);
        let tmp = format!("{fin}.tmp");
        let io = |op: &str, p: &str, e: std::io::Error| StorageError::Io(format!("{op} {p}: {e}"));
        vfs.write(&tmp, &bytes).map_err(|e| io("write", &tmp, e))?;
        vfs.sync(&tmp).map_err(|e| io("sync", &tmp, e))?;
        vfs.rename(&tmp, &fin).map_err(|e| io("rename", &tmp, e))?;
        wal::init_wal(&vfs, &dir, next)?;
        // The old generation is now garbage; removal failures are harmless
        // (recovery always prefers the newest valid snapshot).
        let _ = vfs.remove(&wal::wal_file(&dir, old_seq));
        let _ = vfs.remove(&snapshot::snapshot_file(&dir, old_seq));
        let d = self.durable.as_mut().expect("checked above");
        d.set_seq(next);
        // In-place mutations up to here are inside the snapshot.
        d.dirty.clear();
        aio_metrics::hooks::checkpoint(bytes.len() as u64, started.elapsed().as_millis() as u64);
        // A checkpoint is a commit point: same content, new generation.
        self.bump_generation();
        Ok(CheckpointStats {
            seq: next,
            bytes: bytes.len() as u64,
            tables: self.tables.len(),
        })
    }

    /// Refresh the catalog-footprint gauges (row count and estimated bytes
    /// across all tables). O(tables), called after structural mutations.
    fn refresh_size_gauges(&self) {
        if !aio_metrics::enabled() {
            return;
        }
        let (mut rows, mut bytes) = (0u64, 0u64);
        for e in self.tables.values() {
            rows += e.rel.len() as u64;
            bytes += e.rel.approx_bytes();
        }
        aio_metrics::hooks::catalog_size(rows, bytes);
    }

    /// Row-for-row equality of the visible contents (names, temp flags,
    /// schemas, primary keys, rows in order). Indexes, statistics and WAL
    /// state are ignored — this is the equivalence the recovery tests
    /// assert.
    pub fn same_content(&self, other: &Catalog) -> bool {
        let (a, b) = (self.names(), other.names());
        if a != b {
            return false;
        }
        a.iter().all(|n| {
            let (x, y) = (
                self.entry(n).expect("listed name"),
                other.entry(n).expect("listed name"),
            );
            x.temp == y.temp
                && x.rel.schema() == y.rel.schema()
                && x.rel.pk() == y.rel.pk()
                && x.rel.rows() == y.rel.rows()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{edge_schema, node_schema};
    use crate::row;

    #[test]
    fn create_get_drop_roundtrip() {
        let mut c = Catalog::new();
        c.create_table("E", Relation::new(edge_schema())).unwrap();
        assert!(c.contains("e"), "names are case-insensitive");
        assert!(matches!(
            c.create_table("e", Relation::new(edge_schema())),
            Err(StorageError::TableExists(_))
        ));
        c.drop_table("E").unwrap();
        assert!(!c.contains("E"));
        assert!(c.drop_table("E").is_err());
    }

    #[test]
    fn rename_moves_entry() {
        let mut c = Catalog::new();
        c.create_temp("V_new", Relation::new(node_schema()))
            .unwrap();
        c.create_table("V", Relation::new(node_schema())).unwrap();
        c.drop_table("V").unwrap();
        c.rename_table("V_new", "V").unwrap();
        assert!(c.contains("V"));
        assert!(!c.contains("V_new"));
    }

    #[test]
    fn rename_refuses_to_clobber() {
        let mut c = Catalog::new();
        c.create_table("A", Relation::new(node_schema())).unwrap();
        c.create_table("B", Relation::new(node_schema())).unwrap();
        assert!(c.rename_table("A", "B").is_err());
    }

    #[test]
    fn insert_logs_and_invalidates_indexes() {
        let mut c = Catalog::new();
        c.create_temp("T", Relation::new(node_schema())).unwrap();
        c.insert_rows("T", vec![row![1, 1.0], row![2, 2.0]], WalPolicy::Light)
            .unwrap();
        assert_eq!(c.relation("T").unwrap().len(), 2);
        assert!(c.wal.bytes_written() > 0);
        c.build_index("T", &[0]).unwrap();
        assert!(c.index_on("T", &[0]).is_some());
        c.insert_rows("T", vec![row![3, 3.0]], WalPolicy::None)
            .unwrap();
        assert!(c.index_on("T", &[0]).is_none(), "insert invalidates index");
    }

    #[test]
    fn truncate_clears_rows_and_indexes() {
        let mut c = Catalog::new();
        c.create_temp("T", Relation::new(node_schema())).unwrap();
        c.insert_rows("T", vec![row![1, 1.0]], WalPolicy::None)
            .unwrap();
        c.build_index("T", &[0]).unwrap();
        c.truncate("T").unwrap();
        assert!(c.relation("T").unwrap().is_empty());
        assert!(c.index_on("T", &[0]).is_none());
    }

    #[test]
    fn insert_and_truncate_invalidate_tries() {
        let mut c = Catalog::new();
        c.create_temp("T", Relation::new(edge_schema())).unwrap();
        c.insert_rows("T", vec![row![1, 2, 1.0], row![2, 3, 1.0]], WalPolicy::None)
            .unwrap();
        // lazy build through &Catalog, then a cache hit
        let t = c.trie_for("T", &[0, 1]).unwrap();
        assert_eq!(t.len(), 2);
        assert!(c.trie_on("T", &[0, 1]).is_some());
        c.insert_rows("T", vec![row![3, 1, 1.0]], WalPolicy::None)
            .unwrap();
        assert!(
            c.trie_on("T", &[0, 1]).is_none(),
            "insert invalidates tries"
        );
        assert_eq!(
            c.trie_for("T", &[0, 1]).unwrap().len(),
            3,
            "rebuilt over new rows"
        );
        c.truncate("T").unwrap();
        assert!(
            c.trie_on("T", &[0, 1]).is_none(),
            "truncate invalidates tries"
        );
        // in-place mutation via entry_mut drops the cache too
        c.insert_rows("T", vec![row![1, 2, 1.0]], WalPolicy::None)
            .unwrap();
        c.build_trie("T", &[1, 0]).unwrap();
        assert!(c.trie_on("T", &[1, 0]).is_some());
        let _ = c.entry_mut("T").unwrap();
        assert!(
            c.trie_on("T", &[1, 0]).is_none(),
            "entry_mut invalidates tries"
        );
        c.drop_table("T").unwrap();
        assert!(
            c.trie_on("T", &[0, 1]).is_none(),
            "drop removes the table's tries"
        );
        assert!(c.trie_for("T", &[0, 1]).is_err());
    }

    /// The stale-index hazard: `relation_mut` used to clear statistics and
    /// tries but leave sorted indexes (and now the image) describing rows
    /// the caller was about to change.
    #[test]
    fn in_place_mutation_drops_every_derived_structure() {
        let mut c = Catalog::new();
        c.create_table("E", Relation::new(edge_schema())).unwrap();
        c.insert_rows("E", vec![row![1, 2, 1.0], row![2, 3, 1.0]], WalPolicy::None)
            .unwrap();
        c.analyze("E").unwrap();
        c.build_index("E", &[0]).unwrap();
        c.build_trie("E", &[0, 1]).unwrap();
        assert_eq!(c.columnar("E").unwrap().len(), 2);
        let e = c.entry("E").unwrap();
        assert!(e.stats.is_some() && e.image.cached().is_some());
        assert!(c.index_on("E", &[0]).is_some() && c.trie_on("E", &[0, 1]).is_some());

        c.relation_mut("E").unwrap().push(row![0, 9, 1.0]).unwrap();
        assert!(
            c.index_on("E", &[0]).is_none(),
            "a stale sort order must not be served"
        );
        assert!(c.trie_on("E", &[0, 1]).is_none());
        let e = c.entry("E").unwrap();
        assert!(e.stats.is_none() && e.image.cached().is_none());
        assert_eq!(
            c.columnar("E").unwrap().len(),
            3,
            "rebuilt over the new rows"
        );
    }

    /// Copy-on-write and the image: a clone that changes no row shares the
    /// columns; a row mutation leaves the writer without an image and
    /// releases the superseded copy's, which a pinned reader rebuilds from
    /// its own rows.
    #[test]
    fn image_follows_copy_on_write() {
        let mut c = Catalog::new();
        c.create_table("E", Relation::new(edge_schema())).unwrap();
        c.insert_rows("E", vec![row![1, 2, 1.0]], WalPolicy::None)
            .unwrap();
        let image = c.columnar("E").unwrap();
        let fork = c.fork_readonly();
        c.analyze("E").unwrap(); // clones the shared entry, rows unchanged
        assert!(Arc::ptr_eq(
            &c.columnar("E").unwrap().col_arc(0),
            &image.col_arc(0)
        ));
        assert!(Arc::ptr_eq(
            &fork.columnar("E").unwrap().col_arc(0),
            &image.col_arc(0)
        ));

        let fork = c.fork_readonly();
        c.insert_rows("E", vec![row![2, 3, 1.0]], WalPolicy::None)
            .unwrap();
        assert!(c.entry("E").unwrap().image.cached().is_none());
        assert!(
            fork.entry("E").unwrap().image.cached().is_none(),
            "released at the divergence"
        );
        assert_eq!(
            fork.columnar("E").unwrap().len(),
            1,
            "the fork reads its own generation"
        );
        assert_eq!(c.columnar("E").unwrap().len(), 2);
    }

    #[test]
    fn apply_delta_adds_removes_and_invalidates() {
        let mut c = Catalog::new();
        c.create_table("E", Relation::new(edge_schema())).unwrap();
        c.insert_rows("E", vec![row![1, 2, 1.0], row![2, 3, 1.0]], WalPolicy::None)
            .unwrap();
        c.build_index("E", &[0]).unwrap();
        let gen_before = c.generation();
        let removed = c
            .apply_delta(
                "E",
                vec![row![3, 4, 1.0]],
                vec![row![1, 2, 1.0], row![9, 9, 9.0]],
                WalPolicy::None,
            )
            .unwrap();
        assert_eq!(removed, 1, "absent delete rows are ignored");
        let mut got: Vec<(i64, i64)> = c
            .relation("E")
            .unwrap()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![(2, 3), (3, 4)]);
        assert!(c.index_on("E", &[0]).is_none(), "delta invalidates indexes");
        assert!(c.generation() > gen_before, "delta is a commit point");
        // arity is validated up front
        assert!(c
            .apply_delta("E", vec![row![1]], vec![], WalPolicy::None)
            .is_err());
    }

    #[test]
    fn temp_flag_tracked() {
        let mut c = Catalog::new();
        c.create_table("base", Relation::new(node_schema()))
            .unwrap();
        c.create_temp("tmp", Relation::new(node_schema())).unwrap();
        assert!(!c.entry("base").unwrap().temp);
        assert!(c.entry("tmp").unwrap().temp);
    }
}
