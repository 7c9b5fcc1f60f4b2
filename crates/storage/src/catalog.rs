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
use crate::mutation::Mutation;
use crate::mvcc::{GenerationHub, Snapshot};
use crate::relation::{approx_row_bytes, Relation, RelationStats, Row};
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
    /// Derived data, never logged or checkpointed: an append keeps it as
    /// the image of the rows it covers (the next scan transposes only the
    /// rows past them), every other mutation drops it.
    pub image: ImageCache,
    /// Optimizer statistics. Base tables get them when created; temp
    /// tables only via an explicit [`Catalog::analyze`] (the paper's
    /// PostgreSQL pain point is exactly their absence). Every mutation
    /// that writes the table's rows ([`Catalog::apply`]) drops them, and
    /// nothing recomputes them until the next `analyze`.
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
    /// tries, the columnar image — except, before an append (`append`),
    /// the image, kept as the image of a prefix. Every mutation path calls
    /// this (and nothing else) before it touches `rel`, so no derived
    /// structure can outlive the rows it describes.
    fn invalidate(&mut self, append: bool) {
        self.stats = None;
        self.indexes.clear();
        self.tries.clear();
        if append {
            self.image.keep_prefix();
        } else {
            self.image.clear();
        }
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

/// A patch's positions must name rows of the table (`len` of them), each
/// at most once: a repeated one would log `dels` that replay to other
/// rows. Sorts a copy of the k positions: O(k log k), nothing O(|table|).
fn check_positions(table: &str, set: &[(usize, Row)], len: usize) -> Result<()> {
    let mut at: Vec<usize> = set.iter().map(|(i, _)| *i).collect();
    at.sort_unstable();
    if let Some(i) = at.last().filter(|&&i| i >= len) {
        return Err(StorageError::Invalid(format!(
            "patch_rows: position {i} out of range for {table} ({len} rows)"
        )));
    }
    match at.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(StorageError::Invalid(format!(
            "patch_rows: position {} repeated for {table}",
            w[0]
        ))),
        None => Ok(()),
    }
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a base table (has statistics).
    pub fn create_table(&mut self, name: &str, rel: Relation) -> Result<()> {
        self.create(name, rel, false, false)
    }

    /// Register a temporary table (no statistics; optimizer-relevant).
    pub fn create_temp(&mut self, name: &str, rel: Relation) -> Result<()> {
        self.create(name, rel, true, false)
    }

    /// Register, replacing any previous table of that name (used by the
    /// `drop`/`alter` union-by-update implementation and by experiment
    /// set-up code).
    pub fn create_or_replace(&mut self, name: &str, rel: Relation, temp: bool) -> Result<()> {
        self.create(name, rel, temp, true)
    }

    fn create(&mut self, name: &str, rel: Relation, temp: bool, replace: bool) -> Result<()> {
        let name = name.to_string();
        let create = Mutation::Create {
            name,
            rel,
            temp,
            replace,
        };
        self.apply(create, WalPolicy::None)
    }

    /// Apply one mutation — the catalog's only write path. In this order:
    /// validate it (`Mutation::check`, plus a patch's positions), encode
    /// its durable record once, charge that record to the cost model per
    /// `policy`, append it to the durable log, drop what was derived from
    /// the rows it touches, apply it, refresh the size gauges, and
    /// auto-commit (outside a transaction: its own durable transaction and
    /// MVCC generation). A rejected mutation logs, charges and applies
    /// nothing. The record is encoded only when something reads it: a
    /// `policy` other than `None`, or a durable log.
    pub fn apply(&mut self, m: Mutation, policy: WalPolicy) -> Result<()> {
        m.check(|t| Some(self.tables.get(&norm(t))?.rel.schema().arity()))?;
        if let Mutation::Patch { table, set, .. } = &m {
            check_positions(table, set, self.relation(table)?.len())?;
        }
        if policy != WalPolicy::None || self.durable.is_some() {
            let record = self.record(&m);
            self.wal.charge(policy, record.len(), || match &m {
                // a patch's `dels` already are the before-images of the
                // rows it overwrites: only the rows it appends need one
                Mutation::Patch { table, append, .. } if !append.is_empty() => {
                    wal::enc_insert(&norm(table), append).len()
                }
                Mutation::Patch { .. } => 0,
                _ => record.len(),
            });
            self.wal_append(&record)?;
        }
        self.install(m)?;
        self.refresh_size_gauges();
        self.maybe_autocommit_publish();
        Ok(())
    }

    /// `m`'s durable record: the bytes the log appends and the cost model
    /// charges. A patch is an `EdgeDelta` of the rows it overwrites
    /// (`dels`) and the rows it writes (`adds`).
    fn record(&self, m: &Mutation) -> Vec<u8> {
        match m {
            Mutation::Create {
                name,
                rel,
                temp,
                replace,
            } => wal::enc_create_table(
                &norm(name),
                *temp,
                *replace,
                rel.schema(),
                rel.pk(),
                rel.rows(),
            ),
            Mutation::Drop { table } => wal::enc_drop(&norm(table)),
            Mutation::Rename { old, new } => wal::enc_rename(&norm(old), &norm(new)),
            Mutation::Truncate { table } => wal::enc_truncate(&norm(table)),
            Mutation::Insert { table, rows } => wal::enc_insert(&norm(table), rows),
            Mutation::ReplaceRows { table, rel } => wal::enc_replace_rows(&norm(table), rel.rows()),
            Mutation::EdgeDelta { table, adds, dels } => {
                wal::enc_edge_delta(&norm(table), adds, dels)
            }
            Mutation::Patch { table, set, append } => {
                let key = norm(table);
                let rel = &self.tables[&key].rel;
                let adds: Vec<&Row> = set.iter().map(|(_, r)| r).chain(append).collect();
                let dels: Vec<&Row> = set.iter().map(|(i, _)| &rel[*i]).collect();
                wal::enc_edge_delta(&key, adds, dels)
            }
        }
    }

    /// Apply a validated mutation to the tables: derived data of every
    /// table it writes is dropped first (`table_mut_for_write`). This is
    /// where a mutation's kind decides whether the columnar image survives:
    /// an append only — an `Insert`, an `EdgeDelta` without `dels`, a
    /// `Patch` without `set` — extends the rows' tail ([`Relation::extend`]),
    /// so it keeps the image of the rows before it (`write(.., true)`).
    fn install(&mut self, m: Mutation) -> Result<()> {
        let bytes = &aio_metrics::global().engine.relation_bytes_total;
        let row_bytes = |rows: &[Row], arity| rows.len() as u64 * approx_row_bytes(arity);
        match m {
            Mutation::Create {
                name, rel, temp, ..
            } => {
                // Base tables are analyzed at load time; temp tables start
                // without statistics, like the paper's PostgreSQL temp tables.
                let stats = (!temp).then(|| rel.collect_stats());
                bytes.add(rel.approx_bytes());
                self.tables
                    .insert(norm(&name), Arc::new(TableEntry::new(rel, temp, stats)));
            }
            Mutation::Drop { table } => {
                // snapshots may still share the entry
                self.tables.remove(&norm(&table));
            }
            Mutation::Rename { old, new } => {
                let e = self.tables.remove(&norm(&old)).expect("validated");
                self.tables.insert(norm(&new), e);
            }
            Mutation::Truncate { table } => self.write(&table, false).truncate(0),
            Mutation::Insert { table, rows } => {
                let t = self.write(&table, true);
                bytes.add(row_bytes(&rows, t.schema().arity()));
                t.extend(rows)?;
            }
            Mutation::ReplaceRows { table, rel } => {
                let t = self.write(&table, false);
                let mut rel = rel.with_schema(t.schema().clone());
                rel.set_pk(t.pk().map(<[usize]>::to_vec));
                *t = rel;
            }
            Mutation::EdgeDelta { table, adds, dels } => {
                aio_metrics::hooks::ivm_base_delta(adds.len() as u64, dels.len() as u64);
                // Adds land before deletes so a batch that inserts and
                // deletes the same row nets out.
                let t = self.write(&table, dels.is_empty());
                t.extend(adds)?;
                t.remove_rows(&dels);
            }
            Mutation::Patch { table, set, append } => {
                let t = self.write(&table, set.is_empty());
                bytes.add(row_bytes(&append, t.schema().arity()));
                for (i, row) in set {
                    t.set(i, row);
                }
                t.extend(append)?;
            }
        }
        Ok(())
    }

    /// The rows of validated table `name`, for a row mutation that only
    /// appends to them or (`append == false`) may change any.
    fn write(&mut self, name: &str, append: bool) -> &mut Relation {
        &mut self
            .table_mut_for_write(&norm(name), append)
            .expect("validated")
            .rel
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
    /// derived but the columnar image (so nothing derived is cloned just to
    /// be dropped). The image moves: a copy left behind in a snapshot keeps
    /// its rows, statistics, indexes and tries but gives its image to the
    /// writer, which keeps it as a prefix before an append (`append`) and
    /// drops it otherwise. Two generations of a table the writer keeps
    /// changing would otherwise each hold one (+14 % peak RSS on the
    /// benchmark's `live_views`); a pinned reader that still batch-scans
    /// the old generation transposes again, into its own copy.
    fn table_mut_for_write(&mut self, key: &str, append: bool) -> Option<&mut TableEntry> {
        let arc = self.tables.get_mut(key)?;
        if Arc::strong_count(arc) > 1 {
            aio_metrics::hooks::mvcc_cow_clone();
            let mut e = TableEntry::new(arc.rel.clone(), arc.temp, None);
            e.image = arc.image.take();
            *arc = Arc::new(e);
        }
        let e = Arc::make_mut(arc);
        e.invalidate(append);
        Some(e)
    }

    fn entry_mut_keep_derived(&mut self, name: &str) -> Result<&mut TableEntry> {
        let key = norm(name);
        self.table_mut(&key)
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let table = name.to_string();
        self.apply(Mutation::Drop { table }, WalPolicy::None)
    }

    /// `ALTER TABLE old RENAME TO new` (the second half of the drop/alter
    /// union-by-update implementation, Table 4/5).
    pub fn rename_table(&mut self, old: &str, new: &str) -> Result<()> {
        let (old, new) = (old.to_string(), new.to_string());
        self.apply(Mutation::Rename { old, new }, WalPolicy::None)
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

    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.entry(name).map(|e| &e.rel)
    }

    /// `TRUNCATE TABLE` — the paper's per-iteration cleanup of intermediate
    /// results ("the intermediate result of Q_i is cleaned up by the
    /// truncate table clause", appendix). Drops indexes too, since they
    /// index nothing afterwards.
    pub fn truncate(&mut self, name: &str) -> Result<()> {
        let table = name.to_string();
        self.apply(Mutation::Truncate { table }, WalPolicy::None)
    }

    /// Bulk insert, logging per `policy`.
    pub fn insert_rows(&mut self, name: &str, rows: Vec<Row>, policy: WalPolicy) -> Result<()> {
        let table = name.to_string();
        self.apply(Mutation::Insert { table, rows }, policy)
    }

    /// Apply a logical edge-delta batch ([`Mutation::EdgeDelta`]): the IVM
    /// ingestion path, one record of size O(|delta|).
    pub fn apply_delta(
        &mut self,
        name: &str,
        adds: Vec<Row>,
        dels: Vec<Row>,
        policy: WalPolicy,
    ) -> Result<()> {
        let table = name.to_string();
        self.apply(Mutation::EdgeDelta { table, adds, dels }, policy)
    }

    /// Overwrite rows in place and append ([`Mutation::Patch`]), charging
    /// the cost model nothing. The keyed fold of a fixpoint writes through
    /// here, so its log is O(|changed|), not O(|R|).
    pub fn patch_rows(
        &mut self,
        name: &str,
        set: Vec<(usize, Row)>,
        append: Vec<Row>,
    ) -> Result<()> {
        let table = name.to_string();
        self.apply(Mutation::Patch { table, set, append }, WalPolicy::None)
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
    /// next one. An append keeps the image of the rows before it, and the
    /// next scan transposes only the appended rows; every other mutation
    /// drops it, like the tries ([`Catalog::trie_for`]).
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
    /// synced transaction (auto-commit). A no-op on an in-memory catalog.
    fn wal_append(&mut self, payload: &[u8]) -> Result<()> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        d.append_record(payload)?;
        if !self.in_txn {
            d.append_record(&wal::enc_commit(&CommitKind::Auto))?;
            d.sync_wal()?;
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
        let out = match self.durable.as_mut() {
            Some(d) => {
                let before = d.bytes_appended();
                d.append_record(&wal::enc_commit(&kind))?;
                d.sync_wal()?;
                (1, d.bytes_appended() - before)
            }
            None => (0, 0),
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
    /// appended by the commit (its marker).
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
        if let Some(d) = self.durable.as_mut() {
            d.append_record(&wal::enc_run_begin(&norm(rec), sql, params))?;
            d.append_record(&wal::enc_commit(&CommitKind::Auto))?;
            d.sync_wal()?;
        }
        // The pre-run state commits here; publish it, then open the run's transaction so the fixpoint's
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
        // an in-place patch drops the cache too
        c.insert_rows("T", vec![row![1, 2, 1.0]], WalPolicy::None)
            .unwrap();
        c.build_trie("T", &[1, 0]).unwrap();
        assert!(c.trie_on("T", &[1, 0]).is_some());
        c.patch_rows("T", vec![(0, row![2, 1, 1.0])], vec![])
            .unwrap();
        assert!(
            c.trie_on("T", &[1, 0]).is_none(),
            "a patch invalidates tries"
        );
        c.drop_table("T").unwrap();
        assert!(
            c.trie_on("T", &[0, 1]).is_none(),
            "drop removes the table's tries"
        );
        assert!(c.trie_for("T", &[0, 1]).is_err());
    }

    /// The stale-index hazard: an in-place write must not leave statistics,
    /// sorted indexes, tries or the image describing the rows it changed.
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

        c.patch_rows("E", vec![(0, row![0, 9, 1.0])], vec![row![5, 6, 1.0]])
            .unwrap();
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
    /// columns; an append moves the superseded copy's image to the writer
    /// as a prefix, and a pinned reader rebuilds its own from its rows.
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
        let prefix = c.entry("E").unwrap().image.prefix().expect("kept");
        assert!(Arc::ptr_eq(&prefix.col_arc(0), &image.col_arc(0)));
        drop(prefix);
        assert!(
            fork.entry("E").unwrap().image.prefix().is_none(),
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
        c.apply_delta(
            "E",
            vec![row![3, 4, 1.0]],
            vec![row![1, 2, 1.0], row![9, 9, 9.0]],
            WalPolicy::None,
        )
        .unwrap();
        let mut got: Vec<(i64, i64)> = c
            .relation("E")
            .unwrap()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![(2, 3), (3, 4)], "absent delete rows are ignored");
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
