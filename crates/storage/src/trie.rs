//! Sorted trie indexes: the engine's one sorted index.
//!
//! A [`TrieIndex`] is a permutation of row ids ordered lexicographically by a
//! sequence of key columns, laid out level-wise: the depth-`d` nodes are the
//! distinct values of `cols[d]` within the run of rows sharing the values
//! chosen at depths `0..d`, strictly increasing inside each parent's child
//! range. Distinct means storage equality and increasing means storage
//! order, which agree (`Ord for Value` refines `Eq`), so a node is exactly
//! one key class of a hash join on the same columns.
//!
//! Storage holds the data and exposes it as slices — [`TrieIndex::int_keys`]
//! per level, [`TrieIndex::child_range`] between levels,
//! [`TrieIndex::rows_under`] from a node to its rows (so the join can emit
//! payload columns and duplicate rows with bag semantics: multiplicity
//! lives in the rows, not in the trie). The walk over them — open / next /
//! seek — belongs to the one leapfrog executor in `aio-algebra`, which
//! keeps its positions in registers; there is no cursor type here for it
//! to be mirrored against.
//!
//! Two readers share the type. The multiway join walks the levels; the
//! paper's Exp-A index (Fig. 10), a one-level trie on a join column, is
//! read by a merge join's index scan as [`TrieIndex::perm`].
//!
//! Tries are derived data: the catalog caches them per table in a
//! [`TrieCache`] and drops the cache on any mutation (insert / truncate /
//! in-place access). They are never WAL-logged. The batch hash join looks
//! keys up in a table's [`crate::adjacency::Adjacency`] instead, which
//! outlives appends.

use crate::adjacency::Csr;
use crate::column::ColumnVec;
use crate::relation::Relation;
use crate::value::Value;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Layered trie over `rel[cols]`: row ids sorted lexicographically by the
/// key columns, plus one level per key column holding the *distinct*
/// key prefixes of that depth with child-offset ranges into the next
/// level (and row-offset ranges into `perm`). Duplicate rows collapse
/// into one node, so stepping to the next key is a single position
/// increment and descending is two contiguous offset reads — no searching
/// over duplicate runs, and the root level is a compact array that stays
/// cache-resident during leapfrog probes.
#[derive(Clone, Debug, PartialEq)]
pub struct TrieIndex {
    cols: Vec<usize>,
    /// Row ids in key order, ties by row id.
    perm: Vec<u32>,
    levels: Vec<Level>,
}

/// One trie level: node `j` holds the `j`-th distinct depth-`d` key
/// prefix (in sorted order), its children occupying
/// `[child_end[j-1], child_end[j])` at level `d+1` and its rows
/// `[row_start[j], row_start[j+1])` in `perm`.
#[derive(Clone, Debug, PartialEq)]
struct Level {
    keys: Keys,
    /// First row (in `perm`) under node `j`; node `j`'s rows end where
    /// node `j+1`'s begin (nodes are globally ordered).
    row_start: Vec<u32>,
    /// End offset (exclusive) of node `j`'s children at level `d+1`;
    /// empty for the deepest level.
    child_end: Vec<u32>,
}

/// Keys stored once, typed: raw `i64`s for a NULL-free `Int` column, the
/// values themselves for any other.
#[derive(Clone, Debug, PartialEq)]
enum Keys {
    Int(Vec<i64>),
    Value(Vec<Value>),
}

impl Keys {
    /// Column `c` of `rel`, read once into a typed column.
    fn column(rel: &Relation, c: usize) -> Keys {
        match ColumnVec::from_values(rel.iter().map(|r| &r[c])) {
            ColumnVec::Int { vals, nulls } if !nulls.any() => Keys::Int(vals),
            col => Keys::Value((0..rel.len()).map(|i| col.value(i)).collect()),
        }
    }

    /// `perm` stably re-sorted by these keys (storage order): an `Int`
    /// column by a CSR build over its keys in `perm`'s order, whose runs
    /// list positions ascending; any other by a stable comparison sort.
    fn sort(&self, mut perm: Vec<u32>) -> Vec<u32> {
        match self {
            Keys::Int(ks) => {
                let ordered: Vec<i64> = perm.iter().map(|&r| ks[r as usize]).collect();
                let csr = Csr::build(&ordered);
                csr.runs()
                    .flat_map(|(_, run)| run)
                    .map(|&at| perm[at as usize])
                    .collect()
            }
            Keys::Value(vs) => {
                perm.sort_by(|&a, &b| vs[a as usize].cmp(&vs[b as usize]));
                perm
            }
        }
    }

    /// Do rows `a` and `b` hold the same key (storage equality)?
    fn same(&self, a: u32, b: u32) -> bool {
        match self {
            Keys::Int(ks) => ks[a as usize] == ks[b as usize],
            Keys::Value(vs) => vs[a as usize] == vs[b as usize],
        }
    }

    /// The keys of `rows`, in that order.
    fn pick(&self, rows: impl Iterator<Item = u32>) -> Keys {
        match self {
            Keys::Int(ks) => Keys::Int(rows.map(|r| ks[r as usize]).collect()),
            Keys::Value(vs) => Keys::Value(rows.map(|r| vs[r as usize].clone()).collect()),
        }
    }
}

impl TrieIndex {
    /// Build over `rel[cols]`: a least-significant-column-first pass of
    /// stable sorts (O(n) per dense `Int` column, O(n log n) per other)
    /// plus a linear layering pass, paid once per (relation, column order)
    /// and cached on the catalog.
    pub fn build(rel: &Relation, cols: &[usize]) -> Self {
        let columns: Vec<Keys> = cols.iter().map(|&c| Keys::column(rel, c)).collect();
        // ties keep their order through every stable pass: by row id
        let mut perm: Vec<u32> = (0..rel.len() as u32).collect();
        for keys in columns.iter().rev() {
            perm = keys.sort(perm);
        }
        // Node boundaries: row i starts a new node at level d (and every
        // deeper level) iff its key prefix through d differs from row
        // i-1's. Record each node's first row, then derive child ranges
        // by counting the next level's nodes inside each row range.
        let depth = cols.len();
        let mut starts: Vec<Vec<u32>> = vec![Vec::new(); depth];
        for (i, &r) in perm.iter().enumerate() {
            let d0 = if i == 0 {
                0
            } else {
                let p = perm[i - 1];
                match columns.iter().position(|keys| !keys.same(p, r)) {
                    Some(d) => d,
                    None => continue, // duplicate full key: same node
                }
            };
            for s in &mut starts[d0..] {
                s.push(i as u32);
            }
        }
        let mut levels: Vec<Level> = Vec::with_capacity(depth);
        for d in 0..depth {
            let start = &starts[d];
            let keys = columns[d].pick(start.iter().map(|&i| perm[i as usize]));
            // child_end[j] = number of level-(d+1) nodes starting before
            // node j+1 does; starts[d] is a subsequence of starts[d+1],
            // so a single forward walk suffices.
            let child_end = if d + 1 < depth {
                let next = &starts[d + 1];
                let mut out = Vec::with_capacity(start.len());
                let mut k = 0usize;
                for j in 0..start.len() {
                    let end_row = start.get(j + 1).copied().unwrap_or(perm.len() as u32);
                    while k < next.len() && next[k] < end_row {
                        k += 1;
                    }
                    out.push(k as u32);
                }
                out
            } else {
                Vec::new()
            };
            levels.push(Level {
                keys,
                row_start: std::mem::take(&mut starts[d]),
                child_end,
            });
        }
        TrieIndex {
            cols: cols.to_vec(),
            perm,
            levels,
        }
    }

    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Does this trie cover exactly the requested key-column order?
    /// (A prefix is not enough: leapfrog needs the levels in elimination
    /// order.)
    pub fn covers(&self, cols: &[usize]) -> bool {
        self.cols == cols
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Number of trie levels.
    pub fn depth(&self) -> usize {
        self.cols.len()
    }

    /// The distinct level-`d` keys as values, strictly increasing within
    /// each parent's child range ([`Self::child_range`]; the whole level
    /// at `d = 0`). A NULL key, if any, is the first of its range. A copy:
    /// an `Int` level stores only its raw keys ([`Self::int_keys`]).
    pub fn keys(&self, d: usize) -> Vec<Value> {
        match &self.levels[d].keys {
            Keys::Int(ks) => ks.iter().map(|&k| Value::Int(k)).collect(),
            Keys::Value(vs) => vs.clone(),
        }
    }

    /// The level-`d` keys as raw `i64`s, when the level's column is
    /// NULL-free `Int`: the leapfrog then compares machine integers.
    pub fn int_keys(&self, d: usize) -> Option<&[i64]> {
        match &self.levels[d].keys {
            Keys::Int(ks) => Some(ks),
            Keys::Value(_) => None,
        }
    }

    /// True iff every key level is `Int` (so [`Self::int_keys`] is `Some`
    /// at every depth) — the precondition for the integer leapfrog fast
    /// path. Vacuously true for a keyless (zero-column) trie.
    pub fn all_int(&self) -> bool {
        self.levels.iter().all(|l| matches!(l.keys, Keys::Int(_)))
    }

    /// Children of node `j` at level `d` occupy `[start, end)` at level
    /// `d+1`.
    pub fn child_range(&self, d: usize, j: usize) -> (usize, usize) {
        let ends = &self.levels[d].child_end;
        let lo = if j == 0 { 0 } else { ends[j - 1] as usize };
        (lo, ends[j] as usize)
    }

    /// Row ids under node `j` at level `d` (the run of rows sharing that
    /// node's full key prefix, in deterministic row order).
    pub fn rows_under(&self, d: usize, j: usize) -> &[u32] {
        let rs = &self.levels[d].row_start;
        let lo = rs[j] as usize;
        let hi = rs.get(j + 1).map_or(self.perm.len(), |&e| e as usize);
        &self.perm[lo..hi]
    }

    /// Row ids in key order, ties by row id: level offsets index into
    /// this. Consuming it is an *index scan* (Fig. 10): sequential over
    /// the permutation but random-access into the heap rows — the paper's
    /// explanation for why indexing can lose on Orkut (Fig. 10(d)).
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }
}

/// Per-table cache of built tries, shared through `&Catalog` so lazy builds
/// can happen during (immutable) plan execution. Cloning an entry clones the
/// list of `Arc`'d tries into an independent cache; the tries themselves are
/// immutable and shared.
#[derive(Default)]
pub struct TrieCache(Mutex<Vec<Arc<TrieIndex>>>);

impl Clone for TrieCache {
    fn clone(&self) -> Self {
        TrieCache(Mutex::new(self.all()))
    }
}

impl std::fmt::Debug for TrieCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TrieCache({} tries)", self.len())
    }
}

impl TrieCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<TrieIndex>>> {
        // a poisoned cache holds only complete, immutable tries
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The cached trie for exactly `cols`, if built.
    pub fn cached(&self, cols: &[usize]) -> Option<Arc<TrieIndex>> {
        self.lock().iter().find(|t| t.covers(cols)).cloned()
    }

    /// Get the trie for `cols`, building and caching it on a miss.
    pub fn get_or_build(&self, rel: &Relation, cols: &[usize]) -> Arc<TrieIndex> {
        let mut g = self.lock();
        if let Some(t) = g.iter().find(|t| t.covers(cols)) {
            aio_metrics::hooks::trie_cache(true);
            return Arc::clone(t);
        }
        aio_metrics::hooks::trie_cache(false);
        let started = Instant::now();
        let t = Arc::new(TrieIndex::build(rel, cols));
        aio_metrics::global()
            .engine
            .trie_build_ms
            .observe(started.elapsed().as_millis() as u64);
        g.push(Arc::clone(&t));
        t
    }

    /// Every cached trie, in build order.
    pub fn all(&self) -> Vec<Arc<TrieIndex>> {
        self.lock().clone()
    }

    /// Drop every cached trie (any mutation of the base rows).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Number of cached tries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}
