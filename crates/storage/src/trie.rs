//! Sorted trie indexes for worst-case-optimal (leapfrog) joins.
//!
//! A [`TrieIndex`] is a permutation of row ids ordered lexicographically by a
//! sequence of key columns — the same shape as [`crate::index::SortedIndex`]
//! but laid out level-wise: the depth-`d` nodes are the distinct values of
//! `cols[d]` within the run of rows sharing the values chosen at depths
//! `0..d`, strictly increasing inside each parent's child range. Distinct
//! means storage equality and increasing means storage order, which agree
//! (`Ord for Value` refines `Eq`), so a node is exactly one key class of a
//! hash join on the same columns.
//!
//! Storage holds the data and exposes it as slices — [`TrieIndex::keys`] /
//! [`TrieIndex::int_keys`] per level, [`TrieIndex::child_range`] between
//! levels, [`TrieIndex::rows_under`] from a node to its rows (so the join
//! can emit payload columns and duplicate rows with bag semantics:
//! multiplicity lives in the rows, not in the trie). The walk over them —
//! open / next / seek — belongs to the one leapfrog executor in
//! `aio-algebra`, which keeps its positions in registers; there is no
//! cursor type here for it to be mirrored against.
//!
//! Tries are derived data: the catalog caches them per table in a
//! [`TrieCache`] and drops the cache on any mutation (insert / truncate /
//! in-place access), like sorted indexes. They are never WAL-logged. The
//! multiway join walks them; the batch hash join looks keys up in a
//! table's [`crate::adjacency::Adjacency`] instead, which outlives appends.

use crate::keyidx::key_cmp;
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
    /// Row ids in key order.
    perm: Vec<u32>,
    levels: Vec<Level>,
}

/// One trie level: node `j` holds the `j`-th distinct depth-`d` key
/// prefix (in sorted order), its children occupying
/// `[child_end[j-1], child_end[j])` at level `d+1` and its rows
/// `[row_start[j], row_start[j+1])` in `perm`.
#[derive(Clone, Debug, PartialEq)]
struct Level {
    keys: Vec<Value>,
    /// `keys` unboxed to `i64` when the whole level is `Int` — enables
    /// machine-integer comparisons in the leapfrog hot path.
    ints: Option<Vec<i64>>,
    /// First row (in `perm`) under node `j`; node `j`'s rows end where
    /// node `j+1`'s begin (nodes are globally ordered).
    row_start: Vec<u32>,
    /// End offset (exclusive) of node `j`'s children at level `d+1`;
    /// empty for the deepest level.
    child_end: Vec<u32>,
}

impl TrieIndex {
    /// Build over `rel[cols]`: one O(n log n) sort plus a linear layering
    /// pass, paid once per (relation, column order) and cached on the
    /// catalog.
    pub fn build(rel: &Relation, cols: &[usize]) -> Self {
        // flat references: the sort looks rows up at random
        let rows: Vec<_> = rel.iter().collect();
        let mut perm: Vec<u32> = (0..rows.len() as u32).collect();
        // ties broken by row id: deterministic output order
        perm.sort_unstable_by(|&a, &b| {
            key_cmp(rows[a as usize], cols, rows[b as usize], cols).then(a.cmp(&b))
        });
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
                let (pr, cr) = (&rows[perm[i - 1] as usize], &rows[r as usize]);
                match cols.iter().position(|&c| pr[c] != cr[c]) {
                    Some(d) => d,
                    None => continue, // duplicate full key: same node
                }
            };
            for s in &mut starts[d0..] {
                s.push(i as u32);
            }
        }
        let mut levels: Vec<Level> = Vec::with_capacity(depth);
        for (d, start) in starts.iter().enumerate() {
            let keys: Vec<Value> = start
                .iter()
                .map(|&i| rows[perm[i as usize] as usize][cols[d]].clone())
                .collect();
            let ints = keys.iter().map(Value::as_int).collect::<Option<Vec<i64>>>();
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
                ints,
                row_start: start.clone(),
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
    /// (Unlike a plain sorted index, a prefix is not enough: leapfrog
    /// needs the levels in elimination order.)
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

    /// The distinct level-`d` keys, strictly increasing within each
    /// parent's child range ([`Self::child_range`]; the whole level at
    /// `d = 0`). A NULL key, if any, is the first of its range.
    pub fn keys(&self, d: usize) -> &[Value] {
        &self.levels[d].keys
    }

    /// [`Self::keys`] unboxed to `i64`, when the whole level is `Int`: the
    /// leapfrog then compares machine integers.
    pub fn int_keys(&self, d: usize) -> Option<&[i64]> {
        self.levels[d].ints.as_deref()
    }

    /// True iff every key level is all-`Int` (so [`Self::int_keys`] is
    /// `Some` at every depth) — the precondition for the integer leapfrog
    /// fast path. Vacuously true for a keyless (zero-column) trie.
    pub fn all_int(&self) -> bool {
        self.levels.iter().all(|l| l.ints.is_some())
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

    /// Row ids in key order: level offsets index into this.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::edge_schema;
    use crate::row;

    fn rel() -> Relation {
        let mut r = Relation::new(edge_schema());
        r.extend([
            row![3, 1, 1.0],
            row![1, 2, 1.0],
            row![2, 3, 1.0],
            row![1, 2, 2.0], // duplicate (F, T) key, distinct payload
            row![1, 3, 1.0],
        ])
        .unwrap();
        r
    }

    /// DFS over the level slices: every root-to-leaf key tuple, and the
    /// row ids under each leaf.
    fn tuples(t: &TrieIndex) -> Vec<(Vec<Value>, Vec<u32>)> {
        fn walk(
            t: &TrieIndex,
            d: usize,
            (lo, hi): (usize, usize),
            prefix: &mut Vec<Value>,
            out: &mut Vec<(Vec<Value>, Vec<u32>)>,
        ) {
            let keys = &t.keys(d)[lo..hi];
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "level {d} under {prefix:?} is not strictly increasing: {keys:?}"
            );
            for j in lo..hi {
                prefix.push(t.keys(d)[j].clone());
                if d + 1 < t.depth() {
                    walk(t, d + 1, t.child_range(d, j), prefix, out);
                } else {
                    out.push((prefix.clone(), t.rows_under(d, j).to_vec()));
                }
                prefix.pop();
            }
        }
        let mut out = Vec::new();
        if t.depth() > 0 {
            walk(t, 0, (0, t.keys(0).len()), &mut Vec::new(), &mut out);
        }
        out
    }

    fn ints(tuple: &[Value]) -> Vec<i64> {
        tuple.iter().map(|v| v.as_int().unwrap()).collect()
    }

    #[test]
    fn iterate_yields_sorted_distinct_tuples() {
        let r = rel();
        let t = TrieIndex::build(&r, &[0, 1]);
        assert_eq!(t.len(), 5);
        let walked: Vec<Vec<i64>> = tuples(&t).iter().map(|(k, _)| ints(k)).collect();
        assert_eq!(walked, vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![3, 1]]);
        assert!(t.all_int());
        assert_eq!(t.int_keys(0), Some(&[1, 2, 3][..]));
        assert_eq!(t.int_keys(1), Some(&[2, 3, 3, 1][..]));
    }

    #[test]
    fn matches_returns_all_duplicate_rows() {
        let r = rel();
        let t = TrieIndex::build(&r, &[0, 1]);
        let walked = tuples(&t);
        let (key, rows) = &walked[0];
        assert_eq!(ints(key), [1, 2]);
        assert_eq!(rows, &[1, 3], "both (1,2) rows, in row order");
        let mut all: Vec<u32> = walked.iter().flat_map(|(_, rows)| rows.clone()).collect();
        assert_eq!(all, t.perm(), "leaf runs are perm, cut at the leaves");
        all.sort_unstable();
        assert_eq!(all, [0, 1, 2, 3, 4], "row-id runs partition the relation");
    }

    #[test]
    fn next_visits_strictly_increasing_keys() {
        let r = rel();
        let t = TrieIndex::build(&r, &[1]); // T column: 1,2,2,3,3
        assert_eq!(t.int_keys(0), Some(&[1, 2, 3][..]));

        // A node is one class of storage equality and the order refines
        // it: Int 1 and Float 1.0 are two nodes (Int first), the zeros one,
        // the NaNs one (last), NULL first; Text after every number.
        let (i, f, nan) = (Value::Int, Value::Float, f64::NAN);
        #[rustfmt::skip]
        let keys = [
            f(1.0), i(1), f(nan), f(-0.0), Value::text("a"), Value::Null, f(0.0), i(1), f(-nan), i(0),
        ];
        let any = crate::schema::Schema::of(&[("k", crate::schema::DataType::Any)]);
        let mut mixed = Relation::new(any);
        mixed
            .extend(keys.map(|k| vec![k].into_boxed_slice()))
            .unwrap();
        let t = TrieIndex::build(&mixed, &[0]);
        assert!(!t.all_int());
        let classes: Vec<(Value, usize)> = tuples(&t)
            .into_iter()
            .map(|(mut k, rows)| (k.remove(0), rows.len()))
            .collect();
        assert_eq!(
            format!("{classes:?}"),
            "[(Null, 1), (Int(0), 1), (Float(-0.0), 2), (Int(1), 2), (Float(1.0), 1), \
             (Float(NaN), 2), (Text(\"a\"), 1)]"
        );
    }

    #[test]
    fn cache_builds_once_and_clears() {
        let r = rel();
        let cache = TrieCache::default();
        assert!(cache.cached(&[0, 1]).is_none());
        let a = cache.get_or_build(&r, &[0, 1]);
        let b = cache.get_or_build(&r, &[0, 1]);
        assert!(Arc::ptr_eq(&a, &b), "second lookup hits the cache");
        assert_eq!(cache.len(), 1);
        let _ = cache.get_or_build(&r, &[1, 0]);
        assert_eq!(cache.len(), 2, "distinct column orders cache separately");
        cache.clear();
        assert!(cache.cached(&[0, 1]).is_none());
    }
}
