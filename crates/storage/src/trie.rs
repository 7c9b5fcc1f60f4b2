//! Sorted trie indexes for worst-case-optimal (leapfrog) joins.
//!
//! A [`TrieIndex`] is a permutation of row ids ordered lexicographically by a
//! sequence of key columns — the same shape as [`crate::index::SortedIndex`]
//! but consumed level-wise: a [`TrieCursor`] walks the key columns as a trie
//! whose depth-`d` nodes are the distinct values of `cols[d]` within the run
//! of rows sharing the values chosen at depths `0..d`. The cursor exposes
//! exactly the leapfrog-triejoin primitives (`open`/`up`/`key`/`next`/`seek`)
//! of Veldhuizen's LFTJ, and `matches()` returns the row ids under the
//! current full prefix so the join can emit payload columns (weights,
//! duplicate rows) with bag semantics — multiplicity lives in the rows, not
//! in the trie.
//!
//! Tries are derived data: the catalog caches them per table in a
//! [`TrieCache`] and drops the cache on any mutation (insert / truncate /
//! in-place access), like sorted indexes and the columnar image. They are
//! never WAL-logged.

use crate::relation::Relation;
use crate::value::Value;
use std::sync::{Arc, Mutex};

/// Layered trie over `rel[cols]`: row ids sorted lexicographically by the
/// key columns, plus one [`Level`] per key column holding the *distinct*
/// key prefixes of that depth with child-offset ranges into the next
/// level (and row-offset ranges into `perm`). Duplicate rows collapse
/// into one node, so cursor `next` is a single position increment and
/// `open` is two contiguous offset reads — no searching over duplicate
/// runs, and the root level is a compact array that stays cache-resident
/// during leapfrog probes.
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
        let rows = rel.rows();
        let mut perm: Vec<u32> = (0..rows.len() as u32).collect();
        perm.sort_unstable_by(|&a, &b| {
            let (ra, rb) = (&rows[a as usize], &rows[b as usize]);
            for &c in cols {
                match ra[c].cmp(&rb[c]) {
                    std::cmp::Ordering::Equal => continue,
                    o => return o,
                }
            }
            // ties broken by row id: deterministic output order
            a.cmp(&b)
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

    /// The distinct level-`d` keys as a raw `i64` array (sorted within
    /// each parent's child range), when the whole level is `Int`.
    /// Executors can bypass the cursor and leapfrog on machine integers.
    pub fn int_keys(&self, d: usize) -> Option<&[i64]> {
        self.levels[d].ints.as_deref()
    }

    /// True iff every key level is all-`Int` (so [`Self::int_keys`] is
    /// `Some` at every depth) — the precondition for the integer leapfrog
    /// fast path. Vacuously true for a keyless (zero-column) trie.
    pub fn all_int(&self) -> bool {
        self.levels.iter().all(|l| l.ints.is_some())
    }

    /// `child_end[j]` offsets of level `d` (see [`Self::child_range`]);
    /// empty for the deepest level.
    pub fn child_ends(&self, d: usize) -> &[u32] {
        &self.levels[d].child_end
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

    /// A fresh cursor positioned above the root.
    pub fn cursor(&self) -> TrieCursor<'_> {
        TrieCursor {
            trie: self,
            frames: Vec::new(),
        }
    }

    /// First node in `[from, hi)` at level `d` whose key is `>= v`.
    fn lower_bound(&self, d: usize, from: usize, hi: usize, v: &Value) -> usize {
        let l = &self.levels[d];
        if let (Some(col), Some(t)) = (&l.ints, v.as_int()) {
            gallop(&col[..hi], from, |k| *k < t)
        } else if matches!((&l.ints, v), (Some(_), Value::Null)) {
            from // NULL sorts before every Int: nothing to skip
        } else {
            gallop(&l.keys[..hi], from, |k| k < v)
        }
    }
}

/// First index in `[from, s.len())` where the monotone predicate `holds`
/// turns false: exponential probe from `from`, then binary search inside
/// the bracket. Leapfrog seeks usually land a handful of positions ahead
/// of the cursor, so galloping costs O(log distance) instead of
/// O(log level-width).
fn gallop<T>(s: &[T], from: usize, holds: impl Fn(&T) -> bool) -> usize {
    let hi = s.len();
    if from >= hi || !holds(&s[from]) {
        return from;
    }
    let mut lo = from; // invariant: holds(s[lo])
    let mut step = 1usize;
    while lo + step < hi && holds(&s[lo + step]) {
        lo += step;
        step <<= 1;
    }
    let end = hi.min(lo.saturating_add(step));
    lo + 1 + s[lo + 1..end].partition_point(holds)
}

#[derive(Clone, Copy, Debug)]
struct Frame {
    /// End of this level's node range (exclusive); `pos == hi` = at-end.
    hi: usize,
    pos: usize,
}

/// Leapfrog cursor over a [`TrieIndex`].
///
/// Contract (LFTJ):
/// * `open` descends to the first key of the next level; `up` returns.
/// * At each level the distinct keys are visited in strictly increasing
///   order by `next`; `seek(v)` positions at the least key `>= v`.
/// * `next`/`seek` return `false` (at-end) when the level is exhausted;
///   `key` must not be called at-end.
#[derive(Clone, Debug)]
pub struct TrieCursor<'a> {
    trie: &'a TrieIndex,
    frames: Vec<Frame>,
}

impl<'a> TrieCursor<'a> {
    /// Current level (0-based); `None` above the root.
    pub fn level(&self) -> Option<usize> {
        self.frames.len().checked_sub(1)
    }

    /// True iff the current level's keys are exhausted.
    pub fn at_end(&self) -> bool {
        let f = self.frames.last().expect("at_end above the root");
        f.pos >= f.hi
    }

    /// The key at the cursor. Panics at-end or above the root.
    pub fn key(&self) -> &'a Value {
        let d = self.level().expect("key above the root");
        let f = self.frames[d];
        assert!(f.pos < f.hi, "key at end of level {d}");
        &self.trie.levels[d].keys[f.pos]
    }

    /// Descend into the first key of the next level. Panics if the parent
    /// level is at-end or the trie has no further level.
    pub fn open(&mut self) {
        match self.frames.last() {
            None => {
                assert!(self.trie.depth() > 0, "open on a zero-column trie");
                self.frames.push(Frame {
                    hi: self.trie.levels[0].keys.len(),
                    pos: 0,
                });
            }
            Some(&f) => {
                let d = self.frames.len() - 1;
                assert!(f.pos < f.hi, "open at end of level {d}");
                assert!(d + 1 < self.trie.depth(), "open below the deepest level");
                let (lo, hi) = self.trie.child_range(d, f.pos);
                self.frames.push(Frame { hi, pos: lo });
            }
        }
    }

    /// Return to the parent level.
    pub fn up(&mut self) {
        self.frames.pop().expect("up above the root");
    }

    /// Advance to the next distinct key at this level; `false` at-end.
    /// Nodes are distinct by construction, so this is one increment.
    /// (Named per the LFTJ cursor contract, not `Iterator::next`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> bool {
        let d = self.level().expect("next above the root");
        let f = self.frames[d];
        assert!(f.pos < f.hi, "next at end of level {d}");
        self.frames[d].pos = f.pos + 1;
        !self.at_end()
    }

    /// Position at the least key `>= v` (not before the current key);
    /// `false` at-end. `seek` never moves backwards.
    pub fn seek(&mut self, v: &Value) -> bool {
        let d = self.level().expect("seek above the root");
        let f = self.frames[d];
        assert!(f.pos < f.hi, "seek at end of level {d}");
        self.frames[d].pos = self.trie.lower_bound(d, f.pos, f.hi, v);
        !self.at_end()
    }

    /// Row ids matching the key prefix chosen down to the current key (in
    /// deterministic row order).
    pub fn matches(&self) -> &'a [u32] {
        let d = self.level().expect("matches above the root");
        let f = self.frames[d];
        assert!(f.pos < f.hi, "matches at end of level {d}");
        self.trie.rows_under(d, f.pos)
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
        TrieCache(Mutex::new(self.lock().clone()))
    }
}

impl std::fmt::Debug for TrieCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TrieCache({} tries)", self.lock().len())
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
        let started = std::time::Instant::now();
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

    /// DFS over the whole trie via the cursor.
    fn enumerate(t: &TrieIndex) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        let mut cur = t.cursor();
        fn walk(
            cur: &mut TrieCursor<'_>,
            t: &TrieIndex,
            prefix: &mut Vec<i64>,
            out: &mut Vec<Vec<i64>>,
        ) {
            cur.open();
            while !cur.at_end() {
                prefix.push(cur.key().as_int().unwrap());
                if cur.level().unwrap() + 1 < t.depth() {
                    walk(cur, t, prefix, out);
                } else {
                    out.push(prefix.clone());
                }
                prefix.pop();
                if !cur.next() {
                    break;
                }
            }
            cur.up();
        }
        if t.depth() > 0 && !t.is_empty() {
            let mut prefix = Vec::new();
            walk(&mut cur, t, &mut prefix, &mut out);
        }
        out
    }

    #[test]
    fn iterate_yields_sorted_distinct_tuples() {
        let r = rel();
        let t = TrieIndex::build(&r, &[0, 1]);
        assert_eq!(t.len(), 5);
        assert_eq!(
            enumerate(&t),
            vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![3, 1]]
        );
    }

    #[test]
    fn matches_returns_all_duplicate_rows() {
        let r = rel();
        let t = TrieIndex::build(&r, &[0, 1]);
        let mut cur = t.cursor();
        cur.open(); // F level, at 1
        cur.open(); // T level, at 2
        assert_eq!(cur.key().as_int(), Some(2));
        let m = cur.matches();
        assert_eq!(m.len(), 2, "both (1,2) rows");
        for &rid in m {
            let row = &r.rows()[rid as usize];
            assert_eq!((row[0].as_int(), row[1].as_int()), (Some(1), Some(2)));
        }
    }

    #[test]
    fn seek_is_least_upper_bound_and_monotone() {
        let r = rel();
        let t = TrieIndex::build(&r, &[0]);
        let mut cur = t.cursor();
        cur.open();
        assert_eq!(cur.key().as_int(), Some(1));
        assert!(cur.seek(&Value::from(2)));
        assert_eq!(cur.key().as_int(), Some(2));
        // seek to the current key is a no-op
        assert!(cur.seek(&Value::from(2)));
        assert_eq!(cur.key().as_int(), Some(2));
        assert!(cur.seek(&Value::from(3)));
        assert_eq!(cur.key().as_int(), Some(3));
        assert!(!cur.seek(&Value::from(9)), "past the last key is at-end");
        assert!(cur.at_end());
        cur.up();
    }

    #[test]
    fn next_visits_strictly_increasing_keys() {
        let r = rel();
        let t = TrieIndex::build(&r, &[1]); // T column: 1,2,2,3,3
        let mut cur = t.cursor();
        cur.open();
        let mut seen = Vec::new();
        loop {
            seen.push(cur.key().as_int().unwrap());
            if !cur.next() {
                break;
            }
        }
        assert_eq!(seen, vec![1, 2, 3]);
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
