//! The join index: a CSR adjacency over one `Int` key column, kept across
//! appends.
//!
//! A batch hash join whose probe side is a base table and whose build side
//! is small lets the small side drive: each of its keys fetches the rows of
//! the table holding it, and no other row of the table is read (DESIGN §17).
//! What it fetches them from is an [`Adjacency`] — for every key of the
//! column, the ids of the rows holding it in ascending order.
//!
//! It is built in O(rows) by a counting sort over the key column of the
//! table's columnar image when the key span is dense ([`Csr::build`]), and
//! by a sort into sorted distinct keys found by binary search otherwise.
//! It is derived data, cached per table and key column in an
//! [`AdjacencyCache`], never logged. Unlike the tries, it outlives an
//! append: the rows it covers are unchanged, so it is kept as a sealed,
//! `Arc`-shared base plus a tail over the rows appended since, which the
//! next join extends in O(appended); once the tail passes
//! 1/[`TAIL_REBUILD_RATIO`] of the base the two are rebuilt into a fresh
//! base. Every other mutation drops it (`Catalog::install` decides).
//! A writer that copies an entry it shares with a snapshot carries the
//! adjacency along: both share the base, and the tail moves to the writer,
//! which grows it alone; the snapshot keeps the base, still the adjacency
//! of a prefix of its rows.

use crate::hash::FxHashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How many joins of a table on a key column hash before one builds its
/// adjacency ([`AdjacencyCache::fetch_after`]). A table a fixpoint loop
/// joins unchanged, or one that only grows, pays the build once; a table
/// joined once or twice between rewrites never pays it. The count survives
/// appends, like the adjacency.
pub const JOIN_INDEX_RENT: u32 = 2;

/// The tail is rebuilt into the base once it holds more than
/// 1/`TAIL_REBUILD_RATIO` as many rows as the base: a lookup then never
/// pays for more than a small hash table beside the sealed runs, and the
/// rebuilds cost O(1) amortized per appended row.
pub const TAIL_REBUILD_RATIO: usize = 8;

/// A key span at most this many times the row count is addressed directly,
/// one slot per possible key: a CSR's offsets, a batch hash join's build, a
/// morsel's group ids, the improve fold's key lookup. A wider span is
/// sorted or hashed. Every slot table then has at most this many entries
/// per row.
pub const DIRECT_SPAN_FACTOR: usize = 4;

/// `(lo, span)` of `keys` when their span is at most
/// [`DIRECT_SPAN_FACTOR`] × `rows`, small enough to direct-address; `None`
/// otherwise, and when there is no key. The one rule for "dense".
pub fn direct_span(keys: impl Iterator<Item = i64>, rows: usize) -> Option<(i64, usize)> {
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for k in keys {
        lo = lo.min(k);
        hi = hi.max(k);
    }
    let span = hi as i128 - lo as i128 + 1; // ≤ 0: no key
    let limit = (DIRECT_SPAN_FACTOR * rows).min(u32::MAX as usize - 1);
    (span > 0 && span <= limit as i128).then_some((lo, span as usize))
}

/// A sealed CSR: the row ids of every key, ascending, in one array cut into
/// per-key runs by `offsets`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    keys: Keys,
    /// Slot `s`'s rows are `rows[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    rows: Vec<u32>,
    /// Keys holding at least one row.
    distinct: usize,
}

/// How a key finds its slot.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Keys {
    /// Slot `k - min` for every `k` in `min..=max`; a key no row holds has
    /// an empty run.
    Dense { min: i64, max: i64 },
    /// Slot `j` holds the `j`-th of these sorted distinct keys.
    Sparse(Vec<i64>),
}

impl Csr {
    /// The adjacency of `keys` (row `i` holds `keys[i]`): a counting sort
    /// when their span is dense ([`direct_span`]), [`Csr::build_sorted`]
    /// otherwise.
    pub fn build(keys: &[i64]) -> Csr {
        let Some((min, span)) = direct_span(keys.iter().copied(), keys.len()) else {
            return Csr::build_sorted(keys);
        };
        let max = min.wrapping_add(span as i64 - 1);
        let slot = |k: i64| k.abs_diff(min) as usize;
        // counts shifted one slot right, then their running sum: every
        // slot's start
        let mut offsets = vec![0u32; span + 1];
        for &k in keys {
            offsets[slot(k) + 1] += 1;
        }
        let mut distinct = 0;
        for s in 1..=span {
            distinct += usize::from(offsets[s] != 0);
            offsets[s] += offsets[s - 1];
        }
        // fill in row order, so every run is ascending; each slot's cursor
        // ends where the next slot starts, so shift the starts back after
        let mut rows = vec![0u32; keys.len()];
        for (i, &k) in keys.iter().enumerate() {
            let at = &mut offsets[slot(k)];
            rows[*at as usize] = i as u32;
            *at += 1;
        }
        offsets.copy_within(0..span, 1);
        offsets[0] = 0;
        Csr {
            keys: Keys::Dense { min, max },
            offsets,
            rows,
            distinct,
        }
    }

    /// The adjacency of `keys` by a stable sort of the row ids: sorted
    /// distinct keys, found by binary search. O(n log n), for any span.
    pub fn build_sorted(keys: &[i64]) -> Csr {
        let mut rows: Vec<u32> = (0..keys.len() as u32).collect();
        rows.sort_by_key(|&i| keys[i as usize]);
        let (mut distinct, mut offsets) = (Vec::new(), Vec::new());
        for (at, &i) in rows.iter().enumerate() {
            let k = keys[i as usize];
            if distinct.last() != Some(&k) {
                distinct.push(k);
                offsets.push(at as u32);
            }
        }
        offsets.push(rows.len() as u32);
        Csr {
            distinct: distinct.len(),
            keys: Keys::Sparse(distinct),
            offsets,
            rows,
        }
    }

    /// Rows covered.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn slot(&self, k: i64) -> Option<usize> {
        match &self.keys {
            Keys::Dense { min, max } => (*min..=*max)
                .contains(&k)
                .then(|| k.abs_diff(*min) as usize),
            Keys::Sparse(keys) => keys.binary_search(&k).ok(),
        }
    }

    /// The rows holding `k`, ascending; empty when none does.
    pub fn run(&self, k: i64) -> &[u32] {
        match self.slot(k) {
            Some(s) => &self.rows[self.offsets[s] as usize..self.offsets[s + 1] as usize],
            None => &[],
        }
    }

    /// Every key holding rows, ascending, with its run.
    pub fn runs(&self) -> impl Iterator<Item = (i64, &[u32])> + '_ {
        let n = self.offsets.len() - 1;
        (0..n).filter_map(move |s| {
            let k = match &self.keys {
                Keys::Dense { min, .. } => min.wrapping_add(s as i64),
                Keys::Sparse(keys) => keys[s],
            };
            let run = &self.rows[self.offsets[s] as usize..self.offsets[s + 1] as usize];
            (!run.is_empty()).then_some((k, run))
        })
    }
}

/// The rows appended past a [`Csr`] base, per key, ascending.
#[derive(Clone, Debug, Default)]
struct Tail {
    runs: FxHashMap<i64, Vec<u32>>,
    /// Rows in the tail.
    len: usize,
    /// Tail keys the base does not hold.
    new_keys: usize,
}

/// A table's adjacency on one key column as a join reads it: a sealed base
/// over the first rows and a tail over the rows appended since. Cloning
/// shares both.
#[derive(Clone, Debug)]
pub struct Adjacency {
    base: Arc<Csr>,
    tail: Arc<Tail>,
}

impl Adjacency {
    /// A fresh base over `keys`, no tail.
    pub fn build(keys: &[i64]) -> Adjacency {
        Adjacency {
            base: Arc::new(Csr::build(keys)),
            tail: Arc::default(),
        }
    }

    /// Rows covered: the table's first `len()`.
    pub fn len(&self) -> usize {
        self.base.len() + self.tail.len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct keys over the rows covered.
    pub fn distinct_keys(&self) -> usize {
        self.base.distinct + self.tail.new_keys
    }

    /// The sealed base (shared with the snapshots that kept this version).
    pub fn base(&self) -> &Arc<Csr> {
        &self.base
    }

    /// Rows in the tail.
    pub fn tail_len(&self) -> usize {
        self.tail.len
    }

    /// The rows holding `k`: the base's run, then the tail's, together
    /// ascending (every tail row comes after every base row).
    pub fn runs_of(&self, k: i64) -> [&[u32]; 2] {
        [self.base.run(k), self.tail_run(k)]
    }

    fn tail_run(&self, k: i64) -> &[u32] {
        match self.tail.len {
            0 => &[],
            _ => self.tail.runs.get(&k).map_or(&[], Vec::as_slice),
        }
    }

    /// `(min, span)` when every key held lies in `min..min + span` and
    /// the base addresses that span directly (the counting-sort build):
    /// key `k`'s slot is then `k - min`, ascending with the key. `None`
    /// for sorted distinct keys, or a tail key outside the span.
    pub fn dense_span(&self) -> Option<(i64, usize)> {
        let Keys::Dense { min, max } = self.base.keys else {
            return None;
        };
        let inside = |k: &i64| (min..=max).contains(k);
        let tail = self.tail.new_keys == 0 || self.tail.runs.keys().all(inside);
        tail.then(|| (min, max.abs_diff(min) as usize + 1))
    }

    /// Every key holding rows, ascending, with its rows as
    /// [`Adjacency::runs_of`] gives them: the base's keys in run order,
    /// merged with the few only the tail holds.
    pub fn walk(&self) -> impl Iterator<Item = (i64, [&[u32]; 2])> + '_ {
        let mut fresh: Vec<i64> = match self.tail.new_keys {
            0 => Vec::new(),
            _ => (self.tail.runs.keys().copied())
                .filter(|&k| self.base.run(k).is_empty())
                .collect(),
        };
        fresh.sort_unstable();
        let (mut base, mut fresh) = (self.base.runs().peekable(), fresh.into_iter().peekable());
        std::iter::from_fn(move || match (base.peek(), fresh.peek()) {
            (Some(&(b, _)), Some(&f)) if f < b => {
                fresh.next().map(|k| (k, [&[][..], self.tail_run(k)]))
            }
            (Some(_), _) => base.next().map(|(k, run)| (k, [run, self.tail_run(k)])),
            (None, _) => fresh.next().map(|k| (k, [&[][..], self.tail_run(k)])),
        })
    }

    /// Every key holding rows, ascending, with all its rows (base and
    /// tail): what [`Csr::build`] over the same keys lists.
    pub fn runs(&self) -> Vec<(i64, Vec<u32>)> {
        self.walk().map(|(k, run)| (k, run.concat())).collect()
    }

    /// Cover all of `keys`, the key column of a table whose first `len()`
    /// rows are the ones covered so far: the rows past them go into the
    /// tail, in O(appended), unless the tail would then pass
    /// 1/[`TAIL_REBUILD_RATIO`] of the base — then base and tail are
    /// rebuilt into a fresh base. Returns whether it rebuilt.
    pub fn extend(&mut self, keys: &[i64]) -> bool {
        let from = self.len();
        debug_assert!(from <= keys.len(), "an adjacency covers a prefix");
        if from == keys.len() {
            return false;
        }
        let base = &self.base;
        if (keys.len() - base.len()) * TAIL_REBUILD_RATIO > base.len() {
            *self = Adjacency::build(keys);
            return true;
        }
        // a tail a snapshot still shares is copied first
        let tail = Arc::make_mut(&mut self.tail);
        for (i, &k) in keys.iter().enumerate().skip(from) {
            let run = tail.runs.entry(k).or_insert_with(|| {
                tail.new_keys += usize::from(base.run(k).is_empty());
                Vec::new()
            });
            run.push(i as u32);
        }
        tail.len = keys.len() - base.len();
        false
    }
}

/// Per-table cache of [`Adjacency`]s, one per key column a join looked
/// keys up in, shared through `&Catalog` so a join builds or extends one
/// during (immutable) plan execution. Cloning an entry clones the `Arc`s.
#[derive(Default)]
pub struct AdjacencyCache(Mutex<Vec<Slot>>);

/// One key column: what joins paid toward its adjacency, and the adjacency
/// once built.
#[derive(Clone)]
struct Slot {
    col: usize,
    rent: u32,
    adj: Option<Adjacency>,
}

impl Clone for AdjacencyCache {
    fn clone(&self) -> Self {
        AdjacencyCache(Mutex::new(self.lock().clone()))
    }
}

impl std::fmt::Debug for AdjacencyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = self.lock().iter().filter(|s| s.adj.is_some()).count();
        write!(f, "AdjacencyCache({held} held)")
    }
}

impl AdjacencyCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Slot>> {
        // a poisoned cache holds only complete adjacencies
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The adjacency on column `col` for a join that can hash the table
    /// instead, given the column's keys (`keys[i]` is row `i`'s): the one
    /// held, extended to every row, or a new one once [`JOIN_INDEX_RENT`]
    /// earlier joins have hashed on `col`. `None`: hash this time
    /// (counted). Otherwise the adjacency and the nanoseconds spent
    /// building or extending it (next to none when it was served as
    /// held). A build
    /// from scratch — the first, or a rebuild of base and tail — counts as
    /// a trie-cache miss, anything else as a hit.
    pub fn fetch_after(&self, col: usize, keys: &[i64]) -> Option<(Adjacency, u64)> {
        let mut g = self.lock();
        let at = match g.iter().position(|s| s.col == col) {
            Some(at) => at,
            None => {
                g.push(Slot {
                    col,
                    rent: 0,
                    adj: None,
                });
                g.len() - 1
            }
        };
        let slot = &mut g[at];
        if slot.adj.is_none() && slot.rent < JOIN_INDEX_RENT {
            slot.rent += 1;
            return None;
        }
        let started = Instant::now();
        let built = match &mut slot.adj {
            Some(adj) => adj.extend(keys),
            None => {
                slot.adj = Some(Adjacency::build(keys));
                true
            }
        };
        let spent = started.elapsed();
        aio_metrics::hooks::trie_cache(!built);
        if built {
            aio_metrics::global()
                .engine
                .trie_build_ms
                .observe(spent.as_millis() as u64);
        }
        let adj = slot.adj.clone().expect("built or held");
        Some((adj, spent.as_nanos() as u64))
    }

    /// The adjacency held on `col`, as the last join left it: it may cover
    /// only a prefix of the rows when appends came after.
    pub fn held(&self, col: usize) -> Option<Adjacency> {
        self.lock()
            .iter()
            .find(|s| s.col == col)
            .and_then(|s| s.adj.clone())
    }

    /// Every adjacency held, with its key column.
    pub fn all(&self) -> Vec<(usize, Adjacency)> {
        let g = self.lock();
        g.iter()
            .filter_map(|s| Some((s.col, s.adj.clone()?)))
            .collect()
    }

    /// The adjacencies for a writer's copy of this entry: the same bases
    /// and rent, and the tails, moved out — so the writer extends its tail
    /// without copying it, and this cache keeps each base alone, the
    /// adjacency of the rows before the tail.
    pub(crate) fn take_tails(&self) -> AdjacencyCache {
        let mut g = self.lock();
        let carried = g
            .iter_mut()
            .map(|s| Slot {
                adj: s.adj.as_mut().map(|a| Adjacency {
                    base: Arc::clone(&a.base),
                    tail: std::mem::take(&mut a.tail),
                }),
                ..*s
            })
            .collect();
        AdjacencyCache(Mutex::new(carried))
    }

    /// Drop every adjacency and what joins paid toward new ones (any
    /// mutation of the rows but an append).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Holds no adjacency.
    pub fn is_empty(&self) -> bool {
        self.lock().iter().all(|s| s.adj.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Was `csr` built by the counting sort (a dense key span)?
    fn is_dense(csr: &Csr) -> bool {
        matches!(csr.keys, Keys::Dense { .. })
    }

    fn runs(csr: &Csr) -> Vec<(i64, Vec<u32>)> {
        csr.runs().map(|(k, r)| (k, r.to_vec())).collect()
    }

    #[test]
    fn dense_and_sparse_builds_list_the_same_runs() {
        let keys = [3, 1, 2, 1, 3, 3, 7];
        let (dense, sorted) = (Csr::build(&keys), Csr::build_sorted(&keys));
        assert!(is_dense(&dense) && !is_dense(&sorted));
        let want = vec![
            (1, vec![1, 3]),
            (2, vec![2]),
            (3, vec![0, 4, 5]),
            (7, vec![6]),
        ];
        assert_eq!(runs(&dense), want);
        assert_eq!(runs(&sorted), want);
        assert_eq!(dense.distinct, 4);
        for csr in [&dense, &sorted] {
            assert_eq!(csr.run(3), [0, 4, 5]);
            assert!(csr.run(4).is_empty() && csr.run(0).is_empty() && csr.run(8).is_empty());
            assert!(csr.run(i64::MIN).is_empty() && csr.run(i64::MAX).is_empty());
        }
    }

    #[test]
    fn extreme_spans_fall_back_to_sorted_keys() {
        let keys = [i64::MAX, i64::MIN, 0, i64::MIN];
        let csr = Csr::build(&keys);
        assert!(!is_dense(&csr));
        assert_eq!(csr.run(i64::MIN), [1, 3]);
        assert_eq!(csr.run(i64::MAX), [0]);
        // a dense block at the top of the range: no slot wraps around
        let top = [i64::MAX, i64::MAX - 1, i64::MAX];
        let csr = Csr::build(&top);
        assert!(is_dense(&csr));
        assert_eq!(csr.run(i64::MAX), [0, 2]);
        assert!(csr.run(i64::MIN).is_empty() && csr.run(i64::MIN + 1).is_empty());
        assert!(Csr::build(&[]).is_empty());
    }

    #[test]
    fn a_tail_extends_until_it_passes_an_eighth_of_the_base() {
        let mut keys: Vec<i64> = (0..64).map(|i| i % 10).collect();
        let mut adj = Adjacency::build(&keys);
        let base = Arc::clone(adj.base());
        keys.extend([3, 11, 11, 3, 12, 0, 1, 2]);
        assert!(!adj.extend(&keys), "8 rows on 64: still a tail");
        assert!(Arc::ptr_eq(&base, adj.base()));
        assert_eq!(
            (adj.len(), adj.tail_len(), adj.distinct_keys()),
            (72, 8, 12)
        );
        assert_eq!(
            adj.runs_of(3),
            [&[3, 13, 23, 33, 43, 53, 63][..], &[64, 67]]
        );
        assert_eq!(adj.runs(), runs(&Csr::build(&keys)));
        assert_eq!(
            adj.dense_span(),
            None,
            "11 and 12 lie past the base's 0..=9"
        );
        keys.push(5);
        assert!(adj.extend(&keys), "the ninth row rebuilds");
        assert_eq!(adj.dense_span(), Some((0, 13)));
        assert_eq!((adj.tail_len(), adj.base().len()), (0, 73));
        assert_eq!(adj.runs(), runs(&Csr::build(&keys)));
    }

    /// Joins hash `JOIN_INDEX_RENT` times on a column before one builds;
    /// a held adjacency is served at once, extended to appended rows, and
    /// a clear starts the count over.
    #[test]
    fn joins_rent_before_they_build() {
        let keys: Vec<i64> = (0..16).map(|i| i % 4).collect();
        let cache = AdjacencyCache::default();
        for _ in 0..JOIN_INDEX_RENT {
            assert!(cache.fetch_after(0, &keys).is_none());
        }
        assert!(cache.fetch_after(1, &keys).is_none(), "counted per column");
        let (adj, _) = cache
            .fetch_after(0, &keys)
            .expect("the join after the rent builds");
        assert_eq!(adj.len(), 16);
        let (again, _) = cache.fetch_after(0, &keys).unwrap();
        assert!(Arc::ptr_eq(adj.base(), again.base()), "then it is held");
        let longer: Vec<i64> = keys.iter().copied().chain([9]).collect();
        let (grown, _) = cache.fetch_after(0, &longer).unwrap();
        assert!(Arc::ptr_eq(adj.base(), grown.base()) && grown.len() == 17);
        assert_eq!(cache.held(0).unwrap().len(), 17);
        cache.clear();
        assert!(
            cache.is_empty() && cache.fetch_after(0, &keys).is_none(),
            "rent again"
        );
    }
}
