//! Keys: when two rows share a key. This module is the only code that
//! says, and it reads keys in place (a row and its key columns), never
//! copying them out:
//!
//! * equality — [`keys_eq`]: storage equality per column (NULL equals NULL,
//!   `-0.0` equals `0.0`, every NaN equals every other);
//! * hashing — [`key_hash`], consistent with that equality;
//! * order — [`key_cmp`]: lexicographic under `Value`'s total order, which
//!   refines the equality, so a sort puts together exactly the rows a hash
//!   table groups (sort aggregation, merge join, sorted indexes, tries).
//!
//! [`KeyIndex`] maps a relation's keys to its row ids, for probes (joins,
//! anti- and semi-joins, union-by-update, keyed lookups) and Section 4.1's
//! uniqueness rule ([`KeyIndex::first_duplicate`]); it grows with a
//! relation that only appends ([`KeyIndex::push`]), so the improve fold of
//! a fixpoint loop keeps one index over R for the whole loop. [`KeyGroups`]
//! numbers groups in order of first appearance (hash aggregation, window
//! partitions, merge-improve's best row per key, whole-row dedup).
//!
//! `KeyIndex` is one map entry per key hash plus a flat per-row chain, so a
//! build allocates nothing per key. It is built in `P` hash-disjoint
//! partitions so builds can run on `P` threads (partition `p` owns the rows
//! with `hash % P == p` and links only those); probe
//! results do not depend on `P`, and come back in row order. Every row is
//! indexed, NULL keys included, and a probe matches under storage equality,
//! which is what union-by-update wants. SQL joins never match a NULL key,
//! so each SQL probe site (hash join, anti-join, semi-join) skips NULL probe
//! keys itself; a NULL-free probe key never equals a NULL-bearing row, so
//! NULL-keyed build rows stay unmatched there (and a full outer join pads
//! them). [`had_null_keys`](KeyIndex::had_null_keys) reports their presence
//! for `NOT IN`'s null-awareness.

use crate::hash::{FxHashMap, FxHasher};
use crate::relation::{Relation, Row};
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Hash of `row` projected to `cols`: rows that agree under [`keys_eq`]
/// hash equally.
#[inline]
pub fn key_hash(row: &[Value], cols: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    for &c in cols {
        row[c].hash(&mut h);
    }
    h.finish()
}

/// Is any of `row`'s `cols` NULL?
#[inline]
pub fn key_has_null(row: &[Value], cols: &[usize]) -> bool {
    cols.iter().any(|&c| row[c].is_null())
}

/// Do two rows agree on their respective key columns? Storage equality:
/// NULL equals NULL, `-0.0` equals `0.0`, every NaN equals every other.
#[inline]
pub fn keys_eq(a: &[Value], a_cols: &[usize], b: &[Value], b_cols: &[usize]) -> bool {
    a_cols.iter().zip(b_cols).all(|(&ac, &bc)| a[ac] == b[bc])
}

/// Lexicographic order of two rows projected to their key columns, under
/// `Value`'s total order (NULLs first). `Equal` exactly when [`keys_eq`].
#[inline]
pub fn key_cmp(a: &[Value], a_cols: &[usize], b: &[Value], b_cols: &[usize]) -> Ordering {
    for (&ac, &bc) in a_cols.iter().zip(b_cols) {
        match a[ac].cmp(&b[bc]) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    Ordering::Equal
}

/// Ends a collision chain: of [`KeyGroups`]' groups, or of [`KeyIndex`]'s
/// rows.
const END: u32 = u32::MAX;

/// Dense group ids for rows under key equality: a row with a new key opens
/// the next group, which remembers that first row. Rows are borrowed, so
/// they may come from all of a relation ([`KeyGroups::of`]), a range of it,
/// a list of row ids, or another `KeyGroups`' first rows (how morsel-local
/// groups merge). Per row: one [`key_hash`], a [`keys_eq`] against the
/// first row of each group with that hash, no allocation.
pub struct KeyGroups<'a> {
    cols: Vec<usize>,
    /// Key hash → the newest group with that hash.
    heads: FxHashMap<u64, u32>,
    /// Per group: the previous group with the same hash, or [`END`].
    chain: Vec<u32>,
    /// Per group: the first row that had its key.
    firsts: Vec<&'a [Value]>,
}

impl<'a> KeyGroups<'a> {
    /// No groups yet, keyed on `cols`.
    pub fn new(cols: &[usize]) -> Self {
        KeyGroups {
            cols: cols.to_vec(),
            heads: FxHashMap::default(),
            chain: Vec::new(),
            firsts: Vec::new(),
        }
    }

    /// Group every row of `rows`: the group id of each row, in row order,
    /// and the groups.
    pub fn of(rows: &'a [Row], cols: &[usize]) -> (Vec<u32>, Self) {
        let mut groups = KeyGroups::new(cols);
        let ids = rows.iter().map(|row| groups.assign(row).0).collect();
        (ids, groups)
    }

    /// The group of `row`'s key, and whether this row opened it (a new key
    /// opens group [`len`](Self::len)).
    #[inline]
    pub fn assign(&mut self, row: &'a [Value]) -> (u32, bool) {
        let next = self.firsts.len() as u32;
        let prev = match self.heads.entry(key_hash(row, &self.cols)) {
            Entry::Occupied(mut head) => {
                let mut g = *head.get();
                while g != END {
                    if keys_eq(self.firsts[g as usize], &self.cols, row, &self.cols) {
                        return (g, false);
                    }
                    g = self.chain[g as usize];
                }
                head.insert(next)
            }
            Entry::Vacant(head) => {
                head.insert(next);
                END
            }
        };
        self.chain.push(prev);
        self.firsts.push(row);
        (next, true)
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.firsts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.firsts.is_empty()
    }

    /// Each group's first row, indexed by group id.
    pub fn firsts(&self) -> &[&'a [Value]] {
        &self.firsts
    }
}

/// Hash-partitioned, borrowed-key multimap over one relation's key columns.
/// Chained: one map entry per key hash, holding the first and the last row
/// with that hash, and one flat `next` array that links each row to the next
/// row with its hash, in row order. Nothing is allocated per key.
pub struct KeyIndex {
    cols: Vec<usize>,
    /// Per partition: key hash → (first, last) row with that hash.
    parts: Vec<FxHashMap<u64, (u32, u32)>>,
    /// Per row: the next row with the same key hash, or [`END`].
    next: Vec<u32>,
    null_rows: usize,
}

/// Append row `id` to the chain of hash `h` in `map`; `link(last, id)`
/// points the chain's previous last row at it.
#[inline]
fn append(map: &mut FxHashMap<u64, (u32, u32)>, h: u64, id: u32, mut link: impl FnMut(u32, u32)) {
    match map.entry(h) {
        Entry::Occupied(mut chain) => {
            let (_, last) = chain.get_mut();
            link(*last, id);
            *last = id;
        }
        Entry::Vacant(chain) => {
            chain.insert((id, id));
        }
    }
}

impl KeyIndex {
    /// Single-partition (serial) build.
    pub fn build(rel: &Relation, cols: &[usize]) -> KeyIndex {
        KeyIndex::build_partitioned(rel, cols, 1)
    }

    /// Build with `partitions` hash-disjoint sub-tables, one thread each.
    /// The resulting index is independent of `partitions` (only the physical
    /// layout changes), so any partition count yields identical probes.
    pub fn build_partitioned(rel: &Relation, cols: &[usize], partitions: usize) -> KeyIndex {
        let p = if rel.len() < partitions {
            1
        } else {
            partitions.max(1)
        };
        // Each partition links only its own rows, so the stores never race,
        // and joining the workers publishes them: `Relaxed` suffices.
        let next: Vec<AtomicU32> = (0..rel.len()).map(|_| AtomicU32::new(END)).collect();
        // Partition `part` of the map, and the NULL-keyed rows of all of
        // `rel` (every partition scans every row anyway).
        let build = |part: usize| {
            // sized for distinct keys: no rehash while it fills
            let mut map = FxHashMap::with_capacity_and_hasher(rel.len() / p, Default::default());
            let mut null_rows = 0;
            for (i, row) in rel.rows().iter().enumerate() {
                null_rows += key_has_null(row, cols) as usize;
                let h = key_hash(row, cols);
                if p == 1 || (h as usize) % p == part {
                    append(&mut map, h, i as u32, |last, id| {
                        next[last as usize].store(id, Relaxed)
                    });
                }
            }
            (map, null_rows)
        };
        let built: Vec<_> = if p == 1 {
            vec![build(0)]
        } else {
            std::thread::scope(|scope| {
                let build = &build;
                let workers: Vec<_> = (0..p)
                    .map(|part| scope.spawn(move || build(part)))
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("key index build worker panicked"))
                    .collect()
            })
        };
        KeyIndex {
            cols: cols.to_vec(),
            null_rows: built[0].1,
            parts: built.into_iter().map(|(map, _)| map).collect(),
            next: next.into_iter().map(AtomicU32::into_inner).collect(),
        }
    }

    /// Key columns this index was built over.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Does any indexed row have a NULL key column? (`NOT IN` cares.)
    pub fn had_null_keys(&self) -> bool {
        self.null_rows > 0
    }

    /// Index one more row: `row` is row `id` of the relation this index is
    /// over, appended after every row indexed so far (ids only grow), so
    /// probes stay in row order. The index then probes exactly as a fresh
    /// build over the grown relation would — how a fixpoint loop holds one
    /// index over R while its fold appends.
    pub fn push(&mut self, row: &[Value], id: u32) {
        self.null_rows += key_has_null(row, &self.cols) as usize;
        let h = key_hash(row, &self.cols);
        let next = &mut self.next;
        next.resize(next.len().max(id as usize + 1), END);
        let p = self.parts.len();
        append(&mut self.parts[(h as usize) % p], h, id, |last, id| {
            next[last as usize] = id
        });
    }

    /// Indices of `rel`'s rows whose key equals `probe_row[probe_cols]`
    /// under storage equality, in row order. A NULL probe key matches the
    /// rows whose key holds NULL in the same place; SQL probe sites skip
    /// NULL probe keys before calling this. Allocation-free.
    #[inline]
    pub fn probe<'a>(
        &'a self,
        rel: &'a Relation,
        probe_row: &'a [Value],
        probe_cols: &'a [usize],
    ) -> impl Iterator<Item = u32> + 'a {
        let hash = key_hash(probe_row, probe_cols);
        let first = self.parts[(hash as usize) % self.parts.len()]
            .get(&hash)
            .map(|&(first, _)| first);
        let live = |r: &u32| *r != END;
        std::iter::successors(first, move |&r| Some(self.next[r as usize]).filter(live))
            .filter(move |&ri| keys_eq(&rel.rows()[ri as usize], &self.cols, probe_row, probe_cols))
    }

    /// Does any indexed row match the probe key?
    #[inline]
    pub fn contains(&self, rel: &Relation, probe_row: &[Value], probe_cols: &[usize]) -> bool {
        self.probe(rel, probe_row, probe_cols).next().is_some()
    }

    /// The first row of `rel` — the relation this index was built over —
    /// whose key an earlier row already holds, or `None` if its keys are
    /// unique. Union-by-update's "we do not allow multiple s to match a
    /// single r" (Section 4.1), and the guard of every lookup that needs
    /// one row per key.
    pub fn first_duplicate(&self, rel: &Relation) -> Option<usize> {
        let (rows, cols) = (rel.rows(), &self.cols);
        let next = |r: u32| Some(self.next[r as usize]).filter(|&n| n != END);
        // Equal keys hash alike, so a row can only repeat a key of its own
        // chain: in each chain, the first row equal to an earlier one.
        let repeat = |first: u32| {
            std::iter::successors(next(first), |&r| next(r)).find(|&r| {
                std::iter::successors(Some(first), |&e| next(e))
                    .take_while(|&e| e != r)
                    .any(|e| keys_eq(&rows[e as usize], cols, &rows[r as usize], cols))
            })
        };
        let chains = self.parts.iter().flat_map(|part| part.values());
        chains
            .filter_map(|&(first, _)| repeat(first))
            .min()
            .map(|r| r as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::edge_schema;
    use crate::row;

    fn rel() -> Relation {
        let mut e = Relation::new(edge_schema());
        e.extend([
            row![1, 2, 1.0],
            row![2, 3, 1.0],
            row![1, 3, 2.0],
            row![4, 1, 1.0],
            row![1, 2, 9.0],
        ])
        .unwrap();
        e.push(vec![Value::Null, Value::Int(7), Value::Float(0.0)].into_boxed_slice())
            .unwrap();
        e
    }

    #[test]
    fn probe_matches_a_naive_scan_in_order() {
        let r = rel();
        for cols in [&[0][..], &[0, 1]] {
            for parts in [1, 2, 3, 4, 7] {
                let idx = KeyIndex::build_partitioned(&r, cols, parts);
                for probe in r.rows() {
                    let got: Vec<u32> = idx.probe(&r, probe, cols).collect();
                    let want: Vec<u32> = (0..r.len() as u32)
                        .filter(|&i| keys_eq(&r.rows()[i as usize], cols, probe, cols))
                        .collect();
                    assert_eq!(got, want, "cols={cols:?} parts={parts}");
                }
            }
        }
    }

    #[test]
    fn pushed_rows_probe_like_a_fresh_build() {
        // rel()'s five NULL-free rows twice (enough rows for 7 partitions),
        // then all of rel()'s rows appended one by one, the NULL-keyed row
        // last
        let r = rel();
        let base: Vec<Row> = r.rows()[..5]
            .iter()
            .chain(&r.rows()[..5])
            .cloned()
            .collect();
        let all: Vec<Row> = base.iter().chain(r.rows()).cloned().collect();
        let all = Relation::from_rows(edge_schema(), all).unwrap();
        for cols in [&[0][..], &[0, 1]] {
            for parts in [1, 2, 4, 7] {
                let mut grown = Relation::from_rows(edge_schema(), base.clone()).unwrap();
                let mut idx = KeyIndex::build_partitioned(&grown, cols, parts);
                assert_eq!(idx.partitions(), parts);
                assert!(!idx.had_null_keys());
                for row in r.rows() {
                    idx.push(row, grown.len() as u32);
                    grown.push(row.clone()).unwrap();
                }
                let fresh = KeyIndex::build_partitioned(&all, cols, parts);
                assert!(idx.had_null_keys() && fresh.had_null_keys());
                let null_probe = [Value::Null, Value::Int(7)];
                for probe in all.rows().iter().map(|r| &r[..]).chain([&null_probe[..]]) {
                    assert_eq!(
                        idx.probe(&grown, probe, cols).collect::<Vec<_>>(),
                        fresh.probe(&all, probe, cols).collect::<Vec<_>>(),
                        "cols={cols:?} parts={parts} probe={probe:?}"
                    );
                }
                assert_eq!(idx.first_duplicate(&grown), fresh.first_duplicate(&all));
            }
        }
    }

    /// Long chains and many short ones: every row on one key, and 10k
    /// distinct keys. A build, and a half build grown by `push`, probe like
    /// a naive scan at every partition count, and agree on the first
    /// duplicate.
    #[test]
    fn one_long_chain_and_many_keys_probe_like_a_naive_scan() {
        let one_key = (0..10_000).map(|i| row![7, i, 0.0]).collect();
        let distinct = (0..10_000).map(|i| row![i * 3 - 5_000, 0, 0.0]).collect();
        let cases: [(Vec<Row>, Vec<usize>, _); 2] = [
            (one_key, vec![0, 4_999, 5_000, 9_999], Some(1)),
            (distinct, (0..10_000).step_by(97).collect(), None),
        ];
        for (rows, probes, dup) in cases {
            let all = Relation::from_rows(edge_schema(), rows.clone()).unwrap();
            for parts in [1, 2, 3, 7] {
                let fresh = KeyIndex::build_partitioned(&all, &[0], parts);
                let mut grown = Relation::from_rows(edge_schema(), rows[..5_000].to_vec()).unwrap();
                let mut pushed = KeyIndex::build_partitioned(&grown, &[0], parts);
                for row in &rows[5_000..] {
                    pushed.push(row, grown.len() as u32);
                    grown.push(row.clone()).unwrap();
                }
                for (idx, rel) in [(&fresh, &all), (&pushed, &grown)] {
                    for &p in &probes {
                        let probe = &all.rows()[p];
                        let want: Vec<u32> = (0..all.len() as u32)
                            .filter(|&i| keys_eq(&all.rows()[i as usize], &[0], probe, &[0]))
                            .collect();
                        let got: Vec<u32> = idx.probe(rel, probe, &[0]).collect();
                        assert_eq!(got, want, "parts={parts} probe={p}");
                    }
                    assert_eq!(idx.first_duplicate(rel), dup, "parts={parts}");
                }
            }
        }
    }

    #[test]
    fn null_rows_indexed_and_reported() {
        let r = rel();
        for parts in [1, 3] {
            let idx = KeyIndex::build_partitioned(&r, &[0], parts);
            assert_eq!(idx.partitions(), parts);
            assert!(idx.had_null_keys());
            // every row is indexed: the three F=1 rows see each other, the
            // NULL row sees itself and nothing else does
            let hits: Vec<usize> = r
                .rows()
                .iter()
                .map(|row| idx.probe(&r, row, &[0]).count())
                .collect();
            assert_eq!(hits, vec![3, 1, 3, 1, 3, 1], "parts={parts}");
            let null_probe = [Value::Null];
            assert_eq!(
                idx.probe(&r, &null_probe, &[0]).collect::<Vec<_>>(),
                vec![5]
            );
            assert!(!r.rows()[..5]
                .iter()
                .any(|row| idx.probe(&r, row, &[0]).any(|i| i == 5)));
        }
        assert!(!KeyIndex::build(&r, &[1]).had_null_keys());
    }

    #[test]
    fn cross_column_probe() {
        // probe a different relation on different column positions
        let r = rel();
        let idx = KeyIndex::build(&r, &[1]); // key on T
        let probe_row = [Value::Float(0.0), Value::Int(3)];
        let hits: Vec<u32> = idx.probe(&r, &probe_row, &[1]).collect();
        assert_eq!(hits, vec![1, 2], "rows with T=3, in row order");
        assert!(idx.contains(&r, &probe_row, &[1]));
        let miss = [Value::Float(0.0), Value::Int(99)];
        assert!(!idx.contains(&r, &miss, &[1]));
    }

    #[test]
    fn keys_eq_uses_storage_equality() {
        let a = [Value::Null, Value::Int(1)];
        let b = [Value::Int(1), Value::Null];
        assert!(
            keys_eq(&a, &[0], &b, &[1]),
            "storage equality: NULL == NULL"
        );
        assert!(keys_eq(&a, &[1], &b, &[0]));
        assert!(!keys_eq(&a, &[0], &b, &[0]));
    }

    #[test]
    fn groups_resolve_hash_collisions_by_equality() {
        // Over two Int columns key_hash([a, b]) = (P(a) ^ b) * S, with S the
        // Fx multiplier, so every row (a, P(a)) hashes to 0: one chain.
        let s = {
            let mut h = FxHasher::default();
            h.write_u64(1);
            h.finish()
        };
        let mut s_inv = s; // Newton's iteration for S⁻¹ mod 2⁶⁴
        for _ in 0..5 {
            s_inv = s_inv.wrapping_mul(2u64.wrapping_sub(s.wrapping_mul(s_inv)));
        }
        let rows: Vec<Row> = (0..40i64)
            .map(|a| {
                let p = key_hash(&[Value::Int(a), Value::Int(0)], &[0, 1]).wrapping_mul(s_inv);
                row![a, p as i64, 0.0]
            })
            .collect();
        assert!(rows.iter().all(|r| key_hash(r, &[0, 1]) == 0));
        let twice: Vec<Row> = rows.iter().chain(&rows).cloned().collect();
        let mut groups = KeyGroups::new(&[0, 1]);
        let got: Vec<(u32, bool)> = twice.iter().map(|r| groups.assign(r)).collect();
        let want: Vec<(u32, bool)> = (0..40)
            .map(|g| (g, true))
            .chain((0..40).map(|g| (g, false)))
            .collect();
        assert_eq!(
            got, want,
            "the first pass opens each group, the second reuses it"
        );
        assert_eq!(groups.len(), 40);
        let twice = Relation::from_rows(edge_schema(), twice).unwrap();
        assert_eq!(
            KeyIndex::build(&twice, &[0, 1]).first_duplicate(&twice),
            Some(40)
        );
    }

    #[test]
    fn first_duplicate_is_the_first_repeated_key() {
        let r = rel();
        for parts in [1, 3] {
            // on T, key 2 repeats at row 4 but key 3 already at row 2
            let cases = [
                (&[0][..], Some(2)),
                (&[1], Some(2)),
                (&[0, 1], Some(4)),
                (&[0, 1, 2], None),
            ];
            for (cols, want) in cases {
                let idx = KeyIndex::build_partitioned(&r, cols, parts);
                assert_eq!(idx.first_duplicate(&r), want, "{cols:?}");
            }
        }
    }
}
