//! Borrowed-key hash index for allocation-free join probes.
//!
//! A map keyed by materialized [`Key`](crate::Key)s forces every probe to
//! build one — a `Box<[Value]>` clone per probe row, which dominates the
//! probe loop on large inputs. [`KeyIndex`] removes that: it is a two-level
//! map from a precomputed `FxHasher` hash of the projected key columns to
//! the row indices bearing that hash, and probes compare column values *in
//! place* (`&[Value]` against `&[Value]`). No per-probe allocation; matches
//! come back in row order (hash collisions resolved by the equality filter).
//!
//! The index is built in `P` hash-disjoint partitions so builds can run on
//! `P` threads (partition `p` owns the rows with `hash % P == p`); partition
//! contents are independent of `P`, so probe results are too.
//!
//! Every row is indexed, NULL keys included, and a probe matches under
//! storage equality ([`keys_eq`]: NULL equals NULL). Union-by-update wants
//! exactly that. SQL joins never match a NULL key, so each SQL probe site
//! (hash join, anti-join, semi-join) skips NULL probe keys itself; a
//! NULL-free probe key never equals a NULL-bearing row, so NULL-keyed build
//! rows stay unmatched there (and a full outer join pads them).
//! [`had_null_keys`](KeyIndex::had_null_keys) reports their presence for
//! `NOT IN`'s null-awareness.

use crate::hash::{FxHashMap, FxHasher};
use crate::relation::Relation;
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// Hash of `row` projected to `cols`, matching [`Key`](crate::Key)'s `Hash`.
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

/// Do two rows agree on their respective key columns? Uses storage equality
/// (the same notion [`Key`](crate::Key) uses), so a `KeyIndex` probe and a
/// `Key`-map lookup see identical matches.
#[inline]
pub fn keys_eq(a: &[Value], a_cols: &[usize], b: &[Value], b_cols: &[usize]) -> bool {
    a_cols.iter().zip(b_cols).all(|(&ac, &bc)| a[ac] == b[bc])
}

/// Hash-partitioned, borrowed-key multimap over one relation's key columns.
pub struct KeyIndex {
    cols: Vec<usize>,
    parts: Vec<FxHashMap<u64, Vec<u32>>>,
    null_rows: usize,
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
        let p = partitions.max(1);
        if p == 1 || rel.len() < p {
            let mut map: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
            let mut null_rows = 0usize;
            for (i, row) in rel.rows().iter().enumerate() {
                null_rows += key_has_null(row, cols) as usize;
                map.entry(key_hash(row, cols)).or_default().push(i as u32);
            }
            return KeyIndex {
                cols: cols.to_vec(),
                parts: vec![map],
                null_rows,
            };
        }
        let mut parts: Vec<FxHashMap<u64, Vec<u32>>> = Vec::with_capacity(p);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..p)
                .map(|part| {
                    scope.spawn(move || {
                        let mut map: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
                        for (i, row) in rel.rows().iter().enumerate() {
                            let h = key_hash(row, cols);
                            if (h as usize) % p == part {
                                map.entry(h).or_default().push(i as u32);
                            }
                        }
                        map
                    })
                })
                .collect();
            for handle in handles {
                parts.push(handle.join().expect("key index build worker panicked"));
            }
        });
        KeyIndex {
            cols: cols.to_vec(),
            parts,
            null_rows: rel.rows().iter().filter(|r| key_has_null(r, cols)).count(),
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

    /// Row indices whose key hashed to `hash` (superset of the true
    /// matches; callers filter with [`keys_eq`]).
    #[inline]
    pub fn candidates(&self, hash: u64) -> &[u32] {
        self.parts[(hash as usize) % self.parts.len()]
            .get(&hash)
            .map(Vec::as_slice)
            .unwrap_or(&[])
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
        self.candidates(hash)
            .iter()
            .copied()
            .filter(move |&ri| keys_eq(&rel.rows()[ri as usize], &self.cols, probe_row, probe_cols))
    }

    /// Does any indexed row match the probe key?
    #[inline]
    pub fn contains(&self, rel: &Relation, probe_row: &[Value], probe_cols: &[usize]) -> bool {
        self.probe(rel, probe_row, probe_cols).next().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{edge_schema, Key};
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
        for parts in [1, 2, 4, 7] {
            let idx = KeyIndex::build_partitioned(&r, &[0], parts);
            for probe in r.rows() {
                let got: Vec<u32> = idx.probe(&r, probe, &[0]).collect();
                let key = Key::of(probe, &[0]);
                let want: Vec<u32> = (0..r.len() as u32)
                    .filter(|&i| Key::of(&r.rows()[i as usize], &[0]) == key)
                    .collect();
                assert_eq!(got, want, "parts={parts}");
            }
        }
    }

    #[test]
    fn null_rows_indexed_and_reported() {
        let r = rel();
        for parts in [1, 3] {
            let idx = KeyIndex::build_partitioned(&r, &[0], parts);
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
    fn partitioned_build_is_layout_only() {
        let r = rel();
        let a = KeyIndex::build_partitioned(&r, &[0, 1], 1);
        let b = KeyIndex::build_partitioned(&r, &[0, 1], 3);
        assert_eq!(b.partitions(), 3);
        for probe in r.rows() {
            let va: Vec<u32> = a.probe(&r, probe, &[0, 1]).collect();
            let vb: Vec<u32> = b.probe(&r, probe, &[0, 1]).collect();
            assert_eq!(va, vb);
        }
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
}
