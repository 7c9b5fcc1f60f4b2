//! Secondary indexes over relations.
//!
//! The paper's Exp-A studies the effect of building indexes on the temporary
//! tables the PSM translation creates: in PostgreSQL the optimizer picks a
//! merge join for statistics-free temp tables, and a sorted index on the
//! join attribute lets it index-scan instead of sorting (Fig. 10). We model
//! exactly that structure: [`SortedIndex`], a permutation of row ids ordered
//! by the key columns (a B+-tree's leaf order) that a merge join can consume
//! without sorting. (What a hash join builds ad hoc is
//! [`crate::keyidx::KeyIndex`].)

use crate::keyidx::key_cmp;
use crate::relation::Relation;

/// Ordered index: a permutation of row ids sorted by the key columns.
#[derive(Clone, Debug)]
pub struct SortedIndex {
    cols: Vec<usize>,
    perm: Vec<u32>,
}

impl SortedIndex {
    /// Build over `rel[cols]` (one O(n log n) sort, paid at build time —
    /// this is the cost the PSM procedure pays once per temp-table fill).
    pub fn build(rel: &Relation, cols: &[usize]) -> Self {
        let rows = rel.rows();
        let mut perm: Vec<u32> = (0..rows.len() as u32).collect();
        perm.sort_unstable_by(|&a, &b| key_cmp(&rows[a as usize], cols, &rows[b as usize], cols));
        SortedIndex {
            cols: cols.to_vec(),
            perm,
        }
    }

    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Row ids in key order. Consuming this is an *index scan*: sequential
    /// over the permutation but random-access into the heap rows — the
    /// paper's explanation for why indexing can lose on Orkut (Fig. 10(d)).
    pub fn order(&self) -> &[u32] {
        &self.perm
    }

    /// Does this index cover exactly the requested key columns?
    pub fn covers(&self, cols: &[usize]) -> bool {
        self.cols == cols
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
            row![1, 3, 1.0],
        ])
        .unwrap();
        r
    }

    #[test]
    fn sorted_index_orders_rows() {
        let r = rel();
        let idx = SortedIndex::build(&r, &[0, 1]);
        let keys: Vec<(i64, i64)> = idx
            .order()
            .iter()
            .map(|&i| {
                let row = &r.rows()[i as usize];
                (row[0].as_int().unwrap(), row[1].as_int().unwrap())
            })
            .collect();
        assert_eq!(keys, vec![(1, 2), (1, 3), (2, 3), (3, 1)]);
        assert!(idx.covers(&[0, 1]));
        assert!(!idx.covers(&[1]));
    }
}
