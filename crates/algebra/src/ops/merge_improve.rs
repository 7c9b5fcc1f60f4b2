//! Improve-only keyed merge — the IVM refresh kernel for monotone
//! union-by-update fixpoints (WCC/SSSP-class).
//!
//! Stock union-by-update has *replace* semantics: a matching delta row
//! overwrites the target row unconditionally. That is correct inside a full
//! fixpoint run, where every delta row is derived from the complete frontier
//! and therefore never worse than what it replaces. An incremental refresh
//! re-derives rows from a *partial* frontier (only the neighborhood of the
//! edge delta), so a re-derived value can be worse than the retained one —
//! replacing would un-converge rows the delta never touched. The fix is to
//! merge with the fixpoint's own ⊕: keep whichever value is better under
//! the view's min/max aggregate. For min/max path propagation this
//! converges to the same least fixpoint as a cold run, bit-exactly, because
//! `min`/`max` over the same derivation set is order-insensitive.
//!
//! The same fold runs a *cold* fixpoint delta-driven where the loop proves
//! it leaves R exactly as replacing would after every iteration (DESIGN
//! §16): then iteration k joins only the rows iteration k−1 improved.
//!
//! This is the per-key best-value merge of a frontier–expand–merge loop
//! ("Relational Approach for Shortest Path Discovery over Large Graphs"):
//! [`KeyGroups`] over the delta gives its best row per key and the order
//! keys first appear in, and a [`KeyIndex`] over the target, which the
//! caller holds for its whole loop, gives the row each one would improve.
//! A fold therefore costs O(|delta|), not O(|target|). Nothing copies a key.

use crate::error::{AlgebraError, Result};
use crate::stats::ExecStats;
use aio_storage::{Catalog, KeyGroups, KeyIndex, Relation};

/// Merge `delta` into `target` keyed on `index`'s key columns, keeping per
/// key the better of (existing, incoming) under `value_col` — smaller wins
/// when `min`, larger when `max`. Unmatched delta keys insert. `index` is
/// the caller's [`KeyIndex`] over `target`, whose keys the caller has
/// checked unique; the rows this call inserts are pushed onto it, so it
/// stays valid for the next call. Returns the rows that actually changed
/// the target (inserted or improved) — the next frontier — deduplicated to
/// the best row per key, in first-appearance key order — and adds their
/// number to `stats.ubu_changed_rows`.
pub fn ubu_merge_improve(
    catalog: &mut Catalog,
    target: &str,
    delta: Relation,
    index: &mut KeyIndex,
    value_col: usize,
    min: bool,
    stats: &mut ExecStats,
) -> Result<Relation> {
    stats.union_by_updates += 1;
    let arity = catalog.relation(target)?.schema().arity();
    if arity != delta.schema().arity() {
        return Err(AlgebraError::Plan(format!(
            "merge-improve arity mismatch: {} vs {}",
            arity,
            delta.schema().arity()
        )));
    }
    let better = |a: &aio_storage::Value, b: &aio_storage::Value| {
        if min {
            a < b
        } else {
            a > b
        }
    };

    // Pre-reduce the delta to its best row per key, keys in the order they
    // first appear: the frontier must be deterministic regardless of how
    // the partial evaluation enumerated derivations.
    let keys = index.cols();
    let mut groups = KeyGroups::new(keys);
    let mut best: Vec<usize> = Vec::new();
    for (i, row) in delta.rows().iter().enumerate() {
        match groups.assign(row) {
            (_, true) => best.push(i),
            (g, false) => {
                let g = g as usize;
                if better(&row[value_col], &delta.rows()[best[g]][value_col]) {
                    best[g] = i;
                }
            }
        }
    }

    // Per best row, what it does to the target — overwrite the row it
    // improves (`Some`) or insert (`None`) — in `best`'s order; rows that
    // improve nothing drop out here.
    let mut changes: Vec<(usize, Option<usize>)> = Vec::new();
    {
        let t = catalog.relation(target)?;
        for &di in &best {
            let row = &delta.rows()[di];
            match index.probe(t, row, keys).next() {
                Some(ti) if better(&row[value_col], &t.rows()[ti as usize][value_col]) => {
                    changes.push((di, Some(ti as usize)))
                }
                Some(_) => {}
                None => changes.push((di, None)),
            }
        }
    }

    let mut frontier = Relation::new(delta.schema().clone());
    if !changes.is_empty() {
        // only a fold that changes something touches (and invalidates) R
        let t = catalog.relation_mut(target)?;
        for (di, pos) in changes {
            let row = &delta.rows()[di];
            match pos {
                Some(ti) => t.rows_mut()[ti] = row.clone(),
                None => {
                    index.push(row, t.len() as u32);
                    t.push(row.clone())?;
                }
            }
            frontier.push(row.clone())?;
        }
    }
    stats.rows_produced += frontier.len() as u64;
    stats.ubu_changed_rows += frontier.len() as u64;
    Ok(frontier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_storage::{node_schema, row};

    fn setup(target_rows: &[(i64, f64)]) -> Catalog {
        let mut c = Catalog::new();
        let mut r = Relation::with_pk(node_schema(), &["ID"]).unwrap();
        for &(id, w) in target_rows {
            r.push(row![id, w]).unwrap();
        }
        c.create_temp("V", r).unwrap();
        c
    }

    fn delta(rows: &[(i64, f64)]) -> Relation {
        let mut d = Relation::new(node_schema());
        for &(id, w) in rows {
            d.push(row![id, w]).unwrap();
        }
        d
    }

    /// One fold under a fresh index over `V`'s key.
    fn improve(c: &mut Catalog, d: Relation, min: bool, s: &mut ExecStats) -> Relation {
        let mut idx = KeyIndex::build(c.relation("V").unwrap(), &[0]);
        ubu_merge_improve(c, "V", d, &mut idx, 1, min, s).unwrap()
    }

    fn contents(c: &Catalog) -> Vec<(i64, f64)> {
        let mut v: Vec<(i64, f64)> = c
            .relation("V")
            .unwrap()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_f64().unwrap()))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    #[test]
    fn improves_inserts_and_ignores_worse() {
        let mut c = setup(&[(1, 5.0), (2, 2.0), (3, 1.0)]);
        let d = delta(&[(1, 3.0), (2, 9.0), (4, 4.0)]);
        let mut s = ExecStats::new();
        let front = improve(&mut c, d, true, &mut s);
        // 1 improved (3 < 5), 2 ignored (9 > 2), 4 inserted
        assert_eq!(contents(&c), vec![(1, 3.0), (2, 2.0), (3, 1.0), (4, 4.0)]);
        let ids: Vec<i64> = front.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![1, 4]);
    }

    #[test]
    fn max_direction_flips_comparison() {
        let mut c = setup(&[(1, 5.0)]);
        let d = delta(&[(1, 3.0), (1, 8.0)]);
        let mut s = ExecStats::new();
        let front = improve(&mut c, d, false, &mut s);
        assert_eq!(contents(&c), vec![(1, 8.0)]);
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn duplicate_delta_keys_reduced_to_best() {
        let mut c = setup(&[(1, 5.0)]);
        let d = delta(&[(1, 4.0), (1, 2.0), (1, 3.0)]);
        let mut s = ExecStats::new();
        let front = improve(&mut c, d, true, &mut s);
        assert_eq!(contents(&c), vec![(1, 2.0)]);
        assert_eq!(front.len(), 1);
        assert_eq!(front.rows()[0][1].as_f64().unwrap(), 2.0);
    }

    #[test]
    fn empty_frontier_when_nothing_improves() {
        let mut c = setup(&[(1, 1.0), (2, 2.0)]);
        let d = delta(&[(1, 1.0), (2, 5.0)]);
        let mut s = ExecStats::new();
        let front = improve(&mut c, d, true, &mut s);
        assert!(front.is_empty(), "ties and regressions are not changes");
        assert_eq!(contents(&c), vec![(1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn one_index_serves_a_sequence_of_folds() {
        // the second fold must find the key the first one inserted, through
        // the pushed index entry alone
        let mut c = setup(&[(1, 5.0)]);
        let mut idx = KeyIndex::build(c.relation("V").unwrap(), &[0]);
        let mut s = ExecStats::new();
        for (d, changed) in [(&[(2, 7.0), (1, 4.0)][..], 2), (&[(2, 6.0), (3, 1.0)], 2)] {
            let front = ubu_merge_improve(&mut c, "V", delta(d), &mut idx, 1, true, &mut s);
            assert_eq!(front.unwrap().len(), changed);
        }
        assert_eq!(contents(&c), vec![(1, 4.0), (2, 6.0), (3, 1.0)]);
        let v = c.relation("V").unwrap();
        assert_eq!(idx.first_duplicate(v), None, "no key inserted twice");
        assert_eq!(s.ubu_changed_rows, 4);
    }
}
