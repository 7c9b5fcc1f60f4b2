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
//! a [`KeyLookup`] over the target, which the caller holds for its whole
//! loop, gives the row each delta key would improve, so a fold costs
//! O(|delta|), not O(|target|). A recursive step's result is read as the
//! columns it left the evaluator in; only a seed's rows, whose keys may
//! repeat, are first reduced to their best row per key ([`KeyGroups`]).

use crate::batch::{direct_span, DIRECT_SPAN_FACTOR};
use crate::error::{AlgebraError, Result};
use crate::stats::ExecStats;
use aio_storage::{Batch, Catalog, ColumnVec, KeyGroups, KeyIndex, Relation, Row, Value};
use std::cmp::Ordering;

/// What an improve fold reads.
pub enum Delta {
    /// Rows whose keys may repeat — a refresh's seed.
    Rows(Relation),
    /// A recursive step's result as it left the evaluator.
    Cols(Batch),
}

/// A slot without a row.
const NO_ROW: u32 = u32::MAX;

/// R's row of each key, for the improve fold, which holds one across a
/// loop (and a view across its `frontier` refreshes, DESIGN §19) and grows
/// it as R appends. A key of one `Int` column whose span is dense — at most
/// `DIRECT_SPAN_FACTOR` × the rows, the batch hash join's rule — sits in a
/// slot array, key `k` at `pos[k − lo]`; any other key in a [`KeyIndex`].
pub struct KeyLookup(Lookup);

enum Lookup {
    Slots { col: usize, lo: i64, pos: Vec<u32> },
    Index(KeyIndex),
}

impl KeyLookup {
    /// The lookup over `rel`'s key columns `keys`, or `Err(i)` when row `i`
    /// is the first to repeat an earlier row's key.
    pub fn build(rel: &Relation, keys: &[usize]) -> std::result::Result<KeyLookup, usize> {
        let ints: Option<Vec<i64>> = match keys {
            [col] => rel.iter().map(|r| r[*col].as_int()).collect(),
            _ => None,
        };
        let dense = ints.and_then(|ks| Some((direct_span(ks.iter().copied(), ks.len())?, ks)));
        let Some(((lo, span), ks)) = dense else {
            let index = KeyIndex::build(rel, keys);
            return index
                .first_duplicate(rel)
                .map_or(Ok(KeyLookup(Lookup::Index(index))), Err);
        };
        let mut pos = vec![NO_ROW; span];
        for (i, k) in ks.into_iter().enumerate() {
            match &mut pos[k.wrapping_sub(lo) as usize] {
                slot if *slot != NO_ROW => return Err(i),
                slot => *slot = i as u32,
            }
        }
        Ok(KeyLookup(Lookup::Slots {
            col: keys[0],
            lo,
            pos,
        }))
    }

    /// The key columns.
    pub fn cols(&self) -> &[usize] {
        match &self.0 {
            Lookup::Slots { col, .. } => std::slice::from_ref(col),
            Lookup::Index(index) => index.cols(),
        }
    }

    /// The row of `rel` — the relation the lookup is over — whose key
    /// equals `row[probe_cols]` under storage equality.
    pub fn row_of(&self, rel: &Relation, row: &[Value], probe_cols: &[usize]) -> Option<usize> {
        match (&self.0, &row[probe_cols[0]]) {
            (Lookup::Index(index), _) => {
                index.probe(rel, row, probe_cols).next().map(|i| i as usize)
            }
            (Lookup::Slots { .. }, Value::Int(k)) => self.row_of_int(rel, *k),
            // only `Int`s hold slots
            (Lookup::Slots { .. }, _) => None,
        }
    }

    /// The row holding the `Int` key `k`, for a lookup on one column.
    fn row_of_int(&self, rel: &Relation, k: i64) -> Option<usize> {
        match &self.0 {
            Lookup::Slots { lo, pos, .. } => {
                let p = *pos.get(k.wrapping_sub(*lo) as usize)?;
                (p != NO_ROW).then_some(p as usize)
            }
            Lookup::Index(index) => {
                let probe = [Value::Int(k)];
                let row = index.probe(rel, &probe, &[0]).next();
                row.map(|i| i as usize)
            }
        }
    }

    /// Take in the rows `from..` of `rel`, appended since the lookup last
    /// saw it. A slot array grows up to keys that keep its span dense; any
    /// other key rebuilds the lookup over all of `rel`.
    pub fn extend(&mut self, rel: &Relation, from: usize) {
        let added = rel.rows().range(from..rel.len());
        for (i, row) in added.iter().enumerate() {
            let id = (from + i) as u32;
            match &mut self.0 {
                Lookup::Index(index) => index.push(row, id),
                Lookup::Slots { col, lo, pos } => {
                    let slot = row[*col].as_int().map(|k| k.wrapping_sub(*lo) as u64);
                    match slot.filter(|&s| s < (DIRECT_SPAN_FACTOR * rel.len()) as u64) {
                        Some(s) if s as usize >= pos.len() => {
                            pos.resize(s as usize + 1, NO_ROW);
                            pos[s as usize] = id;
                        }
                        Some(s) => pos[s as usize] = id,
                        None => {
                            let rebuilt = KeyLookup::build(rel, &[*col]);
                            *self = rebuilt.expect("an improve fold appends only new keys");
                            return;
                        }
                    }
                }
            }
        }
    }
}

/// Merge `delta` into `target` keyed on `lookup`'s key columns, keeping per
/// key the better of (existing, incoming) under `value_col` in `Value`'s
/// order — smaller wins when `min`, larger when `max`; NaN is above every
/// number and the two zeros tie. Unmatched delta keys insert. `lookup` is
/// the caller's [`KeyLookup`] over `target`; the rows this call inserts go
/// into it, so it stays valid for the next call. Returns the rows that
/// actually changed the target (inserted or improved) — the next frontier
/// — one per key, in first-appearance key order, and adds their number to
/// `stats.ubu_changed_rows`. When `delta` is columns whose key is the
/// lookup's one `Int` column, ascending without repeats or NULLs, and whose
/// value column is NULL-free `Int` or `Float`, the fold reads them in place
/// and also returns the frontier as columns; otherwise it reads rows,
/// reduced first to the best row per key. It writes through
/// [`Catalog::patch_rows`]: rows keep their positions, and a durable
/// catalog logs only the rows this call changed.
pub fn ubu_merge_improve(
    catalog: &mut Catalog,
    target: &str,
    delta: Delta,
    lookup: &mut KeyLookup,
    value_col: usize,
    min: bool,
    stats: &mut ExecStats,
) -> Result<(Relation, Option<Batch>)> {
    stats.union_by_updates += 1;
    let t = catalog.relation(target)?;
    let schema = match &delta {
        Delta::Rows(r) => r.schema().clone(),
        Delta::Cols(b) => b.schema().clone(),
    };
    if t.schema().arity() != schema.arity() {
        return Err(AlgebraError::Plan(format!(
            "merge-improve arity mismatch: {} vs {}",
            t.schema().arity(),
            schema.arity()
        )));
    }
    let wins = if min {
        Ordering::Less
    } else {
        Ordering::Greater
    };
    let (changes, front) = match delta {
        Delta::Cols(b) => match keyed(&b, lookup.cols(), value_col) {
            Some(keys) => {
                let (changes, front) = col_changes(t, &b, keys, lookup, value_col, wins);
                (changes, Some(front))
            }
            None => (
                row_changes(t, b.to_relation(), lookup, value_col, wins),
                None,
            ),
        },
        Delta::Rows(r) => (row_changes(t, r, lookup, value_col, wins), None),
    };

    let mut frontier = Relation::new(schema);
    if !changes.is_empty() {
        // only a fold that changes something touches (and invalidates) R;
        // it overwrites and appends in place and logs just those rows
        let (mut set, mut append) = (Vec::new(), Vec::new());
        let mut rows = Vec::with_capacity(changes.len());
        for (row, pos) in changes {
            rows.push(row.clone());
            match pos {
                Some(ti) => set.push((ti, row)),
                None => append.push(row),
            }
        }
        frontier.extend(rows)?;
        let kept = catalog.relation(target)?.len();
        catalog.patch_rows(target, set, append)?;
        lookup.extend(catalog.relation(target)?, kept);
    }
    stats.rows_produced += frontier.len() as u64;
    stats.ubu_changed_rows += frontier.len() as u64;
    Ok((frontier, front))
}

/// Does `new` beat `old` for its key? `wins` is the order it must have.
fn better(new: &Value, old: &Value, wins: Ordering) -> bool {
    new.cmp(old) == wins
}

/// A change to the target: a row, and the row it overwrites (`None`:
/// inserted).
type Change = (Row, Option<usize>);

/// The delta's key column when the fold can read `delta` as columns: the
/// lookup's one key column `keys`, NULL-free `Int` and strictly ascending —
/// one row per key, first appearance in key order — beside a NULL-free
/// `Int` or `Float` value column.
fn keyed<'b>(delta: &'b Batch, keys: &[usize], value_col: usize) -> Option<&'b [i64]> {
    let &[k] = keys else {
        return None;
    };
    let ColumnVec::Int { vals, nulls } = delta.col(k) else {
        return None;
    };
    let typed = match delta.col(value_col) {
        ColumnVec::Int { nulls, .. } | ColumnVec::Float { nulls, .. } => !nulls.any(),
        ColumnVec::Mixed(_) => false,
    };
    (typed && !nulls.any() && vals.windows(2).all(|w| w[0] < w[1])).then_some(vals)
}

/// The changes of a delta read as columns (`keys` from [`keyed`]), in key
/// order, and the changed rows as columns. Boxes only the changed rows.
fn col_changes(
    t: &Relation,
    delta: &Batch,
    keys: &[i64],
    lookup: &KeyLookup,
    value_col: usize,
    wins: Ordering,
) -> (Vec<Change>, Batch) {
    let value = delta.col(value_col);
    let mut picked: Vec<(u32, Option<usize>)> = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        match lookup.row_of_int(t, k) {
            Some(ti) if !better(&value.value(i), &t[ti][value_col], wins) => {}
            pos => picked.push((i as u32, pos)),
        }
    }
    let front = delta.gather(&picked.iter().map(|p| p.0).collect::<Vec<_>>());
    let row = |j: usize| front.columns().iter().map(|c| c.value(j)).collect();
    let changes = (picked.iter().enumerate())
        .map(|(j, p)| (row(j), p.1))
        .collect();
    (changes, front)
}

/// The changes of a delta read as rows: first its best row per key, keys
/// in the order they first appear, so the frontier does not depend on how
/// derivations were enumerated.
fn row_changes(
    t: &Relation,
    delta: Relation,
    lookup: &KeyLookup,
    value_col: usize,
    wins: Ordering,
) -> Vec<Change> {
    let keys = lookup.cols();
    let mut groups = KeyGroups::new(keys);
    let mut best: Vec<usize> = Vec::new();
    for (i, row) in delta.rows().iter().enumerate() {
        match groups.assign(row) {
            (_, true) => best.push(i),
            (g, false) => {
                let g = g as usize;
                if better(&row[value_col], &delta[best[g]][value_col], wins) {
                    best[g] = i;
                }
            }
        }
    }
    let mut changes = Vec::new();
    for di in best {
        let row = &delta[di];
        match lookup.row_of(t, row, keys) {
            Some(ti) if !better(&row[value_col], &t[ti][value_col], wins) => {}
            pos => changes.push((di, pos)),
        }
    }
    drop(groups);
    let mut rows = delta.into_rows();
    (changes.into_iter())
        .map(|(di, pos)| (std::mem::take(&mut rows[di]), pos))
        .collect()
}
