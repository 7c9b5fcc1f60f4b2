//! Keyed merges of a fixpoint's delta into R: improve-only — the IVM
//! refresh kernel for monotone union-by-update fixpoints (WCC/SSSP-class)
//! — and, on columns, union-by-update's own replace.
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
//!
//! The same column fold under the rule "take the delta's row" is the
//! full-width replace of a PageRank- or WCC-shaped fixpoint under the
//! batch executor ([`ubu_replace_cols`]): it compares the step's lanes with
//! R's columnar image, writes the ones that differ into R's rows in place
//! and into a copy of the image, and installs that image, so R's next scan
//! transposes nothing — the fixpoint's state stays on columns between
//! iterations.

use crate::error::{AlgebraError, Result};
use crate::stats::ExecStats;
use aio_storage::{
    direct_span, Batch, Catalog, ColumnVec, KeyGroups, KeyIndex, Relation, Row, Value,
    DIRECT_SPAN_FACTOR,
};
use std::cmp::Ordering;
use std::sync::Arc;

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
/// `DIRECT_SPAN_FACTOR` × the rows, the one rule ([`direct_span`]) — sits
/// in a slot array, key `k` at `pos[k − lo]`; any other key in a [`KeyIndex`].
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
/// reduced first to the best row per key. It writes one patch
/// ([`Catalog::patch_lanes`] of columns, [`Catalog::patch_rows`] of rows):
/// rows keep their positions, and a durable catalog logs only the rows
/// this call changed.
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
    let (rows, front) = match delta {
        Delta::Cols(b) => match keyed(&b, lookup.cols()).filter(|_| typed(b.col(value_col))) {
            Some(keys) => {
                let value = b.col(value_col);
                let picked = pick(t, keys, lookup, |i, ti| {
                    better(&value.value(i), &t[ti][value_col], wins)
                });
                let front = b.gather(&picked.iter().map(|p| p.0).collect::<Vec<_>>());
                patch_lanes(catalog, target, &b, &picked, lookup)?;
                (
                    (0..front.len()).map(|j| front.row(j)).collect(),
                    Some(front),
                )
            }
            None => {
                let changes = row_changes(t, b.to_relation(), lookup, value_col, wins);
                (patch(catalog, target, changes, lookup)?, None)
            }
        },
        Delta::Rows(r) => {
            let changes = row_changes(t, r, lookup, value_col, wins);
            (patch(catalog, target, changes, lookup)?, None)
        }
    };
    let mut frontier = Relation::new(schema);
    frontier.extend(rows)?;
    stats.rows_produced += frontier.len() as u64;
    stats.ubu_changed_rows += frontier.len() as u64;
    Ok((frontier, front))
}

/// What [`ubu_replace_cols`] did with a step's columns.
#[derive(Debug, PartialEq)]
pub enum Replaced {
    /// Folded them. `moved` is the largest numeric move of a kept key's
    /// columns, or `None` when a key was inserted or a value moved to or
    /// from NaN: a change epsilon stopping must not swallow.
    Folded { moved: Option<f64> },
    /// Left them alone: the row path
    /// ([`union_by_update`](super::union_by_update())) folds them instead.
    Declined,
}

/// Union-by-update's replace by key (§4.1) of a step's result as it left
/// the evaluator: the improve fold's column path under the rule "take the
/// delta's row". Declines unless `delta`'s key is one `Int` column,
/// strictly ascending and NULL-free (so repeated keys take the row path,
/// which rejects them), and every column of `delta` and of R's columnar
/// image is NULL-free `Int` or `Float`, the same type in both. `lookup` is
/// the caller's lookup over `target`'s key columns `keys`, built here on
/// first use; R's repeated keys decline. A lane whose bits differ from R's
/// row of its key overwrites that row, so R receives the delta's exact
/// bits; a new key appends, and `lookup` takes it in. Counts what the
/// full-outer-join implementation counts: `rows_produced` is the new |R|,
/// and `ubu_changed_rows` the inserts plus the overwrites that differ under
/// storage equality (−0.0 = 0.0, NaN = NaN). R's rows take the lanes value
/// by value in one patch ([`Catalog::patch_lanes`]), which boxes only a new
/// key's row; the lanes also go into a copy-on-write of R's image, which
/// is installed as its image again ([`Catalog::install_image`]), so R's
/// next scan transposes nothing.
pub fn ubu_replace_cols(
    catalog: &mut Catalog,
    target: &str,
    delta: &Batch,
    keys: &[usize],
    lookup: &mut Option<KeyLookup>,
    stats: &mut ExecStats,
) -> Result<Replaced> {
    let image = catalog.columnar(target)?;
    let t = catalog.relation(target)?;
    let pairs = (image.columns().iter().zip(delta.columns()))
        .map(|(r, d)| Lanes::of(r, d))
        .collect::<Option<Vec<_>>>()
        .filter(|_| image.columns().len() == delta.columns().len());
    let delta_keys = keyed(delta, keys).filter(|_| pairs.is_some());
    if delta_keys.is_some() && lookup.is_none() {
        *lookup = KeyLookup::build(t, keys).ok();
    }
    let (Some(delta_keys), Some(pairs), Some(lookup)) = (delta_keys, pairs, lookup.as_mut()) else {
        return Ok(Replaced::Declined);
    };
    stats.union_by_updates += 1;
    let (mut changed, mut moved) = (0u64, Some(0.0f64));
    let picked = pick(t, delta_keys, lookup, |i, ti| {
        let (mut takes, mut differs) = (false, false);
        for col in &pairs {
            let (bits, storage) = col.differ(i, ti, &mut moved);
            (takes, differs) = (takes | bits, differs | storage);
        }
        changed += differs as u64;
        takes
    });
    let inserted = picked.iter().filter(|p| p.1.is_none()).count();
    if inserted > 0 {
        moved = None;
    }
    let len = t.len() + inserted;
    stats.rows_produced += len as u64;
    stats.ubu_changed_rows += changed + inserted as u64;
    if picked.is_empty() {
        return Ok(Replaced::Folded { moved });
    }
    let (schema, mut cols) = (image.schema().clone(), image.columns().to_vec());
    drop(image);
    // the patch drops R's image, so its columns are this fold's alone
    // unless a reader still holds them: then they are copied
    patch_lanes(catalog, target, delta, &picked, lookup)?;
    for (col, src) in cols.iter_mut().zip(delta.columns()) {
        match (Arc::make_mut(col), &**src) {
            (ColumnVec::Int { vals, .. }, ColumnVec::Int { vals: src, .. }) => {
                write_lanes(vals, src, &picked)
            }
            (ColumnVec::Float { vals, .. }, ColumnVec::Float { vals: src, .. }) => {
                write_lanes(vals, src, &picked)
            }
            _ => unreachable!("checked: one NULL-free type per column"),
        }
    }
    catalog.install_image(target, Batch::from_columns(schema, cols, len))?;
    Ok(Replaced::Folded { moved })
}

/// Does `new` beat `old` for its key? `wins` is the order it must have.
fn better(new: &Value, old: &Value, wins: Ordering) -> bool {
    new.cmp(old) == wins
}

/// One column of R's image beside the same column of a delta, both
/// NULL-free and of one type: what the replace rule compares.
enum Lanes<'a> {
    Int(&'a [i64], &'a [i64]),
    Float(&'a [f64], &'a [f64]),
}

impl<'a> Lanes<'a> {
    fn of(r: &'a ColumnVec, d: &'a ColumnVec) -> Option<Lanes<'a>> {
        match (r, d) {
            (ColumnVec::Int { vals: r, nulls: rn }, ColumnVec::Int { vals: d, nulls: dn })
                if !rn.any() && !dn.any() =>
            {
                Some(Lanes::Int(r, d))
            }
            (ColumnVec::Float { vals: r, nulls: rn }, ColumnVec::Float { vals: d, nulls: dn })
                if !rn.any() && !dn.any() =>
            {
                Some(Lanes::Float(r, d))
            }
            _ => None,
        }
    }

    /// Do lane `i` of the delta and row `ti` of R differ by their bits, and
    /// under storage equality (where −0.0 = 0.0 and NaN = NaN)? A storage
    /// difference folds its size into `moved`; a move to or from NaN has
    /// none and makes it `None`.
    fn differ(&self, i: usize, ti: usize, moved: &mut Option<f64>) -> (bool, bool) {
        let (bits, storage, by) = match *self {
            Lanes::Int(r, d) => (r[ti] != d[i], r[ti] != d[i], r[ti] as f64 - d[i] as f64),
            Lanes::Float(r, d) => {
                let (a, b) = (r[ti], d[i]);
                let same = a == b || (a.is_nan() && b.is_nan());
                (a.to_bits() != b.to_bits(), !same, a - b)
            }
        };
        if storage {
            *moved = moved.filter(|_| !by.is_nan()).map(|m| m.max(by.abs()));
        }
        (bits, storage)
    }
}

/// A change to the target: a row, and the row it overwrites (`None`:
/// inserted).
type Change = (Row, Option<usize>);

/// A lane picked from a delta read as columns, and R's row it overwrites
/// (`None`: inserted).
type Picked = (u32, Option<usize>);

/// Is `col` NULL-free `Int` or `Float`?
fn typed(col: &ColumnVec) -> bool {
    match col {
        ColumnVec::Int { nulls, .. } | ColumnVec::Float { nulls, .. } => !nulls.any(),
        ColumnVec::Mixed(_) => false,
    }
}

/// The delta's key column when a fold can read `delta` as columns: the
/// lookup's one key column `keys`, NULL-free `Int` and strictly ascending
/// — one row per key, first appearance in key order.
fn keyed<'b>(delta: &'b Batch, keys: &[usize]) -> Option<&'b [i64]> {
    let &[k] = keys else {
        return None;
    };
    let ColumnVec::Int { vals, nulls } = delta.col(k) else {
        return None;
    };
    (!nulls.any() && vals.windows(2).all(|w| w[0] < w[1])).then_some(vals)
}

/// The lanes of a delta read as columns (`keys` from [`keyed`]) that
/// change `t`, in key order: each new key, and each kept key whose row
/// `takes(lane, row)` says the rule overwrites.
fn pick(
    t: &Relation,
    keys: &[i64],
    lookup: &KeyLookup,
    mut takes: impl FnMut(usize, usize) -> bool,
) -> Vec<Picked> {
    let mut picked = Vec::with_capacity(keys.len());
    for (i, &k) in keys.iter().enumerate() {
        match lookup.row_of_int(t, k) {
            Some(ti) if !takes(i, ti) => {}
            pos => picked.push((i as u32, pos)),
        }
    }
    picked
}

/// Write the picked lanes of `src` into `vals`, the same column of R: in
/// place, or appended for a new key.
fn write_lanes<T: Copy>(vals: &mut Vec<T>, src: &[T], picked: &[Picked]) {
    for &(i, pos) in picked {
        match pos {
            Some(ti) => vals[ti] = src[i as usize],
            None => vals.push(src[i as usize]),
        }
    }
}

/// Write `changes` into `target` in place and log just those rows: an
/// overwrite keeps its row's position, an insert appends, and `lookup`
/// takes in the appended rows. Only a fold that changes something touches
/// (and invalidates) R. Returns the rows written.
fn patch(
    catalog: &mut Catalog,
    target: &str,
    changes: Vec<Change>,
    lookup: &mut KeyLookup,
) -> Result<Vec<Row>> {
    let rows = changes.iter().map(|c| c.0.clone()).collect();
    if !changes.is_empty() {
        let (mut set, mut append) = (Vec::new(), Vec::new());
        for (row, pos) in changes {
            match pos {
                Some(ti) => set.push((ti, row)),
                None => append.push(row),
            }
        }
        let kept = catalog.relation(target)?.len();
        catalog.patch_rows(target, set, append)?;
        lookup.extend(catalog.relation(target)?, kept);
    }
    Ok(rows)
}

/// [`patch`] of the `picked` lanes of `delta`: an overwrite writes its lane
/// into the row in place ([`Catalog::patch_lanes`]), so only a new key's
/// row is boxed.
fn patch_lanes(
    catalog: &mut Catalog,
    target: &str,
    delta: &Batch,
    picked: &[Picked],
    lookup: &mut KeyLookup,
) -> Result<()> {
    if picked.is_empty() {
        return Ok(());
    }
    let (mut set, mut append) = (Vec::with_capacity(picked.len()), Vec::new());
    for &(i, pos) in picked {
        match pos {
            Some(ti) => set.push((ti, i)),
            None => append.push(delta.row(i as usize)),
        }
    }
    let kept = catalog.relation(target)?.len();
    catalog.patch_lanes(target, delta.clone(), set, append)?;
    lookup.extend(catalog.relation(target)?, kept);
    Ok(())
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
