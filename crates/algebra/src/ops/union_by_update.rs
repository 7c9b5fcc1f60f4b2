//! Union-by-update `R ⊎_A S` — the paper's genuinely new operation
//! (Section 4.1) — and its four physical implementations (Exp-1,
//! Tables 4 & 5).
//!
//! Semantics: tuples match on the `A` attributes. A matching `r ∈ R` is
//! *replaced* by its `s ∈ S`; unmatched `r` and unmatched `s` both survive.
//! Multiple `r` may match one `s`, but multiple `s` matching one `r` makes
//! the answer non-unique and is an error. With no key attributes the whole
//! relation is replaced (the "without attributes" form of Section 6).
//!
//! Implementations:
//! * [`UbuImpl::Merge`] — SQL `MERGE`: per-row in-place updates with full
//!   before/after WAL images plus the mandated duplicate check on the
//!   source (the cost that makes it the slowest in Tables 4/5).
//! * [`UbuImpl::FullOuterJoin`] — `SELECT coalesce(...) FROM R FULL OUTER
//!   JOIN S` materialized into the target ("essentially does join instead
//!   of real update").
//! * [`UbuImpl::DropAlter`] — build the new relation in a fresh table, then
//!   `DROP TABLE R; ALTER TABLE R_new RENAME TO R`.
//! * [`UbuImpl::UpdateFrom`] — PostgreSQL `UPDATE ... FROM`: in-place like
//!   merge, but "does not check and report duplicates in the source table".
//!
//! All four probe one [`KeyIndex`] over the delta's key columns, and each
//! reports what it changed as a by-product of that probe:
//! `ExecStats::ubu_changed_rows` grows by the rows inserted plus the rows
//! overwritten with a *different* row (storage equality), which is the
//! multiset difference new R − old R. The keyless form counts the delta
//! rows old R does not cover. The fixpoint loop reads its `C_i` off this
//! counter.
//!
//! Under `Optimizer::Rules` / `Cost` with batch execution the fixpoint loop
//! folds a one-key `FullOuterJoin` delta on columns instead, with the same
//! result and counts (`ops::ubu_replace_cols`, DESIGN §16).

use crate::error::{AlgebraError, Result};
use crate::profile::EngineProfile;
use crate::stats::ExecStats;
use aio_storage::{Catalog, KeyIndex, Mutation, Relation, Row, Value, WalPolicy};

/// Physical implementation of union-by-update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UbuImpl {
    Merge,
    FullOuterJoin,
    DropAlter,
    UpdateFrom,
}

impl UbuImpl {
    pub const ALL: [UbuImpl; 4] = [
        UbuImpl::Merge,
        UbuImpl::FullOuterJoin,
        UbuImpl::DropAlter,
        UbuImpl::UpdateFrom,
    ];

    pub fn name(self) -> &'static str {
        match self {
            UbuImpl::Merge => "merge",
            UbuImpl::FullOuterJoin => "full outer join",
            UbuImpl::DropAlter => "drop/alter",
            UbuImpl::UpdateFrom => "update from",
        }
    }

    /// Which of the paper's three systems support this spelling (Table 4:
    /// `update from` is PostgreSQL-only, `merge` is Oracle/DB2-only).
    pub fn supported_by(self, profile_name: &str) -> bool {
        match self {
            UbuImpl::UpdateFrom => profile_name.starts_with("postgres"),
            UbuImpl::Merge => !profile_name.starts_with("postgres"),
            _ => true,
        }
    }
}

/// Section 4.1's "we do not allow multiple s to match a single r": the
/// first delta row whose key an earlier one already holds is an
/// [`AlgebraError::NonUniqueUpdate`], raised before anything is mutated.
fn check_unique(delta: &Relation, idx: &KeyIndex, ctx: &str) -> Result<()> {
    match idx.first_duplicate(delta) {
        None => Ok(()),
        Some(i) => Err(AlgebraError::NonUniqueUpdate(format!(
            "{ctx}: duplicate key {:?}",
            key_values(&delta[i], idx.cols())
        ))),
    }
}

/// `row`'s key, for error messages.
pub(crate) fn key_values<'r>(row: &'r [Value], cols: &[usize]) -> Vec<&'r Value> {
    cols.iter().map(|&c| &row[c]).collect()
}

/// Apply `target ⊎_keys delta` in the catalog. `key_cols` indexes the
/// target/delta schema (they must have identical arity); `None` replaces the
/// relation wholesale. Adds to `stats.ubu_changed_rows` the rows the
/// application inserted or overwrote with a different row — exactly the
/// rows of the new R its old multiset does not cover.
pub fn union_by_update(
    catalog: &mut Catalog,
    target: &str,
    mut delta: Relation,
    key_cols: Option<&[usize]>,
    imp: UbuImpl,
    profile: &EngineProfile,
    stats: &mut ExecStats,
) -> Result<()> {
    stats.union_by_updates += 1;
    // testkit-armed off-by-one (no-op unless a harness test injected it)
    crate::fault::clip_delta(&mut delta);
    {
        let t = catalog.relation(target)?;
        if t.schema().arity() != delta.schema().arity() {
            return Err(AlgebraError::Plan(format!(
                "union-by-update arity mismatch: {} vs {}",
                t.schema().arity(),
                delta.schema().arity()
            )));
        }
    }

    let Some(keys) = key_cols else {
        // "Without attributes, it is to replace the previous recursive
        // relation R by the currently generated result as a whole."
        return replace_whole(catalog, target, delta, profile, stats);
    };

    // Delta rows by key, probed with each target row under storage
    // equality: unlike the SQL joins, NULL keys match here.
    let idx = KeyIndex::build(&delta, keys);
    match imp {
        UbuImpl::Merge | UbuImpl::UpdateFrom => {
            // MERGE checks that the source has no duplicate join keys and
            // errors otherwise; UPDATE ... FROM does not, and the last
            // duplicate-keyed delta row wins silently.
            let pick = |row: &[Value]| {
                let mut hits = idx.probe(&delta, row, keys);
                match imp {
                    UbuImpl::UpdateFrom => hits.last(),
                    _ => hits.next(),
                }
                .map(|di| di as usize)
            };
            if imp == UbuImpl::Merge {
                check_unique(&delta, &idx, "merge source")?;
            }
            // `matched[di]` marks delta rows whose key hit a target row
            // (under UPDATE ... FROM only last-wins winners are ever
            // marked; losers never update or insert).
            let mut matched = vec![false; delta.len()];
            let mut set: Vec<(usize, Row)> = Vec::new();
            let mut overwritten = 0u64;
            for (i, row) in catalog.relation(target)?.iter().enumerate() {
                if let Some(di) = pick(row) {
                    matched[di] = true;
                    overwritten += (*row != delta[di]) as u64;
                    set.push((i, delta[di].clone()));
                }
            }
            // The insert half is `INSERT ... WHERE key NOT IN (target)`, so
            // a delta row whose key matched any target row is not inserted —
            // and among duplicate-keyed delta rows, only the winner survives.
            let inserts: Vec<Row> = delta
                .rows()
                .iter()
                .enumerate()
                .filter(|(i, r)| !matched[*i] && pick(r) == Some(*i))
                .map(|(_, r)| r.clone())
                .collect();
            stats.rows_produced += (set.len() + inserts.len()) as u64;
            stats.ubu_changed_rows += overwritten + inserts.len() as u64;
            // Every profile logs an in-place update in full; MERGE its
            // inserts too, as one patch, UPDATE ... FROM per the profile,
            // in the same transaction. Empty halves write nothing.
            let table = target.to_string();
            if set.is_empty() && inserts.is_empty() {
                return Ok(());
            }
            if imp == UbuImpl::Merge {
                let append = inserts;
                catalog.apply(Mutation::Patch { table, set, append }, WalPolicy::Full)?;
                return Ok(());
            }
            let own_txn = !catalog.in_txn();
            if own_txn {
                catalog.wal_begin_txn();
            }
            let written = (|| -> Result<()> {
                if !set.is_empty() {
                    let append = Vec::new();
                    catalog.apply(Mutation::Patch { table, set, append }, WalPolicy::Full)?;
                }
                if !inserts.is_empty() {
                    catalog.insert_rows(target, inserts, profile.wal_temp)?;
                }
                Ok(())
            })();
            // commit on both paths: a rejected write left nothing behind
            if own_txn {
                catalog.wal_commit_txn()?;
            }
            written
        }
        UbuImpl::FullOuterJoin | UbuImpl::DropAlter => {
            check_unique(&delta, &idx, "union-by-update source")?;
            // coalesce(S.*, R.*) per key, plus S-only rows — one pass each.
            // The probe over the target runs in morsels; their hits
            // concatenate in morsel order, so the materialized relation is
            // identical at any parallelism.
            let par = profile.effective_parallelism();
            let t = catalog.relation(target)?;
            let (bufs, info) = crate::par::run_morsels(t.len(), par, |range| {
                let mut hits: Vec<Option<u32>> = Vec::with_capacity(range.len());
                let mut overwritten = 0u64;
                for row in t.rows().range(range) {
                    let hit = idx.probe(&delta, row, keys).next();
                    overwritten += hit.is_some_and(|di| *row != delta[di as usize]) as u64;
                    hits.push(hit);
                }
                Ok((hits, overwritten))
            })?;
            stats.note_parallel(&info);
            let overwritten: u64 = bufs.iter().map(|(_, n)| n).sum();
            let hits: Vec<Option<u32>> = bufs.into_iter().flat_map(|(hits, _)| hits).collect();
            // The delta's rows move into the result instead of being
            // copied: a row several target rows match goes to the last of
            // them and is copied for the others.
            let mut uses = vec![0u32; delta.len()];
            hits.iter().flatten().for_each(|&di| uses[di as usize] += 1);
            let unmatched: Vec<bool> = uses.iter().map(|&n| n == 0).collect();
            let mut delta = delta.into_rows();
            let mut new = Relation::new(t.schema().clone());
            new.extend(
                t.iter()
                    .zip(hits)
                    .map(|(row, hit)| match hit.map(|di| di as usize) {
                        None => row.clone(),
                        Some(di) if uses[di] > 1 => {
                            uses[di] -= 1;
                            delta[di].clone()
                        }
                        Some(di) => std::mem::take(&mut delta[di]),
                    }),
            )?;
            let inserts = delta.into_iter().zip(unmatched).filter(|(_, u)| *u);
            let len = new.len();
            new.extend(inserts.map(|(row, _)| row))?;
            let inserted = (new.len() - len) as u64;
            stats.rows_produced += new.len() as u64;
            stats.ubu_changed_rows += overwritten + inserted;
            if imp == UbuImpl::DropAlter {
                // materialize into a brand-new table, drop, rename
                let entry = catalog.entry(target)?;
                let temp = entry.temp;
                let mut fresh = Relation::new(entry.rel.schema().clone());
                fresh.set_pk(entry.rel.pk().map(|p| p.to_vec()));
                let staging = format!("{target}__ubu_new");
                catalog.create_or_replace(&staging, fresh, temp)?;
                catalog.insert_rows(&staging, new.into_rows(), profile.wal_temp)?;
                catalog.drop_table(target)?;
                catalog.rename_table(&staging, target)?;
            } else {
                let table = target.to_string();
                catalog.apply(Mutation::ReplaceRows { table, rel: new }, profile.wal_temp)?;
            }
            Ok(())
        }
    }
}

fn replace_whole(
    catalog: &mut Catalog,
    target: &str,
    delta: Relation,
    profile: &EngineProfile,
    stats: &mut ExecStats,
) -> Result<()> {
    stats.rows_produced += delta.len() as u64;
    stats.ubu_changed_rows += delta.uncovered(catalog.relation(target)?).count() as u64;
    let table = target.to_string();
    catalog.apply(
        Mutation::ReplaceRows { table, rel: delta },
        profile.wal_temp,
    )?;
    Ok(())
}
