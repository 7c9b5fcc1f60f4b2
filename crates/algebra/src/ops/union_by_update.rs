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

use crate::error::{AlgebraError, Result};
use crate::profile::EngineProfile;
use crate::stats::ExecStats;
use aio_storage::{Catalog, KeyIndex, Relation, Row, Value, WalPolicy};

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
            let wal_update = profile.wal_update;
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
            // Split borrow: take rows out, mutate, put back, then log.
            let mut updates: Vec<(Row, Row)> = Vec::new();
            let mut overwritten = 0u64;
            {
                let t = catalog.relation_mut(target)?;
                for row in t.iter_mut() {
                    if let Some(di) = pick(row) {
                        matched[di] = true;
                        overwritten += (*row != delta[di]) as u64;
                        let before = row.clone();
                        *row = delta[di].clone();
                        updates.push((before, row.clone()));
                    }
                }
            }
            for (before, after) in &updates {
                catalog.wal.log_update(wal_update, before, after);
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
            stats.rows_produced += (updates.len() + inserts.len()) as u64;
            stats.ubu_changed_rows += overwritten + inserts.len() as u64;
            let policy = if imp == UbuImpl::Merge {
                WalPolicy::Full
            } else {
                profile.wal_temp
            };
            catalog.insert_rows(target, inserts, policy)?;
            Ok(())
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
            new.set_pk(t.pk().map(|p| p.to_vec()));
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
                catalog.wal.log_insert(profile.wal_temp, new.rows());
                *catalog.relation_mut(target)? = new;
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
    catalog.wal.log_insert(profile.wal_temp, delta.rows());
    let t = catalog.relation_mut(target)?;
    let mut delta = delta.with_schema(t.schema().clone());
    delta.set_pk(t.pk().map(|p| p.to_vec()));
    *t = delta;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::oracle_like;
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
    fn all_impls_produce_identical_content() {
        let expected = vec![(1, 10.0), (2, 2.0), (3, 30.0), (9, 90.0)];
        for imp in UbuImpl::ALL {
            let mut c = setup(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
            let d = delta(&[(1, 10.0), (3, 30.0), (9, 90.0)]);
            let mut s = ExecStats::new();
            union_by_update(&mut c, "V", d, Some(&[0]), imp, &oracle_like(), &mut s).unwrap();
            assert_eq!(contents(&c), expected, "{}", imp.name());
            assert_eq!(s.union_by_updates, 1);
            // 1 and 3 overwritten, 9 inserted, 2 untouched
            assert_eq!(s.ubu_changed_rows, 3, "{}", imp.name());
        }
    }

    #[test]
    fn result_contains_every_delta_tuple() {
        // the independence property of Section 4.1: R ⊎ S ⊇ S (on keys)
        let mut c = setup(&[(1, 1.0)]);
        let d = delta(&[(1, 5.0), (2, 6.0)]);
        let mut s = ExecStats::new();
        union_by_update(
            &mut c,
            "V",
            d,
            Some(&[0]),
            UbuImpl::FullOuterJoin,
            &oracle_like(),
            &mut s,
        )
        .unwrap();
        assert_eq!(contents(&c), vec![(1, 5.0), (2, 6.0)]);
    }

    #[test]
    fn duplicate_source_keys_rejected_by_merge_and_foj() {
        for imp in [UbuImpl::Merge, UbuImpl::FullOuterJoin, UbuImpl::DropAlter] {
            let mut c = setup(&[(1, 1.0)]);
            let d = delta(&[(1, 5.0), (1, 6.0)]);
            let mut s = ExecStats::new();
            let err = union_by_update(&mut c, "V", d, Some(&[0]), imp, &oracle_like(), &mut s)
                .unwrap_err();
            assert!(
                matches!(err, AlgebraError::NonUniqueUpdate(_)),
                "{}",
                imp.name()
            );
        }
    }

    #[test]
    fn update_from_silently_takes_last_duplicate() {
        let mut c = setup(&[(1, 1.0)]);
        let d = delta(&[(1, 5.0), (1, 6.0)]);
        let mut s = ExecStats::new();
        union_by_update(
            &mut c,
            "V",
            d,
            Some(&[0]),
            UbuImpl::UpdateFrom,
            &crate::profile::postgres_like(false),
            &mut s,
        )
        .unwrap();
        assert_eq!(contents(&c), vec![(1, 6.0)]);
    }

    #[test]
    fn multiple_target_rows_may_match_one_source() {
        // keys here are non-unique in the target: both rows update, under
        // every implementation
        for imp in UbuImpl::ALL {
            let mut c = Catalog::new();
            let mut r = Relation::new(node_schema());
            r.extend([row![1, 1.0], row![1, 2.0], row![2, 2.0], row![1, 3.0]])
                .unwrap();
            c.create_temp("V", r).unwrap();
            let d = delta(&[(1, 9.0), (5, 5.0)]);
            let mut s = ExecStats::new();
            union_by_update(&mut c, "V", d, Some(&[0]), imp, &oracle_like(), &mut s).unwrap();
            let want = vec![(1, 9.0), (1, 9.0), (1, 9.0), (2, 2.0), (5, 5.0)];
            assert_eq!(contents(&c), want, "{}", imp.name());
            assert_eq!(s.ubu_changed_rows, 4, "{}", imp.name());
        }
    }

    #[test]
    fn no_keys_replaces_wholesale() {
        let mut c = setup(&[(1, 1.0), (2, 2.0)]);
        let d = delta(&[(7, 7.0)]);
        let mut s = ExecStats::new();
        union_by_update(
            &mut c,
            "V",
            d,
            None,
            UbuImpl::FullOuterJoin,
            &oracle_like(),
            &mut s,
        )
        .unwrap();
        assert_eq!(contents(&c), vec![(7, 7.0)]);
    }

    #[test]
    fn drop_alter_preserves_table_identity() {
        let mut c = setup(&[(1, 1.0)]);
        let d = delta(&[(1, 2.0)]);
        let mut s = ExecStats::new();
        union_by_update(
            &mut c,
            "V",
            d,
            Some(&[0]),
            UbuImpl::DropAlter,
            &oracle_like(),
            &mut s,
        )
        .unwrap();
        assert!(c.contains("V"));
        assert!(!c.contains("V__ubu_new"));
        assert_eq!(contents(&c), vec![(1, 2.0)]);
        // pk declaration survives the swap
        assert_eq!(c.relation("V").unwrap().pk(), Some(&[0usize][..]));
    }

    #[test]
    fn merge_logs_full_images() {
        let mut c = setup(&[(1, 1.0)]);
        let d = delta(&[(1, 2.0)]);
        let mut s = ExecStats::new();
        let db2 = crate::profile::db2_like();
        union_by_update(&mut c, "V", d, Some(&[0]), UbuImpl::Merge, &db2, &mut s).unwrap();
        assert!(c.wal.bytes_written() > 0, "merge writes update images");
    }

    #[test]
    fn idempotent_when_delta_equals_target() {
        let rows = [(1, 1.0), (2, 2.0)];
        let mut c = setup(&rows);
        let d = delta(&rows);
        let mut s = ExecStats::new();
        union_by_update(
            &mut c,
            "V",
            d,
            Some(&[0]),
            UbuImpl::FullOuterJoin,
            &oracle_like(),
            &mut s,
        )
        .unwrap();
        assert_eq!(contents(&c), rows.to_vec());
        assert_eq!(s.ubu_changed_rows, 0, "equal rows are not changes");
    }

    #[test]
    fn parallel_probe_is_row_identical_to_serial() {
        for imp in [UbuImpl::FullOuterJoin, UbuImpl::DropAlter] {
            let run = |par: usize| {
                let mut c = Catalog::new();
                let mut r = Relation::new(node_schema());
                for i in 0..10_000i64 {
                    r.push(row![i, i as f64]).unwrap();
                }
                c.create_temp("V", r).unwrap();
                let mut d = Relation::new(node_schema());
                for i in (0..10_000i64).step_by(3) {
                    d.push(row![i, -(i as f64)]).unwrap();
                }
                let mut s = ExecStats::new();
                let p = oracle_like().with_parallelism(par);
                union_by_update(&mut c, "V", d, Some(&[0]), imp, &p, &mut s).unwrap();
                let rows = c.relation("V").unwrap().rows().to_vec();
                (rows, s.parallel_ops, s.ubu_changed_rows)
            };
            let (serial, pops, changed) = run(1);
            assert_eq!(pops, 0, "{}", imp.name());
            // every third row overwritten, except 0 (-0.0 == 0.0)
            assert_eq!(changed, 3_333, "{}", imp.name());
            for par in [2, 8] {
                assert_eq!(
                    run(par),
                    (serial.clone(), 1, changed),
                    "{} par={par}",
                    imp.name()
                );
            }
        }
    }

    #[test]
    fn support_matrix_matches_table4() {
        assert!(UbuImpl::Merge.supported_by("oracle_like"));
        assert!(!UbuImpl::Merge.supported_by("postgres_like"));
        assert!(UbuImpl::UpdateFrom.supported_by("postgres_like+idx"));
        assert!(!UbuImpl::UpdateFrom.supported_by("db2_like"));
        assert!(UbuImpl::FullOuterJoin.supported_by("oracle_like"));
        assert!(UbuImpl::DropAlter.supported_by("postgres_like"));
    }
}
