//! Anti-join `R ⊼ S` and its three SQL implementations (Section 6, Exp-1).
//!
//! The paper defines the anti-join as the complement of the semi-join:
//! `R ⊼ S = R − (R ⋉ S)`, and tests three SQL spellings — `not exists`,
//! `left outer join ... is null`, and `not in` (Tables 6 & 7). The first two
//! are logically equivalent; `not in` has different NULL semantics ("their
//! logics are not equivalent so that RDBMSs generate different query
//! plans"), which we reproduce faithfully:
//!
//! * `x NOT IN (S)` is *false-or-unknown* whenever `S` contains a NULL, so a
//!   single NULL on the inner side empties the result (null-aware
//!   anti-join, NAAJ);
//! * a NULL probe key is unknown → filtered by `not in`, but *kept* by
//!   `not exists` / `left outer join` (no match → true).

use crate::error::Result;
use crate::ops::basic;
use crate::ops::join::{join_par, JoinKeys, JoinOrders, JoinType};
use crate::profile::JoinStrategy;
use crate::stats::ExecStats;
use aio_storage::{key_has_null, KeyIndex, Relation, Row};

/// The SQL spelling used for an anti-join.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AntiJoinImpl {
    /// `WHERE NOT EXISTS (SELECT 1 FROM S WHERE S.k = R.k)`
    NotExists,
    /// `R LEFT OUTER JOIN S ON R.k = S.k WHERE S.k IS NULL`
    LeftOuterNull,
    /// `WHERE R.k NOT IN (SELECT k FROM S)` — null-aware.
    NotIn,
}

impl AntiJoinImpl {
    pub const ALL: [AntiJoinImpl; 3] = [
        AntiJoinImpl::NotExists,
        AntiJoinImpl::LeftOuterNull,
        AntiJoinImpl::NotIn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            AntiJoinImpl::NotExists => "not exists",
            AntiJoinImpl::LeftOuterNull => "left outer join",
            AntiJoinImpl::NotIn => "not in",
        }
    }
}

/// The rows of `left` that `keep` accepts, given each row and a
/// [`KeyIndex`] over `right`'s keys — the shape of every probe-only
/// spelling. The index is built in hash-disjoint partitions when the probe
/// fans out; the probe runs in morsels whose buffers concatenate in morsel
/// order, so the output is identical at any `par`.
fn filter_by_probe(
    left: &Relation,
    right: &Relation,
    keys: &JoinKeys,
    par: usize,
    stats: &mut ExecStats,
    keep: impl Fn(&Row, &KeyIndex) -> bool + Sync,
) -> Result<Relation> {
    stats.rows_scanned += (left.len() + right.len()) as u64;
    let parts = if par > 1 && right.len() >= crate::par::MIN_PARALLEL_ROWS {
        par
    } else {
        1
    };
    let idx = KeyIndex::build_partitioned(right, &keys.right, parts);
    let (bufs, info) = crate::par::run_morsels(left.len(), par, |range| {
        let rows = left.rows().range(range);
        Ok(rows
            .iter()
            .filter(|row| keep(row, &idx))
            .cloned()
            .collect::<Vec<Row>>())
    })?;
    stats.note_parallel(&info);
    let mut out = Relation::new(left.schema().clone());
    for rows in bufs {
        out.extend(rows)?;
    }
    stats.rows_produced += out.len() as u64;
    Ok(out)
}

/// `R ⊼ S`: rows of `left` with no `keys`-match in `right`, computed by the
/// chosen SQL spelling. The output schema is `left`'s. Serial (`par = 1`).
pub fn anti_join(
    left: &Relation,
    right: &Relation,
    keys: &JoinKeys,
    imp: AntiJoinImpl,
    strategy: JoinStrategy,
    stats: &mut ExecStats,
) -> Result<Relation> {
    anti_join_par(left, right, keys, imp, strategy, 1, stats)
}

/// [`anti_join`] with an explicit worker-thread count. The probe over the
/// left side runs in morsels (buffers concatenated in morsel order, so the
/// output is identical at any `par`); probes are allocation-free via
/// [`KeyIndex`].
#[allow(clippy::too_many_arguments)]
pub fn anti_join_par(
    left: &Relation,
    right: &Relation,
    keys: &JoinKeys,
    imp: AntiJoinImpl,
    strategy: JoinStrategy,
    par: usize,
    stats: &mut ExecStats,
) -> Result<Relation> {
    stats.anti_joins += 1;
    match imp {
        AntiJoinImpl::NotExists => filter_by_probe(left, right, keys, par, stats, |row, idx| {
            // NULL probe: the correlated equality is unknown, the subquery
            // returns nothing, NOT EXISTS is true → keep.
            key_has_null(row, &keys.left) || !idx.contains(right, row, &keys.left)
        }),
        AntiJoinImpl::LeftOuterNull => {
            // Literally run the outer join, then filter and project — this
            // pays the cost the SQL pays.
            let joined = join_par(
                left,
                right,
                keys,
                None,
                JoinType::Left,
                strategy,
                JoinOrders::default(),
                par,
                stats,
            )?;
            let probe_col = left.schema().arity() + keys.right.first().copied().unwrap_or(0);
            let mut out = Relation::new(left.schema().clone());
            for row in joined.iter() {
                if row[probe_col].is_null() {
                    out.push(row[..left.schema().arity()].to_vec().into_boxed_slice())?;
                }
            }
            // A left row may pair with several right rows; IS NULL keeps
            // only the padded ones, and padding happens at most once per
            // left row, so no dedup is needed.
            stats.rows_produced += out.len() as u64;
            Ok(out)
        }
        AntiJoinImpl::NotIn => filter_by_probe(left, right, keys, par, stats, |row, idx| {
            // NOT IN over an empty list is vacuously true; a NULL probe key,
            // or a single NULL on the inner side (NAAJ), makes it unknown
            // (never true) under 3VL.
            right.is_empty()
                || !(key_has_null(row, &keys.left)
                    || idx.had_null_keys()
                    || idx.contains(right, row, &keys.left))
        }),
    }
}

/// Semi-join `R ⋉ S` (rows of `left` with a match), needed both for `IN`
/// subqueries and to witness `R ⊼ S = R − (R ⋉ S)`. Serial (`par = 1`).
pub fn semi_join(
    left: &Relation,
    right: &Relation,
    keys: &JoinKeys,
    stats: &mut ExecStats,
) -> Result<Relation> {
    semi_join_par(left, right, keys, 1, stats)
}

/// [`semi_join`] with an explicit worker-thread count; same morsel contract
/// as [`anti_join_par`].
pub fn semi_join_par(
    left: &Relation,
    right: &Relation,
    keys: &JoinKeys,
    par: usize,
    stats: &mut ExecStats,
) -> Result<Relation> {
    filter_by_probe(left, right, keys, par, stats, |row, idx| {
        !key_has_null(row, &keys.left) && idx.contains(right, row, &keys.left)
    })
}

/// The definability witness: `R ⊼ S = R − (R ⋉ S)` using set difference.
pub fn anti_join_basic_ops(left: &Relation, right: &Relation, keys: &JoinKeys) -> Result<Relation> {
    let mut stats = ExecStats::new();
    let semi = semi_join(left, right, keys, &mut stats)?;
    basic::difference(left, &semi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_storage::{node_schema, row, Value};

    fn rel(ids: &[i64]) -> Relation {
        let mut r = Relation::new(node_schema());
        for &i in ids {
            r.push(row![i, i as f64]).unwrap();
        }
        r
    }

    fn keys() -> JoinKeys {
        JoinKeys {
            left: vec![0],
            right: vec![0],
        }
    }

    fn run(l: &Relation, r: &Relation, imp: AntiJoinImpl) -> Vec<i64> {
        let mut s = ExecStats::new();
        let out = anti_join(l, r, &keys(), imp, JoinStrategy::Hash, &mut s).unwrap();
        let mut ids: Vec<i64> = out.iter().filter_map(|x| x[0].as_int()).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn all_impls_agree_without_nulls() {
        let l = rel(&[1, 2, 3, 4]);
        let r = rel(&[2, 4, 9]);
        for imp in AntiJoinImpl::ALL {
            assert_eq!(run(&l, &r, imp), vec![1, 3], "{}", imp.name());
        }
    }

    #[test]
    fn equals_difference_of_semijoin() {
        let l = rel(&[1, 2, 3, 4, 4]);
        let r = rel(&[2, 4]);
        let mut s = ExecStats::new();
        let a = anti_join(
            &l,
            &r,
            &keys(),
            AntiJoinImpl::NotExists,
            JoinStrategy::Hash,
            &mut s,
        )
        .unwrap();
        let b = anti_join_basic_ops(&l, &r, &keys()).unwrap();
        // definability form is set-semantics; dedup the spelled form too
        let a = crate::ops::basic::distinct(&a);
        assert!(a.same_rows_unordered(&b));
    }

    #[test]
    fn empty_inner_keeps_everything_in_all_impls() {
        let l = rel(&[1, 2]);
        let r = rel(&[]);
        for imp in AntiJoinImpl::ALL {
            assert_eq!(run(&l, &r, imp), vec![1, 2], "{}", imp.name());
        }
    }

    #[test]
    fn not_in_poisoned_by_inner_null() {
        let l = rel(&[1, 2, 3]);
        let mut r = rel(&[2]);
        r.push(vec![Value::Null, Value::Float(0.0)].into_boxed_slice())
            .unwrap();
        assert_eq!(run(&l, &r, AntiJoinImpl::NotIn), Vec::<i64>::new());
        // NOT EXISTS / LEFT OUTER are not null-aware: they still return 1, 3
        assert_eq!(run(&l, &r, AntiJoinImpl::NotExists), vec![1, 3]);
        assert_eq!(run(&l, &r, AntiJoinImpl::LeftOuterNull), vec![1, 3]);
    }

    #[test]
    fn null_probe_key_divides_the_impls() {
        let mut l = rel(&[1]);
        l.push(vec![Value::Null, Value::Float(0.0)].into_boxed_slice())
            .unwrap();
        let r = rel(&[9]);
        let count = |imp| {
            let mut s = ExecStats::new();
            anti_join(&l, &r, &keys(), imp, JoinStrategy::Hash, &mut s)
                .unwrap()
                .len()
        };
        assert_eq!(count(AntiJoinImpl::NotExists), 2, "NULL row kept");
        assert_eq!(count(AntiJoinImpl::LeftOuterNull), 2, "NULL row kept");
        assert_eq!(count(AntiJoinImpl::NotIn), 1, "NULL row filtered");
    }

    #[test]
    fn left_outer_impl_works_under_merge_join() {
        let l = rel(&[5, 1, 3]);
        let r = rel(&[3]);
        let mut s = ExecStats::new();
        let out = anti_join(
            &l,
            &r,
            &keys(),
            AntiJoinImpl::LeftOuterNull,
            JoinStrategy::SortMerge,
            &mut s,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(s.sorts > 0);
    }

    #[test]
    fn semi_join_keeps_matches() {
        let l = rel(&[1, 2, 3]);
        let r = rel(&[2, 3, 4]);
        let mut s = ExecStats::new();
        let out = semi_join(&l, &r, &keys(), &mut s).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn parallel_anti_join_matches_serial_for_every_impl() {
        let mut l = Relation::new(node_schema());
        let mut r = Relation::new(node_schema());
        for i in 0..12_000i64 {
            l.push(row![i % 900, i as f64]).unwrap();
            if i % 4 == 0 {
                r.push(row![i % 900, 0.0]).unwrap();
            }
        }
        for imp in AntiJoinImpl::ALL {
            let mut s0 = ExecStats::new();
            let serial = anti_join(&l, &r, &keys(), imp, JoinStrategy::Hash, &mut s0).unwrap();
            for par in [2, 8] {
                let mut s = ExecStats::new();
                let p =
                    anti_join_par(&l, &r, &keys(), imp, JoinStrategy::Hash, par, &mut s).unwrap();
                assert_eq!(serial.rows(), p.rows(), "{} par={par}", imp.name());
                assert_eq!(s.parallel_ops, 1, "{} par={par}", imp.name());
            }
        }
    }

    #[test]
    fn duplicate_left_rows_all_survive() {
        let l = rel(&[1, 1, 2]);
        let r = rel(&[2]);
        for imp in AntiJoinImpl::ALL {
            assert_eq!(run(&l, &r, imp), vec![1, 1], "{}", imp.name());
        }
    }
}
