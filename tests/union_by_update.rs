//! Union-by-update (§4.1) and its four implementations (`union_by_update`,
//! Tables 4 & 5): identical contents and change counts, the independence
//! property, duplicate-key handling per implementation, the keyless form,
//! drop/alter's table identity, merge's logging, and a parallel probe
//! identical to the serial one. The keyed column fold's replace rule
//! (`ubu_replace_cols`) joins the implementations' content matrix.

use all_in_one::algebra::ops::{ubu_replace_cols, union_by_update, Replaced, UbuImpl};
use all_in_one::algebra::{oracle_like, AlgebraError, ExecStats};
use all_in_one::storage::{node_schema, row, Batch, Catalog, Relation};

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
    // the keyed column fold's replace rule, over the same rows
    let mut c = setup(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
    let d = Batch::from_relation(&delta(&[(1, 10.0), (3, 30.0), (9, 90.0)]));
    let mut s = ExecStats::new();
    let folded = ubu_replace_cols(&mut c, "V", &d, &[0], &mut None, &mut s).unwrap();
    assert_eq!(folded, Replaced::Folded { moved: None }, "9 is new");
    assert_eq!(contents(&c), expected, "column fold");
    assert_eq!(
        (s.union_by_updates, s.ubu_changed_rows),
        (1, 3),
        "column fold"
    );
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
        let err =
            union_by_update(&mut c, "V", d, Some(&[0]), imp, &oracle_like(), &mut s).unwrap_err();
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
        &all_in_one::algebra::postgres_like(false),
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
    let db2 = all_in_one::algebra::db2_like();
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
