//! Property-based tests (proptest) on the core algebraic invariants:
//! semiring laws through MM-join, the anti-join/difference identity,
//! union-by-update axioms, agreement of physical variants and join
//! strategies, and TC depth monotonicity.

use all_in_one::algebra::ops::{
    anti_join, anti_join_basic_ops, join_on, mm_join, union_by_update, AntiJoinImpl, JoinKeys,
    JoinType, UbuImpl,
};
use all_in_one::algebra::{oracle_like, AggStrategy, ExecStats, JoinStrategy, TROPICAL};
use all_in_one::prelude::*;
use all_in_one::storage::{node_schema, Catalog};
use proptest::prelude::*;

/// A small random matrix relation E(F, T, ew) over ids 0..k.
fn matrix(k: i64) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0..k, 0..k, 0.0f64..4.0), 0..40).prop_map(|cells| {
        let mut m = Relation::new(edge_schema());
        let mut seen = std::collections::HashSet::new();
        for (f, t, w) in cells {
            if seen.insert((f, t)) {
                m.push(row![f, t, w]).unwrap();
            }
        }
        m
    })
}

/// A random node relation with unique ids.
fn vector(k: i64) -> impl Strategy<Value = Relation> {
    proptest::collection::btree_map(0..k, 0.0f64..10.0, 0..30).prop_map(|cells| {
        let mut v = Relation::new(node_schema());
        for (id, w) in cells {
            v.push(row![id, w]).unwrap();
        }
        v
    })
}

fn mm(a: &Relation, b: &Relation, sr: &all_in_one::algebra::Semiring) -> Relation {
    let mut s = ExecStats::new();
    mm_join(a, b, sr, JoinStrategy::Hash, AggStrategy::Hash, &mut s).unwrap()
}

fn rel_close(a: &Relation, b: &Relation) -> bool {
    // compare as (F,T) → ew maps with float tolerance
    let to_map = |r: &Relation| -> std::collections::BTreeMap<(i64, i64), f64> {
        r.iter()
            .map(|x| {
                (
                    (x[0].as_int().unwrap(), x[1].as_int().unwrap()),
                    x[2].as_f64().unwrap(),
                )
            })
            .collect()
    };
    let (ma, mb) = (to_map(a), to_map(b));
    ma.len() == mb.len()
        && ma.iter().all(|(k, v)| {
            mb.get(k)
                .is_some_and(|w| (v - w).abs() < 1e-6 || (v.is_infinite() && w.is_infinite()))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (A·B)·C = A·(B·C) over the tropical semiring (min/plus has no
    /// floating-point reassociation error, unlike sum/times).
    #[test]
    fn mm_join_is_associative_tropical(a in matrix(6), b in matrix(6), c in matrix(6)) {
        let left = mm(&mm(&a, &b, &TROPICAL), &c, &TROPICAL);
        let right = mm(&a, &mm(&b, &c, &TROPICAL), &TROPICAL);
        prop_assert!(rel_close(&left, &right));
    }

    /// MM-join against the identity (diagonal of ⊙-identities) is the
    /// matrix itself, projected to rows that survive the join.
    #[test]
    fn identity_matrix_is_neutral(a in matrix(6)) {
        let mut ident = Relation::new(edge_schema());
        for v in 0..6i64 {
            ident.push(row![v, v, 0.0]).unwrap(); // tropical 1 = 0
        }
        let out = mm(&a, &ident, &TROPICAL);
        prop_assert!(rel_close(&out, &a));
    }

    /// The three anti-join spellings agree on NULL-free data, and equal
    /// R − (R ⋉ S) under set semantics.
    #[test]
    fn anti_join_impls_agree(l in vector(12), r in vector(12)) {
        let keys = JoinKeys { left: vec![0], right: vec![0] };
        let mut s = ExecStats::new();
        let base = anti_join(&l, &r, &keys, AntiJoinImpl::NotExists, JoinStrategy::Hash, &mut s).unwrap();
        for imp in [AntiJoinImpl::LeftOuterNull, AntiJoinImpl::NotIn] {
            let other = anti_join(&l, &r, &keys, imp, JoinStrategy::SortMerge, &mut s).unwrap();
            prop_assert!(base.same_rows_unordered(&other), "{}", imp.name());
        }
        let difference_form = anti_join_basic_ops(&l, &r, &keys).unwrap();
        // base has unique ids (vector strategy) so set/bag forms coincide
        prop_assert!(base.same_rows_unordered(&difference_form));
    }

    /// Union-by-update axioms: every delta tuple's key maps to the delta
    /// value; unmatched target tuples survive; all four implementations
    /// agree; applying the same delta twice is idempotent.
    #[test]
    fn union_by_update_axioms(t in vector(12), d in vector(12)) {
        let profile = oracle_like();
        let mut results = Vec::new();
        for imp in UbuImpl::ALL {
            let mut cat = Catalog::new();
            cat.create_temp("V", t.clone()).unwrap();
            let mut s = ExecStats::new();
            union_by_update(&mut cat, "V", d.clone(), Some(&[0]), imp, &profile, &mut s).unwrap();
            // idempotence
            union_by_update(&mut cat, "V", d.clone(), Some(&[0]), imp, &profile, &mut s).unwrap();
            let out = cat.drop_table("V").unwrap();
            // contains S (by key, with S values)
            let m: std::collections::BTreeMap<i64, f64> = out
                .iter()
                .map(|r| (r[0].as_int().unwrap(), r[1].as_f64().unwrap()))
                .collect();
            for row in d.iter() {
                let (k, v) = (row[0].as_int().unwrap(), row[1].as_f64().unwrap());
                prop_assert_eq!(m[&k], v, "{}", imp.name());
            }
            // unmatched r survive
            for row in t.iter() {
                let k = row[0].as_int().unwrap();
                prop_assert!(m.contains_key(&k));
            }
            results.push(out);
        }
        for pair in results.windows(2) {
            prop_assert!(pair[0].same_rows_unordered(&pair[1]));
        }
    }

    /// Hash, sort-merge and nested-loop joins agree (inner and outer).
    #[test]
    fn join_strategies_agree(l in matrix(8), r in vector(8)) {
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            let mut s = ExecStats::new();
            let h = join_on(&l, &r, &[("F", "ID")], jt, JoinStrategy::Hash, &mut s).unwrap();
            let m = join_on(&l, &r, &[("F", "ID")], jt, JoinStrategy::SortMerge, &mut s).unwrap();
            let n = join_on(&l, &r, &[("F", "ID")], jt, JoinStrategy::NestedLoop, &mut s).unwrap();
            prop_assert!(h.same_rows_unordered(&m), "{jt:?} hash vs merge");
            prop_assert!(m.same_rows_unordered(&n), "{jt:?} merge vs nested");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// TC grows monotonically with recursion depth, and the with+ engine
    /// gives identical closures across profiles.
    #[test]
    fn tc_depth_monotone(seed in 0u64..500) {
        let g = generate(GraphKind::Uniform, 18, 40, true, seed);
        let (d2, _) = all_in_one::algos::tc::run(&g, &oracle_like(), 2).unwrap();
        let (d4, _) = all_in_one::algos::tc::run(&g, &oracle_like(), 4).unwrap();
        let (full, _) = all_in_one::algos::tc::run(&g, &oracle_like(), 30).unwrap();
        prop_assert!(d2.is_subset(&d4));
        prop_assert!(d4.is_subset(&full));
        let (pg, _) = all_in_one::algos::tc::run(&g, &postgres_like(true), 30).unwrap();
        prop_assert_eq!(full, pg);
    }

    /// SQL Bellman-Ford equals the native reference on random weighted
    /// graphs.
    #[test]
    fn sssp_matches_reference(seed in 0u64..500) {
        let g = generate(GraphKind::PowerLaw, 25, 70, true, seed);
        let (dist, _) = all_in_one::algos::sssp::run(&g, &oracle_like(), 0).unwrap();
        let expected = all_in_one::graph::reference::bellman_ford(&g, 0);
        for (v, &d) in expected.iter().enumerate() {
            let got = dist[&(v as i64)];
            prop_assert!(
                (d.is_infinite() && got.is_infinite()) || (got - d).abs() < 1e-9,
                "node {v}: {got} vs {d}"
            );
        }
    }
}
