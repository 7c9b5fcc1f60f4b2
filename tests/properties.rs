//! Property-based tests (proptest) on the core algebraic invariants:
//! semiring laws through MM-join, the anti-join/difference identity,
//! union-by-update axioms, agreement of physical variants and join
//! strategies, `Value`'s order/equality/hash contract with every keyed
//! operator driven over its corner values, union-by-update's own count of
//! what it changed, and TC depth monotonicity.

use all_in_one::algebra::ops::join::assert_strategies_agree;
use all_in_one::algebra::ops::{
    anti_join, anti_join_basic_ops, group_by, group_by_par, join_on, mm_join, ubu_merge_improve,
    union_by_update, window, AntiJoinImpl, Delta, JoinKeys, JoinType, KeyLookup, UbuImpl,
};
use all_in_one::algebra::{
    oracle_like, AggFunc, AggStrategy, EngineProfile, ExecStats, JoinStrategy, ScalarExpr, TROPICAL,
};
use all_in_one::prelude::*;
use all_in_one::storage::{node_schema, Batch, Catalog, DataType, KeyIndex, Row};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};

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

/// The corner values of every key domain: NULL, Ints with both extremes
/// and the first Ints `f64` cannot tell apart, Floats with both zeros, both
/// infinities, both NaNs and integral values that tie with an Int, Text.
fn key_domain() -> Vec<Value> {
    const TWO_53: i64 = 1 << 53;
    let mut d = vec![Value::Null];
    d.extend(
        [
            0,
            1,
            -1,
            2,
            TWO_53,
            TWO_53 + 1,
            i64::MAX - 1,
            i64::MAX,
            i64::MIN,
        ]
        .map(Value::Int),
    );
    d.extend(
        [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.0,
            0.5,
            TWO_53 as f64,
            i64::MAX as f64,
            i64::MIN as f64,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ]
        .map(Value::Float),
    );
    d.extend(["", "a", "b"].map(Value::text));
    d
}

/// One draw from [`key_domain`].
fn key_value() -> impl Strategy<Value = Value> {
    let d = key_domain();
    (0..d.len()).prop_map(move |i| d[i].clone())
}

/// `name(k, v)`: keys drawn from [`key_domain`], `v` the row number, so
/// every row is distinguishable and duplicates of a key are common.
fn keyed(name: &'static str) -> impl Strategy<Value = Relation> {
    proptest::collection::vec(key_value(), 0..24).prop_map(move |keys| {
        let schema = Schema::of(&[("k", DataType::Any), ("v", DataType::Int)]);
        let mut r = Relation::new(schema.with_qualifier(name));
        for (i, k) in keys.into_iter().enumerate() {
            r.push(vec![k, Value::from(i)].into_boxed_slice()).unwrap();
        }
        r
    })
}

/// `L(k, j, v)`: two keys drawn from [`key_domain`], `v` the row number.
/// The draw is tiled past 4,096 rows, so parallel hash aggregation splits
/// it into morsels and merges their groups.
fn keyed_tiled() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((key_value(), key_value()), 1..24).prop_map(|keys| {
        let schema = Schema::of(&[
            ("k", DataType::Any),
            ("j", DataType::Any),
            ("v", DataType::Int),
        ]);
        let mut r = Relation::new(schema.with_qualifier("L"));
        let n = keys.len() * (4_096 / keys.len() + 1);
        for (i, (k, j)) in keys.iter().cycle().take(n).enumerate() {
            r.push(vec![k.clone(), j.clone(), Value::from(i)].into_boxed_slice())
                .unwrap();
        }
        r
    })
}

fn hash_of(v: &Value) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// `Ord for Value` refines `Eq for Value`, which `Hash` respects — the
/// contract every keyed operator leans on: a sort puts exactly the rows a
/// hash table would bucket together next to each other. Exhaustive over
/// the corner values, triples included.
#[test]
fn value_order_refines_equality() {
    let d = key_domain();
    for a in &d {
        for b in &d {
            assert_eq!(
                a.cmp(b) == Ordering::Equal,
                a == b,
                "{a:?}.cmp({b:?}) = {:?} but {a:?} == {b:?} is {}",
                a.cmp(b),
                a == b
            );
            if a == b {
                assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?} hash apart");
            }
            assert_eq!(a.cmp(b), b.cmp(a).reverse(), "antisymmetry: {a:?}, {b:?}");
            for c in &d {
                if a.cmp(b) != Ordering::Greater && b.cmp(c) != Ordering::Greater {
                    assert_ne!(
                        a.cmp(c),
                        Ordering::Greater,
                        "transitivity: {a:?} <= {b:?} <= {c:?}"
                    );
                }
            }
        }
    }
}

/// A small domain for union-by-update keys and payloads, so keys collide
/// and rows are often overwritten by an equal one: NULL, Int, Text and
/// Floats with both zeros and NaN (storage equality folds those).
fn ubu_value() -> impl Strategy<Value = Value> {
    let d = [
        Value::Null,
        Value::Int(0),
        Value::Int(1),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Float(1.5),
        Value::text("a"),
    ];
    (0..d.len()).prop_map(move |i| d[i].clone())
}

/// `R(k, v)` over [`ubu_value`]: duplicate and NULL keys are common.
fn ubu_rel() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((ubu_value(), ubu_value()), 0..16).prop_map(|rows| {
        let schema = Schema::of(&[("k", DataType::Any), ("v", DataType::Any)]);
        let rows = rows.into_iter().map(|(k, v)| vec![k, v].into_boxed_slice());
        Relation::from_rows(schema, rows.collect()).unwrap()
    })
}

/// A row's key in the models below: its first column, as a `Vec<Value>`
/// (whose `Eq` and `Hash` are storage equality, NULL equal to NULL).
fn key0(r: &Row) -> Vec<Value> {
    vec![r[0].clone()]
}

/// `rel` with only the first row of every key.
fn first_per_key(rel: &Relation) -> Relation {
    let mut seen = HashSet::new();
    let mut out = Relation::new(rel.schema().clone());
    for r in rel.iter().filter(|r| seen.insert(key0(r))) {
        out.push(r.clone()).unwrap();
    }
    out
}

/// `t ⊎_k d` for unique delta keys, spelled out: a target row whose key
/// equals a delta row's becomes that row, then the unmatched delta rows
/// follow in order.
fn ubu_model(t: &Relation, d: &Relation) -> Vec<Row> {
    let by_key: HashMap<Vec<Value>, &Row> = d.iter().map(|r| (key0(r), r)).collect();
    let t_keys: HashSet<Vec<Value>> = t.iter().map(key0).collect();
    let mut out: Vec<Row> = t
        .iter()
        .map(|r| (*by_key.get(&key0(r)).unwrap_or(&r)).clone())
        .collect();
    out.extend(d.iter().filter(|r| !t_keys.contains(&key0(r))).cloned());
    out
}

/// Merge-improve's frontier spelled out for a target with unique keys: per
/// delta key, in order of first appearance, the first of its best rows
/// (smallest `v` when `min`, largest otherwise), if the target lacks the
/// key or holds a worse `v` for it.
fn improve_model(t: &Relation, d: &Relation, min: bool) -> Vec<Row> {
    let better = |a: &Value, b: &Value| if min { a < b } else { a > b };
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut best: HashMap<Vec<Value>, &Row> = HashMap::new();
    for r in d.iter() {
        match best.get(&key0(r)) {
            None => order.push(key0(r)),
            Some(b) if !better(&r[1], &b[1]) => continue,
            Some(_) => {}
        }
        best.insert(key0(r), r);
    }
    let old: HashMap<Vec<Value>, &Row> = t.iter().map(|r| (key0(r), r)).collect();
    order
        .iter()
        .map(|k| best[k])
        .filter(|r| old.get(&key0(r)).is_none_or(|o| better(&r[1], &o[1])))
        .cloned()
        .collect()
}

/// Rows bit for bit (a Float by its bits, so -0.0 ≠ 0.0 here).
fn bits<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Vec<Vec<String>> {
    (rows.into_iter())
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("{:x}", f.to_bits()),
                    v => format!("{v:?}"),
                })
                .collect()
        })
        .collect()
}

/// Union-by-update of `d` into a copy of `t`: the outcome, R afterwards
/// and what the operator added to `ubu_changed_rows`.
fn ubu(
    t: &Relation,
    d: &Relation,
    keys: Option<&[usize]>,
    imp: UbuImpl,
    profile: &EngineProfile,
) -> (Result<(), String>, Relation, u64) {
    let mut cat = Catalog::new();
    cat.create_temp("R", t.clone()).unwrap();
    let mut s = ExecStats::new();
    let res = union_by_update(&mut cat, "R", d.clone(), keys, imp, profile, &mut s);
    let after = cat.relation("R").unwrap().clone();
    (res.map_err(|e| e.to_string()), after, s.ubu_changed_rows)
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
            let out = cat.relation("V").unwrap().clone();
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

    /// Union-by-update counts its own changes, and the count is the rows
    /// of the new R the old one does not cover, so `count > 0 || |R|
    /// moved` is exactly "R changed" (the fixpoint loop's `C_i`). Every
    /// variant, keyed and keyless, at parallelism 1 and 8, with unique
    /// delta keys (and duplicates for `UPDATE ... FROM`). The variants a
    /// profile supports agree row for row with the spelled-out semantics
    /// (NULL keys match NULL keys); a duplicate-keyed source leaves R
    /// byte-identical where the variant must reject it; merge-improve's
    /// count is the frontier it returns.
    #[test]
    fn union_by_update_counts_what_it_changed(t in ubu_rel(), d in ubu_rel()) {
        let unique = first_per_key(&d);
        let keyed: &[usize] = &[0];
        for par in [1, 8] {
            for profile in [oracle_like(), postgres_like(false)] {
                let profile = profile.with_parallelism(par);
                let runs = UbuImpl::ALL
                    .into_iter()
                    .map(|imp| (imp, &unique))
                    .chain([(UbuImpl::UpdateFrom, &d)]);
                for (imp, delta) in runs {
                    for keys in [Some(keyed), None] {
                        let ctx = format!("{} {} par={par} keys={keys:?}", profile.name, imp.name());
                        let (res, after, count) = ubu(&t, delta, keys, imp, &profile);
                        prop_assert!(res.is_ok(), "{ctx}: {res:?}");
                        prop_assert_eq!(count, after.uncovered(&t).count() as u64, "{}", ctx);
                        prop_assert_eq!(
                            count > 0 || after.len() != t.len(),
                            !after.same_rows_unordered(&t),
                            "{}", ctx
                        );
                        if keys.is_some() && delta.len() == unique.len() && imp.supported_by(profile.name) {
                            prop_assert_eq!(bits(after.rows()), bits(&ubu_model(&t, &unique)), "{}", ctx);
                        }
                    }
                    if unique.len() < d.len() && imp != UbuImpl::UpdateFrom {
                        let (res, after, count) = ubu(&t, &d, Some(keyed), imp, &profile);
                        prop_assert!(res.is_err_and(|e| e.contains("duplicate key")), "{}", imp.name());
                        prop_assert_eq!(bits(after.rows()), bits(t.rows()), "{} mutated R", imp.name());
                        prop_assert_eq!(count, 0);
                    }
                }
            }
        }
        let target = first_per_key(&t);
        // the delta as rows, and as a step's columns (read in place when
        // its keys ascend, else as rows)
        for (min, cols) in [(true, false), (false, false), (true, true), (false, true)] {
            let mut cat = Catalog::new();
            cat.create_temp("R", target.clone()).unwrap();
            let mut s = ExecStats::new();
            let mut idx = KeyLookup::build(&target, keyed).unwrap();
            let delta = if cols { Delta::Cols(Batch::from_relation(&d)) } else { Delta::Rows(d.clone()) };
            let (frontier, _) = ubu_merge_improve(&mut cat, "R", delta, &mut idx, 1, min, &mut s).unwrap();
            prop_assert_eq!(bits(frontier.rows()), bits(&improve_model(&target, &d, min)), "min={}", min);
            prop_assert_eq!(s.ubu_changed_rows, frontier.len() as u64);
            let after = cat.relation("R").unwrap();
            prop_assert_eq!(frontier.len(), after.uncovered(&target).count());
            // the held lookup grew with R: it finds what a fresh key index
            // over R probes
            let fresh = KeyIndex::build(after, keyed);
            for row in after.rows().iter().chain(d.rows()) {
                let want = fresh.probe(after, row, keyed).next().map(|i| i as usize);
                prop_assert_eq!(idx.row_of(after, row, keyed), want);
            }
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

    /// The same agreement on every key domain at once: mixed Int/Float
    /// columns, both zeros, both NaNs, NULLs and Text. What a hash table
    /// buckets together a sort must put together.
    #[test]
    fn join_strategies_agree_on_every_key_domain(l in keyed("L"), r in keyed("R")) {
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            let rows = |strategy| {
                let mut s = ExecStats::new();
                join_on(&l, &r, &[("L.k", "R.k")], jt, strategy, &mut s).unwrap().len()
            };
            prop_assert!(
                assert_strategies_agree(&l, &r, &[("L.k", "R.k")], jt).unwrap(),
                "{jt:?}: hash {} rows, sort-merge {}, nested loop {} on\n{}\n{}",
                rows(JoinStrategy::Hash),
                rows(JoinStrategy::SortMerge),
                rows(JoinStrategy::NestedLoop),
                l.display(24),
                r.display(24)
            );
        }
    }

    /// Hash and sort aggregation form the groups of a `BTreeMap` over the
    /// key values — `Value`'s order refines storage equality, so the map
    /// groups exactly as the engine must — in the map's order, on one- and
    /// two-column keys, hash at parallelism 1, 2 and 8. Hash aggregation
    /// spells each key as its first row does, as the map keeps it: bit for
    /// bit. Sort aggregation spells a key as whichever of its rows the sort
    /// put first, so its keys compare under storage equality (its `Int`
    /// aggregates are exact either way). A window partitioned on the same
    /// keys gives every row its group's sum.
    #[test]
    fn agg_strategies_agree_on_every_key_domain(input in keyed_tiled()) {
        let sum_v = ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("v")));
        for keys in [&["k"][..], &["k", "j"]] {
            let refs: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
            let mut model: BTreeMap<Vec<Value>, (Vec<Value>, i64, i64)> = BTreeMap::new();
            for r in input.iter() {
                let key = r[..keys.len()].to_vec();
                let group = model.entry(key.clone()).or_insert((key, 0, 0));
                group.1 += r[2].as_int().unwrap();
                group.2 += 1;
            }
            let want: Vec<Row> = model
                .values()
                .map(|(key, sum, n)| key.iter().cloned().chain([Value::Int(*sum), Value::Int(*n)]).collect())
                .collect();
            let mut items: Vec<(ScalarExpr, String)> =
                keys.iter().map(|&k| (ScalarExpr::col(k), k.to_string())).collect();
            items.push((sum_v.clone(), "s".into()));
            items.push((ScalarExpr::Agg(AggFunc::Count, Box::new(ScalarExpr::col("v"))), "n".into()));
            let mut s = ExecStats::new();
            for par in [1, 2, 8] {
                let h = group_by_par(&input, &refs, &items, AggStrategy::Hash, par, &mut s).unwrap();
                prop_assert_eq!(bits(h.rows()), bits(&want), "hash, par {}, keys {:?}", par, keys);
            }
            let sorted = group_by(&input, &refs, &items, AggStrategy::Sort, &mut s).unwrap();
            prop_assert_eq!(sorted.rows(), &want[..], "sort, keys {:?}", keys);

            let w = window(&input, &refs, &[(sum_v.clone(), "s".into())], &mut s).unwrap();
            prop_assert_eq!(w.len(), input.len());
            for (r, out) in input.iter().zip(w.iter()) {
                prop_assert_eq!(&out[0], &Value::Int(model[&r[..keys.len()]].1), "window, keys {:?}", keys);
            }
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
