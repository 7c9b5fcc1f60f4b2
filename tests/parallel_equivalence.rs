//! Property tests for morsel-parallel operator equivalence: for every join
//! type × physical strategy × parallelism setting, the parallel operators
//! must return *row-for-row identical* results to the serial pipeline (not
//! just set-equal — morsel buffers concatenate in morsel order), and the
//! parallel group-by's partial-aggregate merge must agree with the serial
//! fold for sum/min/max/count/avg including NULL keys and NULL arguments.
//!
//! Two scales: a small matrix that sweeps every combination cheaply, and
//! big inputs (tiled past the morsel threshold) where the fan-out actually
//! happens — confirmed through `ExecStats::parallel_ops`.

use all_in_one::algebra::ops::{
    anti_join_par, group_by_par, join_par, AntiJoinImpl, JoinKeys, JoinOrders, JoinType,
};
use all_in_one::algebra::{AggFunc, AggStrategy, ExecStats, JoinStrategy, ScalarExpr};
use all_in_one::prelude::*;
use all_in_one::storage::{node_schema, DataType};
use proptest::prelude::*;

/// Rows of `(id-or-NULL, payload)` with the given qualifier; ~1 in 8 keys
/// is NULL so every NULL rule gets exercised.
fn side(
    qual: &'static str,
    max_key: i64,
    n: std::ops::Range<usize>,
) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0i64..8, 0i64..max_key, -4.0f64..4.0), n).prop_map(move |rows| {
        let mut r = Relation::new(node_schema().with_qualifier(qual));
        for (nul, k, w) in rows {
            let key = if nul == 0 { Value::Null } else { Value::Int(k) };
            r.push(vec![key, Value::Float(w)].into_boxed_slice())
                .unwrap();
        }
        r
    })
}

/// Like [`side`] but tiled past the morsel-split threshold (4096 rows) so
/// parallelism genuinely engages; tile `t` shifts keys by `t` to keep the
/// key distribution overlapping but not degenerate.
fn big_side(qual: &'static str, max_key: i64) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0i64..8, 0i64..max_key, -4.0f64..4.0), 280..340).prop_map(
        move |rows| {
            let mut r = Relation::new(node_schema().with_qualifier(qual));
            for t in 0..16i64 {
                for (nul, k, w) in &rows {
                    let key = if *nul == 0 {
                        Value::Null
                    } else {
                        Value::Int(k + t)
                    };
                    r.push(vec![key, Value::Float(*w)].into_boxed_slice())
                        .unwrap();
                }
            }
            r
        },
    )
}

fn on_id() -> JoinKeys {
    JoinKeys {
        left: vec![0],
        right: vec![0],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The full matrix: every join type × every physical variant ×
    /// parallelism ∈ {1, 2, 8} returns identical rows in identical order.
    #[test]
    fn join_matrix_is_row_identical_across_parallelism(
        l in side("L", 12, 0..40),
        r in side("R", 12, 0..40),
    ) {
        let keys = on_id();
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            for strat in [
                JoinStrategy::Hash,
                JoinStrategy::SortMerge,
                JoinStrategy::NestedLoop,
            ] {
                let mut s = ExecStats::new();
                let serial = join_par(
                    &l, &r, &keys, None, jt, strat,
                    JoinOrders::default(), 1, &mut s,
                ).unwrap();
                for par in [2usize, 8] {
                    let mut s2 = ExecStats::new();
                    let p = join_par(
                        &l, &r, &keys, None, jt, strat,
                        JoinOrders::default(), par, &mut s2,
                    ).unwrap();
                    prop_assert_eq!(serial.rows(), p.rows(), "{:?}/{:?} par={}", jt, strat, par);
                }
            }
        }
    }

    /// Anti-join spellings under the same sweep (output order included).
    #[test]
    fn anti_join_is_row_identical_across_parallelism(
        l in side("L", 12, 0..40),
        r in side("R", 12, 0..40),
    ) {
        let keys = on_id();
        for imp in AntiJoinImpl::ALL {
            let mut s = ExecStats::new();
            let serial =
                anti_join_par(&l, &r, &keys, imp, JoinStrategy::Hash, 1, &mut s).unwrap();
            for par in [2usize, 8] {
                let mut s2 = ExecStats::new();
                let p = anti_join_par(&l, &r, &keys, imp, JoinStrategy::Hash, par, &mut s2)
                    .unwrap();
                prop_assert_eq!(serial.rows(), p.rows(), "{} par={}", imp.name(), par);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// At sizes past the morsel threshold the hash join actually fans out
    /// (checked via stats) and is still row-for-row identical.
    #[test]
    fn big_hash_join_fans_out_and_stays_identical(
        l in big_side("L", 300),
        r in big_side("R", 300),
    ) {
        let keys = on_id();
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            let mut s = ExecStats::new();
            let serial = join_par(
                &l, &r, &keys, None, jt, JoinStrategy::Hash,
                JoinOrders::default(), 1, &mut s,
            ).unwrap();
            prop_assert_eq!(s.parallel_ops, 0);
            for par in [2usize, 8] {
                let mut s2 = ExecStats::new();
                let p = join_par(
                    &l, &r, &keys, None, jt, JoinStrategy::Hash,
                    JoinOrders::default(), par, &mut s2,
                ).unwrap();
                prop_assert_eq!(s2.parallel_ops, 1, "{:?} par={} did not fan out", jt, par);
                prop_assert!(s2.morsels > 1);
                prop_assert_eq!(serial.rows(), p.rows(), "{:?} par={}", jt, par);
            }
        }
    }

    /// Parallel partial-aggregate merge agrees with the serial fold for
    /// sum/min/max/count/avg, with NULL group keys and NULL arguments in
    /// the mix. Int-valued aggregates must match exactly; float sums may
    /// regroup, so they match to high relative precision.
    #[test]
    fn group_by_partial_merge_agrees_with_serial(
        rows in proptest::collection::vec(
            (0i64..8, 0i64..40, -3.0f64..3.0, 0i64..6), 280..340),
    ) {
        let schema = Schema::of(&[
            ("k", DataType::Int),
            ("x", DataType::Int),
            ("w", DataType::Float),
        ]);
        let mut rel = Relation::new(schema);
        for t in 0..16i64 {
            for (nul, k, w, xnul) in &rows {
                let key = if *nul == 0 { Value::Null } else { Value::Int(k + t) };
                let x = if *xnul == 0 { Value::Null } else { Value::Int(k * t) };
                rel.push(vec![key, x, Value::Float(*w)].into_boxed_slice()).unwrap();
            }
        }
        let agg = |f: AggFunc, col: &str, name: &str| {
            (
                ScalarExpr::Agg(f, Box::new(ScalarExpr::col(col))),
                name.to_string(),
            )
        };
        let items = [
            (ScalarExpr::col("k"), "k".to_string()),
            agg(AggFunc::Sum, "w", "sum_w"),
            agg(AggFunc::Count, "x", "cnt_x"),
            agg(AggFunc::Min, "x", "min_x"),
            agg(AggFunc::Max, "x", "max_x"),
            agg(AggFunc::Avg, "w", "avg_w"),
        ];
        let group = ["k".to_string()];
        let mut s = ExecStats::new();
        let serial =
            group_by_par(&rel, &group, &items, AggStrategy::Hash, 1, &mut s).unwrap();
        for par in [2usize, 8] {
            let mut s2 = ExecStats::new();
            let p = group_by_par(&rel, &group, &items, AggStrategy::Hash, par, &mut s2)
                .unwrap();
            prop_assert_eq!(s2.parallel_ops, 1, "par={} did not fan out", par);
            prop_assert_eq!(serial.len(), p.len());
            for (a, b) in serial.iter().zip(p.iter()) {
                prop_assert_eq!(&a[0], &b[0], "group key");
                prop_assert_eq!(&a[2], &b[2], "count");
                prop_assert_eq!(&a[3], &b[3], "min");
                prop_assert_eq!(&a[4], &b[4], "max");
                for fcol in [1usize, 5] {
                    match (&a[fcol], &b[fcol]) {
                        (Value::Null, Value::Null) => {}
                        (x, y) => {
                            let (x, y) = (x.as_f64().unwrap(), y.as_f64().unwrap());
                            prop_assert!(
                                (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                                "col {} {} vs {} par={}", fcol, x, y, par
                            );
                        }
                    }
                }
            }
        }
    }
}
