//! Property tests for the columnar batch engine: for random relations and
//! a grammar of plan shapes, batch execution must return *row-for-row
//! identical* results to the row engine — same rows, same order, bit-equal
//! floats — across parallelism {1, 8} × optimizer {Off, Cost} × the
//! hash-based (vectorized fast paths) and sort-based (row-bridge fallback)
//! profiles. Plus dictionary-encoding round-trip/interning properties and
//! a differential smoke slice pitting the ` exec=batch` family against the
//! natives, SQL'99 and the oracle.

use all_in_one::algebra::batch::{self, BATCH_SIZE};
use all_in_one::algebra::ops::select_par;
use all_in_one::algebra::{
    execute, oracle_like, postgres_like, AggFunc, BinOp, ExecMode, ExecStats, JoinType,
    Optimizer, Plan, ScalarExpr,
};
use all_in_one::prelude::*;
use all_in_one::storage::{edge_schema, Batch, Catalog, ColumnVec, DataType, StringTable};
use proptest::prelude::*;

/// An edge table with NULL keys (~1 in 8) and NULL weights (~1 in 8) so
/// the null-bitmap paths and SQL three-valued comparisons get exercised.
fn edges(n: std::ops::Range<usize>) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0i64..8, 0i64..12, 0i64..12, 0i64..8, -4.0f64..4.0), n).prop_map(
        |rows| {
            let mut r = Relation::new(edge_schema());
            for (knul, f, t, wnul, w) in rows {
                let (f, t) = if knul == 0 {
                    (Value::Null, Value::Int(t))
                } else {
                    (Value::Int(f), Value::Int(t))
                };
                let w = if wnul == 0 { Value::Null } else { Value::Float(w) };
                r.push(vec![f, t, w].into_boxed_slice()).unwrap();
            }
            r
        },
    )
}

fn scan1() -> Plan {
    Plan::scan_as("E", "E1")
}

fn pred_gt(col: &str, v: f64) -> ScalarExpr {
    ScalarExpr::binary(BinOp::Gt, ScalarExpr::col(col), ScalarExpr::lit(v))
}

/// The plan grammar: `shape` picks one of six shapes covering every batch
/// kernel (vectorized select, columnar project, hash join, group-by,
/// union-all) plus the row-bridge cases (residual join, distinct).
fn plan_for(shape: u8, jt: JoinType, thresh: f64) -> Plan {
    let join = |residual: Option<ScalarExpr>| Plan::Join {
        left: Box::new(scan1()),
        right: Box::new(Plan::scan_as("E", "E2")),
        on: vec![("E1.T".into(), "E2.F".into())],
        residual,
        kind: jt,
    };
    match shape % 6 {
        0 => Plan::Select {
            input: Box::new(scan1()),
            pred: pred_gt("E1.ew", thresh),
        },
        1 => Plan::Project {
            input: Box::new(Plan::Select {
                input: Box::new(scan1()),
                pred: pred_gt("E1.ew", thresh),
            }),
            items: vec![
                (ScalarExpr::col("E1.F"), "F".into()),
                (
                    ScalarExpr::binary(
                        BinOp::Mul,
                        ScalarExpr::col("E1.ew"),
                        ScalarExpr::lit(2.0),
                    ),
                    "w2".into(),
                ),
            ],
        },
        2 => join(None),
        3 => join(Some(ScalarExpr::binary(
            BinOp::Lt,
            ScalarExpr::col("E1.ew"),
            ScalarExpr::col("E2.ew"),
        ))),
        4 => Plan::Aggregate {
            input: Box::new(join(None)),
            group_by: vec!["E1.F".into()],
            items: vec![
                (ScalarExpr::col("E1.F"), "F".into()),
                (
                    ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("E2.ew"))),
                    "s".into(),
                ),
                (
                    ScalarExpr::Agg(AggFunc::Count, Box::new(ScalarExpr::col("E2.T"))),
                    "c".into(),
                ),
            ],
        },
        _ => Plan::Distinct(Box::new(Plan::UnionAll {
            left: Box::new(Plan::Select {
                input: Box::new(scan1()),
                pred: pred_gt("E1.ew", thresh),
            }),
            right: Box::new(scan1()),
        })),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batch ≡ row over the whole grammar × parallelism {1, 8} ×
    /// optimizer {Off, Cost} × hash and sort-merge profiles.
    #[test]
    fn batch_execution_is_row_identical(
        rel in edges(0..60),
        shape in 0u8..6,
        jt_sel in 0u8..3,
        thresh in -2.0f64..2.0,
    ) {
        let jt = [JoinType::Inner, JoinType::Left, JoinType::Full][jt_sel as usize];
        let plan = plan_for(shape, jt, thresh);
        let mut c = Catalog::new();
        c.create_table("E", rel).unwrap();
        for base in [oracle_like(), postgres_like(true)] {
            for opt in [Optimizer::Off, Optimizer::Cost] {
                for par in [1usize, 8] {
                    let row_prof = base.clone().with_parallelism(par).with_optimizer(opt);
                    let (row, _) = execute(&plan, &c, &row_prof).unwrap();
                    let batch_prof = row_prof.clone().with_exec(ExecMode::Batch);
                    let (batch, _) = execute(&plan, &c, &batch_prof).unwrap();
                    prop_assert_eq!(
                        row.rows(), batch.rows(),
                        "shape={} {:?} {} opt={} par={}",
                        shape, jt, base.name, opt.label(), par
                    );
                }
            }
        }
    }

    /// The chunk size only changes how `batch::select` walks its selection
    /// bitmap, never what it keeps: chunk sizes on both sides of the input
    /// length (and of a 64-bit bitmap word) agree with the row engine.
    #[test]
    fn batch_size_is_result_invariant(
        rel in edges(0..80),
        thresh in -2.0f64..2.0,
    ) {
        let pred = ScalarExpr::and(
            ScalarExpr::binary(BinOp::Ge, ScalarExpr::col("F"), ScalarExpr::lit(3i64)),
            pred_gt("ew", thresh),
        );
        let reference = select_par(&rel, &pred, 1, &mut ExecStats::new()).unwrap();
        let input = Batch::from_relation(&rel);
        for chunk in [1usize, 7, 64, BATCH_SIZE, rel.len() + 1] {
            let out = batch::select(&input, &pred, 1, chunk, &mut ExecStats::new())
                .unwrap()
                .to_relation();
            prop_assert_eq!(reference.rows(), out.rows(), "chunk={}", chunk);
        }
    }

    /// Dictionary-encoded text columns round-trip exactly — NULLs, empty
    /// strings and duplicates included — and interning stores each distinct
    /// string once.
    #[test]
    fn dictionary_round_trip_and_interning(
        picks in proptest::collection::vec((0usize..5, 0i64..4), 0..120),
    ) {
        let pool = ["", "a", "bb", "ccc", "dddd"];
        let vals: Vec<Value> = picks
            .iter()
            .map(|&(i, nul)| {
                if nul == 0 {
                    Value::Null
                } else {
                    Value::Text(std::sync::Arc::from(pool[i]))
                }
            })
            .collect();
        let col = ColumnVec::from_values(vals.iter());
        prop_assert_eq!(col.len(), vals.len());
        let distinct: std::collections::BTreeSet<&str> = picks
            .iter()
            .filter(|&&(_, nul)| nul != 0)
            .map(|&(i, _)| pool[i])
            .collect();
        if let ColumnVec::Str { dict, .. } = &col {
            prop_assert_eq!(dict.strings().len(), distinct.len(), "interned once each");
        } else if !vals.is_empty() {
            prop_assert!(vals.iter().all(|v| matches!(v, Value::Null)));
        }
        for (i, v) in vals.iter().enumerate() {
            prop_assert_eq!(&col.value(i), v, "round-trip at {}", i);
        }
    }

    /// A whole relation with a text column survives the column round-trip
    /// row-for-row (schema and values).
    #[test]
    fn batch_round_trip_preserves_rows(
        rows in proptest::collection::vec((0i64..50, 0usize..4, 0i64..4), 0..100),
    ) {
        let pool = ["x", "y", "z", "long-label"];
        let schema = Schema::of(&[("id", DataType::Int), ("lbl", DataType::Text)]);
        let mut rel = Relation::new(schema);
        for (id, p, nul) in rows {
            let lbl = if nul == 0 {
                Value::Null
            } else {
                Value::Text(std::sync::Arc::from(pool[p]))
            };
            rel.push(vec![Value::Int(id), lbl].into_boxed_slice()).unwrap();
        }
        let back = Batch::from_relation(&rel).to_relation();
        prop_assert_eq!(rel.rows(), back.rows());
        prop_assert_eq!(rel.schema(), back.schema());
    }
}

#[test]
fn string_table_interns_and_resolves() {
    let mut t = StringTable::default();
    let hello: std::sync::Arc<str> = std::sync::Arc::from("hello");
    let world: std::sync::Arc<str> = std::sync::Arc::from("world");
    let a = t.intern(&hello);
    let b = t.intern(&world);
    let a2 = t.intern(&std::sync::Arc::from("hello"));
    assert_eq!(a, a2);
    assert_ne!(a, b);
    assert_eq!(&**t.get(a), "hello");
    assert_eq!(&**t.get(b), "world");
    assert_eq!(t.strings().len(), 2);
}

/// Differential smoke: the columnar with+ engines (` exec=batch` family)
/// agree with the row engines, the natives, SQL'99 and the oracle on the
/// natively-covered algorithms.
#[test]
fn columnar_differential_smoke() {
    use aio_testkit::{corpus_graphs, run_matrix, MatrixConfig};
    let corpus: Vec<_> = corpus_graphs()
        .into_iter()
        .filter(|g| g.name == "erdos-renyi" || g.name == "citation-dag")
        .collect();
    assert_eq!(corpus.len(), 2);
    let report = run_matrix(&corpus, &MatrixConfig::columnar_smoke());
    assert!(
        report.divergences.is_empty(),
        "columnar divergences:\n{}",
        report
            .divergences
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report
            .engine_families
            .iter()
            .any(|f| f.ends_with(" exec=batch")),
        "batch family missing from coverage: {:?}",
        report.engine_families
    );
}
