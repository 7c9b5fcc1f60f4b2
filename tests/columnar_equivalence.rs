//! Property tests for the columnar batch engine: for random relations and
//! a grammar of plan shapes, batch execution must return *row-for-row
//! identical* results to the row engine — same rows, same order, bit-equal
//! floats — across parallelism {1, 8} × optimizer {Off, Cost} × the
//! hash-based (vectorized fast paths) and sort-based (row-bridge fallback)
//! profiles. Plus the column expression evaluator and the typed group-by
//! kernel against the row engine over random `+ - * / neg least greatest`
//! trees (float bits, `ExecStats` and errors included), dictionary-encoding
//! round-trip/interning properties and a differential smoke slice pitting
//! the ` exec=batch` family against the natives, SQL'99 and the oracle.

use all_in_one::algebra::batch::{self, BATCH_SIZE};
use all_in_one::algebra::ops::{rename, select_par};
use all_in_one::algebra::{
    execute, oracle_like, postgres_like, AggFunc, BinOp, EngineProfile, ExecMode, ExecStats, Func,
    JoinType, Optimizer, Plan, ScalarExpr, UnaryOp,
};
use all_in_one::prelude::*;
use all_in_one::storage::{edge_schema, row, Batch, Catalog, ColumnVec, DataType, StringTable};
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
                let w = if wnul == 0 {
                    Value::Null
                } else {
                    Value::Float(w)
                };
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
                    ScalarExpr::binary(BinOp::Mul, ScalarExpr::col("E1.ew"), ScalarExpr::lit(2.0)),
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

// ---------------------------------------------------------------------------
// Column evaluator + typed group-by kernel vs the row engine
// ---------------------------------------------------------------------------

const INTS: [i64; 8] = [0, 1, -1, 2, 7, -3, i64::MAX, i64::MIN];
const FLOATS: [f64; 8] = [
    0.5,
    -1.25,
    3.0,
    -0.0,
    0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// `T(k, i, f, s, m)`: an Int key with NULLs (dense: 0..12, sparse: the
/// same keys spread 1 000 003 apart, so the span dwarfs the row count and
/// the kernel hashes), an Int column with the i64 extremes, a Float column
/// with NaN / ±∞ / -0.0, a text column and a column mixing Int and Float —
/// every value NULL about one time in eight. `tile` repeats the rows (with
/// shifted value picks) past the 4096-row morsel threshold so `par` > 1
/// really splits and merges.
fn typed_table(picks: &[(u8, u8, u8, u8, u8)], sparse: bool, tile: bool) -> Relation {
    let schema = Schema::of(&[
        ("k", DataType::Int),
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Text),
        ("m", DataType::Any),
    ]);
    let null_or = |pick: u8, v: Value| if pick % 8 == 7 { Value::Null } else { v };
    let mut rel = Relation::new(schema);
    let copies = if tile && !picks.is_empty() {
        4200usize.div_ceil(picks.len())
    } else {
        1
    };
    for copy in 0..copies {
        for &(k, i, f, s, m) in picks {
            // every copy draws different values, so morsel partials differ
            let shift = |pick: u8| pick.wrapping_add((copy % 61) as u8);
            let (i, f, m) = (shift(i), shift(f), shift(m));
            let key = (k % 12) as i64 * if sparse { 1_000_003 } else { 1 } - 3;
            let mixed = if m % 2 == 0 {
                Value::Int(INTS[(m / 2 % 6) as usize])
            } else {
                Value::Float(FLOATS[(m / 2 % 8) as usize])
            };
            rel.push(
                vec![
                    null_or(k / 12, Value::Int(key)),
                    null_or(i / 8, Value::Int(INTS[(i % 8) as usize])),
                    null_or(f / 8, Value::Float(FLOATS[(f % 8) as usize])),
                    null_or(s, Value::text(["a", "b", "c"][(s % 3) as usize])),
                    null_or(m / 16, mixed),
                ]
                .into_boxed_slice(),
            )
            .unwrap();
        }
    }
    rel
}

/// A random expression tree of depth ≤ `depth` drawn from `choices`: the
/// root is always an operator, leaves are mostly the Int and Float columns
/// and numeric literals, sometimes NULL, the text or the mixed column.
fn expr_tree(choices: &mut impl Iterator<Item = u8>, depth: u8) -> ScalarExpr {
    let mut next = || choices.next().unwrap_or(0);
    let c = next();
    if depth == 0 {
        return match c % 16 {
            0..=3 => ScalarExpr::col("T.i"),
            4..=8 => ScalarExpr::col("T.f"),
            9 | 10 => ScalarExpr::lit(INTS[(next() % 8) as usize]),
            11 | 12 => ScalarExpr::lit(FLOATS[(next() % 8) as usize]),
            13 => ScalarExpr::Lit(Value::Null),
            14 => ScalarExpr::col("T.s"),
            _ => ScalarExpr::col("T.m"),
        };
    }
    let d = depth - 1 - next() % depth.min(2); // children may bottom out early
    match c % 8 {
        0 => ScalarExpr::binary(BinOp::Add, expr_tree(choices, d), expr_tree(choices, d)),
        1 => ScalarExpr::binary(BinOp::Sub, expr_tree(choices, d), expr_tree(choices, d)),
        2 | 3 => ScalarExpr::binary(BinOp::Mul, expr_tree(choices, d), expr_tree(choices, d)),
        4 => ScalarExpr::binary(BinOp::Div, expr_tree(choices, d), expr_tree(choices, d)),
        5 => ScalarExpr::Unary(UnaryOp::Neg, Box::new(expr_tree(choices, d))),
        c => {
            let f = if c == 6 { Func::Least } else { Func::Greatest };
            let n = 1 + choices.next().unwrap_or(0) % 3;
            ScalarExpr::Func(f, (0..n).map(|_| expr_tree(choices, d)).collect())
        }
    }
}

/// `e` as a projection item, as the argument of all five aggregates grouped
/// by `k` (with a PageRank-shaped post-aggregate item), and the same
/// aggregates over the whole table.
fn plans_over(e: &ScalarExpr) -> Vec<Plan> {
    let agg = |f: AggFunc| ScalarExpr::Agg(f, Box::new(e.clone()));
    let mut aggs: Vec<(ScalarExpr, String)> = [
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Count,
        AggFunc::Avg,
    ]
    .into_iter()
    .map(|f| (agg(f), f.to_string()))
    .collect();
    aggs.push((
        ScalarExpr::binary(
            BinOp::Add,
            ScalarExpr::binary(BinOp::Mul, ScalarExpr::lit(0.85), agg(AggFunc::Sum)),
            ScalarExpr::binary(BinOp::Div, ScalarExpr::lit(0.15), agg(AggFunc::Count)),
        ),
        "post".into(),
    ));
    let mut grouped = vec![(ScalarExpr::col("T.k"), "k".to_string())];
    grouped.extend(aggs.iter().cloned());
    vec![
        Plan::Project {
            input: Box::new(Plan::scan("T")),
            items: vec![
                (ScalarExpr::col("T.k"), "k".into()),
                (e.clone(), "e".into()),
            ],
        },
        Plan::Aggregate {
            input: Box::new(Plan::scan("T")),
            group_by: vec!["T.k".into()],
            items: grouped,
        },
        Plan::Aggregate {
            input: Box::new(Plan::scan("T")),
            group_by: vec![],
            items: aggs,
        },
    ]
}

/// Predicates around `e`: it compared with a leaf (an Int or Float column,
/// an i64 extreme, NaN / ±∞, NULL — or the text / mixed column, which the
/// bitmap engine must decline) and with another small tree, an Int-vs-Float
/// column comparison, and `And` / `Or` nests of those.
fn preds_over(e: &ScalarExpr, choices: &mut impl Iterator<Item = u8>) -> Vec<ScalarExpr> {
    const CMPS: [BinOp; 6] = [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];
    let mut op = || CMPS[(choices.next().unwrap_or(0) % 6) as usize];
    let (op1, op2, op3) = (op(), op(), op());
    let with_leaf = ScalarExpr::binary(op1, e.clone(), expr_tree(choices, 0));
    let with_tree = ScalarExpr::binary(op2, expr_tree(choices, 1), e.clone());
    let int_vs_float = ScalarExpr::binary(op3, ScalarExpr::col("T.i"), ScalarExpr::col("T.f"));
    let or = |l: &ScalarExpr, r: &ScalarExpr| ScalarExpr::binary(BinOp::Or, l.clone(), r.clone());
    vec![
        ScalarExpr::and(with_leaf.clone(), or(&with_tree, &int_vs_float)),
        or(
            &ScalarExpr::and(int_vs_float.clone(), with_tree.clone()),
            &with_leaf,
        ),
        with_leaf,
        with_tree,
        int_vs_float,
    ]
}

/// `batch::select` ≡ `ops::select_par` on `pred` — rows or error — at chunk
/// sizes on both sides of the input length and of a 64-bit bitmap word,
/// and at worker counts that split the scratch-row fallback into morsels.
fn assert_select_exact(pred: &ScalarExpr, rel: &Relation) -> Result<(), TestCaseError> {
    let reference = select_par(rel, pred, 1, &mut ExecStats::new());
    let input = Batch::from_relation(rel);
    let chunks = [1usize, 7, 64, BATCH_SIZE, rel.len() + 1].map(|chunk| (1, chunk));
    for (par, chunk) in chunks.into_iter().chain([(2, BATCH_SIZE), (8, BATCH_SIZE)]) {
        let out = batch::select(&input, pred, par, chunk, &mut ExecStats::new());
        let out = out.map(|b| b.to_relation());
        match (&reference, out) {
            (Ok(row), Ok(batch)) => {
                prop_assert_eq!(
                    row.rows(),
                    batch.rows(),
                    "{} par={} chunk={}",
                    pred,
                    par,
                    chunk
                )
            }
            (Err(row), Err(batch)) => prop_assert_eq!(row.to_string(), batch.to_string()),
            (row, batch) => prop_assert!(
                false,
                "{} par={} chunk={}: row {:?} vs batch {:?}",
                pred,
                par,
                chunk,
                row.as_ref().map(Relation::len),
                batch.as_ref().map(Relation::len)
            ),
        }
    }
    Ok(())
}

/// Exact value identity: floats by `to_bits` (storage equality would fold
/// `-0.0` into `0.0`). The one thing left open is *which* NaN: when both
/// operands of `+`/`*` are NaNs the hardware returns the first one's sign
/// and payload, and the compiler may commute the operands differently in
/// two loops, so Rust leaves NaN bits of arithmetic results unspecified.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        _ => a == b,
    }
}

/// Row ≡ batch on `plan` at `par` ∈ {1, 2, 8}: rows to the bit, `ExecStats`,
/// and — when the row engine fails — the same error.
fn assert_row_identical(plan: &Plan, c: &Catalog, what: &str) -> Result<(), TestCaseError> {
    for par in [1usize, 2, 8] {
        let row_prof = oracle_like().with_parallelism(par);
        let batch_prof = row_prof.clone().with_exec(ExecMode::Batch);
        match (execute(plan, c, &row_prof), execute(plan, c, &batch_prof)) {
            (Ok((row, row_stats)), Ok((batch, batch_stats))) => {
                prop_assert_eq!(row.len(), batch.len(), "{} par={}", what, par);
                for (r, b) in row.iter().zip(batch.iter()) {
                    prop_assert!(
                        r.iter().zip(b.iter()).all(|(x, y)| same_bits(x, y)),
                        "{} par={}: row {:?} vs batch {:?}",
                        what,
                        par,
                        r,
                        b
                    );
                }
                prop_assert_eq!(row_stats, batch_stats, "{} par={}", what, par);
            }
            (Err(row), Err(batch)) => {
                prop_assert_eq!(row.to_string(), batch.to_string(), "{} par={}", what, par)
            }
            (row, batch) => prop_assert!(
                false,
                "{} par={}: row {:?} vs batch {:?}",
                what,
                par,
                row.map(|r| r.0),
                batch.map(|r| r.0)
            ),
        }
    }
    Ok(())
}

/// What the column evaluator accepts it must compute exactly as the row
/// interpreter does, row by row.
fn assert_evaluator_exact(e: &ScalarExpr, rel: &Relation) -> Result<bool, TestCaseError> {
    let input = Batch::from_relation_with_schema(rel, rel.schema().with_qualifier("T"));
    let Some(col) = batch::eval_expr(e, &input) else {
        return Ok(false);
    };
    let bound = e.bind(input.schema()).unwrap();
    prop_assert_eq!(col.len(), rel.len());
    for (i, row) in rel.iter().enumerate() {
        let want = bound.eval(row);
        prop_assert!(
            matches!(&want, Ok(w) if same_bits(w, &col.value(i))),
            "{} on {:?}: row engine {:?}, column kernel {:?}",
            e,
            row,
            want,
            col.value(i)
        );
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random `+ - * / neg least greatest` trees over Int, Float, NULL-,
    /// NaN- and ±∞-bearing, text and mixed columns: evaluator ≡ interpreter
    /// value for value, and project / grouped / global aggregation of the
    /// tree and selection on comparisons of it ≡ the row engine (bits,
    /// stats, errors) on dense keys (direct-addressed), sparse keys
    /// (hashed) and inputs big enough to split.
    #[test]
    fn column_kernels_match_row_engine(
        picks in proptest::collection::vec(
            (0u8..96, 0u8..64, 0u8..64, 0u8..8, 0u8..128), 0..70),
        choices in proptest::collection::vec(any::<u8>(), 56..57),
        depth in 1u8..4,
        sparse in 0u8..2,
        tile in 0u8..6,
    ) {
        let rel = typed_table(&picks, sparse == 1, tile == 0);
        let mut choices = choices.into_iter();
        let e = expr_tree(&mut choices, depth);
        assert_evaluator_exact(&e, &rel)?;
        let preds = preds_over(&e, &mut choices);
        let qualified = rename(&rel, "T");
        for pred in &preds {
            assert_select_exact(pred, &qualified)?;
        }
        let mut c = Catalog::new();
        c.create_table("T", rel).unwrap();
        for plan in plans_over(&e) {
            assert_row_identical(&plan, &c, &format!("{e} sparse={sparse}"))?;
        }
    }
}

/// The decline path, forced: each expression must be refused by the column
/// evaluator (or, for the control group, accepted) and the plans around it
/// must still agree with the row engine — including the error when the
/// row-major fallback fails.
#[test]
fn declined_expressions_take_the_row_path_and_agree() {
    let picks: Vec<(u8, u8, u8, u8, u8)> = (0..60u8)
        .map(|x| (x.wrapping_mul(7), x, x.wrapping_mul(5), x % 8, x))
        .collect();
    let rel = typed_table(&picks, false, false);
    let col = ScalarExpr::col;
    let bin = ScalarExpr::binary;
    let declined = [
        bin(BinOp::Div, col("T.i"), ScalarExpr::lit(2i64)), // Int / Int can fail per row
        bin(BinOp::Div, col("T.i"), col("T.i")),            // ... and here it does (0 / 0)
        bin(BinOp::Mod, col("T.f"), ScalarExpr::lit(2.0)),
        bin(BinOp::Add, col("T.s"), ScalarExpr::lit(1i64)), // text operand: the row engine errors
        bin(BinOp::Mul, col("T.m"), ScalarExpr::lit(2.0)),  // Mixed column
        ScalarExpr::Func(Func::Least, vec![col("T.i"), col("T.f")]), // result type varies per row
        ScalarExpr::Func(Func::Greatest, vec![]),
        ScalarExpr::Func(Func::Sqrt, vec![col("T.f")]),
        bin(
            BinOp::Add,
            col("T.f"),
            ScalarExpr::Func(Func::Random, vec![]),
        ),
        bin(BinOp::Lt, col("T.i"), col("T.f")),
        bin(BinOp::Add, col("T.f"), ScalarExpr::lit("x")),
    ];
    let accepted = [
        bin(BinOp::Div, col("T.i"), ScalarExpr::lit(2.0)),
        bin(BinOp::Mul, col("T.i"), col("T.f")),
        bin(BinOp::Add, col("T.f"), ScalarExpr::Lit(Value::Null)),
        ScalarExpr::Func(
            Func::Least,
            vec![col("T.f"), ScalarExpr::lit(f64::NAN), col("T.f")],
        ),
        ScalarExpr::Unary(UnaryOp::Neg, Box::new(col("T.i"))),
    ];
    let mut c = Catalog::new();
    c.create_table("T", rel.clone()).unwrap();
    for (e, want) in declined
        .iter()
        .map(|e| (e, false))
        .chain(accepted.iter().map(|e| (e, true)))
    {
        assert_eq!(assert_evaluator_exact(e, &rel).unwrap(), want, "{e}");
        if e.is_deterministic() {
            for plan in plans_over(e) {
                assert_row_identical(&plan, &c, &e.to_string()).unwrap();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The benchmark's statements: Fig. 3 PageRank and Eq. 7 SSSP
// ---------------------------------------------------------------------------

const SSSP_SQL: &str = "with D(ID, vw) as (
   (select V.ID, V.vw from V)
   union by update ID
   (select E.T, min(D.vw + E.ew) from D, E where D.ID = E.F group by E.T))
 select * from D";

/// Fig. 3 PageRank over a directed power-law graph with `1/outdeg` weights.
fn pagerank_case(profile: &EngineProfile) -> (Database, String) {
    use all_in_one::algos::common::{db_for, EdgeStyle};
    let g = all_in_one::graph::gen::power_law(300, 2400, true, 53);
    let mut db = db_for(&g, profile, EdgeStyle::PageRank).unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", g.node_count() as f64);
    (db, all_in_one::algos::pagerank::sql(8))
}

/// Eq. 7 Bellman-Ford from vertex 0 over a 12 × 12 lattice, both directions,
/// weights in [1, 11), zero-weight self-loops, every other distance `+∞`.
fn sssp_case(profile: &EngineProfile) -> (Database, String) {
    use all_in_one::algos::common::{db_for, EdgeStyle};
    let side = 12u32;
    let mut edges = Vec::new();
    let mut x = 0x2545F4914F6CDD1Du64;
    let mut weight = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        1.0 + (x % 10_000) as f64 / 1_000.0
    };
    for v in 0..side * side {
        edges.push((v, v, 0.0));
        for to in [
            (v % side + 1 < side).then_some(v + 1),
            (v + side < side * side).then_some(v + side),
        ]
        .into_iter()
        .flatten()
        {
            let w = weight();
            edges.extend([(v, to, w), (to, v, w)]);
        }
    }
    let mut g = Graph::from_edges((side * side) as usize, &edges, true);
    g.node_weights = (0..side * side)
        .map(|v| if v == 0 { 0.0 } else { f64::INFINITY })
        .collect();
    (
        db_for(&g, profile, EdgeStyle::Raw).unwrap(),
        SSSP_SQL.to_string(),
    )
}

/// `R` after *every* iteration is bit-identical under `Row` and `Batch`:
/// `inf + w`, `min` over `inf`, and `:c * sum(..) + (1 - :c) / :n` are
/// exactly what the column kernels compute on these two statements.
#[test]
fn fixpoint_iterations_are_bit_identical_row_vs_batch() {
    for case in [pagerank_case, sssp_case] {
        let base = oracle_like()
            .with_optimizer(Optimizer::Cost)
            .with_snapshots(true);
        let (mut row_db, sql) = case(&base);
        let (mut batch_db, _) = case(&base.clone().with_exec(ExecMode::Batch));
        let row = row_db.execute(&sql).unwrap();
        let batch = batch_db.execute(&sql).unwrap();
        assert!(row.stats.snapshots.len() >= 8, "{sql}");
        assert_eq!(
            row.stats.snapshots.len(),
            batch.stats.snapshots.len(),
            "{sql}"
        );
        for (it, (r, b)) in row
            .stats
            .snapshots
            .iter()
            .zip(&batch.stats.snapshots)
            .enumerate()
        {
            assert_eq!(r.len(), b.len(), "iteration {it}");
            for (x, y) in r.iter().zip(b.iter()) {
                assert!(
                    x.iter().zip(y.iter()).all(|(v, w)| same_bits(v, w)),
                    "iteration {it}: row {x:?} vs batch {y:?}"
                );
            }
        }
        assert!(
            sql != SSSP_SQL
                || row
                    .relation
                    .iter()
                    .all(|r| r[1].as_f64().unwrap().is_finite()),
            "the lattice is connected: every +inf must have been relaxed"
        );
    }
}

/// Guard: the recursive step's `Aggregate` of both statements runs on the
/// column kernels under the benchmark's `best` profile (`Cost` + `Batch`).
/// An expression or type change that sends it back through the scratch-row
/// interpreter fails here, not in the next benchmark run.
#[test]
fn mv_join_aggregate_stays_on_the_column_kernel() {
    use all_in_one::trace::FieldValue;
    let best = oracle_like()
        .with_optimizer(Optimizer::Cost)
        .with_exec(ExecMode::Batch);
    for case in [pagerank_case, sssp_case] {
        let (mut db, sql) = case(&best);
        let out = db.explain_analyze_opts(&sql, false).unwrap();
        let aggregates: Vec<_> = out
            .trace
            .spans
            .iter()
            .filter(|s| s.name == "aggregate")
            .collect();
        assert!(
            aggregates.len() >= 8,
            "one MV-join aggregate per iteration:\n{}",
            out.report
        );
        for span in aggregates {
            assert!(
                matches!(span.field("typed"), Some(FieldValue::Bool(true))),
                "scratch-row fallback on the hot aggregate:\n{}",
                out.report
            );
        }
        assert!(out.report.contains("typed=true"), "{}", out.report);
    }
}

/// `i64::MIN / -1`, `i64::MIN % -1` and `-i64::MIN` wrap like `+ - *` do —
/// a value, never a panic — in both execution modes.
#[test]
fn int_min_division_and_negation_wrap() {
    for exec in [ExecMode::Row, ExecMode::Batch] {
        let mut db = Database::new(oracle_like().with_exec(exec));
        let mut t = Relation::new(Schema::of(&[("x", DataType::Int), ("y", DataType::Int)]));
        t.extend([row![i64::MIN, -1], row![7, -2]]).unwrap();
        db.create_table("T", t).unwrap();
        let out = db
            .execute("select T.x / T.y, T.x % T.y, -T.x, -(T.x) / -1 from T")
            .unwrap_or_else(|e| panic!("{exec:?}: {e}"));
        assert_eq!(
            out.relation.rows(),
            &[row![i64::MIN, 0, i64::MIN, i64::MIN], row![-3, 1, -7, 7]],
            "{exec:?}"
        );
        let grouped = db
            .execute("select T.y, min(-T.x), sum(T.x / T.y) from T group by T.y")
            .unwrap_or_else(|e| panic!("{exec:?}: {e}"));
        assert_eq!(
            grouped.relation.rows(),
            &[row![-2, -7, -3], row![-1, i64::MIN, i64::MIN]],
            "{exec:?}"
        );
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
