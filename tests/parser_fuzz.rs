//! Property-based parser tests: randomly generated expressions and
//! SELECTs survive print → parse → print (idempotent fixpoint), and the
//! lexer never panics on arbitrary input.

use all_in_one::algebra::{AggFunc, BinOp, UnaryOp};
use all_in_one::storage::Value;
use all_in_one::withplus::ast::{
    ComputedDef, Expr, FromItem, SelectItem, SelectStmt, Subquery, UnionMode, WithPlus,
};
use all_in_one::withplus::{Parser, Statement};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        (0.0f64..100.0).prop_map(Value::Float),
        "[a-z]{1,6}".prop_map(Value::text),
    ]
}

fn arb_col() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z][a-z0-9_]{0,5}",
        ("[A-Z][a-z]{0,3}", "[a-z]{1,4}").prop_map(|(q, c)| format!("{q}.{c}")),
    ]
    .prop_filter("not a keyword", |s| {
        let bare = s.rsplit('.').next().unwrap();
        ![
            "select",
            "from",
            "where",
            "group",
            "by",
            "union",
            "all",
            "update",
            "not",
            "in",
            "exists",
            "is",
            "null",
            "and",
            "or",
            "as",
            "with",
            "on",
            "join",
            "left",
            "full",
            "outer",
            "inner",
            "distinct",
            "over",
            "partition",
            "computed",
            "maxrecursion",
            "recursive",
            "when",
        ]
        .contains(&bare)
    })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_value().prop_map(Expr::Lit),
        arb_col().prop_map(Expr::Col),
        "[a-z]{1,5}".prop_map(Expr::Param),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Eq),
                    Just(BinOp::Lt),
                    Just(BinOp::Ge),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::Binary(op, Box::new(l), Box::new(r))),
            (
                prop_oneof![
                    Just(UnaryOp::Neg),
                    Just(UnaryOp::IsNull),
                    Just(UnaryOp::IsNotNull)
                ],
                inner.clone()
            )
                .prop_map(|(op, x)| Expr::Unary(op, Box::new(x))),
            (
                prop_oneof![
                    Just(AggFunc::Sum),
                    Just(AggFunc::Min),
                    Just(AggFunc::Max),
                    Just(AggFunc::Count)
                ],
                inner.clone()
            )
                .prop_map(|(f, x)| Expr::Agg {
                    func: f,
                    arg: Box::new(x),
                    over_partition_by: None
                }),
            inner
                .clone()
                .prop_map(|x| Expr::Func("coalesce".into(), vec![x, Expr::Lit(Value::Int(0))])),
            inner.prop_map(|x| Expr::Func("sqrt".into(), vec![x])),
        ]
    })
}

fn arb_select() -> impl Strategy<Value = SelectStmt> {
    (
        proptest::collection::vec(arb_expr(), 1..4),
        proptest::collection::vec(arb_col(), 1..3),
        proptest::option::of(arb_expr()),
        any::<bool>(),
    )
        .prop_map(|(items, tables, where_clause, distinct)| SelectStmt {
            distinct,
            items: items
                .into_iter()
                .map(|expr| SelectItem { expr, alias: None })
                .collect(),
            from: tables
                .into_iter()
                .map(|t| FromItem::Table {
                    name: t.rsplit('.').next().unwrap().to_string(),
                    alias: None,
                })
                .collect(),
            where_clause,
            group_by: vec![],
            having: None,
        })
}

/// Bare (unqualified) identifier usable as a relation/column name.
fn arb_name() -> impl Strategy<Value = String> {
    "[A-Z][a-z0-9]{0,4}".prop_filter("not a keyword", |s| {
        !["Union", "With", "Select", "From", "Where", "By"].contains(&s.as_str())
    })
}

fn arb_union_mode() -> impl Strategy<Value = UnionMode> {
    prop_oneof![
        Just(UnionMode::All),
        Just(UnionMode::Distinct),
        Just(UnionMode::ByUpdate(None)),
        proptest::collection::vec("[a-z]{1,4}", 1..3)
            .prop_map(|cols| UnionMode::ByUpdate(Some(dedup_names(cols)))),
    ]
}

fn dedup_names(raw: Vec<String>) -> Vec<String> {
    raw.into_iter()
        .enumerate()
        .map(|(i, c)| format!("{c}{i}"))
        .collect()
}

/// `name [(cols)] as select …` defs for a `computed by` chain; names are
/// index-suffixed so a chain never defines the same relation twice.
fn arb_computed_by() -> impl Strategy<Value = Vec<ComputedDef>> {
    proptest::collection::vec(
        (
            arb_name(),
            proptest::option::of(proptest::collection::vec("[a-z]{1,4}", 1..3)),
            arb_select(),
        ),
        0..3,
    )
    .prop_map(|defs| {
        defs.into_iter()
            .enumerate()
            .map(|(i, (name, cols, query))| ComputedDef {
                name: format!("{name}_n{i}"),
                cols: cols.map(dedup_names),
                query,
            })
            .collect()
    })
}

/// Whole with+ statements: ≥ 2 subqueries (so the union mode is actually
/// printed), optional `computed by` chains, optional `maxrecursion`.
fn arb_withplus() -> impl Strategy<Value = WithPlus> {
    (
        arb_name(),
        proptest::collection::vec("[a-z]{1,4}", 1..4),
        proptest::collection::vec((arb_select(), arb_computed_by()), 2..4),
        arb_union_mode(),
        proptest::option::of(1usize..50),
        arb_select(),
    )
        .prop_map(
            |(rec_name, rec_cols, mut subqueries, union, max_recursion, final_select)| {
                // the parser allows `union by update` to join exactly one
                // initial and one recursive subquery
                if matches!(union, UnionMode::ByUpdate(_)) {
                    subqueries.truncate(2);
                }
                WithPlus {
                    rec_name,
                    rec_cols: dedup_names(rec_cols),
                    subqueries: subqueries
                        .into_iter()
                        .map(|(select, computed_by)| Subquery {
                            select,
                            computed_by,
                        })
                        .collect(),
                    union,
                    max_recursion,
                    final_select,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print → parse → print reaches a fixpoint in one step.
    #[test]
    fn printed_selects_reparse_to_same_ast(s in arb_select()) {
        let printed = s.to_string();
        match Parser::parse_statement(&printed) {
            Ok(Statement::Select(s2)) => {
                let printed2 = s2.to_string();
                let s3 = match Parser::parse_statement(&printed2) {
                    Ok(Statement::Select(x)) => x,
                    other => return Err(TestCaseError::fail(format!("{other:?}"))),
                };
                prop_assert_eq!(s2, s3, "not a fixpoint:\n{}", printed2);
            }
            Ok(other) => return Err(TestCaseError::fail(format!("parsed as {other:?}"))),
            Err(e) => return Err(TestCaseError::fail(format!("{e}\n--- printed ---\n{printed}"))),
        }
    }

    /// with+ statements — `computed by` chains, all union modes including
    /// `union by update [cols]`, and `maxrecursion` — survive print →
    /// parse → print as a one-step fixpoint.
    #[test]
    fn printed_withplus_reparse_to_fixpoint(w in arb_withplus()) {
        let printed = w.to_string();
        match Parser::parse_statement(&printed) {
            Ok(Statement::WithPlus(w2)) => {
                prop_assert_eq!(w2.max_recursion, w.max_recursion);
                prop_assert_eq!(w2.subqueries.len(), w.subqueries.len());
                let printed2 = w2.to_string();
                let w3 = match Parser::parse_statement(&printed2) {
                    Ok(Statement::WithPlus(x)) => x,
                    other => return Err(TestCaseError::fail(format!("{other:?}"))),
                };
                prop_assert_eq!(w2, w3, "not a fixpoint:\n{}", printed2);
            }
            Ok(other) => return Err(TestCaseError::fail(format!("parsed as {other:?}"))),
            Err(e) => return Err(TestCaseError::fail(format!("{e}\n--- printed ---\n{printed}"))),
        }
    }

    /// The lexer/parser never panics on arbitrary garbage.
    #[test]
    fn parser_total_on_garbage(input in ".{0,120}") {
        let _ = Parser::parse_statement(&input);
    }

    /// …nor on arbitrary token-ish soup.
    #[test]
    fn parser_total_on_token_soup(words in proptest::collection::vec(
        prop_oneof![
            Just("select".to_string()), Just("from".to_string()),
            Just("where".to_string()), Just("union".to_string()),
            Just("by".to_string()), Just("update".to_string()),
            Just("computed".to_string()), Just("maxrecursion".to_string()),
            Just("with".to_string()), Just(";".to_string()),
            Just("(".to_string()), Just(")".to_string()),
            Just(",".to_string()), Just("*".to_string()),
            "[a-z]{1,4}", "[0-9]{1,3}"
        ], 0..40))
    {
        let _ = Parser::parse_statement(&words.join(" "));
    }
}

fn parse_withplus(sql: &str) -> WithPlus {
    match Parser::parse_statement(sql) {
        Ok(Statement::WithPlus(w)) => w,
        other => panic!("expected with+, got {other:?}\n--- sql ---\n{sql}"),
    }
}

fn assert_fixpoint(w: &WithPlus) {
    let printed = w.to_string();
    let w2 = parse_withplus(&printed);
    assert_eq!(&w2, w, "not a fixpoint:\n{printed}");
}

/// The Section 6 mutual-recursion emulation — HITS's hub/authority
/// exchange through a 5-relation `computed by` chain — parses with its
/// whole structure intact and reaches a print→parse fixpoint.
#[test]
fn hits_mutual_recursion_emulation_parses_and_roundtrips() {
    let w = parse_withplus(&all_in_one::algos::hits::sql(6));
    assert_eq!(w.rec_name, "H");
    assert_eq!(w.max_recursion, Some(6));
    assert_eq!(w.union, UnionMode::ByUpdate(Some(vec!["ID".into()])));
    assert_eq!(w.subqueries.len(), 2);
    let chain: Vec<&str> = w.subqueries[1]
        .computed_by
        .iter()
        .map(|d| d.name.as_str())
        .collect();
    assert_eq!(chain, ["H_h", "R_a", "R_h", "R_ha", "R_n"]);
    assert!(w.is_recursive_subquery(&w.subqueries[1]));
    assert_fixpoint(&parse_withplus(&w.to_string()));
}

/// `maxrecursion` is preserved exactly by parse and print across the
/// registry's generated queries.
#[test]
fn maxrecursion_survives_parse_and_print() {
    for iters in [1usize, 7, 42] {
        for sql in [
            all_in_one::algos::pagerank::sql(iters),
            all_in_one::algos::tc::sql(iters),
            all_in_one::algos::lp::sql(iters),
        ] {
            let w = parse_withplus(&sql);
            assert_eq!(w.max_recursion, Some(iters), "{sql}");
            assert_fixpoint(&parse_withplus(&w.to_string()));
        }
    }
}

/// Every entry in `parser_fuzz.proptest-regressions` still behaves as
/// recorded: the file format is intact, the parser is total on each saved
/// input, and `with`-prefixed inputs still parse as with+ statements that
/// reach a print→parse fixpoint. (The offline proptest stand-in does not
/// read regressions files itself, so this replays them explicitly.)
#[test]
fn regressions_file_entries_still_behave_as_recorded() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/parser_fuzz.proptest-regressions");
    let text = std::fs::read_to_string(&path).expect("regressions file committed");
    let mut entries = 0usize;
    let mut withplus_inputs = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        entries += 1;
        let rest = line
            .strip_prefix("cc ")
            .unwrap_or_else(|| panic!("regression entry must start with `cc `: {line}"));
        let (hash, note) = rest.split_at(64.min(rest.len()));
        assert!(
            hash.len() == 64 && hash.bytes().all(|b| b.is_ascii_hexdigit()),
            "malformed seed hash in: {line}"
        );
        assert!(
            note.starts_with(" # shrinks to "),
            "missing shrink annotation in: {line}"
        );
        // replay `input = "…"` payloads (other entries record shrunk ASTs
        // in Debug form, which only the format check above applies to)
        let Some(payload) = note
            .split_once("input = \"")
            .and_then(|(_, p)| p.rsplit_once('"').map(|(body, _)| body))
        else {
            continue;
        };
        let input = payload.replace("\\\"", "\"").replace("\\\\", "\\");
        let parsed = Parser::parse_statement(&input); // totality: must not panic
        if input.starts_with("with ") {
            withplus_inputs += 1;
            let Ok(Statement::WithPlus(w)) = parsed else {
                panic!("recorded with+ input no longer parses: {input}");
            };
            assert_fixpoint(&w);
        }
    }
    assert!(
        entries >= 5,
        "expected ≥ 5 regression entries, found {entries}"
    );
    assert!(
        withplus_inputs >= 3,
        "expected ≥ 3 with+ regression inputs, found {withplus_inputs}"
    );
}
