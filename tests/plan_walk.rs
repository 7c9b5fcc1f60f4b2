//! `Plan::children` is the single definition of a plan's shape and of the
//! evaluator's pre-order. Everything that numbers or walks nodes must
//! agree with it — for a plan that contains every variant: the ids from
//! `walk_pre_order`, the `node` fields the traced evaluator stamps under
//! both `ExecMode`s, the per-node estimates and the EXPLAIN ANALYZE tree.
//! Plus the rewriting side: `map_children` and the two scan-rebinding
//! helpers built on it reach every child, multiway-join children included.
//! And `Plan::schema`, the third fold over it, is what every operator
//! actually outputs — in both `ExecMode`s, before and after optimization.

use aio_testkit::Pattern;
use all_in_one::algebra::explain::{render_analyzed, walk_pre_order};
use all_in_one::algebra::plan::op_name;
use all_in_one::algebra::{
    estimate_nodes, execute, execute_traced, optimize_plan, oracle_like, AggFunc, AntiJoinImpl,
    BinOp, ExecMode, JoinType, Optimizer, Plan, ScalarExpr,
};
use all_in_one::algos::{pagerank, sssp, wcc};
use all_in_one::storage::{edge_schema, node_schema, row, Catalog, Column, Relation, Schema};
use all_in_one::trace::Tracer;
use all_in_one::withplus::ivm::replace_nth_scan;
use all_in_one::withplus::lower::{lower_select, LowerCtx};
use all_in_one::withplus::psm::rebind_scan;
use all_in_one::withplus::{Database, Parser, Statement};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let mut e = Relation::new(edge_schema());
    e.extend([
        row![1, 2, 1.0],
        row![2, 3, 2.0],
        row![3, 1, 3.0],
        row![1, 3, 4.0],
    ])
    .unwrap();
    c.create_table("E", e).unwrap();
    let mut v = Relation::new(node_schema());
    // node 3 is deliberately absent: the anti-join keeps its out-edge and
    // the semi-join (subtracted by the difference) drops it
    v.extend([row![1, 1.0], row![2, 0.0]]).unwrap();
    c.create_table("V", v).unwrap();
    c
}

/// `Project [f AS F, t AS T]` — every branch below is cut to this shape
/// so the positional set operations accept it.
fn ft(input: Plan, f: &str, t: &str) -> Plan {
    Plan::Project {
        input: Box::new(input),
        items: vec![
            (ScalarExpr::col(f), "F".into()),
            (ScalarExpr::col(t), "T".into()),
        ],
    }
}

/// The triangle E1(a,b) ⋈ E2(b,c) ⋈ E3(c,a) as a leapfrog join.
fn triangle() -> Plan {
    Plan::MultiwayJoin {
        children: vec![
            Plan::scan_as("E", "E1"),
            Plan::scan_as("E", "E2"),
            Plan::scan_as("E", "E3"),
        ],
        vars: vec![
            vec![Some(0), Some(1), None],
            vec![Some(1), Some(2), None],
            vec![Some(2), Some(0), None],
        ],
        var_names: vec!["a".into(), "b".into(), "c".into()],
        agm_est: 8,
    }
}

/// An executable plan that contains all 15 variants.
fn every_variant() -> Plan {
    let joined = Plan::Join {
        left: Box::new(Plan::Select {
            input: Box::new(Plan::scan_as("E", "A")),
            pred: ScalarExpr::binary(BinOp::Gt, ScalarExpr::col("A.ew"), ScalarExpr::lit(0.0)),
        }),
        right: Box::new(Plan::scan_as("V", "V1")),
        on: vec![("A.T".into(), "V1.ID".into())],
        residual: None,
        kind: JoinType::Inner,
    };
    let anti = Plan::AntiJoin {
        left: Box::new(Plan::scan_as("E", "B")),
        right: Box::new(Plan::scan_as("V", "V2")),
        on: vec![("B.F".into(), "V2.ID".into())],
        imp: AntiJoinImpl::LeftOuterNull,
    };
    let mut one = Relation::new(node_schema());
    one.push(row![9, 9.0]).unwrap();
    let semi = Plan::SemiJoin {
        left: Box::new(Plan::Window {
            input: Box::new(Plan::scan_as("E", "W")),
            partition_by: vec!["W.F".into()],
            items: vec![
                (ScalarExpr::col("W.F"), "wf".into()),
                (ScalarExpr::col("W.T"), "wt".into()),
                (
                    ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("W.ew"))),
                    "s".into(),
                ),
            ],
        }),
        right: Box::new(Plan::Product {
            left: Box::new(Plan::scan_as("V", "V3")),
            right: Box::new(Plan::Values(one)),
        }),
        on: vec![("wf".into(), "V3.ID".into())],
    };
    Plan::Aggregate {
        input: Box::new(Plan::Distinct(Box::new(Plan::Difference {
            left: Box::new(Plan::Union {
                left: Box::new(Plan::UnionAll {
                    left: Box::new(ft(triangle(), "E1.F", "E1.T")),
                    right: Box::new(ft(joined, "A.F", "A.T")),
                }),
                right: Box::new(ft(anti, "B.F", "B.T")),
            }),
            right: Box::new(ft(semi, "wf", "wt")),
        }))),
        group_by: vec!["F".into()],
        items: vec![
            (ScalarExpr::col("F"), "F".into()),
            (
                ScalarExpr::Agg(AggFunc::Count, Box::new(ScalarExpr::lit(1i64))),
                "n".into(),
            ),
        ],
    }
}

#[test]
fn every_numbering_follows_plan_children() {
    let c = catalog();
    let plan = every_variant();
    let mut walked: Vec<(u64, &str)> = Vec::new();
    walk_pre_order(&plan, &mut |id, p| walked.push((id, op_name(p))));
    let n = walked.len();
    assert_eq!(
        walked.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        (0..n as u64).collect::<Vec<_>>()
    );
    let mut ops: Vec<&str> = walked.iter().map(|(_, op)| *op).collect();
    ops.sort_unstable();
    ops.dedup();
    assert_eq!(
        ops.len(),
        15,
        "the plan must contain every variant: {ops:?}"
    );

    assert_eq!(estimate_nodes(&plan, &c).len(), n);

    let mut results = Vec::new();
    for exec in [ExecMode::Row, ExecMode::Batch] {
        let tracer = Tracer::new();
        let profile = oracle_like().with_exec(exec);
        let (rel, _) = execute_traced(&plan, &c, &profile, Some(&tracer)).unwrap();
        let trace = tracer.finish();
        trace.validate().unwrap();
        let mut traced: Vec<(u64, &str)> = trace
            .spans
            .iter()
            .map(|s| (s.field_u64("node").unwrap(), s.name))
            .collect();
        traced.sort_unstable();
        assert_eq!(
            traced, walked,
            "{exec:?}: span node ids follow the pre-order"
        );
        let spans: Vec<_> = trace.spans.iter().collect();
        let report = render_analyzed(&plan, &spans, false);
        assert_eq!(report.lines().count(), n, "{exec:?}:\n{report}");
        assert!(!report.contains("never executed"), "{exec:?}:\n{report}");
        results.push(rel);
    }
    assert_eq!(results[0].rows(), results[1].rows(), "row and batch agree");
    assert_eq!(
        results[0].rows(),
        &[row![3, 1]],
        "only 3→1 survives the difference"
    );
}

#[test]
fn map_children_identity_preserves_the_plan() {
    fn rebuild(p: Plan) -> Plan {
        p.map_children(rebuild)
    }
    let plan = every_variant();
    assert_eq!(format!("{:?}", rebuild(plan.clone())), format!("{plan:?}"));
    assert_eq!(plan.children().len(), 1);
    assert_eq!(triangle().children().len(), 3);
}

#[test]
fn scan_rebinding_reaches_multiway_children_and_keeps_aliases() {
    let plan = Plan::Distinct(Box::new(Plan::MultiwayJoin {
        children: vec![
            Plan::scan_as("R", "R1"),
            Plan::scan("R"),
            Plan::scan_as("E", "E3"),
        ],
        vars: vec![
            vec![Some(0), None],
            vec![Some(0), None],
            vec![Some(0), None, None],
        ],
        var_names: vec!["a".into()],
        agm_est: 1,
    }));
    // every leaf in scan order: a scan's table and alias, a literal
    // relation as `values` under its first column's qualifier
    let scans = |p: &Plan| {
        let mut out = Vec::new();
        p.visit(&mut |n| match n {
            Plan::Scan { table, alias } => out.push((table.clone(), alias.clone())),
            Plan::Values(rel) => {
                let q = rel.schema().columns()[0].qualifier.clone();
                out.push(("values".to_string(), q));
            }
            _ => {}
        });
        out
    };
    let own = |t: &str, a: &str| (t.to_string(), Some(a.to_string()));

    assert_eq!(
        scans(&rebind_scan(&plan, "r", "__delta_R")),
        vec![
            own("__delta_R", "R1"),
            own("__delta_R", "R"),
            own("E", "E3")
        ]
    );
    let delta = Relation::from_rows(edge_schema(), vec![row![1, 2, 1.0]]).unwrap();
    assert_eq!(
        scans(&replace_nth_scan(&plan, "R", &delta, 1)),
        vec![own("R", "R1"), own("values", "R"), own("E", "E3")]
    );
    // an occurrence index past the last scan rewrites nothing
    assert_eq!(
        scans(&replace_nth_scan(&plan, "R", &delta, 2)),
        scans(&plan)
    );
}

/// A dotted item alias names a *qualified* column on every items-bearing
/// node: `("E.T")` on a project, an aggregate or a window is column `T`
/// under qualifier `E`, so the parent can refer to it as `E.T` or `T`.
#[test]
fn dotted_alias_is_a_qualified_column_on_every_items_node() {
    let c = catalog();
    let items = vec![(ScalarExpr::col("E.T"), "E.T".to_string())];
    let scan = || Box::new(Plan::scan("E"));
    let nodes = [
        Plan::Project {
            input: scan(),
            items: items.clone(),
        },
        Plan::Aggregate {
            input: scan(),
            group_by: vec!["E.T".into()],
            items: items.clone(),
        },
        Plan::Window {
            input: scan(),
            partition_by: vec!["E.T".into()],
            items,
        },
    ];
    // E.T is [2, 3, 1, 3]: the project and the window keep one row per
    // input row, the aggregate one per group
    let expected: [&[i64]; 3] = [&[2, 3, 3], &[2, 3], &[2, 3, 3]];
    for (node, want) in nodes.iter().zip(expected) {
        for reference in ["E.T", "T"] {
            let plan = Plan::Select {
                input: Box::new(node.clone()),
                pred: ScalarExpr::binary(BinOp::Gt, ScalarExpr::col(reference), ScalarExpr::lit(1)),
            };
            for exec in [ExecMode::Row, ExecMode::Batch] {
                let profile = oracle_like().with_exec(exec);
                let rel = execute_traced(&plan, &c, &profile, None)
                    .unwrap_or_else(|e| {
                        panic!("{} as {reference} under {exec:?}: {e:?}", op_name(node))
                    })
                    .0;
                let mut got: Vec<i64> = rel.iter().map(|r| r[0].as_int().unwrap()).collect();
                got.sort_unstable();
                assert_eq!(got, want, "{} as {reference} under {exec:?}", op_name(node));
            }
        }
    }
}

/// `Plan::schema` of every subtree of `plan` is the schema of the relation
/// that subtree evaluates to — qualifier, name and type of every column —
/// under both execution modes.
fn assert_schema_is_what_runs(plan: &Plan, c: &Catalog, what: &str) {
    plan.visit(&mut |p| {
        let declared = p.schema(c).unwrap();
        for exec in [ExecMode::Row, ExecMode::Batch] {
            let (rel, _) = execute(p, c, &oracle_like().with_exec(exec)).unwrap();
            assert_eq!(
                rel.schema(),
                &declared,
                "{what}: {} under {exec:?}",
                op_name(p)
            );
        }
    });
}

#[test]
fn plan_schema_is_the_executed_schema() {
    let c = catalog();
    assert_schema_is_what_runs(&every_variant(), &c, "every variant");
    assert_schema_is_what_runs(&triangle(), &c, "triangle");

    // one-shot cyclic patterns: binary joins at Off, a MultiwayJoin over
    // pruning projections at Cost
    let no_params = Default::default();
    let ctx = LowerCtx::new(&no_params, AntiJoinImpl::LeftOuterNull);
    for pattern in [Pattern::triangle(), Pattern::clique(4)] {
        let Statement::Select(s) = Parser::parse_statement(&pattern.sql()).unwrap() else {
            panic!("{} is a one-shot select", pattern.name)
        };
        let lowered = lower_select(&s, &ctx).unwrap();
        for level in [Optimizer::Off, Optimizer::Cost] {
            let plan = optimize_plan(&lowered, &c, level);
            let multiway = plan.any(&|p| matches!(p, Plan::MultiwayJoin { .. }));
            assert_eq!(multiway, level == Optimizer::Cost, "{}", pattern.name);
            assert_schema_is_what_runs(&plan, &c, &format!("{} {level:?}", pattern.name));
        }
    }

    // with+ statements: planned before the recursive relation exists, as
    // the engine does, then checked with it materialized from the init step
    for (name, sql) in [
        ("pagerank", pagerank::sql(5)),
        ("sssp", sssp::SQL.to_string()),
        ("wcc", wcc::SQL.to_string()),
    ] {
        for level in [Optimizer::Off, Optimizer::Cost] {
            let mut db = Database::new(oracle_like());
            db.catalog = catalog();
            db.set_param("c", 0.85);
            db.set_param("n", 3.0);
            let compiled = db.prepare(&sql).unwrap();
            let [init, rec] = [&compiled.init[0].plan, &compiled.recursive[0].plan]
                .map(|p| optimize_plan(p, &db.catalog, level));
            let fin = optimize_plan(&compiled.final_plan, &db.catalog, level);
            let what = format!("{name} {level:?}");
            assert_schema_is_what_runs(&init, &db.catalog, &what);
            let (r, _) = execute(&init, &db.catalog, &oracle_like()).unwrap();
            let named = compiled
                .rec_cols
                .iter()
                .zip(r.schema().columns())
                .map(|(n, col)| Column::new(n, col.ty));
            let r = Relation::from_rows(Schema::new(named.collect()), r.rows().to_vec()).unwrap();
            db.create_table(&compiled.rec_name, r).unwrap();
            assert_schema_is_what_runs(&rec, &db.catalog, &what);
            assert_schema_is_what_runs(&fin, &db.catalog, &what);
        }
    }
}

/// A scan of a table the catalog does not hold: no schema, the estimator's
/// default cardinality, and — under a consumer that reads positionally,
/// which the root is — a region the cost pass leaves as written.
#[test]
fn a_missing_table_has_one_answer_per_layer() {
    let c = catalog();
    let plan = Plan::Join {
        left: Box::new(Plan::scan("nope")),
        right: Box::new(Plan::scan("E")),
        on: vec![("nope.ID".into(), "E.F".into())],
        residual: None,
        kind: JoinType::Inner,
    };
    assert!(Plan::scan("nope").schema(&c).is_err());
    assert!(plan.schema(&c).is_err(), "the error reaches the root");
    assert_eq!(estimate_nodes(&plan, &c)[1], 1_000);
    let optimized = optimize_plan(&plan, &c, Optimizer::Cost);
    assert_eq!(format!("{optimized:?}"), format!("{plan:?}"));
}
