//! Property-based tests for the cost-based optimizer (proptest shim):
//! random left-deep join queries optimized at every level agree row-for-row
//! with the unoptimized plan, join-order enumeration never drops or
//! duplicates a relation, and cardinality estimates are exact where the
//! statistics make exactness possible — cross products and single-table
//! equality selects over columns with known distinct counts. Also pins the
//! regression that `optimizer=Rules` actually pushes selections below joins
//! in with+ / SQL'99 compilation (the pass existed but was dead code before
//! the optimizer knob wired it in).
//!
//! ISSUE 7 adds the WCOJ decision properties: the AGM bound is *exact* on
//! complete (grid) inputs — where the triangle/clique joins actually attain
//! it — and the GYO cyclicity detector never fires on tree-shaped join
//! graphs, so acyclic queries keep their binary plans at every level.

use aio_testkit::Pattern;
use all_in_one::algebra::{
    agm_bound, estimate_nodes, execute, is_cyclic, optimize_plan, BinOp, JoinType, Optimizer, Plan,
    ScalarExpr,
};
use all_in_one::prelude::*;
use all_in_one::storage::Catalog;
use proptest::prelude::*;

/// A small random edge relation E(F, T, ew) over ids 0..k.
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

/// Inputs that fully determine a random left-deep join query over a
/// catalog holding an edge table `E` and a node table `V`: which table
/// each leaf scans, how each new leaf attaches to an earlier one, and an
/// optional range filter on one leaf's float column.
#[derive(Debug, Clone)]
struct QuerySpec {
    leaves: Vec<bool>,         // true → scan E, false → scan V; leaf i aliased L{i}
    attach: Vec<(u8, u8)>,     // leaf i ≥ 1: (earlier-leaf selector, column selector)
    filter: Option<(u8, f64)>, // (leaf selector, threshold) → L{j}.float < threshold
}

fn query() -> impl Strategy<Value = QuerySpec> {
    (
        proptest::collection::vec(any::<bool>(), 2..5),
        proptest::collection::vec((any::<u8>(), any::<u8>()), 3..4),
        proptest::option::of((any::<u8>(), 0.0f64..4.0)),
    )
        .prop_map(|(leaves, attach, filter)| QuerySpec {
            leaves,
            attach,
            filter,
        })
}

/// Join-key columns of leaf `i` (`E` leaves expose F and T, `V` leaves ID).
fn int_cols(spec: &QuerySpec, i: usize) -> &'static [&'static str] {
    if spec.leaves[i] {
        &["F", "T"]
    } else {
        &["ID"]
    }
}

fn float_col(spec: &QuerySpec, i: usize) -> &'static str {
    if spec.leaves[i] {
        "ew"
    } else {
        "vw"
    }
}

fn leaf_scan(spec: &QuerySpec, i: usize) -> Plan {
    let table = if spec.leaves[i] { "E" } else { "V" };
    Plan::scan_as(table, format!("L{i}"))
}

/// Build the left-deep join tree the spec describes. Every join key is a
/// fully qualified reference, so the plan is attributable end to end.
fn build_plan(spec: &QuerySpec) -> Plan {
    let n = spec.leaves.len();
    let mut plan = leaf_scan(spec, 0);
    for i in 1..n {
        let (jsel, csel) = spec.attach[i - 1];
        let j = jsel as usize % i;
        let jcols = int_cols(spec, j);
        let jcol = jcols[csel as usize % jcols.len()];
        let icol = int_cols(spec, i)[0];
        plan = Plan::Join {
            left: Box::new(plan),
            right: Box::new(leaf_scan(spec, i)),
            on: vec![(format!("L{j}.{jcol}"), format!("L{i}.{icol}"))],
            residual: None,
            kind: JoinType::Inner,
        };
    }
    if let Some((fsel, thresh)) = spec.filter {
        let f = fsel as usize % n;
        plan = Plan::Select {
            input: Box::new(plan),
            pred: ScalarExpr::binary(
                BinOp::Lt,
                ScalarExpr::col(format!("L{f}.{}", float_col(spec, f))),
                ScalarExpr::lit(thresh),
            ),
        };
    }
    plan
}

fn catalog(e: Relation, vws: &[f64]) -> Catalog {
    let mut c = Catalog::new();
    let mut v = Relation::new(node_schema());
    for (i, &w) in vws.iter().enumerate() {
        v.push(row![i as i64, w]).unwrap();
    }
    c.create_table("E", e).unwrap();
    c.create_table("V", v).unwrap();
    c
}

/// Does the plan contain a `MultiwayJoin` node anywhere?
fn contains_multiway(p: &Plan) -> bool {
    p.any(&|n| matches!(n, Plan::MultiwayJoin { .. }))
}

fn col_names(r: &Relation) -> Vec<(Option<String>, String)> {
    r.schema()
        .columns()
        .iter()
        .map(|col| (col.qualifier.clone(), col.name.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random plans: the optimized and unoptimized plans agree row-for-row
    /// (same multiset of rows, same output column order for positional
    /// consumers) at every optimizer level, and the optimized plan scans
    /// exactly the same multiset of base relations.
    #[test]
    fn optimized_plans_agree_row_for_row(
        e in matrix(6),
        vws in proptest::collection::vec(0.0f64..4.0, 7..8),
        spec in query(),
    ) {
        let c = catalog(e, &vws);
        let plan = build_plan(&spec);
        let profile = oracle_like();
        let (base, _) = execute(&plan, &c, &profile).unwrap();
        for level in [Optimizer::Rules, Optimizer::Cost] {
            let opt = optimize_plan(&plan, &c, level);

            let (mut before, mut after) = (Vec::new(), Vec::new());
            plan.collect_tables(&mut before);
            opt.collect_tables(&mut after);
            before.sort();
            after.sort();
            prop_assert_eq!(
                &before, &after,
                "{level:?} dropped or duplicated a relation on {spec:?}"
            );

            let (rel, _) = execute(&opt, &c, &profile).unwrap();
            prop_assert!(
                base.same_rows_unordered(&rel),
                "{level:?} changed the result on {spec:?}: {} vs {} rows",
                base.len(),
                rel.len()
            );
            prop_assert_eq!(
                col_names(&base),
                col_names(&rel),
                "{level:?} changed the output column order on {spec:?}"
            );
        }
    }

    /// |A × B| is estimated exactly from per-relation row counts.
    #[test]
    fn cross_product_estimate_is_exact(
        e in matrix(6),
        vws in proptest::collection::vec(0.0f64..4.0, 1..20),
    ) {
        let (erows, vrows) = (e.len() as u64, vws.len() as u64);
        let c = catalog(e, &vws);
        let plan = Plan::Product {
            left: Box::new(Plan::scan("E")),
            right: Box::new(Plan::scan("V")),
        };
        let est = estimate_nodes(&plan, &c);
        prop_assert_eq!(est[0], erows * vrows);
    }

    /// σ_{F = k} over a table where every F value occurs exactly `m` times
    /// is estimated exactly as `m` (rows / NDV with exact sketches).
    #[test]
    fn equality_select_estimate_is_exact(n in 1i64..10, m in 1i64..5, k in any::<u8>()) {
        let mut e = Relation::new(edge_schema());
        for i in 0..n {
            for j in 0..m {
                e.push(row![i, j, 1.0]).unwrap();
            }
        }
        let mut c = Catalog::new();
        c.create_table("E", e).unwrap();
        let plan = Plan::Select {
            input: Box::new(Plan::scan("E")),
            pred: ScalarExpr::binary(
                BinOp::Eq,
                ScalarExpr::col("E.F"),
                ScalarExpr::lit(k as i64 % n),
            ),
        };
        let est = estimate_nodes(&plan, &c);
        prop_assert_eq!(est[0], m as u64, "n={n} m={m}");
    }

    /// Every query the [`query`] strategy can describe has a tree-shaped
    /// join graph (each leaf attaches to exactly one earlier leaf), so the
    /// GYO detector must never let the cost pass emit a `MultiwayJoin`.
    #[test]
    fn cost_never_emits_wcoj_for_tree_shaped_join_graphs(
        e in matrix(6),
        vws in proptest::collection::vec(0.0f64..4.0, 7..8),
        spec in query(),
    ) {
        let c = catalog(e, &vws);
        let plan = build_plan(&spec);
        let opt = optimize_plan(&plan, &c, Optimizer::Cost);
        prop_assert!(
            !contains_multiway(&opt),
            "tree-shaped {spec:?} produced a MultiwayJoin"
        );
    }

    /// The detector itself, on random trees of binary atoms: atom `i+1`
    /// shares one fresh variable with a random earlier atom and keeps one
    /// private variable — a GYO ear at every step, never cyclic.
    #[test]
    fn gyo_is_acyclic_on_random_atom_trees(
        parents in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let n = parents.len() + 1;
        let mut atom_vars: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut next_var = 0usize;
        for (i, &p) in parents.iter().enumerate() {
            let parent = p as usize % (i + 1);
            atom_vars[parent].push(next_var);
            atom_vars[i + 1].push(next_var);
            next_var += 1;
        }
        for a in &mut atom_vars {
            a.push(next_var);
            next_var += 1;
        }
        prop_assert!(!is_cyclic(&atom_vars), "{atom_vars:?}");
    }
}

/// The AGM bound is exact where exactness is attainable: on the complete
/// bipartite (full-grid) edge relation `[k] × [k]`, the triangle join
/// produces exactly `k³ = (k²)^{3/2}` rows and the 4-clique exactly
/// `k⁴ = (k²)²` — and `agm_bound` returns precisely those numbers.
#[test]
fn agm_bound_is_exact_on_complete_grid_inputs() {
    for k in [2usize, 3, 4] {
        let m = (k * k) as f64;
        let tri: Vec<(f64, Vec<usize>)> = Pattern::triangle()
            .atom_vars()
            .into_iter()
            .map(|vs| (m, vs))
            .collect();
        let k3 = (k as f64).powi(3);
        assert!(
            (agm_bound(&tri) - k3).abs() < 1e-6,
            "k={k}: {}",
            agm_bound(&tri)
        );
        let cl4: Vec<(f64, Vec<usize>)> = Pattern::clique(4)
            .atom_vars()
            .into_iter()
            .map(|vs| (m, vs))
            .collect();
        let k4 = (k as f64).powi(4);
        assert!(
            (agm_bound(&cl4) - k4).abs() < 1e-6,
            "k={k}: {}",
            agm_bound(&cl4)
        );

        // the bound is attained: run the triangle on the actual grid
        let mut e = Relation::new(edge_schema());
        for a in 0..k as i64 {
            for b in 0..k as i64 {
                e.push(row![a, b, 1.0]).unwrap();
            }
        }
        let mut c = Catalog::new();
        c.create_table("E", e).unwrap();
        let profile = oracle_like();
        let pat = Pattern::triangle();
        let (wcoj, _) = execute(&pat.wcoj_plan(k * k), &c, &profile).unwrap();
        let (bin, _) = execute(&pat.binary_plan(), &c, &profile).unwrap();
        assert_eq!(wcoj.len(), k * k * k, "k={k}");
        assert_eq!(bin.len(), wcoj.len(), "k={k}");
    }
}

/// Regression for the formerly dead `push_selections` pass: under
/// `optimizer=Rules` the residual WHERE filter must sit *below* the join
/// in the compiled plan (EXPLAIN shows Join above Select), while
/// `optimizer=Off` keeps the paper-faithful filter-on-top shape.
#[test]
fn rules_level_pushes_selections_below_joins() {
    let mut db = Database::new(oracle_like());
    let mut e = Relation::new(edge_schema());
    e.extend([row![1, 2, 1.0], row![2, 3, 1.0], row![3, 4, 1.0]])
        .unwrap();
    let mut v = Relation::new(node_schema());
    v.extend([row![1, 0.5], row![2, 1.5], row![3, 2.5], row![4, 3.5]])
        .unwrap();
    db.create_table("E", e).unwrap();
    db.create_table("V", v).unwrap();
    let sql = "select V.ID from E, V where E.T = V.ID and V.vw < 2.0";

    let pos = |report: &str, needle: &str| {
        report
            .find(needle)
            .unwrap_or_else(|| panic!("no {needle} node in:\n{report}"))
    };

    db.set_optimizer(Optimizer::Off);
    let off = db.explain_analyze_opts(sql, false).unwrap();
    assert!(
        pos(&off.report, "Select") < pos(&off.report, "Join"),
        "Off must keep the filter above the join:\n{}",
        off.report
    );

    db.set_optimizer(Optimizer::Rules);
    let rules = db.explain_analyze_opts(sql, false).unwrap();
    assert!(
        pos(&rules.report, "Join") < pos(&rules.report, "Select"),
        "Rules must push the filter below the join:\n{}",
        rules.report
    );
    assert_eq!(
        off.result.relation.len(),
        rules.result.relation.len(),
        "pushdown changed the result"
    );
}
