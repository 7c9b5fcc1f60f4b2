//! Plan rewrites: predicate push-down and the cost-based optimizer.
//!
//! Section 4.3 of the paper points at SQL-level optimizations for
//! path-oriented algorithms, "among them one is early selection"
//! (Ordonez, \[41\]). [`push_selections`] pushes selection conjuncts below
//! joins and products when every column they touch is *qualified* and every
//! qualifier belongs to one side's alias set — the same syntactic
//! discipline the with+ lowering uses for join keys.
//!
//! [`optimize_plan`] is the profile-driven entry point
//! ([`Optimizer::Off`] keeps the paper's fixed Algorithm 1 plans,
//! [`Optimizer::Rules`] applies push-down only, [`Optimizer::Cost`] runs
//! the full pass):
//!
//! 1. flatten each maximal inner-join/product/select region into leaves +
//!    a predicate pool, attributing predicates to leaves by qualifier;
//! 2. enumerate join orders — exact dynamic programming over subset
//!    bitsets minimizing `C_out` (the summed intermediate cardinalities,
//!    estimated by [`crate::stats`]) for regions of ≤ 8 leaves, a greedy
//!    cheapest-pair fallback above;
//! 3. prune unused Scan columns when a Project/Aggregate above the region
//!    caps what escapes, and reduce large anti-join build sides with a
//!    semi-join when statistics prove the key columns NULL-free;
//! 4. restore the region's original output column order with a qualified
//!    projection wherever an order-sensitive consumer (positional set
//!    operation, the PSM runner's `INSERT ... SELECT`) sits above.
//!
//! Every rewrite is a pure function of the plan and the catalog statistics,
//! so EXPLAIN ANALYZE can re-derive the executed plan deterministically.
//! Regions containing non-deterministic predicates (`random()`), bare
//! (unqualifiable) join keys, or duplicated aliases are left untouched.

use crate::expr::{BinOp, ScalarExpr};
use crate::plan::Plan;
use crate::profile::Optimizer;
use crate::stats::estimate;
use aio_storage::Catalog;

/// Aliases visible in a subtree's output (Scan aliases / table names).
fn aliases(plan: &Plan, out: &mut Vec<String>) {
    match plan {
        Plan::Scan { table, alias } => out.push(alias.clone().unwrap_or_else(|| table.clone())),
        Plan::Values(_) => {}
        Plan::Select { input, .. } | Plan::Distinct(input) => aliases(input, out),
        // projections / aggregations rename columns: nothing qualified
        // survives, so nothing can be attributed below them
        Plan::Project { .. } | Plan::Aggregate { .. } | Plan::Window { .. } => {}
        Plan::Join { left, right, .. } | Plan::Product { left, right } => {
            aliases(left, out);
            aliases(right, out);
        }
        // set operations expose the left shape
        Plan::UnionAll { left, .. } | Plan::Union { left, .. } | Plan::Difference { left, .. } => {
            aliases(left, out)
        }
        // semi/anti expose the left side only
        Plan::AntiJoin { left, .. } | Plan::SemiJoin { left, .. } => aliases(left, out),
        Plan::MultiwayJoin { children, .. } => {
            for c in children {
                aliases(c, out);
            }
        }
    }
}

fn split_conjuncts(e: &ScalarExpr, out: &mut Vec<ScalarExpr>) {
    match e {
        ScalarExpr::Binary(BinOp::And, l, r) => {
            split_conjuncts(l, out);
            split_conjuncts(r, out);
        }
        other => out.push(other.clone()),
    }
}

fn conjoin(mut cs: Vec<ScalarExpr>) -> Option<ScalarExpr> {
    let first = cs.pop()?;
    Some(cs.into_iter().fold(first, ScalarExpr::and))
}

/// Do all column references of `e` resolve into `side` (qualified, and the
/// qualifier is one of the side's aliases)?
fn belongs_to(e: &ScalarExpr, side_aliases: &[String]) -> bool {
    let mut cols = Vec::new();
    e.collect_cols(&mut cols);
    !cols.is_empty()
        && cols.iter().all(|c| match c.split_once('.') {
            Some((q, _)) => side_aliases.iter().any(|a| a.eq_ignore_ascii_case(q)),
            None => false,
        })
}

/// Push selections down joins/products wherever attribution is
/// unambiguous. Idempotent.
pub fn push_selections(plan: &Plan) -> Plan {
    push_down(plan.clone())
}

/// Split `pred` into conjuncts attributable to `left`, to `right`, and the
/// rest; wrap each side in its share and return `(left, right, rest)`.
fn split_between(
    pred: &ScalarExpr,
    left: Box<Plan>,
    right: Box<Plan>,
) -> (Box<Plan>, Box<Plan>, Vec<ScalarExpr>) {
    let mut cs = Vec::new();
    split_conjuncts(pred, &mut cs);
    let mut la = Vec::new();
    aliases(&left, &mut la);
    let mut ra = Vec::new();
    aliases(&right, &mut ra);
    let (mut to_left, mut to_right, mut keep) = (vec![], vec![], vec![]);
    for c in cs {
        if belongs_to(&c, &la) {
            to_left.push(c);
        } else if belongs_to(&c, &ra) {
            to_right.push(c);
        } else {
            keep.push(c);
        }
    }
    let wrap = |p: Box<Plan>, cs: Vec<ScalarExpr>| -> Box<Plan> {
        match conjoin(cs) {
            Some(pred) => Box::new(Plan::Select { input: p, pred }),
            None => p,
        }
    };
    (wrap(left, to_left), wrap(right, to_right), keep)
}

fn push_down(plan: Plan) -> Plan {
    let Plan::Select { input, pred } = plan else {
        return plan.map_children(push_down);
    };
    let (below, keep) = match push_down(*input) {
        Plan::Join {
            left,
            right,
            on,
            residual,
            kind,
        } => {
            let (left, right, keep) = split_between(&pred, left, right);
            (
                Plan::Join {
                    left,
                    right,
                    on,
                    residual,
                    kind,
                },
                keep,
            )
        }
        Plan::Product { left, right } => {
            let (left, right, keep) = split_between(&pred, left, right);
            (Plan::Product { left, right }, keep)
        }
        other => (other, vec![pred]),
    };
    match conjoin(keep) {
        Some(pred) => Plan::Select {
            input: Box::new(below),
            pred,
        },
        None => below,
    }
}

// ---------------------------------------------------------------------------
// Cost-based optimization
// ---------------------------------------------------------------------------

/// Regions of at most this many leaves get exact DP join enumeration;
/// larger ones fall back to greedy cheapest-pair.
const DP_MAX_LEAVES: usize = 8;

/// Reduce an anti-join's build side with a semi-join only when it is
/// estimated at least this many times larger than the probe side.
const SEMIJOIN_REDUCTION_RATIO: f64 = 4.0;

/// Profile-driven plan optimization. Pure in `(plan, catalog statistics)`:
/// two calls over an unchanged catalog produce structurally identical
/// plans, which is what lets EXPLAIN ANALYZE re-derive the executed plan.
pub fn optimize_plan(plan: &Plan, catalog: &Catalog, level: Optimizer) -> Plan {
    match level {
        Optimizer::Off => plan.clone(),
        Optimizer::Rules => push_selections(plan),
        Optimizer::Cost => cost_pass(push_selections(plan), catalog, true, None),
    }
}

/// Is this node the root of an inner-join/product/select region?
fn is_region(p: &Plan) -> bool {
    match p {
        Plan::Join {
            kind: crate::ops::JoinType::Inner,
            ..
        }
        | Plan::Product { .. } => true,
        Plan::Select { input, .. } => is_region(input),
        _ => false,
    }
}

/// The recursive cost pass. `sensitive` records whether some consumer above
/// reads this node's output *positionally* (set operations, the PSM
/// runner's `INSERT ... SELECT`): sensitive outputs must keep their exact
/// column order, so reordered regions get a restoring projection and column
/// pruning is disabled. `needed` carries the column references a directly
/// enclosing Project/Aggregate/Window consumes — the license for pruning.
fn cost_pass(plan: Plan, catalog: &Catalog, sensitive: bool, needed: Option<&[String]>) -> Plan {
    if is_region(&plan) {
        if let Some(rewritten) = try_reorder(&plan, catalog, sensitive, needed) {
            return rewritten;
        }
    }
    // A Project/Aggregate/Window caps what escapes its input: the columns
    // it references are the license for pruning below it.
    let capped = |input: Box<Plan>, mut refs: Vec<String>, items: &[(ScalarExpr, String)]| {
        for (e, _) in items {
            e.collect_cols(&mut refs);
        }
        Box::new(cost_pass(*input, catalog, false, Some(&refs)))
    };
    match plan {
        Plan::Project { input, items } => Plan::Project {
            input: capped(input, Vec::new(), &items),
            items,
        },
        Plan::Aggregate {
            input,
            group_by,
            items,
        } => Plan::Aggregate {
            input: capped(input, group_by.clone(), &items),
            group_by,
            items,
        },
        Plan::Window {
            input,
            partition_by,
            items,
        } => Plan::Window {
            input: capped(input, partition_by.clone(), &items),
            partition_by,
            items,
        },
        Plan::AntiJoin {
            left,
            right,
            on,
            imp,
        } => {
            let l = cost_pass(*left, catalog, sensitive, None);
            let r = cost_pass(*right, catalog, false, None);
            let r = semijoin_reduce(&l, r, &on, catalog);
            Plan::AntiJoin {
                left: Box::new(l),
                right: Box::new(r),
                on,
                imp,
            }
        }
        Plan::SemiJoin { left, right, on } => Plan::SemiJoin {
            left: Box::new(cost_pass(*left, catalog, sensitive, None)),
            right: Box::new(cost_pass(*right, catalog, false, None)),
            on,
        },
        // Set operations consume both children positionally.
        Plan::UnionAll { .. } | Plan::Union { .. } | Plan::Difference { .. } => {
            plan.map_children(|c| cost_pass(c, catalog, true, None))
        }
        // Everything else (a multiway join is already worst-case-optimal)
        // passes its own sensitivity down.
        _ => plan.map_children(|c| cost_pass(c, catalog, sensitive, None)),
    }
}

/// Semi-join reduction for anti-join build sides: rows of `right` whose key
/// never occurs in `left` can never eliminate a probe row, so when `right`
/// is estimated ≫ `left` it pays to shrink it first. Applied only in the
/// provably safe shape — both sides are plain scans (no duplicated
/// side-effects or nondeterminism when `left` is re-evaluated inside the
/// semi-join) and statistics certify the right key columns NULL-free
/// (`x NOT IN (...NULL...)` must stay empty, so NULL keys may not be
/// dropped).
fn semijoin_reduce(left: &Plan, right: Plan, on: &[(String, String)], catalog: &Catalog) -> Plan {
    let (Plan::Scan { .. }, Plan::Scan { table, alias }) = (left, &right) else {
        return right;
    };
    let Some(stats) = catalog.stats(table) else {
        return right;
    };
    let Ok(rel) = catalog.relation(table) else {
        return right;
    };
    let schema = rel
        .schema()
        .with_qualifier(alias.as_deref().unwrap_or(table.as_str()));
    for (_, rref) in on {
        match schema.index_of(rref) {
            Ok(i) => match stats.column(i) {
                Some(s) if s.nulls == 0 => {}
                _ => return right,
            },
            Err(_) => return right,
        }
    }
    let l_est = estimate(left, catalog);
    let r_est = estimate(&right, catalog);
    if r_est.rows < SEMIJOIN_REDUCTION_RATIO * l_est.rows.max(1.0) {
        return right;
    }
    Plan::SemiJoin {
        left: Box::new(right),
        right: Box::new(left.clone()),
        on: on.iter().map(|(l, r)| (r.clone(), l.clone())).collect(),
    }
}

/// An equi-join predicate attributed to two distinct leaves.
struct Equi {
    l: String,
    r: String,
    ll: usize,
    rl: usize,
}

/// A DP / greedy table entry: a partial join tree over `leaf_seq`.
struct Cand {
    plan: Plan,
    cost: f64,
    leaf_seq: Vec<usize>,
}

/// Flatten a region into leaves, lifted predicate conjuncts, and raw
/// equi-key pairs.
fn flatten_region(
    p: &Plan,
    leaves: &mut Vec<Plan>,
    preds: &mut Vec<ScalarExpr>,
    keys: &mut Vec<(String, String)>,
) {
    match p {
        Plan::Join {
            left,
            right,
            on,
            residual,
            kind: crate::ops::JoinType::Inner,
        } => {
            flatten_region(left, leaves, preds, keys);
            flatten_region(right, leaves, preds, keys);
            keys.extend(on.iter().cloned());
            if let Some(r) = residual {
                split_conjuncts(r, preds);
            }
        }
        Plan::Product { left, right } => {
            flatten_region(left, leaves, preds, keys);
            flatten_region(right, leaves, preds, keys);
        }
        Plan::Select { input, pred } => {
            flatten_region(input, leaves, preds, keys);
            split_conjuncts(pred, preds);
        }
        other => leaves.push(other.clone()),
    }
}

/// The column identities `(qualifier, name)` a plan outputs, in order.
/// `None` when they cannot be derived exactly (missing table).
fn derive_cols(plan: &Plan, catalog: &Catalog) -> Option<Vec<(Option<String>, String)>> {
    match plan {
        Plan::Scan { table, alias } => {
            let rel = catalog.relation(table).ok()?;
            let q = alias.as_deref().unwrap_or(table.as_str());
            Some(
                rel.schema()
                    .columns()
                    .iter()
                    .map(|c| (Some(q.to_string()), c.name.clone()))
                    .collect(),
            )
        }
        Plan::Values(rel) => Some(
            rel.schema()
                .columns()
                .iter()
                .map(|c| (c.qualifier.clone(), c.name.clone()))
                .collect(),
        ),
        Plan::Select { input, .. } | Plan::Distinct(input) => derive_cols(input, catalog),
        Plan::Project { items, .. }
        | Plan::Aggregate { items, .. }
        | Plan::Window { items, .. } => Some(
            items
                .iter()
                .map(|(_, alias)| match alias.split_once('.') {
                    Some((q, n)) if !q.is_empty() && !n.is_empty() => {
                        (Some(q.to_string()), n.to_string())
                    }
                    _ => (None, alias.clone()),
                })
                .collect(),
        ),
        Plan::Join { left, right, .. } | Plan::Product { left, right } => {
            let mut l = derive_cols(left, catalog)?;
            l.extend(derive_cols(right, catalog)?);
            Some(l)
        }
        Plan::UnionAll { left, .. }
        | Plan::Union { left, .. }
        | Plan::Difference { left, .. }
        | Plan::AntiJoin { left, .. }
        | Plan::SemiJoin { left, .. } => derive_cols(left, catalog),
        Plan::MultiwayJoin { children, .. } => {
            let mut all = Vec::new();
            for c in children {
                all.extend(derive_cols(c, catalog)?);
            }
            Some(all)
        }
    }
}

/// Does `reference` match the column `(qual, name)` under the same rules as
/// `Schema::index_of` (qualifier exact, name case-insensitive)?
fn ref_matches(reference: &str, qual: Option<&str>, name: &str) -> bool {
    match reference.split_once('.') {
        Some((q, n)) => qual == Some(q) && n.eq_ignore_ascii_case(name),
        None => reference.eq_ignore_ascii_case(name),
    }
}

/// Full textual reference for a derived column.
fn full_ref(qual: &Option<String>, name: &str) -> String {
    match qual {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    }
}

/// Attempt the full region rewrite; `None` bails back to the structural
/// recursion (duplicated aliases, unattributable join keys, fewer than two
/// leaves, nondeterministic predicates, or an unrestorable output order).
fn try_reorder(
    plan: &Plan,
    catalog: &Catalog,
    sensitive: bool,
    needed: Option<&[String]>,
) -> Option<Plan> {
    let mut leaves = Vec::new();
    let mut preds = Vec::new();
    let mut keys = Vec::new();
    flatten_region(plan, &mut leaves, &mut preds, &mut keys);
    let n = leaves.len();
    if n < 2 {
        return None;
    }
    // Reordering changes evaluation order; nondeterministic predicates
    // (random()) pin the plan exactly as written.
    if preds.iter().any(|p| !p.is_deterministic()) {
        return None;
    }

    // Alias → leaf attribution; duplicated aliases make it ambiguous.
    let mut alias_of: Vec<(String, usize)> = Vec::new();
    for (i, leaf) in leaves.iter().enumerate() {
        let mut a = Vec::new();
        aliases(leaf, &mut a);
        for al in a {
            let low = al.to_ascii_lowercase();
            if alias_of.iter().any(|(x, _)| *x == low) {
                return None;
            }
            alias_of.push((low, i));
        }
    }
    let leaf_of = |r: &str| -> Option<usize> {
        let (q, _) = r.split_once('.')?;
        let low = q.to_ascii_lowercase();
        alias_of.iter().find(|(a, _)| *a == low).map(|(_, i)| *i)
    };

    // Classify join keys and predicate conjuncts.
    let mut equis: Vec<Equi> = Vec::new();
    let mut leaf_filters: Vec<Vec<ScalarExpr>> = vec![Vec::new(); n];
    let mut residual: Vec<ScalarExpr> = Vec::new();
    for (l, r) in keys {
        match (leaf_of(&l), leaf_of(&r)) {
            (Some(a), Some(b)) if a != b => equis.push(Equi { l, r, ll: a, rl: b }),
            (Some(a), Some(_)) => leaf_filters[a].push(ScalarExpr::eq(
                ScalarExpr::col(l.clone()),
                ScalarExpr::col(r.clone()),
            )),
            // A join key we cannot attribute: reordering could detach it.
            _ => return None,
        }
    }
    for p in preds {
        let mut cols = Vec::new();
        p.collect_cols(&mut cols);
        let hit: Option<Vec<usize>> = cols.iter().map(|c| leaf_of(c)).collect();
        match hit {
            Some(ls) if !ls.is_empty() && ls.iter().all(|x| *x == ls[0]) => {
                leaf_filters[ls[0]].push(p)
            }
            Some(_) => {
                if let ScalarExpr::Binary(BinOp::Eq, a, b) = &p {
                    if let (ScalarExpr::Col(ca), ScalarExpr::Col(cb)) = (&**a, &**b) {
                        let (la, lb) = (leaf_of(ca), leaf_of(cb));
                        if let (Some(la), Some(lb)) = (la, lb) {
                            if la != lb {
                                equis.push(Equi {
                                    l: ca.clone(),
                                    r: cb.clone(),
                                    ll: la,
                                    rl: lb,
                                });
                                continue;
                            }
                        }
                    }
                }
                residual.push(p);
            }
            None => residual.push(p),
        }
    }

    // Output identities for order restoration, before leaves are touched.
    let orig_cols = if sensitive {
        let cols = derive_cols(plan, catalog)?;
        // Every original column must resolve uniquely by name, or the
        // restoring projection would be ambiguous.
        for (q, nm) in &cols {
            let r = full_ref(q, nm);
            let matches = cols
                .iter()
                .filter(|(q2, n2)| ref_matches(&r, q2.as_deref(), n2))
                .count();
            if matches != 1 {
                return None;
            }
        }
        Some(cols)
    } else {
        None
    };

    // Leaves: recurse, apply attributed filters, prune dead Scan columns.
    let prune_refs: Option<Vec<String>> = match (sensitive, needed) {
        (false, Some(refs)) => {
            let mut all = refs.to_vec();
            for e in &equis {
                all.push(e.l.clone());
                all.push(e.r.clone());
            }
            for p in &residual {
                p.collect_cols(&mut all);
            }
            for fs in &leaf_filters {
                for f in fs {
                    f.collect_cols(&mut all);
                }
            }
            Some(all)
        }
        _ => None,
    };
    let leaf_plans: Vec<Plan> = leaves
        .iter()
        .enumerate()
        .map(|(i, leaf)| {
            let mut p = cost_pass((*leaf).clone(), catalog, sensitive, None);
            if let Some(pred) = conjoin(leaf_filters[i].clone()) {
                p = Plan::Select {
                    input: Box::new(p),
                    pred,
                };
            }
            match &prune_refs {
                Some(refs) => prune_scan_columns(p, catalog, refs),
                None => p,
            }
        })
        .collect();

    // Enumerate the join order.
    let cand = if n <= DP_MAX_LEAVES {
        dp_order(&leaf_plans, &equis, catalog)
    } else {
        greedy_order(&leaf_plans, &equis, catalog)
    };
    // Worst-case-optimal check: on a cyclic equality graph, compare the
    // AGM bound of the whole region against the binary candidate's worst
    // case and switch to leapfrog triejoin when it wins.
    let cand = wcoj_candidate(&leaf_plans, &equis, catalog, &cand).unwrap_or(cand);
    let mut out = cand.plan;
    if let Some(pred) = conjoin(residual) {
        out = Plan::Select {
            input: Box::new(out),
            pred,
        };
    }

    // Restore the original column order when someone above reads
    // positionally — unless the enumerator reproduced it exactly.
    if let Some(cols) = orig_cols {
        let identity = cand.leaf_seq.iter().copied().eq(0..n);
        if !identity {
            out = Plan::Project {
                input: Box::new(out),
                items: cols
                    .iter()
                    .map(|(q, nm)| {
                        let r = full_ref(q, nm);
                        (ScalarExpr::col(r.clone()), r)
                    })
                    .collect(),
            };
        }
    }
    Some(out)
}

/// Consider replacing the binary candidate with a worst-case-optimal
/// multiway join. Fires only when:
///
/// 1. every equi endpoint resolves to a concrete leaf column, and no leaf
///    binds the same join variable twice (the trie walks one column per
///    variable);
/// 2. every leaf participates in at least one join variable (no hidden
///    cross-product factors);
/// 3. the hypergraph of per-leaf variable sets is **cyclic** (GYO) — on
///    acyclic (tree-shaped) regions Yannakakis-style binary plans are
///    already optimal and the trie build would be pure overhead;
/// 4. the AGM bound of the whole region is strictly below the binary
///    candidate's *worst case* — the summed AGM bounds of its left-deep
///    prefixes. (Comparing against the independence-assumption `C_out`
///    would never fire: on cyclic patterns that estimate is far below
///    both bounds. The WCOJ argument is precisely about worst cases.)
///
/// The emitted node keeps the children in original leaf order, so its
/// output column order equals the un-reordered region's and no restoring
/// projection is needed.
fn wcoj_candidate(
    leaf_plans: &[Plan],
    equis: &[Equi],
    catalog: &Catalog,
    binary: &Cand,
) -> Option<Cand> {
    let n = leaf_plans.len();
    if equis.is_empty() || n < 3 {
        return None;
    }
    let ests: Vec<crate::stats::NodeEst> =
        leaf_plans.iter().map(|p| estimate(p, catalog)).collect();

    // Union-find over the (leaf, column) endpoints of the equality graph.
    let mut nodes: Vec<(usize, usize)> = Vec::new();
    let node_id = |nodes: &mut Vec<(usize, usize)>, leaf: usize, col: usize| -> usize {
        match nodes.iter().position(|&x| x == (leaf, col)) {
            Some(i) => i,
            None => {
                nodes.push((leaf, col));
                nodes.len() - 1
            }
        }
    };
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for e in equis {
        let cl = ests[e.ll].schema.index_of(&e.l).ok()?;
        let cr = ests[e.rl].schema.index_of(&e.r).ok()?;
        let a = node_id(&mut nodes, e.ll, cl);
        let b = node_id(&mut nodes, e.rl, cr);
        edges.push((a, b));
    }
    let mut parent: Vec<usize> = (0..nodes.len()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for (a, b) in edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
        }
    }
    // Dense variable ids in first-seen (deterministic) order.
    let mut var_of_root: Vec<(usize, usize)> = Vec::new(); // (root, var)
    let mut var_of_node: Vec<usize> = Vec::with_capacity(nodes.len());
    for i in 0..nodes.len() {
        let r = find(&mut parent, i);
        let v = match var_of_root.iter().find(|(rt, _)| *rt == r) {
            Some((_, v)) => *v,
            None => {
                let v = var_of_root.len();
                var_of_root.push((r, v));
                v
            }
        };
        var_of_node.push(v);
    }
    let n_vars = var_of_root.len();

    // Per-leaf variable sets; a leaf binding one variable through two
    // columns, or binding none, disqualifies the region.
    let mut atom_vars: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &(leaf, _)) in nodes.iter().enumerate() {
        let v = var_of_node[i];
        if atom_vars[leaf].contains(&v) {
            return None;
        }
        atom_vars[leaf].push(v);
    }
    if atom_vars.iter().any(|a| a.is_empty()) {
        return None;
    }
    if !crate::wcoj::is_cyclic(&atom_vars) {
        return None;
    }

    // AGM bound of the whole region vs. the binary plan's worst case.
    let atoms: Vec<(f64, Vec<usize>)> = (0..n)
        .map(|i| (ests[i].rows.max(1.0), atom_vars[i].clone()))
        .collect();
    let agm = crate::wcoj::agm_bound(&atoms);
    let mut binary_worst = 0.0;
    for k in 2..=binary.leaf_seq.len() {
        let prefix: Vec<(f64, Vec<usize>)> = binary.leaf_seq[..k]
            .iter()
            .map(|&i| atoms[i].clone())
            .collect();
        binary_worst += crate::wcoj::agm_bound(&prefix);
    }
    if agm >= binary_worst {
        return None;
    }

    // Build the node: elimination order over the variables, then per-leaf
    // column → elimination-position maps.
    let order = crate::wcoj::choose_order(n_vars, &atom_vars);
    let mut pos_of_var = vec![0usize; n_vars];
    for (pos, &v) in order.iter().enumerate() {
        pos_of_var[v] = pos;
    }
    let mut vars: Vec<Vec<Option<usize>>> =
        ests.iter().map(|e| vec![None; e.schema.arity()]).collect();
    for (i, &(leaf, col)) in nodes.iter().enumerate() {
        vars[leaf][col] = Some(pos_of_var[var_of_node[i]]);
    }
    // Name each variable after the first column reference bound to it.
    let mut var_names = vec![String::new(); n_vars];
    for (leaf, lv) in vars.iter().enumerate() {
        for (col, p) in lv.iter().enumerate() {
            if let Some(p) = p {
                if var_names[*p].is_empty() {
                    var_names[*p] = ests[leaf].schema.columns()[col].full_name();
                }
            }
        }
    }
    Some(Cand {
        plan: Plan::MultiwayJoin {
            children: leaf_plans.to_vec(),
            vars,
            var_names,
            agm_est: agm.min(u64::MAX as f64) as u64,
        },
        cost: agm,
        leaf_seq: (0..n).collect(),
    })
}

/// Drop Scan columns no reference in `refs` can match, behind a qualified
/// projection. Applies to bare scans and filtered scans only — exactly the
/// leaves whose schema is known from the catalog.
fn prune_scan_columns(leaf: Plan, catalog: &Catalog, refs: &[String]) -> Plan {
    let scan = match &leaf {
        Plan::Scan { .. } => &leaf,
        Plan::Select { input, .. } if matches!(**input, Plan::Scan { .. }) => input,
        _ => return leaf,
    };
    let Plan::Scan { table, alias } = scan else {
        return leaf;
    };
    let Ok(rel) = catalog.relation(table) else {
        return leaf;
    };
    let q = alias.as_deref().unwrap_or(table.as_str());
    let cols = rel.schema().columns();
    let kept: Vec<String> = cols
        .iter()
        .filter(|c| refs.iter().any(|r| ref_matches(r, Some(q), &c.name)))
        .map(|c| format!("{q}.{}", c.name))
        .collect();
    if kept.is_empty() || kept.len() == cols.len() {
        return leaf;
    }
    Plan::Project {
        input: Box::new(leaf),
        items: kept
            .into_iter()
            .map(|r| (ScalarExpr::col(r.clone()), r))
            .collect(),
    }
}

/// Join keys applicable between two leaf sets, oriented left→right.
fn keys_between(equis: &[Equi], s1: usize, s2: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for e in equis {
        if s1 & (1 << e.ll) != 0 && s2 & (1 << e.rl) != 0 {
            out.push((e.l.clone(), e.r.clone()));
        } else if s2 & (1 << e.ll) != 0 && s1 & (1 << e.rl) != 0 {
            out.push((e.r.clone(), e.l.clone()));
        }
    }
    out
}

fn build_join(left: Plan, right: Plan, keys: Vec<(String, String)>) -> Plan {
    if keys.is_empty() {
        Plan::Product {
            left: Box::new(left),
            right: Box::new(right),
        }
    } else {
        Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
            on: keys,
            residual: None,
            kind: crate::ops::JoinType::Inner,
        }
    }
}

fn leaf_cand(i: usize, plan: &Plan) -> Cand {
    Cand {
        plan: plan.clone(),
        cost: 0.0,
        leaf_seq: vec![i],
    }
}

/// Exact join-order search: dynamic programming over subset bitsets,
/// minimizing `C_out` (summed intermediate cardinalities). Deterministic:
/// masks ascend, submasks descend, strict improvement only.
fn dp_order(leaf_plans: &[Plan], equis: &[Equi], catalog: &Catalog) -> Cand {
    let n = leaf_plans.len();
    let full = (1usize << n) - 1;
    let mut best: Vec<Option<Cand>> = (0..=full).map(|_| None).collect();
    for (i, p) in leaf_plans.iter().enumerate() {
        best[1 << i] = Some(leaf_cand(i, p));
    }
    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let mut s1 = (mask - 1) & mask;
        while s1 > 0 {
            let s2 = mask & !s1;
            if let (Some(a), Some(b)) = (&best[s1], &best[s2]) {
                let plan = build_join(a.plan.clone(), b.plan.clone(), keys_between(equis, s1, s2));
                let rows = estimate(&plan, catalog).rows;
                let cost = a.cost + b.cost + rows;
                if best[mask].as_ref().is_none_or(|c| cost < c.cost) {
                    let mut seq = a.leaf_seq.clone();
                    seq.extend(&b.leaf_seq);
                    best[mask] = Some(Cand {
                        plan,
                        cost,
                        leaf_seq: seq,
                    });
                }
            }
            s1 = (s1 - 1) & mask;
        }
    }
    best[full].take().expect("DP covers the full leaf set")
}

/// Greedy fallback for wide regions: repeatedly join the pair with the
/// smallest estimated output. Deterministic tie-break on pair index.
fn greedy_order(leaf_plans: &[Plan], equis: &[Equi], catalog: &Catalog) -> Cand {
    let mut comps: Vec<(usize, Cand)> = leaf_plans
        .iter()
        .enumerate()
        .map(|(i, p)| (1usize << i, leaf_cand(i, p)))
        .collect();
    while comps.len() > 1 {
        let mut pick: Option<(f64, usize, usize)> = None;
        for i in 0..comps.len() {
            for j in (i + 1)..comps.len() {
                let plan = build_join(
                    comps[i].1.plan.clone(),
                    comps[j].1.plan.clone(),
                    keys_between(equis, comps[i].0, comps[j].0),
                );
                let rows = estimate(&plan, catalog).rows;
                if pick.is_none_or(|(r, _, _)| rows < r) {
                    pick = Some((rows, i, j));
                }
            }
        }
        let (rows, i, j) = pick.expect("at least one pair");
        let (mj, cj) = comps.remove(j);
        let (mi, ci) = comps.remove(i);
        let plan = build_join(ci.plan, cj.plan, keys_between(equis, mi, mj));
        let mut seq = ci.leaf_seq;
        seq.extend(cj.leaf_seq);
        comps.insert(
            i,
            (
                mi | mj,
                Cand {
                    plan,
                    cost: ci.cost + cj.cost + rows,
                    leaf_seq: seq,
                },
            ),
        );
    }
    comps.pop().expect("one component remains").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::ops::anti_join::AntiJoinImpl;
    use crate::plan::execute;
    use crate::profile::oracle_like;
    use crate::JoinType;
    use aio_storage::{edge_schema, node_schema, row, Catalog, Relation};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut e = Relation::new(edge_schema());
        e.extend([row![1, 2, 1.0], row![2, 3, 5.0], row![3, 1, 2.0]])
            .unwrap();
        c.create_table("E", e).unwrap();
        let mut v = Relation::new(node_schema());
        v.extend([row![1, 0.5], row![2, 1.5], row![3, 2.5]])
            .unwrap();
        c.create_table("V", v).unwrap();
        c
    }

    fn filtered_join() -> Plan {
        // σ_{V.vw > 1.0 ∧ E.ew < 3.0} (E ⋈ V)
        Plan::Select {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::scan("E")),
                right: Box::new(Plan::scan("V")),
                on: vec![("E.T".into(), "V.ID".into())],
                residual: None,
                kind: JoinType::Inner,
            }),
            pred: ScalarExpr::and(
                ScalarExpr::binary(BinOp::Gt, ScalarExpr::col("V.vw"), ScalarExpr::lit(1.0)),
                ScalarExpr::binary(BinOp::Lt, ScalarExpr::col("E.ew"), ScalarExpr::lit(3.0)),
            ),
        }
    }

    #[test]
    fn pushes_both_sides() {
        let optimized = push_selections(&filtered_join());
        // the top node is now the join itself
        let Plan::Join { left, right, .. } = &optimized else {
            panic!("expected bare join, got {optimized:?}")
        };
        assert!(matches!(**left, Plan::Select { .. }), "E filter pushed");
        assert!(matches!(**right, Plan::Select { .. }), "V filter pushed");
    }

    #[test]
    fn semantics_preserved() {
        let c = catalog();
        let (a, _) = execute(&filtered_join(), &c, &oracle_like()).unwrap();
        let (b, sb) = execute(&push_selections(&filtered_join()), &c, &oracle_like()).unwrap();
        assert!(a.same_rows_unordered(&b));
        // fewer rows flow into the join
        assert!(sb.rows_produced <= 6);
    }

    #[test]
    fn unqualified_predicates_stay_put() {
        let plan = Plan::Select {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::scan("E")),
                right: Box::new(Plan::scan("V")),
                on: vec![("E.T".into(), "V.ID".into())],
                residual: None,
                kind: JoinType::Inner,
            }),
            // `vw` is unqualified: ambiguous, must not move
            pred: ScalarExpr::binary(BinOp::Gt, ScalarExpr::col("vw"), ScalarExpr::lit(1.0)),
        };
        let optimized = push_selections(&plan);
        assert!(matches!(optimized, Plan::Select { .. }));
    }

    #[test]
    fn cross_side_predicate_stays_above() {
        let plan = Plan::Select {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::scan("E")),
                right: Box::new(Plan::scan("V")),
                on: vec![],
                residual: None,
                kind: JoinType::Inner,
            }),
            pred: ScalarExpr::binary(BinOp::Lt, ScalarExpr::col("E.ew"), ScalarExpr::col("V.vw")),
        };
        let Plan::Select { input, .. } = push_selections(&plan) else {
            panic!("cross predicate must stay above the join")
        };
        assert!(matches!(*input, Plan::Join { .. }));
    }

    #[test]
    fn idempotent() {
        let once = push_selections(&filtered_join());
        let twice = push_selections(&once);
        let c = catalog();
        let (a, _) = execute(&once, &c, &oracle_like()).unwrap();
        let (b, _) = execute(&twice, &c, &oracle_like()).unwrap();
        assert!(a.same_rows_unordered(&b));
    }

    // --- cost-based pass ---

    /// A 30-edge chain graph: statistics make V highly selective under a
    /// `vw < k` predicate.
    fn chain_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut e = Relation::new(edge_schema());
        let mut v = Relation::new(node_schema());
        for i in 0..30i64 {
            e.extend([row![i, i + 1, 1.0]]).unwrap();
        }
        for i in 0..=30i64 {
            v.extend([row![i, i as f64]]).unwrap();
        }
        c.create_table("E", e).unwrap();
        c.create_table("V", v).unwrap();
        c
    }

    /// σ_{V.vw < 2.0}((E1 ⋈_{E1.T=V.ID} V) ⋈_{V.ID=E2.F} E2) — the filter
    /// selects 2 of 31 nodes, so the optimal order starts from V.
    fn three_way() -> Plan {
        Plan::Select {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::Join {
                    left: Box::new(Plan::scan_as("E", "E1")),
                    right: Box::new(Plan::scan("V")),
                    on: vec![("E1.T".into(), "V.ID".into())],
                    residual: None,
                    kind: JoinType::Inner,
                }),
                right: Box::new(Plan::scan_as("E", "E2")),
                on: vec![("V.ID".into(), "E2.F".into())],
                residual: None,
                kind: JoinType::Inner,
            }),
            pred: ScalarExpr::binary(BinOp::Lt, ScalarExpr::col("V.vw"), ScalarExpr::lit(2.0)),
        }
    }

    #[test]
    fn cost_plan_is_equivalent_and_order_preserving() {
        let c = chain_catalog();
        let off = optimize_plan(&three_way(), &c, Optimizer::Off);
        let cost = optimize_plan(&three_way(), &c, Optimizer::Cost);
        let (a, _) = execute(&off, &c, &oracle_like()).unwrap();
        let (b, _) = execute(&cost, &c, &oracle_like()).unwrap();
        assert!(
            a.same_rows_unordered(&b),
            "reordered plan changed the result"
        );
        // positional consumers above must see the same column order
        let names = |r: &Relation| -> Vec<(Option<String>, String)> {
            r.schema()
                .columns()
                .iter()
                .map(|col| (col.qualifier.clone(), col.name.clone()))
                .collect()
        };
        assert_eq!(names(&a), names(&b), "output column order must be restored");
    }

    #[test]
    fn cost_plan_reduces_intermediate_rows() {
        let c = chain_catalog();
        let off = optimize_plan(&three_way(), &c, Optimizer::Off);
        let cost = optimize_plan(&three_way(), &c, Optimizer::Cost);
        let (_, s_off) = execute(&off, &c, &oracle_like()).unwrap();
        let (_, s_cost) = execute(&cost, &c, &oracle_like()).unwrap();
        assert!(
            s_cost.rows_produced < s_off.rows_produced,
            "cost plan should produce fewer intermediate rows ({} vs {})",
            s_cost.rows_produced,
            s_off.rows_produced
        );
    }

    #[test]
    fn reordering_never_drops_or_duplicates_relations() {
        let c = chain_catalog();
        let cost = optimize_plan(&three_way(), &c, Optimizer::Cost);
        let mut before = Vec::new();
        three_way().collect_tables(&mut before);
        let mut after = Vec::new();
        cost.collect_tables(&mut after);
        before.sort();
        after.sort();
        assert_eq!(before, after);
    }

    #[test]
    fn cost_pass_is_deterministic() {
        let c = chain_catalog();
        let a = optimize_plan(&three_way(), &c, Optimizer::Cost);
        let b = optimize_plan(&three_way(), &c, Optimizer::Cost);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "same plan + same stats must give the same shape"
        );
    }

    fn has_project_over_scan(p: &Plan) -> bool {
        p.any(&|n| {
            matches!(n, Plan::Project { input, .. }
                if matches!(**input, Plan::Scan { .. } | Plan::Select { .. }))
        })
    }

    #[test]
    fn projection_pruning_fires_under_a_project() {
        let c = chain_catalog();
        let plan = Plan::Project {
            input: Box::new(three_way()),
            items: vec![(ScalarExpr::col("E1.F"), "F".into())],
        };
        let cost = optimize_plan(&plan, &c, Optimizer::Cost);
        assert!(
            has_project_over_scan(&cost),
            "expected a pruning projection over a scan leaf, got {cost:?}"
        );
        let off = optimize_plan(&plan, &c, Optimizer::Off);
        let (a, _) = execute(&off, &c, &oracle_like()).unwrap();
        let (b, _) = execute(&cost, &c, &oracle_like()).unwrap();
        assert!(a.same_rows_unordered(&b));
    }

    fn anti_catalog() -> Catalog {
        let mut c = Catalog::new();
        // small probe side, large null-free build side
        let mut small = Relation::new(edge_schema());
        small
            .extend([row![1, 2, 1.0], row![2, 3, 1.0], row![9, 99, 1.0]])
            .unwrap();
        c.create_table("S", small).unwrap();
        let mut big = Relation::new(edge_schema());
        for i in 0..40i64 {
            big.extend([row![i, i + 1, 1.0]]).unwrap();
        }
        c.create_table("B", big).unwrap();
        c
    }

    fn anti(imp: AntiJoinImpl) -> Plan {
        Plan::AntiJoin {
            left: Box::new(Plan::scan("S")),
            right: Box::new(Plan::scan("B")),
            on: vec![("S.T".into(), "B.F".into())],
            imp,
        }
    }

    #[test]
    fn semijoin_reduction_fires_when_safe() {
        let c = anti_catalog();
        for imp in AntiJoinImpl::ALL {
            let cost = optimize_plan(&anti(imp), &c, Optimizer::Cost);
            let Plan::AntiJoin { right, .. } = &cost else {
                panic!("anti-join survives, got {cost:?}")
            };
            assert!(
                matches!(**right, Plan::SemiJoin { .. }),
                "build side should be semi-join reduced for {imp:?}, got {right:?}"
            );
            let (a, _) = execute(&anti(imp), &c, &oracle_like()).unwrap();
            let (b, _) = execute(&cost, &c, &oracle_like()).unwrap();
            assert!(
                a.same_rows_unordered(&b),
                "reduction changed {imp:?} result"
            );
        }
    }

    #[test]
    fn semijoin_reduction_skipped_on_nullable_keys() {
        use aio_storage::Value;
        let mut c = anti_catalog();
        // a NULL key on the build side makes NOT IN three-valued: dropping
        // unmatched build rows would change the result, so no reduction.
        c.insert_rows(
            "B",
            vec![row![Value::Null, 7, 1.0]],
            aio_storage::WalPolicy::None,
        )
        .unwrap();
        c.analyze("B").unwrap();
        let cost = optimize_plan(&anti(AntiJoinImpl::NotIn), &c, Optimizer::Cost);
        let Plan::AntiJoin { right, .. } = &cost else {
            panic!("anti-join survives")
        };
        assert!(
            matches!(**right, Plan::Scan { .. }),
            "nullable build key must not be reduced, got {right:?}"
        );
    }
}
