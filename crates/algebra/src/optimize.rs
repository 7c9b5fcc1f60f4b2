//! Plan rewrites: predicate push-down and the cost-based optimizer.
//!
//! Section 4.3 of the paper points at SQL-level optimizations for
//! path-oriented algorithms, "among them one is early selection"
//! (Ordonez, \[41\]). [`push_selections`] pushes selection conjuncts below
//! joins and products when every column they touch is *qualified* and one
//! side's output schema resolves them all — the same syntactic discipline
//! the with+ lowering uses for join keys.
//!
//! Every "whose column is this" question here — which side a conjunct
//! belongs to, which leaf a join key binds, what the region outputs and in
//! which order, which scan columns are dead — is a [`Schema::index_of`]
//! lookup in [`Plan::schema`], the executor's own definition; nothing in
//! this module derives a node's columns itself.
//!
//! [`optimize_plan`] is the profile-driven entry point
//! ([`Optimizer::Off`] keeps the paper's fixed Algorithm 1 plans,
//! [`Optimizer::Rules`] applies push-down only, [`Optimizer::Cost`] runs
//! the full pass):
//!
//! 1. flatten each maximal inner-join/product/select region into leaves +
//!    a predicate pool, attributing predicates to the leaf whose schema
//!    resolves their columns;
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
//! (unqualifiable) join keys, or a qualifier two leaves expose are left
//! untouched.

use crate::error::Result;
use crate::expr::{BinOp, ScalarExpr};
use crate::plan::Plan;
use crate::profile::Optimizer;
use crate::stats::estimate;
use aio_storage::{Catalog, Column, DataType, Schema};

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

/// Name of the one column that stands in for a table the catalog does not
/// hold — no stored column can have it.
const PENDING: &str = "*";

/// The schema attribution sees for one side of a join or one leaf of a
/// region: [`Plan::schema`], except that a scan of a table the catalog
/// does not hold stands in as the single column `q.*`. A with+ statement
/// is planned before its recursive relation and its other temporaries
/// exist, so all that is known of such a scan is its qualifier — and every
/// `q.…` reference is taken to be its.
fn visible(plan: &Plan, catalog: &Catalog) -> Result<Schema> {
    if let Plan::Scan { table, alias } = plan {
        if !catalog.contains(table) {
            let q = alias.as_deref().unwrap_or(table);
            return Ok(Schema::new(vec![Column::qualified(
                q,
                PENDING,
                DataType::Any,
            )]));
        }
    }
    let inputs: Vec<Schema> = plan
        .children()
        .into_iter()
        .map(|c| visible(c, catalog))
        .collect::<Result<_>>()?;
    plan.schema_over(catalog, &inputs.iter().collect::<Vec<_>>())
}

/// The side a column reference belongs to: the one whose schema resolves
/// it ([`Schema::index_of`]), or holds the pending table it is qualified
/// by. Only a *qualified* reference belongs anywhere — a bare name stays
/// where it was written, since pushing it below a join could turn an
/// ambiguity error into an answer.
fn owner(reference: &str, sides: &[Schema]) -> Option<usize> {
    if !reference.contains('.') {
        return None;
    }
    let pending = |c: &Column| {
        let rest = c
            .qualifier
            .as_ref()
            .and_then(|q| reference.strip_prefix(q.as_str()));
        c.name == PENDING && rest.is_some_and(|rest| rest.starts_with('.'))
    };
    sides
        .iter()
        .position(|s| s.index_of(reference).is_ok() || s.columns().iter().any(pending))
}

/// The one side every column reference of `e` belongs to, if there is one.
fn side_of(e: &ScalarExpr, sides: &[Schema]) -> Option<usize> {
    let mut cols = Vec::new();
    e.collect_cols(&mut cols);
    let mut owners = cols.iter().map(|c| owner(c, sides));
    let first = owners.next()??;
    owners.all(|o| o == Some(first)).then_some(first)
}

/// Push selections down joins/products wherever attribution is
/// unambiguous. Idempotent.
pub fn push_selections(plan: &Plan, catalog: &Catalog) -> Plan {
    push_down(plan.clone(), catalog)
}

/// Split `pred` into conjuncts attributable to `left`, to `right`, and the
/// rest; wrap each side in its share and return `(left, right, rest)`.
fn split_between(
    pred: &ScalarExpr,
    left: Box<Plan>,
    right: Box<Plan>,
    catalog: &Catalog,
) -> (Box<Plan>, Box<Plan>, Vec<ScalarExpr>) {
    let mut cs = Vec::new();
    split_conjuncts(pred, &mut cs);
    // (no sides, were a schema underivable: every conjunct stays)
    let sides: Vec<Schema> = [&left, &right]
        .into_iter()
        .map(|p| visible(p, catalog))
        .collect::<Result<_>>()
        .unwrap_or_default();
    let (mut to_left, mut to_right, mut keep) = (vec![], vec![], vec![]);
    for c in cs {
        match side_of(&c, &sides) {
            Some(0) => to_left.push(c),
            Some(_) => to_right.push(c),
            None => keep.push(c),
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

fn push_down(plan: Plan, catalog: &Catalog) -> Plan {
    let Plan::Select { input, pred } = plan else {
        return plan.map_children(|c| push_down(c, catalog));
    };
    let (below, keep) = match push_down(*input, catalog) {
        Plan::Join {
            left,
            right,
            on,
            residual,
            kind,
        } => {
            let (left, right, keep) = split_between(&pred, left, right, catalog);
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
            let (left, right, keep) = split_between(&pred, left, right, catalog);
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
        Optimizer::Rules => push_selections(plan, catalog),
        Optimizer::Cost => cost_pass(push_selections(plan, catalog), catalog, true, None),
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
    let (Plan::Scan { .. }, Plan::Scan { table, .. }) = (left, &right) else {
        return right;
    };
    let Some(stats) = catalog.stats(table) else {
        return right;
    };
    let Ok(schema) = right.schema(catalog) else {
        return right;
    };
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

    // Attribution is by leaf schema; a qualifier two leaves expose makes
    // it ambiguous.
    let schemas: Vec<Schema> = leaves
        .iter()
        .map(|l| visible(l, catalog))
        .collect::<Result<_>>()
        .ok()?;
    let quals: Vec<(&str, usize)> = schemas
        .iter()
        .enumerate()
        .flat_map(|(leaf, s)| s.columns().iter().map(move |c| (c, leaf)))
        .filter_map(|(c, leaf)| Some((c.qualifier.as_deref()?, leaf)))
        .collect();
    let shared = |&(q, leaf): &(&str, usize)| {
        let elsewhere = |&(p, other): &(&str, usize)| other != leaf && p.eq_ignore_ascii_case(q);
        quals.iter().any(elsewhere)
    };
    if quals.iter().any(shared) {
        return None;
    }
    let leaf_of = |r: &str| owner(r, &schemas);

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
        if let Some(leaf) = side_of(&p, &schemas) {
            leaf_filters[leaf].push(p);
            continue;
        }
        if let ScalarExpr::Binary(BinOp::Eq, a, b) = &p {
            if let (ScalarExpr::Col(ca), ScalarExpr::Col(cb)) = (&**a, &**b) {
                if let (Some(la), Some(lb)) = (leaf_of(ca), leaf_of(cb)) {
                    // on one leaf it would have been that leaf's filter
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
        residual.push(p);
    }

    // The region's output schema — its leaves', in order — for order
    // restoration, before leaves are touched. Every column must be known
    // and resolve uniquely by its full name, or the restoring projection
    // would be ambiguous.
    let orig_schema = if sensitive {
        let schema = crate::plan::joined(&schemas);
        let restorable = |c: &Column| c.name != PENDING && schema.index_of(&c.full_name()).is_ok();
        if !schema.columns().iter().all(restorable) {
            return None;
        }
        Some(schema)
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
    if let Some(schema) = orig_schema {
        let identity = cand.leaf_seq.iter().copied().eq(0..n);
        if !identity {
            out = Plan::Project {
                input: Box::new(out),
                items: schema
                    .columns()
                    .iter()
                    .map(|c| (ScalarExpr::col(c.full_name()), c.full_name()))
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
    let rows: Vec<f64> = leaf_plans
        .iter()
        .map(|p| estimate(p, catalog).rows)
        .collect();
    let schemas: Vec<Schema> = leaf_plans
        .iter()
        .map(|p| p.schema(catalog))
        .collect::<Result<_>>()
        .ok()?;

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
        let cl = schemas[e.ll].index_of(&e.l).ok()?;
        let cr = schemas[e.rl].index_of(&e.r).ok()?;
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
        .map(|i| (rows[i].max(1.0), atom_vars[i].clone()))
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
    let mut vars: Vec<Vec<Option<usize>>> = schemas.iter().map(|s| vec![None; s.arity()]).collect();
    for (i, &(leaf, col)) in nodes.iter().enumerate() {
        vars[leaf][col] = Some(pos_of_var[var_of_node[i]]);
    }
    // Name each variable after the first column reference bound to it.
    let mut var_names = vec![String::new(); n_vars];
    for (leaf, lv) in vars.iter().enumerate() {
        for (col, p) in lv.iter().enumerate() {
            if let Some(p) = p {
                if var_names[*p].is_empty() {
                    var_names[*p] = schemas[leaf].columns()[col].full_name();
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
    let Ok(schema) = scan.schema(catalog) else {
        return leaf;
    };
    let mut keep = vec![false; schema.arity()];
    for i in refs.iter().filter_map(|r| schema.index_of(r).ok()) {
        keep[i] = true;
    }
    if keep.iter().all(|&k| k) || !keep.contains(&true) {
        return leaf;
    }
    let kept = schema.columns().iter().zip(keep).filter(|(_, k)| *k);
    Plan::Project {
        input: Box::new(leaf),
        items: kept
            .map(|(c, _)| (ScalarExpr::col(c.full_name()), c.full_name()))
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
        let optimized = push_selections(&filtered_join(), &catalog());
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
        let (b, sb) = execute(
            &push_selections(&filtered_join(), &catalog()),
            &c,
            &oracle_like(),
        )
        .unwrap();
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
        let optimized = push_selections(&plan, &catalog());
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
        let Plan::Select { input, .. } = push_selections(&plan, &catalog()) else {
            panic!("cross predicate must stay above the join")
        };
        assert!(matches!(*input, Plan::Join { .. }));
    }

    #[test]
    fn idempotent() {
        let once = push_selections(&filtered_join(), &catalog());
        let twice = push_selections(&once, &catalog());
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
