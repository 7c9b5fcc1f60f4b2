//! Compilation: validated with+ AST → an executable PSM-style program.
//!
//! This is Algorithm 1 of the paper: build a local dependency graph per
//! subquery (the `computed by` part must be cycle-free), certify
//! XY-stratification (Theorem 5.1), then produce the procedure that the
//! interpreter in [`crate::psm`] runs — temp-table creation, per-iteration
//! `INSERT INTO … SELECT`, emptiness conditions `C_i`, and the union /
//! union-by-update step, classified once here on the unoptimized plans
//! (how it folds, how a view of it is maintained, whether its cold loop
//! may be delta-driven).

use crate::ast::{collect_select_tables, Subquery, UnionMode, WithPlus};
use crate::error::{Result, WithPlusError};
use crate::lower::{infer_output_names, lower_select, LowerCtx};
use crate::psm::{classify, Folds};
use crate::translate::DatalogGen;
use aio_algebra::Plan;
use aio_datalog::{is_xy_stratified, Program};

/// One body subquery, lowered: its computed-by materializations in
/// definition order, then the subquery plan itself.
#[derive(Clone, Debug)]
pub struct CompiledStep {
    /// `(relation name, declared column names, plan)`
    pub computed: Vec<(String, Vec<String>, Plan)>,
    pub plan: Plan,
}

/// A fully compiled with+ statement.
#[derive(Clone, Debug)]
pub struct CompiledWithPlus {
    pub rec_name: String,
    pub rec_cols: Vec<String>,
    pub init: Vec<CompiledStep>,
    pub recursive: Vec<CompiledStep>,
    pub union: UnionMode,
    pub max_recursion: Option<usize>,
    pub final_plan: Plan,
    /// `(table, bare column)` pairs the PSM procedure indexes when the
    /// profile builds indexes (Exp-A).
    pub index_specs: Vec<(String, String)>,
    /// The Theorem 5.1 DATALOG program (kept for inspection).
    pub datalog: Program,
    /// How the fixpoint folds, classified here on the unoptimized plans.
    pub(crate) folds: Folds,
}

impl CompiledWithPlus {
    /// Every plan of the statement: per body subquery its `computed by`
    /// plans then its own, and last the final query.
    pub(crate) fn plans(&self) -> impl Iterator<Item = &Plan> {
        self.init
            .iter()
            .chain(&self.recursive)
            .flat_map(|s| s.computed.iter().map(|(_, _, p)| p).chain([&s.plan]))
            .chain([&self.final_plan])
    }

    /// [`CompiledWithPlus::plans`], mutably.
    pub(crate) fn plans_mut(&mut self) -> impl Iterator<Item = &mut Plan> {
        self.init
            .iter_mut()
            .chain(&mut self.recursive)
            .flat_map(|s| {
                s.computed
                    .iter_mut()
                    .map(|(_, _, p)| p)
                    .chain([&mut s.plan])
            })
            .chain([&mut self.final_plan])
    }

    /// Names of the `computed by` relations, in definition order.
    pub(crate) fn computed_names(&self) -> impl Iterator<Item = &String> {
        self.init
            .iter()
            .chain(&self.recursive)
            .flat_map(|s| s.computed.iter().map(|(n, _, _)| n))
    }
}

/// Validate the Section 6 restrictions and compile.
pub fn compile(stmt: &WithPlus, ctx: &LowerCtx<'_>) -> Result<CompiledWithPlus> {
    validate_shape(stmt)?;

    let mut init = Vec::new();
    let mut recursive = Vec::new();
    let mut all_def_names: Vec<String> = Vec::new();
    for q in &stmt.subqueries {
        validate_computed_by(stmt, q)?;
        let step = compile_subquery(stmt, q, ctx)?;
        for (name, _, _) in &step.computed {
            all_def_names.push(name.clone());
        }
        if stmt.is_recursive_subquery(q) {
            recursive.push(step);
        } else {
            init.push(step);
        }
    }

    if init.is_empty() {
        return Err(WithPlusError::Restriction(
            "the with body needs at least one initial subquery".into(),
        ));
    }
    if matches!(stmt.union, UnionMode::ByUpdate(_)) && recursive.len() != 1 {
        return Err(WithPlusError::Restriction(format!(
            "union by update requires exactly one recursive subquery, found {}",
            recursive.len()
        )));
    }
    // also rejects a union-by-update key that is not a column of R
    let folds = classify(stmt, &recursive)?;

    // Theorem 5.1: lower the recursive machinery to DATALOG and test
    // XY-stratification.
    let mut gen = DatalogGen::new(&stmt.rec_name, &all_def_names);
    let mut delta_atoms = Vec::new();
    for step in &recursive {
        for (name, _, plan) in &step.computed {
            gen.emit_def(name, plan);
        }
        delta_atoms.push(gen.emit(&step.plan));
    }
    let recs = gen.recursive_predicates();
    let datalog = gen.close(&stmt.union, delta_atoms);
    match is_xy_stratified(&datalog, &recs) {
        Ok(true) => {}
        Ok(false) => {
            return Err(WithPlusError::NotXyStratified(format!(
                "bi-state program is not stratified:\n{datalog}"
            )))
        }
        Err(v) => return Err(WithPlusError::NotXyStratified(v.to_string())),
    }

    let final_plan = lower_select(&stmt.final_select, ctx)?;

    let mut c = CompiledWithPlus {
        rec_name: stmt.rec_name.clone(),
        rec_cols: stmt.rec_cols.clone(),
        init,
        recursive,
        union: stmt.union.clone(),
        max_recursion: stmt.max_recursion,
        final_plan,
        index_specs: Vec::new(),
        datalog,
        folds,
    };
    // Index specs: every (table, column) used as an equi-join key against a
    // direct scan, gathered across all plans.
    let mut index_specs = Vec::new();
    for p in c.plans() {
        collect_index_specs(p, &mut index_specs);
    }
    index_specs.sort();
    index_specs.dedup();
    c.index_specs = index_specs;
    Ok(c)
}

fn validate_shape(stmt: &WithPlus) -> Result<()> {
    if stmt.rec_cols.is_empty() {
        return Err(WithPlusError::Restriction(
            "the recursive relation needs at least one column".into(),
        ));
    }
    let mut seen = Vec::new();
    for c in &stmt.rec_cols {
        if seen.iter().any(|s: &String| s.eq_ignore_ascii_case(c)) {
            return Err(WithPlusError::Restriction(format!(
                "duplicate column {c} in recursive relation"
            )));
        }
        seen.push(c.clone());
    }
    Ok(())
}

/// The local dependency graph of a subquery's computed-by definitions must
/// be cycle-free: a definition may reference only base tables, the
/// recursive relation, and *earlier* definitions (Section 6).
fn validate_computed_by(stmt: &WithPlus, q: &Subquery) -> Result<()> {
    let mut defined: Vec<String> = Vec::new();
    for d in &q.computed_by {
        if defined.iter().any(|n| n.eq_ignore_ascii_case(&d.name))
            || d.name.eq_ignore_ascii_case(&stmt.rec_name)
        {
            return Err(WithPlusError::Restriction(format!(
                "computed by defines {} twice (or shadows the recursive relation)",
                d.name
            )));
        }
        let mut refs = Vec::new();
        collect_select_tables(&d.query, &mut refs);
        for r in &refs {
            let is_def_name = q.computed_by.iter().any(|x| x.name.eq_ignore_ascii_case(r));
            if is_def_name && !defined.iter().any(|n| n.eq_ignore_ascii_case(r)) {
                return Err(WithPlusError::Restriction(format!(
                    "computed by is cyclic: {} references {} before it is defined",
                    d.name, r
                )));
            }
        }
        defined.push(d.name.clone());
    }
    Ok(())
}

fn compile_subquery(stmt: &WithPlus, q: &Subquery, ctx: &LowerCtx<'_>) -> Result<CompiledStep> {
    let mut computed = Vec::new();
    for d in &q.computed_by {
        let cols = match &d.cols {
            Some(c) => c.clone(),
            None => infer_output_names(&d.query),
        };
        let plan = lower_select(&d.query, ctx)?;
        computed.push((d.name.clone(), cols, plan));
    }
    let plan = lower_select(&q.select, ctx)?;
    // arity check against the recursive relation (star passes through)
    let is_star = q.select.items.len() == 1
        && matches!(&q.select.items[0].expr, crate::ast::Expr::Col(c) if c == "*");
    if !is_star && q.select.items.len() != stmt.rec_cols.len() {
        return Err(WithPlusError::Restriction(format!(
            "subquery produces {} columns but {} has {}",
            q.select.items.len(),
            stmt.rec_name,
            stmt.rec_cols.len()
        )));
    }
    Ok(CompiledStep { computed, plan })
}

/// Collect `(table, bare column)` index candidates: join keys whose side is
/// a direct scan.
fn collect_index_specs(plan: &Plan, out: &mut Vec<(String, String)>) {
    fn scan_target(p: &Plan) -> Option<(String, String)> {
        match p {
            Plan::Scan { table, alias } => Some((
                table.clone(),
                alias.clone().unwrap_or_else(|| table.clone()),
            )),
            _ => None,
        }
    }
    let note = |child: &Plan, refs: Vec<&String>, out: &mut Vec<(String, String)>| {
        if let Some((table, alias)) = scan_target(child) {
            for r in refs {
                let bare = match r.split_once('.') {
                    Some((q, c)) if q.eq_ignore_ascii_case(&alias) => c.to_string(),
                    Some(_) => continue,
                    None => r.clone(),
                };
                out.push((table.to_ascii_lowercase(), bare));
            }
        }
    };
    plan.visit(&mut |p| {
        if let Plan::Join {
            left, right, on, ..
        }
        | Plan::AntiJoin {
            left, right, on, ..
        }
        | Plan::SemiJoin { left, right, on } = p
        {
            note(left, on.iter().map(|(l, _)| l).collect(), out);
            note(right, on.iter().map(|(_, r)| r).collect(), out);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{Parser, Statement};
    use aio_algebra::ops::AntiJoinImpl;
    use aio_storage::Value;
    use std::collections::HashMap;

    fn compile_sql(sql: &str, params: &[(&str, Value)]) -> Result<CompiledWithPlus> {
        let Statement::WithPlus(w) = Parser::parse_statement(sql)? else {
            panic!("expected with+")
        };
        let map: HashMap<String, Value> = params
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let ctx = LowerCtx::new(&map, AntiJoinImpl::LeftOuterNull);
        compile(&w, &ctx)
    }

    const PAGERANK: &str = "\
with P(ID, W) as (
  (select V.ID, 0.0 from V)
  union by update ID
  (select E.T, :c * sum(P.W * E.ew) + (1 - :c) / :n from P, E
   where P.ID = E.F group by E.T)
  maxrecursion 15)
select ID, W from P";

    #[test]
    fn pagerank_compiles_and_is_xy_stratified() {
        let c = compile_sql(
            PAGERANK,
            &[("c", Value::Float(0.85)), ("n", Value::Float(100.0))],
        )
        .unwrap();
        assert_eq!(c.init.len(), 1);
        assert_eq!(c.recursive.len(), 1);
        assert_eq!(c.max_recursion, Some(15));
        assert!(c.index_specs.contains(&("e".to_string(), "F".to_string())));
        let text = c.datalog.to_string();
        assert!(text.contains("P(s(T)) :-"), "{text}");
    }

    #[test]
    fn union_by_update_with_two_recursive_subqueries_rejected() {
        let sql = "\
with P(ID) as (
  (select ID from V)
  union by update ID
  (select P.ID from P)
  union by update ID
  (select P.ID from P))
select ID from P";
        // parser already rejects double union-by-update
        assert!(compile_sql(sql, &[]).is_err());
    }

    #[test]
    fn cyclic_computed_by_rejected() {
        let sql = "\
with R(ID) as (
  (select ID from V)
  union all
  (select ID from A
   computed by
     A as select ID from B;
     B as select ID from R;))
select ID from R";
        let err = compile_sql(sql, &[]).unwrap_err();
        assert!(matches!(err, WithPlusError::Restriction(m) if m.contains("cyclic")));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let sql = "\
with R(ID, W) as (
  (select ID from V)
  union all
  (select R.ID, R.W from R))
select ID from R";
        assert!(compile_sql(sql, &[]).is_err());
    }

    #[test]
    fn missing_initial_subquery_rejected() {
        let sql = "\
with R(ID) as (
  (select R.ID from R))
select ID from R";
        let err = compile_sql(sql, &[]).unwrap_err();
        assert!(matches!(err, WithPlusError::Restriction(m) if m.contains("initial")));
    }

    #[test]
    fn toposort_compiles() {
        let sql = "\
with Topo(ID, L) as (
  (select V.ID, 0 from V where V.ID not in (select E.T from E))
  union all
  (select T_n.ID, T_n.L from T_n
   computed by
     L_n(L) as select max(Topo.L) + 1 from Topo;
     V_1(ID) as select V.ID from V where V.ID not in (select Topo.ID from Topo);
     E_1(F, T) as select E.F, E.T from V_1, E where V_1.ID = E.F;
     T_n(ID, L) as select V_1.ID, L_n.L from V_1, L_n where V_1.ID not in (select E_1.T from E_1);))
select * from Topo";
        let c = compile_sql(sql, &[]).unwrap();
        assert_eq!(c.recursive.len(), 1);
        assert_eq!(c.recursive[0].computed.len(), 4);
        assert_eq!(c.recursive[0].computed[0].1, vec!["L"]);
    }
}
