//! Lowered plans → DATALOG rules (Eqs. 14–22) for the Theorem 5.1 check.
//!
//! Every operator of a recursive subquery becomes a rule over fresh
//! intermediate predicates, staged exactly as the Theorem 5.1 proof sketch
//! stages them: scans of the recursive relation read the *previous* stage
//! (`T`), everything computed within the iteration lives at `s(T)`, and the
//! union mode contributes the closing rules (the copy rule for `union all`,
//! the Eq. 22 pair for union-by-update). Non-monotone constructs —
//! aggregation, windowing, difference, anti-join — mark their inputs
//! negated, so the bi-state stratification test sees them.

use crate::ast::UnionMode;
use aio_algebra::Plan;
use aio_datalog::{Atom, Program, Rule, Temporal};

pub struct DatalogGen {
    rules: Vec<Rule>,
    counter: usize,
    rec: String,
    /// computed-by relation names (stage `s(T)` when scanned)
    defs: Vec<String>,
}

impl DatalogGen {
    pub fn new(rec: &str, defs: &[String]) -> Self {
        DatalogGen {
            rules: Vec::new(),
            counter: 0,
            rec: rec.to_string(),
            defs: defs.to_vec(),
        }
    }

    fn fresh(&mut self) -> String {
        self.counter += 1;
        format!("q{}", self.counter)
    }

    fn scan_atom(&self, table: &str) -> Atom {
        if table.eq_ignore_ascii_case(&self.rec) {
            Atom::new(self.rec.clone()).at(Temporal::Var)
        } else if self.defs.iter().any(|d| d.eq_ignore_ascii_case(table)) {
            Atom::new(table.to_string()).at(Temporal::Succ)
        } else {
            Atom::new(table.to_string())
        }
    }

    /// Emit rules for `plan`; returns the atom naming its result.
    pub fn emit(&mut self, plan: &Plan) -> Atom {
        match plan {
            Plan::Scan { table, .. } => self.scan_atom(table),
            Plan::Values(_) => Atom::new("values"),
            // monotone unary operators preserve the dependency structure
            Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Distinct(input) => {
                // `distinct` is a (benign) duplicate-eliminating negation in
                // the paper's Table 1 discussion, but it never loses tuples
                // of the *set* semantics, so we treat it as monotone like
                // PostgreSQL does when it allows it.
                self.emit(input)
            }
            Plan::Aggregate { input, .. } | Plan::Window { input, .. } => {
                let child = self.emit(input);
                let head = Atom::new(self.fresh()).at(Temporal::Succ);
                self.rules
                    .push(Rule::new(head.clone(), vec![child.negated()]));
                head
            }
            Plan::Join { left, right, .. }
            | Plan::Product { left, right }
            | Plan::SemiJoin { left, right, .. } => {
                let l = self.emit(left);
                let r = self.emit(right);
                let head = Atom::new(self.fresh()).at(Temporal::Succ);
                self.rules.push(Rule::new(head.clone(), vec![l, r]));
                head
            }
            Plan::UnionAll { left, right } | Plan::Union { left, right } => {
                let l = self.emit(left);
                let r = self.emit(right);
                let head = Atom::new(self.fresh()).at(Temporal::Succ);
                self.rules.push(Rule::new(head.clone(), vec![l]));
                self.rules.push(Rule::new(head.clone(), vec![r]));
                head
            }
            Plan::Difference { left, right } | Plan::AntiJoin { left, right, .. } => {
                let l = self.emit(left);
                let r = self.emit(right);
                let head = Atom::new(self.fresh()).at(Temporal::Succ);
                self.rules
                    .push(Rule::new(head.clone(), vec![l, r.negated()]));
                head
            }
            // a multiway join is a conjunction of positive atoms, like Join
            Plan::MultiwayJoin { children, .. } => {
                let atoms: Vec<Atom> = children.iter().map(|c| self.emit(c)).collect();
                let head = Atom::new(self.fresh()).at(Temporal::Succ);
                self.rules.push(Rule::new(head.clone(), atoms));
                head
            }
        }
    }

    /// Emit a named computed-by definition `name(s(T)) :- plan…`.
    pub fn emit_def(&mut self, name: &str, plan: &Plan) {
        let body = self.emit(plan);
        let head = Atom::new(name.to_string()).at(Temporal::Succ);
        self.rules.push(Rule::new(head, vec![body]));
    }

    /// Close the program with the union-mode rules over the recursive
    /// relation; `delta_atoms` name the recursive subqueries' results.
    pub fn close(mut self, union: &UnionMode, delta_atoms: Vec<Atom>) -> Program {
        let rec_succ = Atom::new(self.rec.clone()).at(Temporal::Succ);
        let rec_var = Atom::new(self.rec.clone()).at(Temporal::Var);
        match union {
            UnionMode::All | UnionMode::Distinct => {
                // R(s(T)) :- R(T).   R(s(T)) :- Δ_i(s(T)).
                self.rules.push(Rule::new(rec_succ.clone(), vec![rec_var]));
                for d in delta_atoms {
                    self.rules.push(Rule::new(rec_succ.clone(), vec![d]));
                }
            }
            UnionMode::ByUpdate(_) => {
                // Eq. (22):
                // R(s(T)) :- R(T), ¬Δ(s(T)).   R(s(T)) :- Δ(s(T)).
                for d in delta_atoms {
                    self.rules.push(Rule::new(
                        rec_succ.clone(),
                        vec![rec_var.clone(), d.clone().negated()],
                    ));
                    self.rules.push(Rule::new(rec_succ.clone(), vec![d]));
                }
            }
        }
        Program::new(self.rules)
    }

    /// Recursive predicates of the generated program: the recursive
    /// relation, the computed-by definitions, and every intermediate.
    pub fn recursive_predicates(&self) -> Vec<String> {
        let mut v = vec![self.rec.clone()];
        v.extend(self.defs.iter().cloned());
        v.extend((1..=self.counter).map(|i| format!("q{i}")));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::ops::AntiJoinImpl;
    use aio_algebra::{JoinType, ScalarExpr};
    use aio_datalog::is_xy_stratified;

    fn check(plan: &Plan, rec: &str, union: &UnionMode) -> bool {
        let mut gen = DatalogGen::new(rec, &[]);
        let delta = gen.emit(plan);
        let recs = {
            let mut r = gen.recursive_predicates();
            r.push("__never".into());
            r
        };
        let prog = gen.close(union, vec![delta]);
        is_xy_stratified(&prog, &recs).unwrap_or(false)
    }

    #[test]
    fn pagerank_shape_is_xy_stratified() {
        // Δ = γ(R ⋈ E), union-by-update — the Fig. 3 program.
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::scan("P")),
                right: Box::new(Plan::scan("E")),
                on: vec![("P.ID".into(), "E.F".into())],
                residual: None,
                kind: JoinType::Inner,
            }),
            group_by: vec!["E.T".into()],
            items: vec![(ScalarExpr::col("E.T"), "ID".into())],
        };
        assert!(check(
            &plan,
            "P",
            &UnionMode::ByUpdate(Some(vec!["ID".into()]))
        ));
    }

    #[test]
    fn toposort_shape_is_xy_stratified() {
        // Δ = V ⊼ Topo (anti-join on the recursive relation), union all.
        let plan = Plan::AntiJoin {
            left: Box::new(Plan::scan("V")),
            right: Box::new(Plan::scan("Topo")),
            on: vec![("V.ID".into(), "Topo.ID".into())],
            imp: AntiJoinImpl::LeftOuterNull,
        };
        assert!(check(&plan, "Topo", &UnionMode::All));
    }

    #[test]
    fn nonlinear_self_join_is_xy_stratified() {
        // Floyd-Warshall: Δ = γ(E ⋈ E) with E the recursive relation.
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::scan_as("D", "E1")),
                right: Box::new(Plan::scan_as("D", "E2")),
                on: vec![("E1.T".into(), "E2.F".into())],
                residual: None,
                kind: JoinType::Inner,
            }),
            group_by: vec!["E1.F".into(), "E2.T".into()],
            items: vec![],
        };
        assert!(check(&plan, "D", &UnionMode::ByUpdate(None)));
    }

    #[test]
    fn computed_by_defs_live_at_succ_stage() {
        let mut gen = DatalogGen::new("H", &["H_h".into(), "R_a".into()]);
        gen.emit_def(
            "H_h",
            &Plan::Project {
                input: Box::new(Plan::scan("H")),
                items: vec![],
            },
        );
        gen.emit_def(
            "R_a",
            &Plan::Aggregate {
                input: Box::new(Plan::Join {
                    left: Box::new(Plan::scan("H_h")),
                    right: Box::new(Plan::scan("E")),
                    on: vec![],
                    residual: None,
                    kind: JoinType::Inner,
                }),
                group_by: vec![],
                items: vec![],
            },
        );
        let delta = gen.emit(&Plan::scan("R_a"));
        let recs = gen.recursive_predicates();
        let prog = gen.close(&UnionMode::ByUpdate(None), vec![delta]);
        assert!(is_xy_stratified(&prog, &recs).unwrap());
        // H_h is defined at s(T) from H at T; R_a aggregates H_h within the
        // same stage — acyclic, so the negation is harmless.
        let text = prog.to_string();
        assert!(text.contains("H_h(s(T)) :- H(T)."), "{text}");
    }
}
