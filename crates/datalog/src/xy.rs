//! XY-programs and XY-stratification (Section 5, Definition 9.3).
//!
//! An XY-program gives every recursive predicate a temporal (stage)
//! argument; each recursive rule must be an **X-rule** (all recursive
//! predicates carry the same stage `T`) or a **Y-rule** (head at `s(T)`,
//! at least one subgoal at `T`, the rest at `T` or `s(T)`).
//!
//! The decidable test from Zaniolo et al. (\[63\], Theorem in Section 5): an
//! XY-program `P` is XY-stratified iff its **bi-state** version `P_bis` is
//! stratified, where the bi-state transform
//! 1. prefixes recursive predicates that share the head's stage with
//!    `new_`,
//! 2. prefixes the other recursive occurrences with `old_`,
//! 3. drops the temporal arguments.

use crate::depgraph::DependencyGraph;
use crate::rule::{Atom, Program, Rule, Temporal};

/// Why a program failed the XY-program syntax check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XyViolation {
    /// A recursive predicate occurrence lacks a temporal argument
    /// (X-condition of Definition 9.3).
    MissingTemporal { rule: String, pred: String },
    /// A rule is neither an X-rule nor a Y-rule.
    NotXOrYRule { rule: String },
}

impl std::fmt::Display for XyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XyViolation::MissingTemporal { rule, pred } => {
                write!(
                    f,
                    "recursive predicate {pred} has no temporal argument in: {rule}"
                )
            }
            XyViolation::NotXOrYRule { rule } => {
                write!(f, "rule is neither an X-rule nor a Y-rule: {rule}")
            }
        }
    }
}

/// Check the XY-program syntax (Definition 9.3) for the given recursive
/// predicates.
pub fn check_xy_syntax(p: &Program, recursive: &[String]) -> Result<(), XyViolation> {
    let is_rec = |name: &str| recursive.iter().any(|r| r == name);
    for rule in &p.rules {
        let rec_atoms: Vec<&Atom> = std::iter::once(&rule.head)
            .chain(rule.body.iter())
            .filter(|a| is_rec(&a.pred))
            .collect();
        if rec_atoms.len() <= 1 && !is_rec(&rule.head.pred) {
            continue; // not a recursive rule
        }
        for a in &rec_atoms {
            if a.temporal.is_none() {
                return Err(XyViolation::MissingTemporal {
                    rule: rule.to_string(),
                    pred: a.pred.clone(),
                });
            }
        }
        let head_t = rule.head.temporal;
        let body_ts: Vec<Temporal> = rule
            .body
            .iter()
            .filter(|a| is_rec(&a.pred))
            .map(|a| a.temporal.unwrap())
            .collect();
        let is_x_rule =
            head_t == Some(Temporal::Var) && body_ts.iter().all(|&t| t == Temporal::Var);
        // Y-rule: head at s(T), subgoals at T or s(T). Definition 9.3
        // additionally asks for *some* subgoal at T; the paper's Theorem 5.1
        // proof however freely writes within-stage rules
        // (`R_2(…, s(T)) :- R_1(…, s(T)), …`), so we accept them here and
        // rely on the bi-state stratification test to reject genuinely
        // circular same-stage programs (a same-stage negation cycle maps to
        // a negative cycle among `new_` predicates).
        let is_y_rule = head_t == Some(Temporal::Succ);
        if is_rec(&rule.head.pred) && !is_x_rule && !is_y_rule {
            return Err(XyViolation::NotXOrYRule {
                rule: rule.to_string(),
            });
        }
    }
    Ok(())
}

/// The bi-state transform `P → P_bis`.
pub fn bi_state(p: &Program, recursive: &[String]) -> Program {
    let is_rec = |name: &str| recursive.iter().any(|r| r == name);
    let rules = p
        .rules
        .iter()
        .map(|rule| {
            let head_t = rule.head.temporal;
            let rename = |a: &Atom| -> Atom {
                let mut out = a.clone();
                if is_rec(&a.pred) {
                    let prefix = if a.temporal == head_t { "new_" } else { "old_" };
                    out.pred = format!("{prefix}{}", a.pred);
                }
                out.temporal = None;
                out
            };
            Rule {
                head: rename(&rule.head),
                body: rule.body.iter().map(rename).collect(),
            }
        })
        .collect();
    Program::new(rules)
}

/// The full XY-stratification test of Theorem 5.1's machinery:
/// XY-syntax holds and the bi-state program is stratified.
pub fn is_xy_stratified(p: &Program, recursive: &[String]) -> Result<bool, XyViolation> {
    check_xy_syntax(p, recursive)?;
    let bis = bi_state(p, recursive);
    Ok(DependencyGraph::from_program(&bis).is_stratified())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Atom, Temporal::*};

    /// The MV-join recursive query from the Theorem 5.1 proof sketch:
    /// `R_q(Y, W, s(T)) :- S(X,Y,W2), R_q(X, W1, T), W = ⊕(W1 ⊙ W2)`
    fn mv_join_xy() -> Program {
        Program::new(vec![Rule::new(
            Atom::new("Rq").with_args(&["Y", "W"]).at(Succ),
            vec![
                Atom::new("S").with_args(&["X", "Y", "W2"]),
                Atom::new("Rq").with_args(&["X", "W1"]).at(Var),
            ],
        )])
    }

    #[test]
    fn mv_join_is_xy_stratified() {
        let p = mv_join_xy();
        assert!(is_xy_stratified(&p, &["Rq".into()]).unwrap());
    }

    #[test]
    fn bi_state_prefixes_correctly() {
        let p = mv_join_xy();
        let bis = bi_state(&p, &["Rq".into()]);
        let r = &bis.rules[0];
        assert_eq!(r.head.pred, "new_Rq");
        assert_eq!(r.body[1].pred, "old_Rq", "different stage → old_");
        assert!(r.head.temporal.is_none());
    }

    #[test]
    fn nonlinear_mm_join_is_xy_stratified() {
        // R_q(X,Y,s(T)) :- R_q(X,Z,T), R_q(Z,Y,T)   (the nonlinear case)
        let p = Program::new(vec![Rule::new(
            Atom::new("Rq").at(Succ),
            vec![Atom::new("Rq").at(Var), Atom::new("Rq").at(Var)],
        )]);
        assert!(is_xy_stratified(&p, &["Rq".into()]).unwrap());
    }

    #[test]
    fn negated_recursive_at_previous_stage_ok() {
        // anti-join on the recursive relation:
        // R_q(X,Y,s(T)) :- R(X,Y), ¬R_q(X,_,T)
        let p = Program::new(vec![Rule::new(
            Atom::new("Rq").at(Succ),
            vec![Atom::new("R"), Atom::new("Rq").negated().at(Var)],
        )]);
        assert!(is_xy_stratified(&p, &["Rq".into()]).unwrap());
    }

    #[test]
    fn union_by_update_rules_are_xy_stratified() {
        // R_q(X,W1,s(T)) :- R(X,W1), ¬R_q(X,_,T)
        // R_q(X,W2,s(T)) :- R_q(X,W2,T)
        let p = Program::new(vec![
            Rule::new(
                Atom::new("Rq").at(Succ),
                vec![Atom::new("R"), Atom::new("Rq").negated().at(Var)],
            ),
            Rule::new(Atom::new("Rq").at(Succ), vec![Atom::new("Rq").at(Var)]),
        ]);
        assert!(is_xy_stratified(&p, &["Rq".into()]).unwrap());
    }

    #[test]
    fn same_stage_self_negation_rejected_by_bistate() {
        // R_q(X, s(T)) :- R(X), ¬R_q(X, s(T)) — the negated subgoal shares
        // the head's stage, so bi-state maps it to ¬new_Rq and new_Rq gets a
        // negative self-loop: not stratified.
        let p = Program::new(vec![Rule::new(
            Atom::new("Rq").at(Succ),
            vec![Atom::new("R"), Atom::new("Rq").negated().at(Succ)],
        )]);
        assert!(!is_xy_stratified(&p, &["Rq".into()]).unwrap());
    }

    #[test]
    fn within_stage_chain_is_accepted() {
        // the Theorem 5.1 proof shape: R_1 at s(T) from R_q at T, then
        // R_2 at s(T) from R_1 at s(T), closing with R_q at s(T).
        let p = Program::new(vec![
            Rule::new(Atom::new("R1").at(Succ), vec![Atom::new("Rq").at(Var)]),
            Rule::new(Atom::new("R2").at(Succ), vec![Atom::new("R1").at(Succ)]),
            Rule::new(Atom::new("Rq").at(Succ), vec![Atom::new("R2").at(Succ)]),
        ]);
        assert!(is_xy_stratified(&p, &["Rq".into(), "R1".into(), "R2".into()]).unwrap());
    }

    #[test]
    fn same_stage_negation_with_t_subgoal_is_not_stratified() {
        // R_q(X, s(T)) :- R_q(X, T), ¬R_q(X, s(T)) — a legal Y-rule by
        // syntax, but new_Rq then depends negatively on itself → the
        // bi-state program is not stratified.
        let p = Program::new(vec![Rule::new(
            Atom::new("Rq").at(Succ),
            vec![Atom::new("Rq").at(Var), Atom::new("Rq").negated().at(Succ)],
        )]);
        assert!(!is_xy_stratified(&p, &["Rq".into()]).unwrap());
    }

    #[test]
    fn missing_temporal_violates_syntax() {
        let p = Program::new(vec![Rule::new(
            Atom::new("Rq").at(Succ),
            vec![Atom::new("Rq")], // recursive subgoal without a stage
        )]);
        assert!(matches!(
            is_xy_stratified(&p, &["Rq".into()]),
            Err(XyViolation::MissingTemporal { .. })
        ));
    }

    #[test]
    fn head_at_t_with_succ_body_is_not_x_or_y() {
        // head at T but a body subgoal at s(T): violates both rule shapes
        let p = Program::new(vec![Rule::new(
            Atom::new("Rq").at(Var),
            vec![Atom::new("Rq").at(Succ)],
        )]);
        assert!(matches!(
            is_xy_stratified(&p, &["Rq".into()]),
            Err(XyViolation::NotXOrYRule { .. })
        ));
    }

    #[test]
    fn x_rule_accepted() {
        // copy rule within a stage: R2(X, T) :- R1(X, T)
        let p = Program::new(vec![
            Rule::new(Atom::new("R1").at(Succ), vec![Atom::new("R1").at(Var)]),
            Rule::new(Atom::new("R2").at(Var), vec![Atom::new("R1").at(Var)]),
        ]);
        assert!(is_xy_stratified(&p, &["R1".into(), "R2".into()]).unwrap());
    }

    #[test]
    fn locally_stratified_example_from_section5() {
        // p(a) :- ¬p(c) ; p(b) :- ¬p(c) — not stratified at the predicate
        // level (self negation), and with no temporal arguments it fails
        // the XY syntax, exactly the paper's motivation for stage args.
        let p = Program::new(vec![
            Rule::new(
                Atom::new("p").with_args(&["a"]),
                vec![Atom::new("p").with_args(&["c"]).negated()],
            ),
            Rule::new(
                Atom::new("p").with_args(&["b"]),
                vec![Atom::new("p").with_args(&["c"]).negated()],
            ),
        ]);
        assert!(!DependencyGraph::from_program(&p).is_stratified());
        assert!(is_xy_stratified(&p, &["p".into()]).is_err());
    }
}
