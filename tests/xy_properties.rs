//! Property tests for the XY-stratification checker (Section 5,
//! Definition 9.3 / Theorem 5.1 machinery in `crates/datalog/src/xy.rs`).
//!
//! Randomized programs built to the XY grammar must round-trip through the
//! bi-state transform with the `new_`/`old_` prefix discipline intact and
//! be accepted by the checker; targeted mutations of the same programs
//! must be rejected with a diagnostic that names the offending predicate
//! or rule.

use all_in_one::datalog::{
    bi_state, check_xy_syntax, is_xy_stratified, Atom, Program, Rule, Temporal, XyViolation,
};
use proptest::prelude::*;

const REC: [&str; 3] = ["R0", "R1", "R2"];
const EDB: [&str; 3] = ["e0", "e1", "e2"];

fn rec_names(k: usize) -> Vec<String> {
    REC[..k].iter().map(|s| s.to_string()).collect()
}

/// One body atom: recursive (by index, positive, stage chosen later by the
/// rule shape) or EDB (possibly negated, never staged).
#[derive(Clone, Debug)]
enum BodyAtom {
    Rec {
        idx: usize,
        succ: bool,
        negated: bool,
    },
    Edb {
        idx: usize,
        negated: bool,
    },
}

#[derive(Clone, Debug)]
struct RuleSpec {
    head: usize,
    y_rule: bool,
    body: Vec<BodyAtom>,
}

/// Materialize a spec into a syntactically valid XY rule over `k`
/// recursive predicates:
/// - X-rule: head and all recursive subgoals at `T`, recursive subgoals
///   kept positive (a same-stage negation is exactly what must be
///   *rejected*, so the generator never produces one);
/// - Y-rule: head at `s(T)`, recursive subgoals at `T` or `s(T)`,
///   negated recursive subgoals forced to the previous stage `T`.
fn build_rule(spec: &RuleSpec, k: usize) -> Rule {
    let head_t = if spec.y_rule {
        Temporal::Succ
    } else {
        Temporal::Var
    };
    let head = Atom::new(REC[spec.head % k]).with_args(&["X"]).at(head_t);
    let body = spec
        .body
        .iter()
        .map(|b| match *b {
            BodyAtom::Rec { idx, succ, negated } => {
                // X-rules keep everything within stage T; a Y-rule may use
                // s(T) only on positive subgoals (negation goes against the
                // closed previous stage)
                let t = if spec.y_rule && !negated && succ {
                    Temporal::Succ
                } else {
                    Temporal::Var
                };
                let a = Atom::new(REC[idx % k]).with_args(&["X"]).at(t);
                if negated && spec.y_rule {
                    a.negated()
                } else {
                    a
                }
            }
            BodyAtom::Edb { idx, negated } => {
                let a = Atom::new(EDB[idx % EDB.len()]).with_args(&["X"]);
                if negated {
                    a.negated()
                } else {
                    a
                }
            }
        })
        .collect();
    Rule::new(head, body)
}

fn arb_body_atom() -> impl Strategy<Value = BodyAtom> {
    prop_oneof![
        (0usize..3, any::<bool>(), any::<bool>()).prop_map(|(idx, succ, negated)| BodyAtom::Rec {
            idx,
            succ,
            negated
        }),
        (0usize..3, any::<bool>()).prop_map(|(idx, negated)| BodyAtom::Edb { idx, negated }),
    ]
}

fn arb_program() -> impl Strategy<Value = (Program, Vec<String>)> {
    (
        1usize..4,
        proptest::collection::vec(
            (
                0usize..3,
                any::<bool>(),
                proptest::collection::vec(arb_body_atom(), 1..4),
            )
                .prop_map(|(head, y_rule, body)| RuleSpec { head, y_rule, body }),
            1..6,
        ),
    )
        .prop_map(|(k, specs)| {
            let rules = specs.iter().map(|s| build_rule(s, k)).collect();
            (Program::new(rules), rec_names(k))
        })
}

/// Does the rule mention a staged recursive subgoal (needed before some
/// mutations can apply)?
fn first_rec_body_pos(rule: &Rule, rec: &[String]) -> Option<usize> {
    rule.body
        .iter()
        .position(|a| rec.iter().any(|r| r == &a.pred))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Programs generated to the XY grammar pass the syntax check and the
    /// full Theorem 5.1 test (their bi-state versions are stratified: the
    /// generator never emits a same-stage negation).
    #[test]
    fn generated_xy_programs_are_accepted(case in arb_program()) {
        let (p, rec) = case;
        prop_assert!(check_xy_syntax(&p, &rec).is_ok());
        match is_xy_stratified(&p, &rec) {
            Ok(true) => {}
            other => return Err(TestCaseError::fail(format!("{other:?} in {p:?}"))),
        }
    }

    /// Bi-state round-trip (Definition 9.3's decidable reduction): every
    /// temporal is dropped, recursive predicates sharing the head's stage
    /// become `new_*`, the rest `old_*`, and nothing else changes.
    #[test]
    fn bi_state_transform_roundtrips_structure(case in arb_program()) {
        let (p, rec) = case;
        let bis = bi_state(&p, &rec);
        prop_assert_eq!(bis.rules.len(), p.rules.len());
        for (orig, b) in p.rules.iter().zip(&bis.rules) {
            prop_assert_eq!(orig.body.len(), b.body.len());
            let head_t = orig.head.temporal;
            for (oa, ba) in std::iter::once((&orig.head, &b.head))
                .chain(orig.body.iter().zip(&b.body))
            {
                prop_assert!(ba.temporal.is_none(), "temporal survived: {}", ba);
                prop_assert_eq!(&oa.args, &ba.args);
                prop_assert_eq!(oa.negated, ba.negated);
                if rec.contains(&oa.pred) {
                    let want = if oa.temporal == head_t {
                        format!("new_{}", oa.pred)
                    } else {
                        format!("old_{}", oa.pred)
                    };
                    prop_assert_eq!(&ba.pred, &want);
                } else {
                    prop_assert_eq!(&ba.pred, &oa.pred);
                }
            }
        }
    }

    /// Stripping the stage argument from a recursive head turns the program
    /// into a non-XY program, and the diagnostic names the predicate.
    #[test]
    fn dropping_a_temporal_is_rejected_with_the_pred_named(case in arb_program()) {
        let (p, rec) = case;
        let mut bad = p.clone();
        bad.rules[0].head.temporal = None;
        let head_pred = bad.rules[0].head.pred.clone();
        match check_xy_syntax(&bad, &rec) {
            Err(v @ XyViolation::MissingTemporal { .. }) => {
                prop_assert!(
                    v.to_string().contains(&head_pred),
                    "diagnostic `{}` does not name {}", v, head_pred
                );
            }
            other => return Err(TestCaseError::fail(format!("{other:?} in {bad:?}"))),
        }
        prop_assert!(is_xy_stratified(&bad, &rec).is_err());
    }

    /// A head at stage `T` with a body subgoal at `s(T)` is neither an
    /// X-rule nor a Y-rule; the diagnostic carries the offending rule.
    #[test]
    fn head_at_t_with_succ_subgoal_is_rejected(case in arb_program()) {
        let (p, rec) = case;
        let mut bad = p.clone();
        bad.rules[0].head.temporal = Some(Temporal::Var);
        let at = match first_rec_body_pos(&bad.rules[0], &rec) {
            Some(i) => {
                bad.rules[0].body[i].temporal = Some(Temporal::Succ);
                i
            }
            None => {
                bad.rules[0]
                    .body
                    .push(Atom::new(rec[0].as_str()).with_args(&["X"]).at(Temporal::Succ));
                bad.rules[0].body.len() - 1
            }
        };
        bad.rules[0].body[at].negated = false;
        let rule_text = bad.rules[0].to_string();
        match check_xy_syntax(&bad, &rec) {
            Err(v @ XyViolation::NotXOrYRule { .. }) => {
                prop_assert!(
                    v.to_string().contains(&rule_text),
                    "diagnostic `{}` does not quote the rule `{}`", v, rule_text
                );
            }
            other => return Err(TestCaseError::fail(format!("{other:?} in {bad:?}"))),
        }
    }

    /// Flipping a Y-rule's recursive subgoal to a *negated* same-stage
    /// occurrence makes the bi-state program unstratified: the checker must
    /// return `Ok(false)` (syntax fine, semantics circular).
    #[test]
    fn same_stage_negation_fails_stratification(case in arb_program()) {
        let (p, rec) = case;
        let mut bad = p;
        // overwrite rule 0 with the canonical circular Y-rule on rec[0]
        bad.rules[0] = Rule::new(
            Atom::new(rec[0].as_str()).with_args(&["X"]).at(Temporal::Succ),
            vec![
                Atom::new(EDB[0]).with_args(&["X"]),
                Atom::new(rec[0].as_str())
                    .with_args(&["X"])
                    .at(Temporal::Succ)
                    .negated(),
            ],
        );
        match is_xy_stratified(&bad, &rec) {
            Ok(false) => {}
            other => return Err(TestCaseError::fail(format!("{other:?} in {bad:?}"))),
        }
    }
}
