//! A semi-naive evaluator for positive DATALOG.
//!
//! This is the classic bottom-up evaluation that "the implementation taken
//! behind `with` (e.g. Seminaive)" uses (Exp-C, Fig. 13), and the core of
//! our SociaLite stand-in: per iteration, each recursive subgoal is joined
//! against the *delta* of the previous iteration rather than the whole
//! relation.
//!
//! Arguments are 64-bit integers; an argument string starting with an
//! uppercase letter is a variable, anything else parses as a constant.

use crate::rule::{Program, Rule};
use aio_trace::Tracer;
use std::collections::{HashMap, HashSet};

type Tuple = Vec<i64>;
type RelSet = HashSet<Tuple>;

/// What one semi-naive round did (round 0 is the naive seeding pass; the
/// positive engine is single-stratum, so per-stratum deltas coincide with
/// these per-round deltas).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundStat {
    /// Facts derived this round, duplicates included.
    pub derivations: u64,
    /// Tuples that were actually new (the round's total delta).
    pub new_tuples: usize,
    /// Per-predicate delta sizes, sorted by predicate name.
    pub delta_sizes: Vec<(String, usize)>,
}

/// Bottom-up evaluation state.
#[derive(Debug)]
pub struct SemiNaive {
    rels: HashMap<String, RelSet>,
    /// Greedily reorder rule-body atoms before binding: delta atom first,
    /// then maximum bound-variable overlap, tie-broken on smaller relation
    /// then declaration order. The joined result set and the derivation
    /// counts are order-invariant; only the intermediate binding work
    /// changes. On by default; turn off to evaluate bodies exactly as
    /// written.
    pub reorder: bool,
    /// Number of iterations the last `run` took.
    pub iterations: usize,
    /// Facts derived (including duplicates suppressed), for cost reporting.
    pub derivations: u64,
    /// Per-round telemetry of the last `run` (index 0 = the seeding round).
    pub rounds: Vec<RoundStat>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Term {
    Var(String),
    Const(i64),
}

fn parse_term(s: &str) -> Term {
    match s.parse::<i64>() {
        Ok(v) => Term::Const(v),
        Err(_) => Term::Var(s.to_string()),
    }
}

impl Default for SemiNaive {
    fn default() -> Self {
        SemiNaive {
            rels: HashMap::new(),
            reorder: true,
            iterations: 0,
            derivations: 0,
            rounds: Vec::new(),
        }
    }
}

impl SemiNaive {
    pub fn new() -> Self {
        SemiNaive::default()
    }

    /// Load extensional facts.
    pub fn add_facts(&mut self, pred: &str, tuples: impl IntoIterator<Item = Tuple>) {
        self.rels
            .entry(pred.to_string())
            .or_default()
            .extend(tuples);
    }

    pub fn relation(&self, pred: &str) -> Option<&RelSet> {
        self.rels.get(pred)
    }

    /// Pick a binding order for the rule body: the delta atom (smallest and
    /// shrinking) leads, then greedily the atom sharing the most already-
    /// bound variables — avoiding accidental cross products — with ties
    /// broken by smaller relation cardinality and then declaration order.
    fn atom_order(
        &self,
        rule: &Rule,
        delta: &HashMap<String, RelSet>,
        use_delta_at: Option<usize>,
    ) -> Vec<usize> {
        let n = rule.body.len();
        if !self.reorder || n <= 1 {
            return (0..n).collect();
        }
        let size = |i: usize| -> usize {
            let atom = &rule.body[i];
            if Some(i) == use_delta_at {
                delta.get(&atom.pred).map_or(0, |s| s.len())
            } else {
                self.rels.get(&atom.pred).map_or(0, |s| s.len())
            }
        };
        let vars = |i: usize| -> Vec<&str> {
            rule.body[i]
                .args
                .iter()
                .filter(|a| a.parse::<i64>().is_err())
                .map(|a| a.as_str())
                .collect()
        };
        let mut order = Vec::with_capacity(n);
        let mut bound: HashSet<&str> = HashSet::new();
        let mut remaining: Vec<usize> = (0..n).collect();
        if let Some(d) = use_delta_at {
            order.push(d);
            remaining.retain(|&i| i != d);
            bound.extend(vars(d));
        }
        while !remaining.is_empty() {
            let best = remaining
                .iter()
                .copied()
                .min_by_key(|&i| {
                    let overlap = vars(i).iter().filter(|v| bound.contains(*v)).count();
                    (std::cmp::Reverse(overlap), size(i), i)
                })
                .expect("remaining is non-empty");
            order.push(best);
            remaining.retain(|&i| i != best);
            bound.extend(vars(best));
        }
        order
    }

    fn eval_rule(
        &self,
        rule: &Rule,
        delta: &HashMap<String, RelSet>,
        use_delta_at: Option<usize>,
    ) -> Vec<Tuple> {
        // Bind body atoms in the chosen order with a substitution map.
        let empty: RelSet = RelSet::new();
        let mut results: Vec<HashMap<String, i64>> = vec![HashMap::new()];
        for i in self.atom_order(rule, delta, use_delta_at) {
            let atom = &rule.body[i];
            debug_assert!(!atom.negated, "semi-naive evaluator is positive-only");
            let source: &RelSet = if Some(i) == use_delta_at {
                delta.get(&atom.pred).unwrap_or(&empty)
            } else {
                self.rels.get(&atom.pred).unwrap_or(&empty)
            };
            let terms: Vec<Term> = atom.args.iter().map(|a| parse_term(a)).collect();
            let mut next = Vec::new();
            for sub in &results {
                'tuple: for t in source {
                    if t.len() != terms.len() {
                        continue;
                    }
                    let mut s2 = sub.clone();
                    for (term, &v) in terms.iter().zip(t) {
                        match term {
                            Term::Const(c) => {
                                if *c != v {
                                    continue 'tuple;
                                }
                            }
                            Term::Var(name) => match s2.get(name) {
                                Some(&bound) if bound != v => continue 'tuple,
                                Some(_) => {}
                                None => {
                                    s2.insert(name.clone(), v);
                                }
                            },
                        }
                    }
                    next.push(s2);
                }
            }
            results = next;
            if results.is_empty() {
                return Vec::new();
            }
        }
        let head_terms: Vec<Term> = rule.head.args.iter().map(|a| parse_term(a)).collect();
        results
            .into_iter()
            .map(|sub| {
                head_terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => *c,
                        Term::Var(v) => *sub.get(v).unwrap_or(&0),
                    })
                    .collect()
            })
            .collect()
    }

    /// Summarize a round's delta and optionally record its span.
    fn close_round(
        &mut self,
        round: usize,
        derivations_before: u64,
        delta: &HashMap<String, RelSet>,
        tracer: Option<&Tracer>,
    ) {
        let mut delta_sizes: Vec<(String, usize)> =
            delta.iter().map(|(p, s)| (p.clone(), s.len())).collect();
        delta_sizes.sort();
        let stat = RoundStat {
            derivations: self.derivations - derivations_before,
            new_tuples: delta_sizes.iter().map(|(_, n)| n).sum(),
            delta_sizes,
        };
        if let Some(t) = tracer {
            let span = t.span("dl_round");
            span.field("round", round as u64);
            span.field("derivations", stat.derivations);
            span.field("new_tuples", stat.new_tuples as u64);
            for (pred, n) in &stat.delta_sizes {
                span.field(format!("delta.{pred}"), *n as u64);
            }
        }
        aio_metrics::hooks::datalog_round(stat.new_tuples as u64);
        self.rounds.push(stat);
    }

    /// Run the program to fixpoint using semi-naive iteration; returns the
    /// sizes of each IDB relation.
    pub fn run(&mut self, program: &Program, max_iterations: usize) -> HashMap<String, usize> {
        self.run_traced(program, max_iterations, None)
    }

    /// [`SemiNaive::run`] recording one `dl_round` span per round, carrying
    /// the round's per-predicate delta sizes.
    pub fn run_traced(
        &mut self,
        program: &Program,
        max_iterations: usize,
        tracer: Option<&Tracer>,
    ) -> HashMap<String, usize> {
        self.rounds.clear();
        let idb = program.idb_predicates();
        for p in &idb {
            self.rels.entry(p.clone()).or_default();
        }
        // Round 0: naive evaluation of every rule seeds the deltas.
        let derivations_before = self.derivations;
        let mut delta: HashMap<String, RelSet> = HashMap::new();
        for rule in &program.rules {
            for t in self.eval_rule(rule, &HashMap::new(), None) {
                self.derivations += 1;
                if self
                    .rels
                    .get_mut(&rule.head.pred)
                    .unwrap()
                    .insert(t.clone())
                {
                    delta.entry(rule.head.pred.clone()).or_default().insert(t);
                }
            }
        }
        self.close_round(0, derivations_before, &delta, tracer);
        self.iterations = 0;
        while !delta.is_empty() && self.iterations < max_iterations {
            self.iterations += 1;
            let derivations_before = self.derivations;
            let mut next_delta: HashMap<String, RelSet> = HashMap::new();
            for rule in &program.rules {
                for (i, atom) in rule.body.iter().enumerate() {
                    if !delta.contains_key(&atom.pred) {
                        continue;
                    }
                    for t in self.eval_rule(rule, &delta, Some(i)) {
                        self.derivations += 1;
                        if self
                            .rels
                            .get_mut(&rule.head.pred)
                            .unwrap()
                            .insert(t.clone())
                        {
                            next_delta
                                .entry(rule.head.pred.clone())
                                .or_default()
                                .insert(t);
                        }
                    }
                }
            }
            delta = next_delta;
            self.close_round(self.iterations, derivations_before, &delta, tracer);
        }
        idb.iter()
            .map(|p| (p.clone(), self.rels[p].len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Atom, Rule};

    fn tc_program() -> Program {
        Program::new(vec![
            Rule::new(
                Atom::new("tc").with_args(&["X", "Y"]),
                vec![Atom::new("e").with_args(&["X", "Y"])],
            ),
            Rule::new(
                Atom::new("tc").with_args(&["X", "Z"]),
                vec![
                    Atom::new("tc").with_args(&["X", "Y"]),
                    Atom::new("e").with_args(&["Y", "Z"]),
                ],
            ),
        ])
    }

    #[test]
    fn transitive_closure_of_a_path() {
        let mut ev = SemiNaive::new();
        ev.add_facts("e", (1..5).map(|i| vec![i, i + 1]));
        let sizes = ev.run(&tc_program(), 100);
        // path 1→2→3→4→5: C(5,2) = 10 pairs
        assert_eq!(sizes["tc"], 10);
        assert!(ev.relation("tc").unwrap().contains(&vec![1, 5]));
    }

    #[test]
    fn cycle_terminates_at_fixpoint() {
        let mut ev = SemiNaive::new();
        ev.add_facts("e", vec![vec![1, 2], vec![2, 3], vec![3, 1]]);
        let sizes = ev.run(&tc_program(), 100);
        assert_eq!(sizes["tc"], 9, "complete closure on a 3-cycle");
        assert!(ev.iterations < 10, "semi-naive stops when delta drains");
    }

    #[test]
    fn constants_in_rules_filter() {
        // from1(Y) :- tc(1, Y).
        let mut p = tc_program();
        p.rules.push(Rule::new(
            Atom::new("from1").with_args(&["Y"]),
            vec![Atom::new("tc").with_args(&["1", "Y"])],
        ));
        let mut ev = SemiNaive::new();
        ev.add_facts("e", vec![vec![1, 2], vec![2, 3], vec![7, 8]]);
        let sizes = ev.run(&p, 100);
        assert_eq!(sizes["from1"], 2); // {2, 3}
    }

    #[test]
    fn repeated_variable_enforces_equality() {
        // loop(X) :- e(X, X).
        let p = Program::new(vec![Rule::new(
            Atom::new("loop").with_args(&["X"]),
            vec![Atom::new("e").with_args(&["X", "X"])],
        )]);
        let mut ev = SemiNaive::new();
        ev.add_facts("e", vec![vec![1, 1], vec![1, 2]]);
        let sizes = ev.run(&p, 10);
        assert_eq!(sizes["loop"], 1);
    }

    #[test]
    fn rounds_record_per_round_deltas() {
        let mut ev = SemiNaive::new();
        ev.add_facts("e", (1..5).map(|i| vec![i, i + 1]));
        let tracer = aio_trace::Tracer::new();
        let sizes = ev.run_traced(&tc_program(), 100, Some(&tracer));
        assert_eq!(sizes["tc"], 10);
        // Path 1→2→3→4→5: round 0's naive pass seeds the 4 edges and,
        // because rules run in order, the 3 length-2 paths too; the delta
        // then shrinks to 2, 1, and an empty round proving the fixpoint.
        let new: Vec<usize> = ev.rounds.iter().map(|r| r.new_tuples).collect();
        assert_eq!(new, vec![7, 2, 1, 0]);
        assert_eq!(
            new.iter().sum::<usize>(),
            sizes["tc"],
            "per-round deltas partition the fixpoint"
        );
        let trace = tracer.finish();
        trace.validate().unwrap();
        let spans: Vec<_> = trace.spans_named("dl_round").collect();
        assert_eq!(spans.len(), ev.rounds.len());
        assert_eq!(spans[1].field_u64("round"), Some(1));
        assert_eq!(spans[1].field_u64("new_tuples"), Some(2));
        assert_eq!(spans[1].field_u64("delta.tc"), Some(2));
    }

    #[test]
    fn untraced_run_records_rounds_too() {
        let mut ev = SemiNaive::new();
        ev.add_facts("e", vec![vec![1, 2], vec![2, 3], vec![3, 1]]);
        ev.run(&tc_program(), 100);
        assert!(!ev.rounds.is_empty());
        assert_eq!(
            ev.rounds.iter().map(|r| r.new_tuples).sum::<usize>(),
            9,
            "3-cycle closure has 9 tuples"
        );
        assert_eq!(ev.rounds.last().unwrap().new_tuples, 0);
        assert!(ev
            .rounds
            .iter()
            .all(|r| r.derivations >= r.new_tuples as u64));
    }

    #[test]
    fn atom_reordering_is_result_and_derivation_invariant() {
        // Right-linear TC puts the recursive atom *second*, so the greedy
        // order pulls the delta atom ahead of the body's written order.
        let p = Program::new(vec![
            Rule::new(
                Atom::new("tc").with_args(&["X", "Y"]),
                vec![Atom::new("e").with_args(&["X", "Y"])],
            ),
            Rule::new(
                Atom::new("tc").with_args(&["X", "Z"]),
                vec![
                    Atom::new("e").with_args(&["X", "Y"]),
                    Atom::new("tc").with_args(&["Y", "Z"]),
                ],
            ),
        ]);
        let edges: Vec<Vec<i64>> = (1..6).map(|i| vec![i, i + 1]).collect();
        let run = |reorder: bool| {
            let mut ev = SemiNaive::new();
            ev.reorder = reorder;
            ev.add_facts("e", edges.clone());
            let sizes = ev.run(&p, 100);
            (sizes, ev.derivations, ev.rounds.clone())
        };
        let (s_on, d_on, r_on) = run(true);
        let (s_off, d_off, r_off) = run(false);
        assert_eq!(s_on, s_off, "fixpoint must not depend on binding order");
        assert_eq!(d_on, d_off, "derivation counts are order-invariant");
        assert_eq!(r_on, r_off, "per-round telemetry is order-invariant");
    }

    #[test]
    fn reordering_avoids_cross_products_on_three_atom_bodies() {
        // tri(X,Y,Z) :- e(X,Y), f(Y,Z), g(Z,X) — whatever order the greedy
        // pass picks, results must match the written-order evaluation.
        let p = Program::new(vec![Rule::new(
            Atom::new("tri").with_args(&["X", "Y", "Z"]),
            vec![
                Atom::new("e").with_args(&["X", "Y"]),
                Atom::new("f").with_args(&["Y", "Z"]),
                Atom::new("g").with_args(&["Z", "X"]),
            ],
        )]);
        let run = |reorder: bool| {
            let mut ev = SemiNaive::new();
            ev.reorder = reorder;
            ev.add_facts("e", vec![vec![1, 2], vec![2, 3]]);
            ev.add_facts("f", vec![vec![2, 5], vec![3, 6], vec![3, 7]]);
            ev.add_facts("g", vec![vec![5, 1], vec![6, 2], vec![7, 9]]);
            ev.run(&p, 10);
            ev.relation("tri").unwrap().clone()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn max_iterations_bounds_runaway() {
        let mut ev = SemiNaive::new();
        ev.add_facts("e", (0..50).map(|i| vec![i, i + 1]));
        ev.run(&tc_program(), 3);
        assert_eq!(ev.iterations, 3);
    }
}
