//! Predicate dependency graphs and stratification.
//!
//! Definition 9.1 of the paper: an edge runs from `g` to `h` when `h`
//! depends on `g`; the edge is labelled `−` when the occurrence is negated.
//! Definition 9.2: a program is *stratifiable* iff no `−` edge lies on a
//! cycle of the graph.

use crate::rule::Program;
use std::collections::HashMap;

/// A labelled predicate dependency graph.
#[derive(Clone, Debug, Default)]
pub struct DependencyGraph {
    names: Vec<String>,
    index: HashMap<String, usize>,
    /// adjacency: edges[from] = [(to, negated)]
    edges: Vec<Vec<(usize, bool)>>,
}

impl DependencyGraph {
    pub fn new() -> Self {
        DependencyGraph::default()
    }

    pub fn node(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        self.edges.push(Vec::new());
        i
    }

    /// Edge `from → to`, labelled negated if `to` depends on `from` through
    /// a negation (or other non-monotone construct).
    pub fn edge(&mut self, from: &str, to: &str, negated: bool) {
        let f = self.node(from);
        let t = self.node(to);
        self.edges[f].push((t, negated));
    }

    pub fn from_program(p: &Program) -> Self {
        let mut g = DependencyGraph::new();
        for r in &p.rules {
            g.node(&r.head.pred);
            for b in &r.body {
                g.edge(&b.pred, &r.head.pred, b.negated);
            }
        }
        g
    }

    pub fn names(&self) -> &[String] {
        &self.names
    }

    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Tarjan SCC; returns `scc_id` per node, ids in reverse topological
    /// order of the condensation.
    fn sccs(&self) -> Vec<usize> {
        struct State {
            idx: Vec<Option<usize>>,
            low: Vec<usize>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            counter: usize,
            scc: Vec<usize>,
            scc_count: usize,
        }
        fn strongconnect(v: usize, g: &DependencyGraph, st: &mut State) {
            st.idx[v] = Some(st.counter);
            st.low[v] = st.counter;
            st.counter += 1;
            st.stack.push(v);
            st.on_stack[v] = true;
            for &(w, _) in &g.edges[v] {
                if st.idx[w].is_none() {
                    strongconnect(w, g, st);
                    st.low[v] = st.low[v].min(st.low[w]);
                } else if st.on_stack[w] {
                    st.low[v] = st.low[v].min(st.idx[w].unwrap());
                }
            }
            if st.low[v] == st.idx[v].unwrap() {
                loop {
                    let w = st.stack.pop().unwrap();
                    st.on_stack[w] = false;
                    st.scc[w] = st.scc_count;
                    if w == v {
                        break;
                    }
                }
                st.scc_count += 1;
            }
        }
        let n = self.names.len();
        let mut st = State {
            idx: vec![None; n],
            low: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            counter: 0,
            scc: vec![0; n],
            scc_count: 0,
        };
        for v in 0..n {
            if st.idx[v].is_none() {
                strongconnect(v, self, &mut st);
            }
        }
        st.scc
    }

    /// Any cycle at all (self-loops count)?
    pub fn has_cycle(&self) -> bool {
        let scc = self.sccs();
        let mut size = HashMap::new();
        for &s in &scc {
            *size.entry(s).or_insert(0usize) += 1;
        }
        for (v, adj) in self.edges.iter().enumerate() {
            for &(w, _) in adj {
                if v == w {
                    return true;
                }
                if scc[v] == scc[w] && size[&scc[v]] > 1 {
                    return true;
                }
            }
        }
        scc.iter().any(|s| size[s] > 1)
    }

    /// Predicates lying on some cycle (the *recursive* predicates).
    pub fn predicates_in_cycles(&self) -> Vec<String> {
        let scc = self.sccs();
        let mut size = HashMap::new();
        for &s in &scc {
            *size.entry(s).or_insert(0usize) += 1;
        }
        let mut self_loop = vec![false; self.names.len()];
        for (v, adj) in self.edges.iter().enumerate() {
            for &(w, _) in adj {
                if v == w {
                    self_loop[v] = true;
                }
            }
        }
        let mut out: Vec<String> = (0..self.names.len())
            .filter(|&v| self_loop[v] || size[&scc[v]] > 1)
            .map(|v| self.names[v].clone())
            .collect();
        out.sort();
        out
    }

    /// Definition 9.2: stratifiable ⇔ no negated edge within an SCC.
    pub fn is_stratified(&self) -> bool {
        let scc = self.sccs();
        for (v, adj) in self.edges.iter().enumerate() {
            for &(w, negated) in adj {
                if negated && scc[v] == scc[w] {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Atom, Program, Rule};

    fn tc_program() -> Program {
        // tc(X,Y) :- e(X,Y).   tc(X,Z) :- tc(X,Y), e(Y,Z).
        Program::new(vec![
            Rule::new(Atom::new("tc"), vec![Atom::new("e")]),
            Rule::new(Atom::new("tc"), vec![Atom::new("tc"), Atom::new("e")]),
        ])
    }

    #[test]
    fn tc_is_stratified_and_recursive() {
        let g = DependencyGraph::from_program(&tc_program());
        assert!(g.is_stratified());
        assert!(g.has_cycle());
        assert_eq!(g.predicates_in_cycles(), vec!["tc".to_string()]);
    }

    #[test]
    fn negation_in_cycle_not_stratified() {
        // win(X) :- move(X,Y), ¬win(Y).
        let p = Program::new(vec![Rule::new(
            Atom::new("win"),
            vec![Atom::new("move"), Atom::new("win").negated()],
        )]);
        let g = DependencyGraph::from_program(&p);
        assert!(!g.is_stratified());
    }

    #[test]
    fn mutual_recursion_detected() {
        // hub :- auth ; auth :- hub  (the HITS shape)
        let p = Program::new(vec![
            Rule::new(Atom::new("hub"), vec![Atom::new("auth")]),
            Rule::new(Atom::new("auth"), vec![Atom::new("hub")]),
        ]);
        let g = DependencyGraph::from_program(&p);
        assert!(g.has_cycle());
        assert_eq!(
            g.predicates_in_cycles(),
            vec!["auth".to_string(), "hub".to_string()]
        );
    }

    #[test]
    fn acyclic_program_has_no_recursive_predicates() {
        let p = Program::new(vec![Rule::new(Atom::new("a"), vec![Atom::new("b")])]);
        let g = DependencyGraph::from_program(&p);
        assert!(!g.has_cycle());
        assert!(g.predicates_in_cycles().is_empty());
    }

    #[test]
    fn self_loop_counts_as_cycle() {
        let mut g = DependencyGraph::new();
        g.edge("r", "r", false);
        assert!(g.has_cycle());
        assert_eq!(g.predicates_in_cycles(), vec!["r".to_string()]);
    }
}
