//! DATALOG rules at the predicate level.
//!
//! Section 5 of the paper decides whether a recursive SQL query has a
//! fixpoint by translating its operators to DATALOG rules (Eqs. 14–22) and
//! testing **XY-stratification**. For that analysis only three things about
//! an atom matter: its predicate, whether it is negated, and its *temporal
//! argument* (`T` or `s(T)`, Definition 9.3). Value-level arguments are kept
//! as opaque strings, for display only.

use std::fmt;

/// The temporal (stage) argument of a recursive predicate in an XY-program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Temporal {
    /// `T` — the previous stage.
    Var,
    /// `s(T)` — the successor stage.
    Succ,
}

/// A predicate occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Atom {
    pub pred: String,
    pub negated: bool,
    /// `None` for base relations / built-ins without a stage argument.
    pub temporal: Option<Temporal>,
    /// Value arguments (display + evaluation only).
    pub args: Vec<String>,
}

impl Atom {
    pub fn new(pred: impl Into<String>) -> Atom {
        Atom {
            pred: pred.into(),
            negated: false,
            temporal: None,
            args: Vec::new(),
        }
    }

    pub fn negated(mut self) -> Atom {
        self.negated = true;
        self
    }

    pub fn at(mut self, t: Temporal) -> Atom {
        self.temporal = Some(t);
        self
    }

    pub fn with_args(mut self, args: &[&str]) -> Atom {
        self.args = args.iter().map(|s| s.to_string()).collect();
        self
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "¬")?;
        }
        write!(f, "{}(", self.pred)?;
        let mut first = true;
        for a in &self.args {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        if let Some(t) = self.temporal {
            if !first {
                write!(f, ", ")?;
            }
            match t {
                Temporal::Var => write!(f, "T")?,
                Temporal::Succ => write!(f, "s(T)")?,
            }
        }
        write!(f, ")")
    }
}

/// `head :- body₁, body₂, …`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    pub head: Atom,
    pub body: Vec<Atom>,
}

impl Rule {
    pub fn new(head: Atom, body: Vec<Atom>) -> Rule {
        debug_assert!(!head.negated, "rule heads cannot be negated");
        Rule { head, body }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, b) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, ".")
    }
}

/// A set of rules.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    pub rules: Vec<Rule>,
}

impl Program {
    pub fn new(rules: Vec<Rule>) -> Program {
        Program { rules }
    }

    /// Predicates that are *recursive*: IDB predicates reachable from
    /// themselves in the dependency graph.
    pub fn recursive_predicates(&self) -> Vec<String> {
        let dg = crate::depgraph::DependencyGraph::from_program(self);
        dg.predicates_in_cycles()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let r = Rule::new(
            Atom::new("tc").with_args(&["X", "Z"]),
            vec![
                Atom::new("tc").with_args(&["X", "Y"]),
                Atom::new("e").with_args(&["Y", "Z"]),
            ],
        );
        assert_eq!(r.to_string(), "tc(X, Z) :- tc(X, Y), e(Y, Z).");
    }

    #[test]
    fn temporal_and_negation_render() {
        let a = Atom::new("p")
            .with_args(&["X"])
            .at(Temporal::Succ)
            .negated();
        assert_eq!(a.to_string(), "¬p(X, s(T))");
    }
}
