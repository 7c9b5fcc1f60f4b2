//! # aio-datalog — DATALOG substrate for the fixpoint semantics of with+
//!
//! Section 5 of *"All-in-One: Graph Processing in RDBMSs Revisited"* grounds
//! the enhanced `with` clause in DATALOG: the four non-monotonic operations
//! are translated to rules (Eqs. 14–22), and **XY-stratification**
//! (Zaniolo et al.) certifies a fixpoint. This crate provides:
//!
//! * [`rule`] — predicate-level rules with temporal (stage) arguments;
//! * [`depgraph`] — the dependency graph (Definition 9.1), stratifiability
//!   and strata (Definition 9.2);
//! * [`xy`] — XY-program syntax (Definition 9.3), the bi-state transform
//!   and the decidable XY-stratification test.
//!
//! Nothing here evaluates rules. The fixpoint runs as Algorithm 1's PSM
//! loop (`aio_withplus::psm::PsmRunner`), which also runs the SQL'99 `with`
//! baseline; the SociaLite stand-in is `aio_graph::engines::DatalogEngine`.

pub mod depgraph;
pub mod rule;
pub mod xy;

pub use depgraph::DependencyGraph;
pub use rule::{Atom, Program, Rule, Temporal};
pub use xy::{bi_state, check_xy_syntax, is_xy_stratified, XyViolation};
