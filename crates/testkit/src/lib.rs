//! # aio-testkit — differential & metamorphic correctness harness
//!
//! The paper's central claim is *equivalence*: every Table 2 algorithm
//! authored in with+ computes the same answer as its native graph-engine
//! formulation (Section 7) and, where Table 1 says it is expressible, as
//! SQL'99 `WITH`. This crate turns that claim into an executable test
//! matrix:
//!
//! * [`corpus`] — seeded graph families (Erdős–Rényi, power-law, DAG,
//!   disconnected, self-loop/multi-edge) rebuilt bit-identically from
//!   `(kind, n, m, directed, seed)`;
//! * [`exec`] — one uniform entry point that routes an algorithm key to any
//!   applicable executor: the with+ PSM under each RDBMS profile ×
//!   parallelism setting, the SQL'99 baseline, the three native stand-ins,
//!   and the textbook oracles;
//! * [`result`] — normalized result values compared under the per-algorithm
//!   [`Tolerance`](aio_algos::registry::Tolerance) rules (exact for
//!   set/integer answers, epsilon + rank-order for float scores);
//! * [`diff`] — the algorithm × engine × parallelism matrix driver, with
//!   per-iteration divergence localization via PSM state snapshots;
//! * [`meta`] — metamorphic relations (vertex relabeling, edge-order
//!   shuffling, isolated-vertex addition);
//! * [`ivm`] — the incremental-vs-recompute matrix for live graphs:
//!   mutation scripts applied through `Database::apply_edges`, with the
//!   maintained view checked against a cold rebuild after every batch,
//!   plus batch-metamorphic relations and seed-fault shrinking;
//! * [`patterns`] — the cyclic-pattern differential layer pitting the
//!   worst-case-optimal multiway join against forced binary join trees
//!   and the optimizer sweep on triangle/4-cycle/diamond/clique queries;
//! * [`mod@shrink`] — greedy delta-debugging of a failing graph to a minimal
//!   counterexample, plus bit-reproducible replay files;
//! * [`mvcc`] — the deterministic interleaving scheduler: enumerate every
//!   writer/reader schedule of a workload, execute each single-threaded
//!   through MVCC sessions, and check snapshot isolation against a
//!   committed-generation history (failing schedules ddmin to a minimal
//!   witness).

pub mod corpus;
pub mod diff;
pub mod exec;
pub mod ivm;
pub mod meta;
pub mod mvcc;
pub mod patterns;
pub mod result;
pub mod shrink;

pub use corpus::{corpus_graphs, NamedGraph};
pub use diff::{run_matrix, Divergence, MatrixConfig, MatrixReport};
pub use exec::{
    executors_for, executors_for_cfg, executors_for_opt, run_algo, ExecKind, Executor, Params,
};
pub use ivm::{
    check_batch_metamorphic as check_ivm_metamorphic, check_net_zero_batch, ivm_corpus,
    run_ivm_case, run_ivm_matrix, scripts_for, shrink_ivm_case, IvmDivergence, IvmMatrixConfig,
    IvmMatrixReport, MutationScript, IVM_ALGOS,
};
pub use meta::{check_metamorphic, MetaRelation, META_ALGOS};
pub use mvcc::{
    render_history, run_history, sweep, FaultMode, HistoryOutcome, ReaderOp, Step, SweepFailure,
    SweepStats, Workload, WriterOp,
};
pub use patterns::{
    default_patterns, pattern_corpus, run_pattern_matrix, Pattern, PatternMatrixConfig,
};
pub use result::AlgoResult;
pub use shrink::{ddmin, shrink, CaseGraph, Replay};
