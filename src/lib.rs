//! # all-in-one — the public facade of the workspace
//!
//! A from-scratch Rust reproduction of *"All-in-One: Graph Processing in
//! RDBMSs Revisited"* (Kangfei Zhao & Jeffrey Xu Yu, SIGMOD 2017).
//!
//! Everything a downstream user needs, re-exported:
//!
//! * [`storage`] — relations, schemas, catalog, indexes, and durability: a
//!   framed write-ahead log with snapshot checkpoints and crash recovery
//!   (plus the paper's simulated WAL cost model);
//! * [`algebra`] — the six basic operations plus the paper's four (MM-join,
//!   MV-join, anti-join, union-by-update), logical plans and engine
//!   profiles emulating Oracle / DB2 / PostgreSQL;
//! * [`datalog`] — dependency graphs, stratification, XY-stratification;
//! * [`withplus`] — the enhanced recursive `WITH` clause ("with+"): parser,
//!   Theorem 5.1 validation, PSM compilation/execution, and the SQL'99
//!   baseline with the Table 1 feature matrix;
//! * [`graph`] — CSR graphs, synthetic stand-ins for the paper's nine SNAP
//!   datasets, and native comparator engines;
//! * [`algos`] — the paper's graph algorithms as with+ programs;
//! * [`trace`] — hierarchical spans, per-iteration fixpoint telemetry and
//!   EXPLAIN ANALYZE plumbing shared by every execution engine;
//! * [`metrics`] — the engine-wide metrics registry: counters, gauges and
//!   histograms fed by every layer, per-query [`metrics::QueryReport`]s,
//!   Prometheus/JSON export, and the self-queryable `aio_metrics` /
//!   `aio_query_log` system relations.
//!
//! ## Quickstart
//!
//! ```
//! use all_in_one::prelude::*;
//!
//! // an embedded database emulating Oracle's physical behaviour
//! let mut db = Database::new(oracle_like());
//!
//! // a little graph: E(F, T, ew)
//! let mut e = Relation::new(edge_schema());
//! e.extend([row![1, 2, 1.0], row![2, 3, 1.0], row![3, 1, 1.0]]).unwrap();
//! db.create_table("E", e).unwrap();
//!
//! // recursive SQL with the enhanced with clause
//! let out = db.execute(
//!     "with TC(F, T) as (
//!        (select E.F, E.T from E)
//!        union
//!        (select TC.F, E.T from TC, E where TC.T = E.F))
//!      select * from TC").unwrap();
//! assert_eq!(out.relation.len(), 9); // full closure of a 3-cycle
//! ```

pub use aio_algebra as algebra;
pub use aio_algos as algos;
pub use aio_datalog as datalog;
pub use aio_graph as graph;
pub use aio_metrics as metrics;
pub use aio_storage as storage;
pub use aio_trace as trace;
pub use aio_withplus as withplus;

/// The set of names most programs want in scope.
pub mod prelude {
    pub use aio_algebra::{
        all_profiles, db2_like, oracle_like, postgres_like, AntiJoinImpl, EngineProfile, Semiring,
        UbuImpl, BOOLEAN, COUNTING, TROPICAL,
    };
    pub use aio_graph::{generate, DatasetSpec, Graph, GraphKind, DATASETS};
    pub use aio_storage::{
        edge_schema, node_schema, row, CheckpointStats, InterruptedRun, RecoveryReport, Relation,
        Schema, SimVfs, StdVfs, UnsyncedFate, Value, Vfs,
    };
    pub use aio_trace::{Trace, Tracer};
    pub use aio_withplus::{
        Database, EdgeDelta, ExplainOutput, QueryResult, RefreshReport, ResultDelta, RunStats,
        Session, SharedDatabase, WithPlusError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_compiles_and_runs() {
        let mut db = Database::new(oracle_like());
        let mut e = Relation::new(edge_schema());
        e.extend([row![1, 2, 1.0]]).unwrap();
        db.create_table("E", e).unwrap();
        let out = db.execute("select E.T from E").unwrap();
        assert_eq!(out.relation.len(), 1);
    }
}
