//! # aio-withplus — the enhanced `WITH` clause ("with+")
//!
//! The primary contribution of *"All-in-One: Graph Processing in RDBMSs
//! Revisited"* (Zhao & Yu, SIGMOD 2017), Sections 5–6: a recursive SQL
//! dialect that admits the four non-monotonic operations — MM-join,
//! MV-join, anti-join and union-by-update — inside recursion, certified by
//! **XY-stratification** (Theorem 5.1) and executed by translation to a
//! PSM-style procedure (Algorithm 1).
//!
//! ```
//! use aio_withplus::Database;
//! use aio_algebra::oracle_like;
//! use aio_storage::{edge_schema, Relation, row};
//!
//! let mut db = Database::new(oracle_like());
//! let mut e = Relation::new(edge_schema());
//! e.extend([row![1, 2, 1.0], row![2, 3, 1.0]]).unwrap();
//! db.create_table("E", e).unwrap();
//! let out = db.execute(
//!     "with TC(F, T) as (
//!        (select E.F, E.T from E)
//!        union
//!        (select TC.F, E.T from TC, E where TC.T = E.F))
//!      select * from TC").unwrap();
//! assert_eq!(out.relation.len(), 3);
//! ```

pub mod ast;
pub mod compile;
pub mod db;
pub mod display;
pub mod error;
pub mod explain;
pub mod ivm;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod psm;
pub mod session;
pub mod sql99;
pub mod translate;

pub use ast::{Expr, FromItem, SelectStmt, Subquery, UnionMode, WithPlus};
pub use compile::{compile, CompiledWithPlus};
pub use db::{Database, ExplainOutput, METRICS_TABLE, QUERY_LOG_TABLE};
pub use error::{Result, WithPlusError};
pub use ivm::{EdgeDelta, RefreshMode, RefreshReport, ResultDelta};
pub use parser::{Parser, Statement};
pub use psm::{IterStat, QueryResult, RunStats, SubqueryIterStat, ViewClass};
pub use session::{
    arm_concurrent_reader, disarm_concurrent_reader, take_concurrent_report,
    ConcurrentReaderReport, Session, SharedDatabase,
};
pub use sql99::{FeatureMatrix, Sql99Engine};
