//! Engine profiles — the operational stand-ins for Oracle / DB2 / PostgreSQL.
//!
//! The paper evaluates the same SQL on three RDBMSs and explains every
//! observed difference by concrete mechanisms (Section 7):
//!
//! * **Oracle** performs best: hash join + hash aggregation on temp tables,
//!   direct-path inserts via the `/*+APPEND*/` hint bypass redo.
//! * **DB2** is close behind: the same plans, but temp tables still log.
//! * **PostgreSQL** is slowest: "does not generate the optimal plan for
//!   temporary tables due to the lack of sufficient statistical
//!   information" — it picks merge join + sort aggregation, which a sorted
//!   index can partially rescue (Exp-A, Fig. 10).
//!
//! A profile encodes exactly those mechanisms. Costs emerge from real work
//! (sorting, logging bytes), never from constants.

use aio_storage::WalPolicy;

/// Physical join algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStrategy {
    Hash,
    SortMerge,
    NestedLoop,
}

/// Physical aggregation algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggStrategy {
    Hash,
    Sort,
}

/// Plan-optimization level.
///
/// The paper's Algorithm 1 compiles each with+ subquery to a *fixed*
/// left-deep plan and re-executes it every iteration, so the paper-faithful
/// profiles default to [`Optimizer::Off`]: observed runtimes then reflect
/// the mechanisms under study (WAL policy, join strategy, indexes), not our
/// plan search. The other two levels are opt-in ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Optimizer {
    /// Execute plans exactly as compiled (paper-faithful fixed plans).
    Off,
    /// Heuristic rewrites only: predicate pushdown (`push_selections`).
    Rules,
    /// Full cost-based pass: stats-driven join ordering (DP ≤ 8 relations,
    /// greedy above), predicate pushdown, projection pruning, and semi-join
    /// reduction for anti-join inputs.
    Cost,
}

impl Optimizer {
    /// Short lowercase label for executor names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Optimizer::Off => "off",
            Optimizer::Rules => "rules",
            Optimizer::Cost => "cost",
        }
    }

    /// All levels, in increasing aggressiveness.
    pub fn all() -> [Optimizer; 3] {
        [Optimizer::Off, Optimizer::Rules, Optimizer::Cost]
    }
}

/// Execution representation: which kernels the (single) plan evaluator
/// picks per operator.
///
/// `Row` is the paper-faithful row-at-a-time pipeline; `Batch` runs the
/// operators that have column kernels over typed SoA
/// [`aio_storage::Batch`] columns, bridging back to `Value` rows at the
/// operators that don't and at the with+/SQL'99 boundary. Outputs are
/// row-for-row identical in either mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecMode {
    Row,
    Batch,
}

impl ExecMode {
    /// Short lowercase label for executor names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Row => "row",
            ExecMode::Batch => "batch",
        }
    }
}

/// One emulated RDBMS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineProfile {
    pub name: &'static str,
    /// Join algorithm the optimizer picks for statistics-free temp tables.
    pub join: JoinStrategy,
    pub agg: AggStrategy,
    /// Logging policy for inserts into temp tables.
    pub wal_temp: WalPolicy,
    /// Whether the PSM procedure builds sorted indexes on temp tables and
    /// the merge join scans them instead of sorting (Exp-A). Only a merge
    /// join reads an index order, so the paper's observation that Oracle
    /// and DB2 keep their hash joins regardless holds by construction.
    pub indexes: bool,
    /// Worker threads for morsel-parallel operators. `1` (the default for
    /// every paper profile) is the serial pipeline the paper measures; `0`
    /// means all available cores. Outputs are deterministic at any setting.
    pub parallelism: usize,
    /// When set, the PSM runner clones the recursive relation after every
    /// iteration into `RunStats::snapshots`, letting the differential
    /// testkit report the *first* iteration where two engines disagree
    /// rather than just the final rows. Off by default: snapshots cost one
    /// relation clone per iteration.
    pub capture_snapshots: bool,
    /// Plan-optimization level. `Off` (every paper profile) keeps the
    /// fixed Algorithm 1 plans; `Rules`/`Cost` enable rewrites.
    pub optimizer: Optimizer,
    /// Execution representation: row-at-a-time (paper-faithful default)
    /// or typed columnar batches.
    pub exec: ExecMode,
}

impl EngineProfile {
    /// Builder-style override of the parallelism knob.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Builder-style toggle for per-iteration state snapshots.
    pub fn with_snapshots(mut self, capture: bool) -> Self {
        self.capture_snapshots = capture;
        self
    }

    /// Builder-style override of the plan-optimization level.
    pub fn with_optimizer(mut self, optimizer: Optimizer) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Builder-style override of the execution representation.
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// The knob resolved against the machine (`0` → available cores).
    pub(crate) fn effective_parallelism(&self) -> usize {
        crate::par::effective(self.parallelism)
    }
}

/// Oracle-like: hash everything, direct-path insert, indexes ignored.
pub fn oracle_like() -> EngineProfile {
    EngineProfile {
        name: "oracle_like",
        join: JoinStrategy::Hash,
        agg: AggStrategy::Hash,
        wal_temp: WalPolicy::None,
        indexes: false,
        parallelism: 1,
        capture_snapshots: false,
        optimizer: Optimizer::Off,
        exec: ExecMode::Row,
    }
}

/// DB2-like: hash plans but temp tables log.
pub fn db2_like() -> EngineProfile {
    EngineProfile {
        name: "db2_like",
        join: JoinStrategy::Hash,
        agg: AggStrategy::Hash,
        wal_temp: WalPolicy::Light,
        indexes: false,
        parallelism: 1,
        capture_snapshots: false,
        optimizer: Optimizer::Off,
        exec: ExecMode::Row,
    }
}

/// PostgreSQL-like: merge join + sort agg on statistics-free temp tables;
/// `with_indexes` toggles the Fig. 10 experiment.
pub fn postgres_like(with_indexes: bool) -> EngineProfile {
    EngineProfile {
        name: if with_indexes {
            "postgres_like+idx"
        } else {
            "postgres_like"
        },
        join: JoinStrategy::SortMerge,
        agg: AggStrategy::Sort,
        wal_temp: WalPolicy::Light,
        indexes: with_indexes,
        parallelism: 1,
        capture_snapshots: false,
        optimizer: Optimizer::Off,
        exec: ExecMode::Row,
    }
}

/// The three profiles of the paper's evaluation, in the order reported.
pub fn all_profiles() -> Vec<EngineProfile> {
    vec![oracle_like(), db2_like(), postgres_like(true)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_bypasses_redo() {
        assert_eq!(oracle_like().wal_temp, WalPolicy::None);
        assert_eq!(oracle_like().join, JoinStrategy::Hash);
    }

    #[test]
    fn postgres_sorts_without_indexes() {
        let p = postgres_like(false);
        assert_eq!(p.join, JoinStrategy::SortMerge);
        assert!(!p.indexes);
        assert!(postgres_like(true).indexes);
    }

    #[test]
    fn three_distinct_profiles() {
        let ps = all_profiles();
        assert_eq!(ps.len(), 3);
        assert_ne!(ps[0], ps[1]);
        assert_ne!(ps[1], ps[2]);
    }
}
