//! The SQL'99 `WITH` baseline and the Table 1 feature matrix.
//!
//! Section 3 of the paper surveys what the recursive `with` clause of
//! PostgreSQL 9.4, IBM DB2 10.5 and Oracle 11gR2 actually accepts
//! (Table 1). This module encodes that matrix, uses it to *gate* queries —
//! reproducing each system's rejections — and executes the accepted ones
//! with SQL'99 semantics (linear recursion, semi-naive working table,
//! monotonic queries only). It is the `with` side of the with-vs-with+
//! comparisons (Figs. 9, 12, 13).

use crate::ast::{collect_select_tables, Expr, SelectStmt, UnionMode, WithPlus};
use crate::compile::compile;
use crate::error::{Result, WithPlusError};
use crate::lower::LowerCtx;
use crate::psm::{PsmRunner, QueryResult};
use aio_algebra::ops::{AntiJoinImpl, UbuImpl};
use aio_algebra::{db2_like, oracle_like, postgres_like, EngineProfile};
use aio_storage::{Catalog, Value};
use std::collections::HashMap;
use std::fmt;

/// The three systems of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sql99System {
    PostgreSql,
    Db2,
    Oracle,
}

impl Sql99System {
    pub const ALL: [Sql99System; 3] = [
        Sql99System::PostgreSql,
        Sql99System::Db2,
        Sql99System::Oracle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Sql99System::PostgreSql => "PostgreSQL",
            Sql99System::Db2 => "DB2",
            Sql99System::Oracle => "Oracle",
        }
    }

    /// The engine profile that emulates this system's physical behaviour.
    pub fn profile(self) -> EngineProfile {
        match self {
            Sql99System::PostgreSql => postgres_like(true),
            Sql99System::Db2 => db2_like(),
            Sql99System::Oracle => oracle_like(),
        }
    }
}

/// One cell of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Support {
    Yes,
    No,
    /// "—": not applicable.
    Na,
}

impl fmt::Display for Support {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Support::Yes => "yes",
            Support::No => "no",
            Support::Na => "-",
        })
    }
}

/// The rows of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Feature {
    LinearRecursion,
    NonlinearRecursion,
    MutualRecursion,
    MultipleInitialQueries,
    MultipleRecursiveQueries,
    SetOpsBetweenInitialQueries,
    UnionAcrossInitialAndRecursive,
    SetOpsBetweenRecursiveQueries,
    Negation,
    AggregateFunctions,
    GroupByHaving,
    PartitionBy,
    Distinct,
    GeneralFunctions,
    AnalyticalFunctions,
    SubqueriesWithoutRecursiveRef,
    SubqueriesWithRecursiveRef,
    InfiniteLoopDetection,
    CycleDetection,
}

impl Feature {
    pub const ALL: [Feature; 19] = [
        Feature::LinearRecursion,
        Feature::NonlinearRecursion,
        Feature::MutualRecursion,
        Feature::MultipleInitialQueries,
        Feature::MultipleRecursiveQueries,
        Feature::SetOpsBetweenInitialQueries,
        Feature::UnionAcrossInitialAndRecursive,
        Feature::SetOpsBetweenRecursiveQueries,
        Feature::Negation,
        Feature::AggregateFunctions,
        Feature::GroupByHaving,
        Feature::PartitionBy,
        Feature::Distinct,
        Feature::GeneralFunctions,
        Feature::AnalyticalFunctions,
        Feature::SubqueriesWithoutRecursiveRef,
        Feature::SubqueriesWithRecursiveRef,
        Feature::InfiniteLoopDetection,
        Feature::CycleDetection,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Feature::LinearRecursion => "Linear recursion",
            Feature::NonlinearRecursion => "Nonlinear recursion",
            Feature::MutualRecursion => "Mutual recursion",
            Feature::MultipleInitialQueries => "Multiple queries: initial step",
            Feature::MultipleRecursiveQueries => "Multiple queries: recursive step",
            Feature::SetOpsBetweenInitialQueries => "Set ops between initial queries",
            Feature::UnionAcrossInitialAndRecursive => "union across initial & recursive queries",
            Feature::SetOpsBetweenRecursiveQueries => "Set ops between recursive queries",
            Feature::Negation => "Negation",
            Feature::AggregateFunctions => "Aggregate functions",
            Feature::GroupByHaving => "group by, having",
            Feature::PartitionBy => "partition by",
            Feature::Distinct => "distinct",
            Feature::GeneralFunctions => "General functions",
            Feature::AnalyticalFunctions => "Analytical functions",
            Feature::SubqueriesWithoutRecursiveRef => "Subqueries without recursive ref",
            Feature::SubqueriesWithRecursiveRef => "Subqueries with recursive ref",
            Feature::InfiniteLoopDetection => "Infinite loop detection",
            Feature::CycleDetection => "Cycle detection",
        }
    }
}

/// Table 1 verbatim.
pub struct FeatureMatrix;

impl FeatureMatrix {
    pub fn supports(system: Sql99System, feature: Feature) -> Support {
        use Feature::*;
        use Sql99System::*;
        use Support::*;
        match (feature, system) {
            (LinearRecursion, _) => Yes,
            (NonlinearRecursion, _) | (MutualRecursion, _) => No,
            (MultipleInitialQueries, _) => Yes,
            (MultipleRecursiveQueries, Db2) => Na, // "-" in Table 1
            (MultipleRecursiveQueries, _) => No,
            (SetOpsBetweenInitialQueries, _) => Yes,
            (UnionAcrossInitialAndRecursive, PostgreSql) => Yes,
            (UnionAcrossInitialAndRecursive, _) => No,
            (SetOpsBetweenRecursiveQueries, PostgreSql | Oracle) => Na,
            (SetOpsBetweenRecursiveQueries, Db2) => No,
            (Negation, _) | (AggregateFunctions, _) | (GroupByHaving, _) => No,
            (PartitionBy, _) => Yes,
            (Distinct, PostgreSql) => Yes,
            (Distinct, _) => No,
            (GeneralFunctions, Db2) => No,
            (GeneralFunctions, _) => Yes,
            (AnalyticalFunctions, Db2) => No,
            (AnalyticalFunctions, _) => Yes,
            (SubqueriesWithoutRecursiveRef, _) => Yes,
            (SubqueriesWithRecursiveRef, _) => No,
            (InfiniteLoopDetection, Oracle) => Yes,
            (InfiniteLoopDetection, _) => No,
            (CycleDetection, Oracle) => Yes,
            (CycleDetection, _) => No,
        }
    }

    /// Render Table 1 as aligned text (the `repro table1` output).
    pub fn render() -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<42} {:>10} {:>6} {:>6}\n",
            "Feature", "PostgreSQL", "DB2", "Oracle"
        ));
        for f in Feature::ALL {
            out.push_str(&format!(
                "{:<42} {:>10} {:>6} {:>6}\n",
                f.label(),
                FeatureMatrix::supports(Sql99System::PostgreSql, f),
                FeatureMatrix::supports(Sql99System::Db2, f),
                FeatureMatrix::supports(Sql99System::Oracle, f),
            ));
        }
        out
    }
}

/// SQL'99 `WITH` executor, gated by the Table 1 matrix of one system.
pub struct Sql99Engine {
    pub system: Sql99System,
}

impl Sql99Engine {
    pub fn new(system: Sql99System) -> Sql99Engine {
        Sql99Engine { system }
    }

    fn reject(&self, feature: Feature) -> WithPlusError {
        WithPlusError::FeatureNotSupported {
            feature: feature.label().to_string(),
            system: self.system.name().to_string(),
        }
    }

    fn check(&self, feature: Feature) -> Result<()> {
        match FeatureMatrix::supports(self.system, feature) {
            Support::Yes | Support::Na => Ok(()),
            Support::No => Err(self.reject(feature)),
        }
    }

    /// Validate a statement against Table 1 (the paper's Section 3 rules).
    pub fn validate(&self, w: &WithPlus) -> Result<()> {
        // with+-only syntax is always out
        if matches!(w.union, UnionMode::ByUpdate(_)) {
            return Err(WithPlusError::FeatureNotSupported {
                feature: "union by update".into(),
                system: self.system.name().into(),
            });
        }
        for q in &w.subqueries {
            if !q.computed_by.is_empty() {
                return Err(WithPlusError::FeatureNotSupported {
                    feature: "computed by".into(),
                    system: self.system.name().into(),
                });
            }
        }
        let recursive: Vec<_> = w.recursive_subqueries();
        if recursive.len() > 1 {
            self.check(Feature::MultipleRecursiveQueries)?;
        }
        if w.union == UnionMode::Distinct {
            self.check(Feature::UnionAcrossInitialAndRecursive)?;
        }
        for q in &recursive {
            self.validate_recursive_select(&q.select, w)?;
        }
        Ok(())
    }

    fn validate_recursive_select(&self, s: &SelectStmt, w: &WithPlus) -> Result<()> {
        // linear recursion: at most one reference to R in FROM
        let mut from_tables = Vec::new();
        for f in &s.from {
            flatten_from(f, &mut from_tables);
        }
        let rec_refs = from_tables
            .iter()
            .filter(|t| t.eq_ignore_ascii_case(&w.rec_name))
            .count();
        if rec_refs > 1 {
            self.check(Feature::NonlinearRecursion)?;
        }
        if s.distinct {
            self.check(Feature::Distinct)?;
        }
        if !s.group_by.is_empty() || s.having.is_some() {
            self.check(Feature::GroupByHaving)?;
        }
        let mut saw_plain_agg = false;
        let mut saw_window = false;
        let mut saw_func = false;
        let mut saw_negation = false;
        let mut rec_subquery = false;
        let mut walk = |e: &Expr| {
            visit_expr(e, &mut |x| match x {
                Expr::Agg {
                    over_partition_by: Some(_),
                    ..
                } => saw_window = true,
                Expr::Agg {
                    over_partition_by: None,
                    ..
                } => saw_plain_agg = true,
                Expr::Func(..) => saw_func = true,
                Expr::In {
                    negated, subquery, ..
                }
                | Expr::Exists {
                    negated, subquery, ..
                } => {
                    if *negated {
                        saw_negation = true;
                    }
                    let mut tabs = Vec::new();
                    collect_select_tables(subquery, &mut tabs);
                    if tabs.iter().any(|t| t.eq_ignore_ascii_case(&w.rec_name)) {
                        rec_subquery = true;
                    }
                }
                _ => {}
            })
        };
        for it in &s.items {
            walk(&it.expr);
        }
        if let Some(wc) = &s.where_clause {
            walk(wc);
        }
        if saw_plain_agg {
            self.check(Feature::AggregateFunctions)?;
        }
        if saw_window {
            self.check(Feature::PartitionBy)?;
            self.check(Feature::AnalyticalFunctions)?;
        }
        if saw_func {
            self.check(Feature::GeneralFunctions)?;
        }
        if saw_negation {
            self.check(Feature::Negation)?;
        }
        if rec_subquery {
            self.check(Feature::SubqueriesWithRecursiveRef)?;
        }
        Ok(())
    }

    /// Validate then execute with SQL'99 semantics (the PSM runner's
    /// `union all` / `union` path *is* the semi-naive working-table
    /// evaluation of SQL'99).
    pub fn execute(
        &self,
        catalog: &mut Catalog,
        w: &WithPlus,
        params: &HashMap<String, Value>,
    ) -> Result<QueryResult> {
        self.validate(w)?;
        let profile = self.system.profile();
        let ctx = LowerCtx::new(params, AntiJoinImpl::LeftOuterNull);
        let compiled = compile(w, &ctx)?;
        let mut runner = PsmRunner::new(catalog, &profile, UbuImpl::FullOuterJoin);
        runner.run(&compiled)
    }
}

fn flatten_from(f: &crate::ast::FromItem, out: &mut Vec<String>) {
    match f {
        crate::ast::FromItem::Table { name, .. } => out.push(name.clone()),
        crate::ast::FromItem::Join { left, right, .. } => {
            flatten_from(left, out);
            flatten_from(right, out);
        }
    }
}

fn visit_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Unary(_, x) => visit_expr(x, f),
        Expr::Binary(_, l, r) => {
            visit_expr(l, f);
            visit_expr(r, f);
        }
        Expr::Func(_, args) => args.iter().for_each(|a| visit_expr(a, f)),
        Expr::Agg { arg, .. } => visit_expr(arg, f),
        Expr::In { needle, .. } => visit_expr(needle, f),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{Parser, Statement};

    fn parse(sql: &str) -> WithPlus {
        match Parser::parse_statement(sql).unwrap() {
            Statement::WithPlus(w) => w,
            _ => panic!("expected with"),
        }
    }

    #[test]
    fn matrix_matches_table1_spot_checks() {
        use Feature::*;
        use Sql99System::*;
        use Support::*;
        assert_eq!(FeatureMatrix::supports(PostgreSql, LinearRecursion), Yes);
        assert_eq!(FeatureMatrix::supports(Oracle, NonlinearRecursion), No);
        assert_eq!(FeatureMatrix::supports(Db2, MultipleRecursiveQueries), Na);
        assert_eq!(
            FeatureMatrix::supports(PostgreSql, UnionAcrossInitialAndRecursive),
            Yes
        );
        assert_eq!(
            FeatureMatrix::supports(Db2, UnionAcrossInitialAndRecursive),
            No
        );
        assert_eq!(FeatureMatrix::supports(PostgreSql, Distinct), Yes);
        assert_eq!(FeatureMatrix::supports(Oracle, Distinct), No);
        assert_eq!(FeatureMatrix::supports(Db2, GeneralFunctions), No);
        assert_eq!(FeatureMatrix::supports(Oracle, CycleDetection), Yes);
        assert_eq!(FeatureMatrix::supports(PostgreSql, CycleDetection), No);
        assert_eq!(FeatureMatrix::supports(Db2, Negation), No);
    }

    #[test]
    fn render_has_all_rows() {
        let t = FeatureMatrix::render();
        for f in Feature::ALL {
            assert!(t.contains(f.label()), "{}", f.label());
        }
    }

    #[test]
    fn union_by_update_rejected_everywhere() {
        let w = parse(
            "with P(ID) as ((select ID from V) union by update ID (select P.ID from P)) select * from P",
        );
        for sys in Sql99System::ALL {
            assert!(
                Sql99Engine::new(sys).validate(&w).is_err(),
                "{}",
                sys.name()
            );
        }
    }

    #[test]
    fn aggregation_in_recursion_rejected_everywhere() {
        let w = parse(
            "with P(ID, W) as ((select ID, vw from V) union all (select E.T, sum(P.W) from P, E where P.ID = E.F group by E.T)) select * from P",
        );
        for sys in Sql99System::ALL {
            let err = Sql99Engine::new(sys).validate(&w).unwrap_err();
            assert!(matches!(err, WithPlusError::FeatureNotSupported { .. }));
        }
    }

    #[test]
    fn nonlinear_rejected_everywhere() {
        let w = parse(
            "with D(F, T) as ((select E.F, E.T from E) union all (select D1.F, D2.T from D as D1, D as D2 where D1.T = D2.F)) select * from D",
        );
        for sys in Sql99System::ALL {
            assert!(Sql99Engine::new(sys).validate(&w).is_err());
        }
    }

    #[test]
    fn fig9_pagerank_only_on_postgres() {
        // distinct + partition by: PostgreSQL yes; Oracle fails distinct;
        // DB2 fails analytical functions (and distinct).
        let w = parse(
            "with P(ID, W, L) as (\
               (select V.ID, 0.0, 0 from V)\
               union all\
               (select distinct E.T, 0.85 * (sum(P.W * E.ew) over (partition by E.T)) + 0.15, P.L + 1 \
                from P, E where P.ID = E.F and P.L < 10))\
             select P.ID, P.W from P where P.L = 10",
        );
        assert!(Sql99Engine::new(Sql99System::PostgreSql)
            .validate(&w)
            .is_ok());
        assert!(Sql99Engine::new(Sql99System::Oracle).validate(&w).is_err());
        assert!(Sql99Engine::new(Sql99System::Db2).validate(&w).is_err());
    }

    #[test]
    fn plain_tc_accepted_everywhere() {
        let w = parse(
            "with TC(F, T) as ((select E.F, E.T from E) union all (select TC.F, E.T from TC, E where TC.T = E.F) maxrecursion 5) select * from TC",
        );
        for sys in Sql99System::ALL {
            assert!(Sql99Engine::new(sys).validate(&w).is_ok(), "{}", sys.name());
        }
    }

    #[test]
    fn subquery_with_recursive_ref_rejected() {
        let w = parse(
            "with R(ID) as ((select ID from V) union all (select V.ID from V where V.ID not in (select R.ID from R))) select * from R",
        );
        for sys in Sql99System::ALL {
            assert!(Sql99Engine::new(sys).validate(&w).is_err());
        }
    }
}
