//! Integration tests for the fixpoint machinery: every shipped algorithm
//! passes the Theorem 5.1 XY-stratification check; genuinely unsound
//! recursion is rejected; the Table 1 gates behave.

use all_in_one::algos;
use all_in_one::datalog::{is_xy_stratified, Atom, DependencyGraph, Program, Rule, Temporal};
use all_in_one::prelude::*;
use all_in_one::withplus::sql99::{Sql99Engine, Sql99System};
use all_in_one::withplus::{Parser, Statement, WithPlusError};

fn prepare(sql: &str, params: &[(&str, Value)]) -> Result<(), WithPlusError> {
    let g = DatasetSpec::by_key("WV").unwrap().synthesize(0.0002);
    let mut db = algos::common::db_for(&g, &oracle_like(), algos::common::EdgeStyle::Raw).unwrap();
    for (k, v) in params {
        db.set_param(k, v.clone());
    }
    db.prepare(sql).map(|_| ())
}

#[test]
fn every_shipped_algorithm_is_xy_stratified() {
    let cases: Vec<(String, Vec<(&str, Value)>)> = vec![
        (algos::tc::sql(5), vec![]),
        (algos::bfs::SQL.to_string(), vec![]),
        (algos::wcc::SQL.to_string(), vec![]),
        (algos::sssp::SQL.to_string(), vec![]),
        (algos::apsp::SQL.to_string(), vec![]),
        (algos::apsp::sql_linear(5), vec![]),
        (
            algos::pagerank::sql(5),
            vec![("c", Value::Float(0.85)), ("n", Value::Float(10.0))],
        ),
        (algos::hits::sql(5), vec![]),
        (algos::toposort::SQL.to_string(), vec![]),
        (algos::kcore::SQL.to_string(), vec![("k", Value::Int(3))]),
        (algos::mis::SQL.to_string(), vec![]),
        (algos::mnm::SQL.to_string(), vec![]),
        (algos::lp::sql(5), vec![]),
        (algos::ks::sql([0, 1, 2], 4), vec![]),
        (algos::rwr::sql(5), vec![("c", Value::Float(0.9))]),
        (algos::simrank::sql(5), vec![("c", Value::Float(0.8))]),
    ];
    for (sql, params) in cases {
        // rwr/simrank reference auxiliary tables (P/EN/I) that prepare()
        // doesn't create — compilation only binds table names at runtime,
        // so prepare still exercises the full Theorem 5.1 path.
        prepare(&sql, &params).unwrap_or_else(|e| panic!("{e}\n{sql}"));
    }
}

#[test]
fn unsound_same_stage_negation_is_rejected() {
    // R loses tuples it derives in the same breath: R ⊼ R within one stage
    // can't be stratified.
    let err = prepare(
        "with R(ID) as (
           (select V.ID from V)
           union all
           (select A.ID from A
            computed by
              A(ID) as select B.ID from B where B.ID not in (select A2.ID from A2);
              A2(ID) as select R.ID from R;
              B(ID) as select A2.ID from A2;))
         select * from R",
        &[],
    )
    .unwrap_err();
    // the cyclic computed-by is caught first (A references A2 before its
    // definition)
    assert!(matches!(err, WithPlusError::Restriction(_)), "{err}");
}

#[test]
fn self_negation_within_stage_fails_xy_check() {
    // directly construct the bad DATALOG shape
    let p = Program::new(vec![Rule::new(
        Atom::new("R").at(Temporal::Succ),
        vec![
            Atom::new("R").at(Temporal::Var),
            Atom::new("R").negated().at(Temporal::Succ),
        ],
    )]);
    assert!(!is_xy_stratified(&p, &["R".into()]).unwrap());
}

#[test]
fn with_plus_generated_datalog_has_expected_shape() {
    let g = DatasetSpec::by_key("WV").unwrap().synthesize(0.0002);
    let mut db =
        algos::common::db_for(&g, &oracle_like(), algos::common::EdgeStyle::PageRank).unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", g.node_count() as f64);
    let compiled = db.prepare(&algos::pagerank::sql(5)).unwrap();
    let text = compiled.datalog.to_string();
    // Eq. (22): R(s(T)) :- R(T), ¬Δ(s(T)) and R(s(T)) :- Δ(s(T))
    assert!(text.contains("P(s(T)) :- P(T), ¬"), "{text}");
    let dg = DependencyGraph::from_program(&compiled.datalog);
    assert!(dg.has_cycle(), "recursion means a cycle on P");
    assert!(
        !dg.is_stratified(),
        "non-monotonic: plain stratification fails…"
    );
    // …which is exactly why XY-stratification is needed (Section 5)
}

#[test]
fn table1_gates_fire_per_system() {
    let fig9 = algos::pagerank::sql99_fig9(5);
    let Statement::WithPlus(w) = Parser::parse_statement(&fig9).unwrap() else {
        panic!()
    };
    assert!(Sql99Engine::new(Sql99System::PostgreSql)
        .validate(&w)
        .is_ok());
    for sys in [Sql99System::Db2, Sql99System::Oracle] {
        let err = Sql99Engine::new(sys).validate(&w).unwrap_err();
        assert!(
            matches!(err, WithPlusError::FeatureNotSupported { .. }),
            "{}: {err}",
            sys.name()
        );
    }
}

#[test]
fn nonlinear_recursion_rejected_by_sql99_accepted_by_with_plus() {
    let apsp = algos::apsp::SQL;
    let Statement::WithPlus(w) = Parser::parse_statement(apsp).unwrap() else {
        panic!()
    };
    for sys in Sql99System::ALL {
        assert!(
            Sql99Engine::new(sys).validate(&w).is_err(),
            "{}",
            sys.name()
        );
    }
    assert!(
        prepare(apsp, &[]).is_ok(),
        "with+ accepts nonlinear recursion"
    );
}
