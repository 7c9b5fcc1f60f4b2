//! Parse → pretty-print → re-parse round-trips for every shipped
//! algorithm's with+ program (the printer lives in
//! `aio-withplus::display`).

use all_in_one::algos;
use all_in_one::withplus::{Parser, Statement};

fn roundtrip(sql: &str) {
    let first = Parser::parse_statement(sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
    let printed = match &first {
        Statement::WithPlus(w) => w.to_string(),
        Statement::Select(s) => s.to_string(),
    };
    let second = Parser::parse_statement(&printed)
        .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
    assert_eq!(first, second, "--- printed ---\n{printed}");
}

#[test]
fn every_algorithm_sql_roundtrips() {
    let programs: Vec<String> = vec![
        algos::tc::sql(7),
        algos::tc::sql_union_all(7),
        algos::bfs::SQL.to_string(),
        algos::wcc::SQL.to_string(),
        algos::sssp::SQL.to_string(),
        algos::apsp::SQL.to_string(),
        algos::apsp::sql_linear(7),
        algos::pagerank::sql(15),
        algos::pagerank::sql99_fig9(10),
        algos::rwr::sql(12),
        algos::simrank::sql(6),
        algos::hits::sql(15),
        algos::toposort::SQL.to_string(),
        algos::kcore::SQL.to_string(),
        algos::ktruss::SQL.to_string(),
        algos::mis::SQL.to_string(),
        algos::mnm::SQL.to_string(),
        algos::lp::sql(15),
        algos::ks::sql([0, 1, 2], 4),
        algos::mcl::sql(20),
        algos::bisim::sql(30),
    ];
    for sql in programs {
        roundtrip(&sql);
    }
}

#[test]
fn printed_form_is_executable() {
    use all_in_one::prelude::*;
    let g = DatasetSpec::by_key("WV").unwrap().synthesize(0.0002);
    let mut db =
        algos::common::db_for(&g, &oracle_like(), algos::common::EdgeStyle::PageRank).unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", g.node_count() as f64);

    let original = algos::pagerank::sql(5);
    let Statement::WithPlus(w) = Parser::parse_statement(&original).unwrap() else {
        panic!()
    };
    let printed = w.to_string();

    let a = db.execute(&original).unwrap();
    let b = db.execute(&printed).unwrap();
    assert!(a.relation.same_rows_unordered(&b.relation));
}
