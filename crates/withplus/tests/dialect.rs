//! Positive dialect coverage: corners of the with+ grammar and semantics
//! that the algorithm programs don't happen to exercise.

use aio_algebra::{all_profiles, oracle_like};
use aio_storage::{edge_schema, node_schema, row, Relation, Value};
use aio_withplus::Database;

fn db() -> Database {
    let mut db = Database::new(oracle_like());
    let mut e = Relation::new(edge_schema());
    e.extend([
        row![1, 2, 1.0],
        row![2, 3, 2.0],
        row![3, 4, 3.0],
        row![4, 2, 0.5],
    ])
    .unwrap();
    db.create_table("E", e).unwrap();
    let mut v = Relation::new(node_schema());
    v.extend([row![1, 1.0], row![2, 2.0], row![3, 3.0], row![4, 4.0]])
        .unwrap();
    db.create_table("V", v).unwrap();
    db
}

#[test]
fn multiple_initial_subqueries_union() {
    let mut d = db();
    let out = d
        .execute(
            "with R(ID, vw) as (
               (select V.ID, V.vw from V where V.ID = 1)
               union all
               (select V.ID, V.vw from V where V.ID = 4)
               union all
               (select R.ID, R.vw from R where R.ID < 0))
             select * from R",
        )
        .unwrap();
    assert_eq!(out.relation.len(), 2);
}

#[test]
fn computed_by_on_initial_subquery() {
    // Fig. 4 allows `computed by` on any Q_i, including initial ones
    let mut d = db();
    let out = d
        .execute(
            "with R(ID, deg) as (
               (select D.ID, D.deg from D
                computed by
                  D(ID, deg) as select E.F, count(*) from E group by E.F;)
               union all
               (select R.ID, R.deg from R where R.ID < 0))
             select * from R",
        )
        .unwrap();
    assert_eq!(out.relation.len(), 4);
}

#[test]
fn full_outer_join_in_plain_select() {
    let mut d = db();
    let out = d
        .execute(
            "select coalesce(A.ID, B.ID) as ID, coalesce(B.vw, A.vw) as vw
             from V as A full outer join V as B on A.ID = B.ID",
        )
        .unwrap();
    assert_eq!(out.relation.len(), 4);
}

#[test]
fn case_insensitive_identifiers_and_keywords() {
    let mut d = db();
    let out = d
        .execute("SELECT v.id, MAX(e.EW) FROM v, e WHERE v.id = e.f GROUP BY v.ID")
        .unwrap();
    assert_eq!(out.relation.len(), 4);
}

#[test]
fn string_labels_flow_through() {
    let mut d = db();
    let mut l = Relation::new(aio_storage::Schema::of(&[
        ("ID", aio_storage::DataType::Int),
        ("name", aio_storage::DataType::Text),
    ]));
    l.extend([row![1, "alice"], row![2, "bob"]]).unwrap();
    d.create_table("Names", l).unwrap();
    let out = d
        .execute("select Names.ID from Names where Names.name = 'bob'")
        .unwrap();
    assert_eq!(out.relation.len(), 1);
    assert_eq!(out.relation[0][0], Value::Int(2));
}

#[test]
fn least_greatest_and_arithmetic_soup() {
    let mut d = db();
    let out = d
        .execute("select V.ID, greatest(least(V.vw * 2, 5.0), 1.5) from V where V.ID <= 2")
        .unwrap();
    let vals: Vec<f64> = out
        .relation
        .iter()
        .map(|r| r[1].as_f64().unwrap())
        .collect();
    assert_eq!(vals, vec![2.0, 4.0]);
}

#[test]
fn profiles_agree_on_a_mixed_query() {
    let sql =
        "select E.T, sum(E.ew), count(*) from E, V where E.F = V.ID and V.vw >= 1.0 group by E.T";
    let mut base: Option<Vec<Vec<String>>> = None;
    for p in all_profiles() {
        let mut d = Database::new(p.clone());
        let mut e = Relation::new(edge_schema());
        e.extend([row![1, 2, 1.0], row![2, 3, 2.0], row![1, 3, 4.0]])
            .unwrap();
        d.create_table("E", e).unwrap();
        let mut v = Relation::new(node_schema());
        v.extend([row![1, 1.0], row![2, 2.0], row![3, 3.0]])
            .unwrap();
        d.create_table("V", v).unwrap();
        let out = d.execute(sql).unwrap();
        let mut rows: Vec<Vec<String>> = out
            .relation
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        rows.sort();
        match &base {
            None => base = Some(rows),
            Some(b) => assert_eq!(&rows, b, "{}", p.name),
        }
    }
}

#[test]
fn maxrecursion_zero_means_no_recursion() {
    let mut d = db();
    let out = d
        .execute(
            "with R(F, T) as (
               (select E.F, E.T from E)
               union all
               (select R.F, E.T from R, E where R.T = E.F)
               maxrecursion 0)
             select * from R",
        )
        .unwrap();
    assert_eq!(out.relation.len(), 4, "only the initialization ran");
    assert!(out.stats.iterations.is_empty());
}

#[test]
fn final_select_can_aggregate_the_recursive_relation() {
    let mut d = db();
    let out = d
        .execute(
            "with R(F, T) as (
               (select E.F, E.T from E)
               union
               (select R.F, E.T from R, E where R.T = E.F)
               maxrecursion 10)
             select R.F, count(*) from R group by R.F",
        )
        .unwrap();
    // node 1 reaches 2, 3, 4 (and the 2→3→4→2 cycle keeps things finite
    // thanks to union's dedup)
    let from1 = out
        .relation
        .iter()
        .find(|r| r[0].as_int() == Some(1))
        .unwrap()[1]
        .as_int()
        .unwrap();
    assert_eq!(from1, 3);
}

#[test]
fn with_plus_over_empty_tables() {
    let mut d = Database::new(oracle_like());
    d.create_table("E", Relation::new(edge_schema())).unwrap();
    d.create_table("V", Relation::new(node_schema())).unwrap();
    let out = d
        .execute(
            "with R(ID, vw) as (
               (select V.ID, V.vw from V)
               union by update ID
               (select E.T, min(R.vw + E.ew) from R, E where R.ID = E.F group by E.T))
             select * from R",
        )
        .unwrap();
    assert!(out.relation.is_empty());
}

#[test]
fn having_filters_groups() {
    let mut d = db();
    let out = d
        .execute("select E.F, count(*) as deg from E group by E.F having deg >= 1")
        .unwrap();
    assert_eq!(out.relation.len(), 4);
    let out = d
        .execute("select E.T, sum(E.ew) as total from E group by E.T having total > 1.5")
        .unwrap();
    // targets: 2 gets 1.0 + 0.5, 3 gets 2.0, 4 gets 3.0
    assert_eq!(out.relation.len(), 2);
}

#[test]
fn having_without_grouping_rejected() {
    let mut d = db();
    assert!(d.execute("select V.ID from V having V.ID > 1").is_err());
}

#[test]
fn having_roundtrips_through_display() {
    use aio_withplus::{Parser, Statement};
    let sql = "select E.F, count(*) as c from E group by E.F having c > 2";
    let first = Parser::parse_statement(sql).unwrap();
    let Statement::Select(s) = &first else {
        panic!()
    };
    let second = Parser::parse_statement(&s.to_string()).unwrap();
    assert_eq!(first, second);
}

#[test]
fn having_in_computed_by() {
    // k-core's inner degree filter, HAVING style
    let mut d = db();
    let out = d
        .execute(
            "with CE(F, T, ew) as (
               (select E.F, E.T, E.ew from E)
               union by update
               (select CE.F, CE.T, CE.ew from CE, K as K1, K as K2
                where CE.F = K1.ID and CE.T = K2.ID
                computed by
                  K(ID) as select CE.F from CE group by CE.F having count(*) >= 1;))
             select * from CE",
        )
        .unwrap();
    assert_eq!(out.relation.len(), 4, "every node has out-degree >= 1");
}
