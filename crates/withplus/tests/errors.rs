//! Error-path coverage for the with+ engine: every rejection the compiler
//! and runtime can produce, exercised through the public API.

use aio_algebra::oracle_like;
use aio_storage::{edge_schema, node_schema, row, Relation, WalPolicy};
use aio_withplus::{Database, WithPlusError};

fn db() -> Database {
    let mut db = Database::new(oracle_like());
    let mut e = Relation::new(edge_schema());
    e.extend([row![1, 2, 1.0], row![2, 3, 1.0]]).unwrap();
    db.create_table("E", e).unwrap();
    let mut v = Relation::new(node_schema());
    v.extend([row![1, 0.0], row![2, 0.0], row![3, 0.0]])
        .unwrap();
    db.create_table("V", v).unwrap();
    db
}

#[test]
fn lexer_errors() {
    let mut d = db();
    for sql in [
        "select 'open from V",
        "select : from V",
        "select a ! b from V",
    ] {
        assert!(
            matches!(d.execute(sql), Err(WithPlusError::Parse { .. })),
            "{sql}"
        );
    }
}

#[test]
fn parser_errors() {
    let mut d = db();
    for sql in [
        "with R as (select 1 from V) select * from R",  // missing columns
        "select from",                                   // missing FROM item
        "select V.ID from V where",                      // dangling WHERE
        "with R(x) as ((select V.ID from V) union by update x (select R.x from R) union all (select V.ID from V)) select * from R",
        "with R(x) as ((select V.ID from V) maxrecursion 99999) select * from R", // out of range
    ] {
        assert!(d.execute(sql).is_err(), "{sql}");
    }
}

#[test]
fn unknown_table_and_column() {
    let mut d = db();
    let err = d.execute("select * from nope").unwrap_err();
    assert!(err.to_string().contains("no such table"), "{err}");
    let err = d.execute("select V.nope from V").unwrap_err();
    assert!(err.to_string().contains("no such column"), "{err}");
}

#[test]
fn ambiguous_column() {
    let mut d = db();
    let err = d
        .execute("select F from E as A, E as B where A.T = B.F")
        .unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
}

#[test]
fn unknown_function_and_unbound_param() {
    let mut d = db();
    let err = d.execute("select frobnicate(V.ID) from V").unwrap_err();
    assert!(err.to_string().contains("unknown function"), "{err}");
    let err = d.execute("select :missing from V").unwrap_err();
    assert!(err.to_string().contains("unbound parameter"), "{err}");
}

#[test]
fn aggregate_of_ungrouped_column() {
    let mut d = db();
    let err = d
        .execute("select E.F, E.T from E group by E.F")
        .unwrap_err();
    assert!(
        err.to_string().contains("neither grouped nor aggregated"),
        "{err}"
    );
}

#[test]
fn union_by_update_arity_and_keys() {
    let mut d = db();
    // key not a column of the recursive relation
    let err = d
        .execute(
            "with R(ID) as ((select V.ID from V) union by update nope (select R.ID from R)) select * from R",
        )
        .unwrap_err();
    assert!(matches!(err, WithPlusError::Restriction(_)), "{err}");
    // arity mismatch between subquery and recursive relation
    let err = d
        .execute(
            "with R(ID, W) as ((select V.ID from V) union all (select R.ID, R.W from R)) select * from R",
        )
        .unwrap_err();
    assert!(matches!(err, WithPlusError::Restriction(_)), "{err}");
}

#[test]
fn non_unique_update_surfaces_at_runtime() {
    // delta with duplicate keys: "we do not allow multiple s to match a
    // single r, since the answer is not unique" (Section 4.1)
    let mut d = db();
    // add a second out-edge from node 1 so the delta repeats key F = 1
    d.catalog
        .insert_rows("E", vec![row![1, 3, 2.0]], WalPolicy::None)
        .unwrap();
    let err = d
        .execute(
            "with R(ID, W) as (
               (select V.ID, 0.0 from V)
               union by update ID
               (select E.F, 1.0 * E.T from R, E where R.ID = E.F))
             select * from R",
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("not unique"),
        "duplicate keys in the delta must be rejected: {err}"
    );
}

#[test]
fn subquery_in_disallowed_position() {
    let mut d = db();
    let err = d
        .execute("select V.ID from V where V.ID = 1 or V.ID in (select E.F from E)")
        .unwrap_err();
    assert!(
        err.to_string().contains("top-level WHERE conjuncts"),
        "{err}"
    );
}

#[test]
fn uncorrelated_exists_rejected() {
    let mut d = db();
    let err = d
        .execute("select V.ID from V where exists (select E.F from E)")
        .unwrap_err();
    assert!(err.to_string().contains("correlate"), "{err}");
}

#[test]
fn recursive_relation_name_collision() {
    let mut d = db();
    let err = d
        .execute(
            "with E(F, T) as ((select V.ID, V.ID from V) union all (select E.F, E.T from E)) select * from E",
        )
        .unwrap_err();
    assert!(err.to_string().contains("collides"), "{err}");
}

#[test]
fn division_by_zero_is_an_error_not_a_panic() {
    let mut d = db();
    let err = d.execute("select V.ID / 0 from V").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}
