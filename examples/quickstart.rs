//! Quickstart: an embedded with+ database in a dozen lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use all_in_one::prelude::*;

fn main() {
    // A database emulating Oracle's physical behaviour (hash joins,
    // direct-path inserts). Try `postgres_like(true)` or `db2_like()`.
    let mut db = Database::new(oracle_like());

    // The paper's canonical schema: E(F, T, ew) — a tiny road network.
    let mut e = Relation::new(edge_schema());
    e.extend([
        row![0, 1, 4.0],
        row![0, 2, 1.0],
        row![2, 1, 2.0],
        row![1, 3, 1.0],
        row![2, 3, 5.0],
    ])
    .unwrap();
    db.create_table("E", e).unwrap();

    // 1. Plain SQL works.
    let out = db
        .execute("select E.F, count(*) as outdeg from E group by E.F")
        .unwrap();
    println!("out-degrees:\n{}", out.relation.display(10));

    // 2. Recursive SQL with the enhanced with clause: transitive closure.
    let tc = db
        .execute(
            "with TC(F, T) as (
               (select E.F, E.T from E)
               union
               (select TC.F, E.T from TC, E where TC.T = E.F))
             select * from TC",
        )
        .unwrap();
    println!(
        "transitive closure: {} pairs in {} iterations\n",
        tc.relation.len(),
        tc.stats.iterations.len()
    );

    // 3. The paper's headline: iterative value updates *inside* recursion
    //    via union-by-update — single-source shortest distances. The
    //    seed table D0 holds 0 for the source and infinity elsewhere.
    let mut seed = Relation::new(node_schema());
    for v in 0..4i64 {
        seed.push(row![v, if v == 0 { 0.0 } else { f64::INFINITY }])
            .unwrap();
    }
    db.create_table("D0", seed).unwrap();
    let sssp = db
        .execute(
            "with D(ID, vw) as (
               (select D0.ID, D0.vw from D0)
               union by update ID
               (select E.T, min(D.vw + E.ew) from D, E
                where D.ID = E.F group by E.T))
             select * from D",
        )
        .unwrap();
    println!(
        "shortest distances from node 0:\n{}",
        sssp.relation.display(10)
    );
    println!("physical work: {}", sssp.stats.exec.summary());
}
