//! Programming the algebra directly: a custom *bottleneck* semiring
//! (max, min) computes widest paths — the paper's claim that "all graph
//! algorithms that can be expressed by the semiring can be supported"
//! (Section 4.2), exercised below both at the operator level (MV-join in a
//! loop, the literal "algebra + while") and through with+ SQL.
//!
//! ```sh
//! cargo run --release --example custom_semiring
//! ```

use all_in_one::algebra::ops::{mv_join, union_by_update, MvOrientation, UbuImpl};
use all_in_one::algebra::semiring::MAX_MIN;
use all_in_one::algebra::{AggStrategy, ExecStats, JoinStrategy};
use all_in_one::prelude::*;
use all_in_one::storage::Catalog;

fn main() {
    // a capacity network: edge weight = pipe width
    let mut e = Relation::new(edge_schema());
    e.extend([
        row![0, 1, 10.0],
        row![1, 3, 4.0],
        row![0, 2, 6.0],
        row![2, 3, 5.0],
        row![3, 4, 8.0],
    ])
    .unwrap();

    // V: bottleneck capacity from the source — ∞ at the source, 0 elsewhere
    let mut v = Relation::with_pk(node_schema(), &["ID"]).unwrap();
    v.push(row![0, f64::INFINITY]).unwrap();
    for id in 1..5i64 {
        v.push(row![id, 0.0]).unwrap();
    }

    // --- "algebra + while" with the bottleneck semiring -----------------
    let sr = MAX_MIN; // ⊕ = max, ⊙ = min, 0 = −∞, 1 = +∞
    println!("semiring: {}", sr.name);

    let profile = oracle_like();
    let mut catalog = Catalog::new();
    catalog.create_temp("V", v).unwrap();
    let mut stats = ExecStats::new();
    for round in 1.. {
        let changed_before = stats.ubu_changed_rows;
        // V ← V ⊎ (Eᵀ ⋈ V) under (max, min): widest path relaxation
        let delta = mv_join(
            &e,
            catalog.relation("V").unwrap(),
            &sr,
            MvOrientation::Transposed,
            JoinStrategy::Hash,
            AggStrategy::Hash,
            &mut stats,
        )
        .unwrap();
        // keep the wider of old and new per node
        let widened = {
            let cur = catalog.relation("V").unwrap();
            let mut out = Relation::new(cur.schema().clone());
            let cur_map: std::collections::HashMap<i64, f64> = cur
                .iter()
                .map(|r| (r[0].as_int().unwrap(), r[1].as_f64().unwrap()))
                .collect();
            for r in delta.iter() {
                let id = r[0].as_int().unwrap();
                let w = r[1].as_f64().unwrap().max(cur_map[&id]);
                out.push(row![id, w]).unwrap();
            }
            out
        };
        union_by_update(
            &mut catalog,
            "V",
            widened,
            Some(&[0]),
            UbuImpl::FullOuterJoin,
            &profile,
            &mut stats,
        )
        .unwrap();
        // union-by-update counts the rows it changed: none = fixpoint
        if stats.ubu_changed_rows == changed_before {
            println!("fixpoint after {round} rounds");
            break;
        }
    }
    println!(
        "widest-path capacities from node 0:\n{}",
        catalog.relation("V").unwrap().display(10)
    );

    // --- the same computation as with+ SQL ------------------------------
    let mut db = Database::new(oracle_like());
    let mut e2 = Relation::new(edge_schema());
    e2.extend([
        row![0, 1, 10.0],
        row![1, 3, 4.0],
        row![0, 2, 6.0],
        row![2, 3, 5.0],
        row![3, 4, 8.0],
    ])
    .unwrap();
    db.create_table("E", e2).unwrap();
    let mut v2 = Relation::new(node_schema());
    v2.push(row![0, f64::INFINITY]).unwrap();
    for id in 1..5i64 {
        v2.push(row![id, 0.0]).unwrap();
    }
    db.create_table("V", v2).unwrap();
    // ⊙ = least(vw, ew), ⊕ = max, plus greatest(old, new) via a self-join
    let out = db
        .execute(
            "with W(ID, vw) as (
               (select V.ID, V.vw from V)
               union by update ID
               (select E.T, greatest(W2.vw, max(least(W.vw, E.ew)))
                from W, E, W as W2
                where W.ID = E.F and E.T = W2.ID
                group by E.T, W2.vw))
             select * from W",
        )
        .unwrap();
    println!(
        "with+ widest paths (nonlinear recursion!):\n{}",
        out.relation.display(10)
    );
    println!(
        "iterations: {}, {}",
        out.stats.iterations.len(),
        out.stats.exec.summary()
    );
}
