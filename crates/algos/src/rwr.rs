//! Random-Walk-with-Restart (Eq. 10): the personalized generalization of
//! PageRank — `V ← c·(Eᵀ V) + (1−c)·P` where `P` is the restart vector.
//! MV-join with `f₂(·) = c·sum(vw·ew)` joined back to `P`, linear
//! recursion + union-by-update.

use crate::common::{self, EdgeStyle};
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_storage::{row, DataType, FxHashMap, Relation, Schema};
use aio_withplus::{QueryResult, Result};

pub fn sql(iters: usize) -> String {
    format!(
        "with W(ID, vw) as (
           (select P.ID, P.pw from P)
           union by update ID
           (select E.T, :c * sum(W.vw * E.ew) + (1 - :c) * P.pw from W, E, P
            where W.ID = E.F and E.T = P.ID group by E.T, P.pw)
           maxrecursion {iters})
         select * from W"
    )
}

/// Run RWR restarting at `src`; returns id → proximity.
pub fn run(
    g: &Graph,
    profile: &EngineProfile,
    src: u32,
    c: f64,
    iters: usize,
) -> Result<(FxHashMap<i64, f64>, QueryResult)> {
    let mut db = common::db_for(g, profile, EdgeStyle::PageRank)?;
    // restart vector: probability 1 at the source
    let schema = Schema::of(&[("ID", DataType::Int), ("pw", DataType::Float)]);
    let mut p = Relation::with_pk(schema, &["ID"])?;
    for v in 0..g.node_count() {
        p.push(row![v as i64, if v == src as usize { 1.0 } else { 0.0 }])?;
    }
    db.create_table("P", p)?;
    db.set_param("c", c);
    let out = db.execute(&sql(iters))?;
    Ok((common::node_f64_map(&out.relation), out))
}

/// Reference RWR with the SQL's exact update rule (targets only).
pub fn reference_rwr(g: &Graph, src: u32, c: f64, iters: usize) -> Vec<f64> {
    let gw = aio_graph::reference::with_pagerank_weights(g);
    let n = gw.node_count();
    let restart: Vec<f64> = (0..n)
        .map(|v| if v == src as usize { 1.0 } else { 0.0 })
        .collect();
    let mut w = restart.clone();
    for _ in 0..iters {
        let mut sums = vec![0.0f64; n];
        let mut is_target = vec![false; n];
        for (u, v, ew) in gw.edges() {
            sums[v as usize] += w[u as usize] * ew;
            is_target[v as usize] = true;
        }
        for v in 0..n {
            if is_target[v] {
                w[v] = c * sums[v] + (1.0 - c) * restart[v];
            }
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::{all_profiles, oracle_like};
    use aio_graph::{generate, GraphKind};

    fn check(g: &Graph, profile: &EngineProfile, src: u32) {
        let (prox, _) = run(g, profile, src, 0.9, 12).unwrap();
        let expected = reference_rwr(g, src, 0.9, 12);
        for (v, &e) in expected.iter().enumerate() {
            let got = prox[&(v as i64)];
            assert!((got - e).abs() < 1e-9, "node {v}: {got} vs {e}");
        }
    }

    #[test]
    fn matches_reference() {
        let g = generate(GraphKind::PowerLaw, 70, 280, true, 131);
        check(&g, &oracle_like(), 0);
    }

    #[test]
    fn all_profiles_agree() {
        let g = generate(GraphKind::Uniform, 50, 180, true, 132);
        for p in all_profiles() {
            check(&g, &p, 4);
        }
    }

    #[test]
    fn mass_concentrates_near_restart_node() {
        // chain 0→1→2→…: proximity decays with distance from the source
        let edges: Vec<(u32, u32, f64)> = (0..6).map(|i| (i, i + 1, 1.0)).collect();
        let g = Graph::from_edges(7, &edges, true);
        let (prox, _) = run(&g, &oracle_like(), 0, 0.5, 20).unwrap();
        assert!(prox[&1] > prox[&2]);
        assert!(prox[&2] > prox[&3]);
    }
}
