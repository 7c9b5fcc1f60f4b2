//! SimRank (Eq. 11): pairwise structural similarity — two MM-joins per
//! iteration over the similarity matrix `K(F, T, ew)` plus the
//! diagonal-restoring `max` against the identity matrix `I`.
//!
//! `S' = C · Êᵀ S Ê` with `Ê` the in-degree-normalized adjacency, then
//! `S'(a,a) = 1`. Quadratic in |V| — small graphs only, as in the paper
//! (SimRank is in Table 2 but not among the ten evaluated algorithms).

use crate::common::{self, EdgeStyle};
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_storage::{row, DataType, FxHashMap, Relation, Schema};
use aio_withplus::{QueryResult, Result};

pub fn sql(iters: usize) -> String {
    format!(
        "with K(F, T, ew) as (
           (select I.F, I.T, I.ew from I)
           union by update F, T
           (select R2.F, R2.T, greatest(:c * R2.ew, coalesce(I.ew, 0.0))
            from R2 left outer join I on R2.F = I.F and R2.T = I.T
            computed by
              R1(F, T, ew) as select K.F, EN.T, sum(K.ew * EN.ew) from K, EN
                             where K.T = EN.F group by K.F, EN.T;
              R2(F, T, ew) as select EN.T, R1.T, sum(EN.ew * R1.ew) from EN, R1
                             where EN.F = R1.F group by EN.T, R1.T;)
           maxrecursion {iters})
         select * from K"
    )
}

/// `(a, b) → similarity` map produced by [`run`].
pub type PairScores = FxHashMap<(i64, i64), f64>;

/// Run SimRank; returns (a, b) → similarity.
pub fn run(
    g: &Graph,
    profile: &EngineProfile,
    c: f64,
    iters: usize,
) -> Result<(PairScores, QueryResult)> {
    let mut db = common::db_for(g, profile, EdgeStyle::Raw)?;
    // EN: in-degree-normalized edges Ê(i, a) = 1/|I(a)| per edge i→a
    let mut indeg = vec![0usize; g.node_count()];
    for (_, v, _) in g.edges() {
        indeg[v as usize] += 1;
    }
    let en_schema = Schema::of(&[
        ("F", DataType::Int),
        ("T", DataType::Int),
        ("ew", DataType::Float),
    ]);
    let mut en = Relation::new(en_schema);
    for (u, v, _) in g.edges() {
        en.push(row![u as i64, v as i64, 1.0 / indeg[v as usize] as f64])?;
    }
    db.create_table("EN", en)?;
    // I: the identity matrix (diagonal only)
    let i_schema = Schema::of(&[
        ("F", DataType::Int),
        ("T", DataType::Int),
        ("ew", DataType::Float),
    ]);
    let mut ident = Relation::new(i_schema);
    for v in 0..g.node_count() {
        ident.push(row![v as i64, v as i64, 1.0])?;
    }
    db.create_table("I", ident)?;
    db.set_param("c", c);
    let out = db.execute(&sql(iters))?;
    let map = out
        .relation
        .iter()
        .filter_map(|r| Some(((r[0].as_int()?, r[1].as_int()?), r[2].as_f64()?)))
        .collect();
    Ok((map, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::oracle_like;
    use aio_graph::{generate, reference, GraphKind};

    fn check(g: &Graph, iters: usize) {
        let (sim, _) = run(g, &oracle_like(), 0.8, iters).unwrap();
        let expected = reference::simrank(g, 0.8, iters);
        for (i, row) in expected.iter().enumerate() {
            for (j, &s) in row.iter().enumerate() {
                let got = sim.get(&(i as i64, j as i64)).copied().unwrap_or(0.0);
                assert!((got - s).abs() < 1e-9, "s({i},{j}): {got} vs {s}");
            }
        }
    }

    #[test]
    fn matches_naive_simrank() {
        let g = generate(GraphKind::Uniform, 15, 40, true, 141);
        check(&g, 6);
    }

    #[test]
    fn co_cited_nodes_are_similar() {
        // 0→2, 1→2: nodes 0 and 1 share an... actually 0,1 have no
        // in-neighbours; instead 2←0, 2←1 makes (0,1) similar via their
        // *future*: use 2→0, 2→1 so 0 and 1 share in-neighbour 2
        let g = Graph::from_edges(3, &[(2, 0, 1.0), (2, 1, 1.0)], true);
        let (sim, _) = run(&g, &oracle_like(), 0.8, 5).unwrap();
        let s01 = sim.get(&(0, 1)).copied().unwrap_or(0.0);
        assert!((s01 - 0.8).abs() < 1e-9, "s(0,1) = C = 0.8, got {s01}");
        assert_eq!(sim[&(0, 0)], 1.0);
    }

    #[test]
    fn diagonal_stays_one() {
        let g = generate(GraphKind::Uniform, 10, 30, true, 142);
        let (sim, _) = run(&g, &oracle_like(), 0.8, 4).unwrap();
        for v in 0..10 {
            assert_eq!(sim[&(v, v)], 1.0);
        }
    }
}
