//! K-truss (Table 2): the maximal subgraph in which every edge closes at
//! least k−2 triangles. Iteratively counts each edge's *support* with a
//! triangle (three-way self-) join and drops under-supported edges —
//! `count` aggregation + nonlinear recursion + wholesale union-by-update,
//! the same shape as K-core one level up (edges instead of nodes).
//!
//! Expects a symmetrized edge relation (undirected semantics).

use crate::common::{self, EdgeStyle};
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_storage::FxHashSet;
use aio_withplus::{QueryResult, Result};

pub const SQL: &str = "\
with TE(F, T, ew) as (
  (select distinct E.F, E.T, E.ew from E)
  union by update
  (select TE.F, TE.T, TE.ew from TE, Sup
   where TE.F = Sup.F and TE.T = Sup.T and Sup.c >= :k - 2
   computed by
     Sup(F, T, c) as select T1.F, T1.T, count(*)
                    from TE as T1, TE as T2, TE as T3
                    where T1.F = T2.F and T1.T = T3.F and T2.T = T3.T
                    group by T1.F, T1.T;))
select * from TE";

/// Run k-truss; returns the surviving (undirected) edges as `(u, v)` with
/// `u < v`.
pub fn run(
    g: &Graph,
    profile: &EngineProfile,
    k: i64,
) -> Result<(FxHashSet<(i64, i64)>, QueryResult)> {
    let mut db = common::db_for(g, profile, EdgeStyle::Raw)?;
    if g.directed {
        let extra: Vec<_> = g
            .edges()
            .map(|(u, v, w)| aio_storage::row![v as i64, u as i64, w])
            .collect();
        db.catalog.relation_mut("E")?.extend(extra)?;
    }
    db.set_param("k", k);
    let out = db.execute(SQL)?;
    let mut edges = FxHashSet::default();
    for r in out.relation.iter() {
        let (u, v) = (r[0].as_int().unwrap(), r[1].as_int().unwrap());
        edges.insert((u.min(v), u.max(v)));
    }
    Ok((edges, out))
}

/// Reference: iterative support-peeling on the symmetrized edge set.
pub fn reference_ktruss(g: &Graph, k: i64) -> FxHashSet<(i64, i64)> {
    let mut edges: FxHashSet<(u32, u32)> = FxHashSet::default();
    for (u, v, _) in g.edges() {
        edges.insert((u, v));
        edges.insert((v, u));
    }
    loop {
        let mut adj: aio_storage::FxHashMap<u32, FxHashSet<u32>> = Default::default();
        for &(u, v) in &edges {
            adj.entry(u).or_default().insert(v);
        }
        let mut drop = Vec::new();
        for &(u, v) in &edges {
            let empty = FxHashSet::default();
            let nu = adj.get(&u).unwrap_or(&empty);
            let nv = adj.get(&v).unwrap_or(&empty);
            let support = nu.intersection(nv).count() as i64;
            if support < k - 2 {
                drop.push((u, v));
            }
        }
        if drop.is_empty() {
            break;
        }
        for e in drop {
            edges.remove(&e);
        }
    }
    edges
        .into_iter()
        .filter(|(u, v)| u < v)
        .map(|(u, v)| (u as i64, v as i64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::oracle_like;
    use aio_graph::{generate, GraphKind};

    #[test]
    fn triangle_survives_pendant_does_not() {
        // triangle {0,1,2} + pendant edge 2—3: 3-truss = the triangle
        let g = Graph::from_edges(
            4,
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)],
            false,
        );
        let (edges, _) = run(&g, &oracle_like(), 3).unwrap();
        assert_eq!(edges, [(0i64, 1i64), (1, 2), (0, 2)].into_iter().collect());
    }

    #[test]
    fn matches_reference_peeling() {
        let g = generate(GraphKind::PowerLaw, 60, 400, false, 151);
        for k in [3i64, 4] {
            let (edges, _) = run(&g, &oracle_like(), k).unwrap();
            assert_eq!(edges, reference_ktruss(&g, k), "k = {k}");
        }
    }

    #[test]
    fn high_k_empties() {
        let g = generate(GraphKind::Uniform, 30, 60, false, 152);
        let (edges, _) = run(&g, &oracle_like(), 20).unwrap();
        assert!(edges.is_empty());
    }
}
