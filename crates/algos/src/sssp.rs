//! Single-source shortest paths, Bellman-Ford (Eq. 7): the tropical
//! `(min, +)` semiring via MV-join + union-by-update, linear recursion.
//!
//! `vw` starts at 0 for the source and +∞ elsewhere; zero-weight self-loops
//! (the tropical ⊙-identity) keep a node's own distance in the `min`.

use crate::common::{self, EdgeStyle};
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_storage::FxHashMap;
use aio_withplus::{Database, QueryResult, Result};

pub const SQL: &str = "\
with D(ID, vw) as (
  (select V.ID, V.vw from V)
  union by update ID
  (select E.T, min(D.vw + E.ew) from D, E where D.ID = E.F group by E.T))
select * from D";

/// `V` as Bellman-Ford starts from `src`: distance 0 there, ∞ elsewhere.
pub fn seed(db: &mut Database, src: i64) -> Result<()> {
    common::set_node_weights(db, |id| if id == src { 0.0 } else { f64::INFINITY })
}

/// Run Bellman-Ford from `src`; returns id → distance (∞ if unreachable).
pub fn run(
    g: &Graph,
    profile: &EngineProfile,
    src: u32,
) -> Result<(FxHashMap<i64, f64>, QueryResult)> {
    let mut db = common::db_for(g, profile, EdgeStyle::WithLoops(0.0))?;
    seed(&mut db, src as i64)?;
    let out = db.execute(SQL)?;
    Ok((common::node_f64_map(&out.relation), out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::{all_profiles, oracle_like};
    use aio_graph::{generate, reference, GraphKind};
    use rand::{Rng, SeedableRng};

    fn check(g: &Graph, src: u32, profile: &EngineProfile) {
        let (dist, _) = run(g, profile, src).unwrap();
        let expected = reference::bellman_ford(g, src);
        for (v, &d) in expected.iter().enumerate() {
            let got = dist[&(v as i64)];
            if d.is_infinite() {
                assert!(got.is_infinite(), "node {v}");
            } else {
                assert!((got - d).abs() < 1e-9, "node {v}: {got} vs {d}");
            }
        }
    }

    #[test]
    fn unit_weights_match_bfs_levels() {
        let g = generate(GraphKind::PowerLaw, 100, 400, true, 31);
        check(&g, 0, &oracle_like());
    }

    #[test]
    fn random_weights() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let edges: Vec<(u32, u32, f64)> = (0..300)
            .map(|_| {
                (
                    rng.random_range(0..80u32),
                    rng.random_range(0..80u32),
                    rng.random_range(0.1..5.0),
                )
            })
            .filter(|(u, v, _)| u != v)
            .collect();
        let g = Graph::from_edges(80, &edges, true);
        check(&g, 5, &oracle_like());
    }

    #[test]
    fn all_profiles_agree() {
        let g = generate(GraphKind::Uniform, 70, 250, true, 32);
        for p in all_profiles() {
            check(&g, 1, &p);
        }
    }

    #[test]
    fn iterations_bounded_by_hops() {
        // a path graph needs exactly n-1 relaxation rounds (+1 to detect
        // the fixpoint)
        let edges: Vec<(u32, u32, f64)> = (0..9).map(|i| (i, i + 1, 1.0)).collect();
        let g = Graph::from_edges(10, &edges, true);
        let (_, out) = run(&g, &oracle_like(), 0).unwrap();
        assert_eq!(out.stats.iterations.len(), 10);
    }
}
