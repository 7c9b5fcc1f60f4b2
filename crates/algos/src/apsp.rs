//! All-pairs shortest paths: Floyd-Warshall (Eq. 8) as **nonlinear**
//! recursion — the recursive relation joined with itself through an
//! MM-join in the tropical semiring, with union-by-update on `(F, T)`.
//!
//! The initialization unions two queries (allowed by Fig. 4): the edge
//! matrix (min over parallel edges) and the zero diagonal. The diagonal is
//! the tropical identity matrix, which makes the self-MM-join monotone
//! non-increasing, so union-by-update converges to the shortest-distance
//! matrix. Distance doubling: `k` iterations cover paths of `2^k` hops.

use crate::common::{self, EdgeStyle};
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_storage::FxHashMap;
use aio_withplus::{QueryResult, Result};

pub const SQL: &str = "\
with D(F, T, ew) as (
  (select E.F, E.T, min(E.ew) from E group by E.F, E.T)
  union by update F, T
  (select D1.F, D2.T, min(D1.ew + D2.ew) from D as D1, D as D2
   where D1.T = D2.F group by D1.F, D2.T))
select * from D";

/// `(from, to) → distance` map produced by [`run`].
pub type PairDistances = FxHashMap<(i64, i64), f64>;

/// Run APSP; returns (from, to) → distance (missing = unreachable).
pub fn run(g: &Graph, profile: &EngineProfile) -> Result<(PairDistances, QueryResult)> {
    // the zero diagonal comes in through self-loops with weight 0
    let mut db = common::db_for(g, profile, EdgeStyle::WithLoops(0.0))?;
    let out = db.execute(SQL)?;
    let map = out
        .relation
        .iter()
        .filter_map(|r| Some(((r[0].as_int()?, r[1].as_int()?), r[2].as_f64()?)))
        .collect();
    Ok((map, out))
}

/// The paper's Fig. 13(b) variant: APSP by *linear* recursion (MM-join of
/// the recursive relation with the base edge matrix — Bellman-Ford for all
/// sources), bounded by depth `d`.
pub fn sql_linear(depth: usize) -> String {
    format!(
        "with D(F, T, ew) as (
           (select E.F, E.T, min(E.ew) from E group by E.F, E.T)
           union by update F, T
           (select D.F, E.T, min(D.ew + E.ew) from D, E
            where D.T = E.F group by D.F, E.T)
           maxrecursion {depth})
         select * from D"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::{oracle_like, postgres_like};
    use aio_graph::{generate, reference, GraphKind};

    fn check(map: &FxHashMap<(i64, i64), f64>, g: &Graph) {
        let expected = reference::floyd_warshall(g);
        for (i, row) in expected.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                let got = map.get(&(i as i64, j as i64)).copied();
                if d.is_infinite() {
                    // unreachable pairs are either absent or infinite
                    assert!(
                        got.is_none() || got.unwrap().is_infinite(),
                        "({i},{j}) = {got:?}"
                    );
                } else {
                    assert!(
                        (got.expect("missing pair") - d).abs() < 1e-9,
                        "({i},{j}): {got:?} vs {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn nonlinear_matches_floyd_warshall() {
        let g = generate(GraphKind::Uniform, 25, 80, true, 41);
        let (map, _) = run(&g, &oracle_like()).unwrap();
        check(&map, &g);
    }

    #[test]
    fn doubling_converges_fast() {
        // path of 16 hops: nonlinear recursion needs ~log2(16)+1 rounds
        let edges: Vec<(u32, u32, f64)> = (0..16).map(|i| (i, i + 1, 1.0)).collect();
        let g = Graph::from_edges(17, &edges, true);
        let (map, out) = run(&g, &oracle_like()).unwrap();
        assert_eq!(map[&(0, 16)], 16.0);
        assert!(
            out.stats.iterations.len() <= 7,
            "doubling should finish in O(log n) rounds, took {}",
            out.stats.iterations.len()
        );
    }

    #[test]
    fn linear_variant_matches_at_sufficient_depth() {
        let g = generate(GraphKind::Uniform, 20, 60, true, 42);
        let mut db = common::db_for(&g, &oracle_like(), EdgeStyle::WithLoops(0.0)).unwrap();
        let out = db.execute(&sql_linear(25)).unwrap();
        let map: FxHashMap<(i64, i64), f64> = out
            .relation
            .iter()
            .filter_map(|r| Some(((r[0].as_int()?, r[1].as_int()?), r[2].as_f64()?)))
            .collect();
        check(&map, &g);
    }

    #[test]
    fn profiles_agree() {
        let g = generate(GraphKind::Uniform, 18, 50, true, 43);
        let (a, _) = run(&g, &oracle_like()).unwrap();
        let (b, _) = run(&g, &postgres_like(true)).unwrap();
        assert_eq!(a.len(), b.len());
        for (k, v) in &a {
            assert!((b[k] - v).abs() < 1e-9);
        }
    }
}
