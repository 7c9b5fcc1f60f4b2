//! BFS reachability (Eq. 5): the `(max, ×)` boolean semiring, MV-join +
//! union-by-update, linear recursion.
//!
//! `V ← ρ(E ⋈ V, max(vw·ew), F = ID group by T)` floods the visited flag
//! along edges. Self-loops (⊙-identity 1) keep a visited node visited on
//! cyclic graphs — see `common::EdgeStyle::WithLoops`.

use crate::common;
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_storage::FxHashMap;
use aio_withplus::{QueryResult, Result};

pub const SQL: &str = "\
with B(ID, vw) as (
  (select V.ID, V.vw from V)
  union by update ID
  (select E.T, max(B.vw * E.ew) from B, E where B.ID = E.F group by E.T))
select * from B";

/// Run BFS from `src`; returns id → reached flag (1.0 / 0.0).
pub fn run(
    g: &Graph,
    profile: &EngineProfile,
    src: u32,
) -> Result<(FxHashMap<i64, f64>, QueryResult)> {
    let mut db = common::db_for(g, profile, common::EdgeStyle::WithLoops(1.0))?;
    // vw = 1 for the source, 0 elsewhere
    common::set_node_weights(&mut db, |id| if id == src as i64 { 1.0 } else { 0.0 })?;
    let out = db.execute(SQL)?;
    Ok((common::node_f64_map(&out.relation), out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::{all_profiles, oracle_like};
    use aio_graph::{generate, reference, GraphKind};

    fn check(g: &Graph, src: u32, profile: &EngineProfile) {
        let (flags, _) = run(g, profile, src).unwrap();
        let levels = reference::bfs_levels(g, src);
        for (v, &l) in levels.iter().enumerate() {
            let expected = if l == u32::MAX { 0.0 } else { 1.0 };
            assert_eq!(flags[&(v as i64)], expected, "node {v}");
        }
    }

    #[test]
    fn matches_reference_on_random_digraph() {
        let g = generate(GraphKind::PowerLaw, 80, 300, true, 11);
        check(&g, 0, &oracle_like());
    }

    #[test]
    fn survives_cycles() {
        let g = Graph::from_edges(
            4,
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)],
            true,
        );
        check(&g, 0, &oracle_like());
    }

    #[test]
    fn unreachable_stays_zero() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0)], true);
        let (flags, _) = run(&g, &oracle_like(), 0).unwrap();
        assert_eq!(flags[&2], 0.0);
    }

    #[test]
    fn all_profiles_agree() {
        let g = generate(GraphKind::Uniform, 60, 180, true, 12);
        for p in all_profiles() {
            check(&g, 3, &p);
        }
    }

    #[test]
    fn terminates_within_diameter_plus_slack() {
        let g = generate(GraphKind::Uniform, 100, 400, true, 13);
        let (_, out) = run(&g, &oracle_like(), 0).unwrap();
        assert!(out.stats.iterations.len() <= 102);
    }
}
