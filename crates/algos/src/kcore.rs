//! K-core (Section 7): iteratively drop nodes of degree < k and the edges
//! touching them, until the edge set stabilizes. The recursive relation is
//! the surviving edge set; `union by update` *without* attributes replaces
//! it wholesale each iteration (the paper's "replace the previous recursive
//! relation R by the currently generated result as a whole").

use crate::common::{self, EdgeStyle};
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_storage::FxHashSet;
use aio_withplus::{QueryResult, Result};

pub const SQL: &str = "\
with CE(F, T, ew) as (
  (select E.F, E.T, E.ew from E)
  union by update
  (select CE.F, CE.T, CE.ew from CE, K as K1, K as K2
   where CE.F = K1.ID and CE.T = K2.ID
   computed by
     Deg(ID, d) as select CE.F, count(*) from CE group by CE.F;
     K(ID) as select Deg.ID from Deg where Deg.d >= :k;))
select * from CE";

/// Run k-core; returns the set of core nodes (endpoints of surviving
/// edges). Degrees are counted on the stored digraph (symmetrized for
/// undirected input), matching the reference peeling.
pub fn run(g: &Graph, profile: &EngineProfile, k: i64) -> Result<(FxHashSet<i64>, QueryResult)> {
    let mut db = common::db_for(g, profile, EdgeStyle::Raw)?;
    db.set_param("k", k);
    let out = db.execute(SQL)?;
    let mut nodes = FxHashSet::default();
    for r in out.relation.iter() {
        nodes.insert(r[0].as_int().unwrap());
        nodes.insert(r[1].as_int().unwrap());
    }
    Ok((nodes, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::{all_profiles, oracle_like};
    use aio_graph::{generate, reference, GraphKind};

    fn check(g: &Graph, profile: &EngineProfile, k: i64) {
        let (nodes, _) = run(g, profile, k).unwrap();
        let expected = reference::kcore(g, k as usize);
        for (v, &alive) in expected.iter().enumerate() {
            assert_eq!(nodes.contains(&(v as i64)), alive, "node {v} (k = {k})");
        }
    }

    #[test]
    fn triangle_with_pendant() {
        let g = Graph::from_edges(
            4,
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)],
            false,
        );
        check(&g, &oracle_like(), 2);
    }

    #[test]
    fn matches_reference_peeling() {
        let g = generate(GraphKind::PowerLaw, 150, 900, false, 81);
        check(&g, &oracle_like(), 5);
    }

    #[test]
    fn all_profiles_agree() {
        let g = generate(GraphKind::PowerLaw, 100, 500, false, 82);
        for p in all_profiles() {
            check(&g, &p, 4);
        }
    }

    #[test]
    fn high_k_can_empty_the_core() {
        let g = generate(GraphKind::Uniform, 50, 100, false, 83);
        let (nodes, out) = run(&g, &oracle_like(), 50).unwrap();
        assert!(nodes.is_empty());
        assert!(!out.stats.iterations.is_empty());
    }
}
