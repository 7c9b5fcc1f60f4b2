//! Weakly Connected Components (Eq. 6): min-label flooding via MV-join
//! with the `(min, ×)` semiring + union-by-update, linear recursion.
//!
//! Initially `vw = ID`; at the fixpoint every node carries the smallest id
//! of its component. Weak connectivity needs the symmetrized edges (our
//! undirected graphs are stored both ways; directed graphs get their
//! reverse edges added here), and self-loops keep a node's own label in
//! the `min`.

use crate::common::{self, EdgeStyle};
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_storage::FxHashMap;
use aio_withplus::{QueryResult, Result};

pub const SQL: &str = "\
with C(ID, vw) as (
  (select V.ID, 1.0 * V.ID from V)
  union by update ID
  (select E.T, min(C.vw * E.ew) from C, E where C.ID = E.F group by E.T))
select * from C";

/// Run WCC; returns id → smallest component id.
pub fn run(g: &Graph, profile: &EngineProfile) -> Result<(FxHashMap<i64, i64>, QueryResult)> {
    let mut db = common::db_for(g, profile, EdgeStyle::WithLoops(1.0))?;
    if g.directed {
        // weak connectivity: add the reverse edges
        common::add_reverse_edges(&mut db, g)?;
    }
    let out = db.execute(SQL)?;
    Ok((common::node_i64_map(&out.relation), out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::{all_profiles, oracle_like};
    use aio_graph::{generate, reference, GraphKind};

    fn check(g: &Graph, profile: &EngineProfile) {
        let (labels, _) = run(g, profile).unwrap();
        let expected = reference::wcc_min_label(g);
        for (v, &l) in expected.iter().enumerate() {
            assert_eq!(labels[&(v as i64)], l as i64, "node {v}");
        }
    }

    #[test]
    fn matches_reference_on_undirected() {
        let g = generate(GraphKind::Uniform, 120, 200, false, 21);
        check(&g, &oracle_like());
    }

    #[test]
    fn directed_graph_uses_weak_connectivity() {
        // chain 0→1→2 and isolated 3: weakly one component {0,1,2}
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0)], true);
        let (labels, _) = run(&g, &oracle_like()).unwrap();
        assert_eq!(labels[&0], 0);
        assert_eq!(labels[&1], 0);
        assert_eq!(labels[&2], 0);
        assert_eq!(labels[&3], 3);
    }

    #[test]
    fn all_profiles_agree() {
        let g = generate(GraphKind::PowerLaw, 90, 150, false, 22);
        for p in all_profiles() {
            check(&g, &p);
        }
    }

    #[test]
    fn converges_and_counts_components() {
        let g = generate(GraphKind::Uniform, 200, 120, false, 23);
        let (labels, out) = run(&g, &oracle_like()).unwrap();
        let expected = reference::wcc_min_label(&g);
        let mut comp_sql: Vec<i64> = labels.values().copied().collect();
        comp_sql.sort_unstable();
        comp_sql.dedup();
        let mut comp_ref: Vec<u32> = expected.clone();
        comp_ref.sort_unstable();
        comp_ref.dedup();
        assert_eq!(comp_sql.len(), comp_ref.len());
        assert!(!out.stats.iterations.is_empty());
    }
}
