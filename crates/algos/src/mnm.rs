//! Maximal-Node-Matching (Section 7, after Preis): every unmatched node
//! picks its maximum-weight unmatched neighbour (ties broken by the larger
//! id); two nodes that pick each other form a matching pair and leave the
//! graph. Stops when no new pairs form.

use crate::common::{self, EdgeStyle};
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_withplus::{QueryResult, Result};

/// Recursive relation `M(ID, mate)`: mate = −1 while unmatched.
pub const SQL: &str = "\
with M(ID, mate) as (
  (select V.ID, -1 from V)
  union by update ID
  (select Pair.ID, Pair.mate from Pair
   computed by
     Und(ID, w) as select M.ID, V.vw from M, V
                  where M.ID = V.ID and M.mate < 0;
     EU(F, T) as select E.F, E.T from E, Und as U1, Und as U2
                where E.F = U1.ID and E.T = U2.ID;
     BestW(ID, bw) as select EU.F, max(U3.w) from EU, Und as U3
                     where EU.T = U3.ID group by EU.F;
     Pick(ID, mate) as select EU.F, max(EU.T) from EU, Und as U4, BestW
                      where EU.T = U4.ID and EU.F = BestW.ID and U4.w = BestW.bw
                      group by EU.F;
     Pair(ID, mate) as select P1.ID, P1.mate from Pick as P1, Pick as P2
                      where P1.mate = P2.ID and P2.mate = P1.ID;))
select * from M";

/// Run MNM; returns the matched pairs `(u, v)` with `u < v`.
pub fn run(g: &Graph, profile: &EngineProfile) -> Result<(Vec<(u32, u32)>, QueryResult)> {
    let mut db = common::db_for(g, profile, EdgeStyle::Raw)?;
    if g.directed {
        common::add_reverse_edges(&mut db, g)?;
    }
    let out = db.execute(SQL)?;
    let mut pairs = Vec::new();
    for r in out.relation.iter() {
        let id = r[0].as_int().unwrap();
        let mate = r[1].as_f64().unwrap() as i64;
        if mate >= 0 && id < mate {
            pairs.push((id as u32, mate as u32));
        }
    }
    Ok((pairs, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::{all_profiles, oracle_like};
    use aio_graph::{generate, reference, GraphKind};

    fn check(g: &Graph, profile: &EngineProfile) {
        let (pairs, _) = run(g, profile).unwrap();
        assert!(
            reference::is_maximal_matching(g, &pairs),
            "not a maximal matching: {pairs:?}"
        );
    }

    #[test]
    fn produces_maximal_matchings() {
        let g = generate(GraphKind::PowerLaw, 80, 300, false, 111);
        check(&g, &oracle_like());
    }

    #[test]
    fn all_profiles_agree_on_validity() {
        let g = generate(GraphKind::Uniform, 60, 200, false, 112);
        for p in all_profiles() {
            check(&g, &p);
        }
    }

    #[test]
    fn path_graph_matches_heaviest_pair_first() {
        // path 0—1—2 with weights 1, 2, 3: 1 picks 2 (w 3), 2 picks 1
        // (w 2 > w 1)… mutual → pair (1,2); 0 left unmatched
        let mut g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)], false);
        g.node_weights = vec![1.0, 2.0, 3.0];
        let (pairs, _) = run(&g, &oracle_like()).unwrap();
        assert_eq!(pairs, vec![(1, 2)]);
    }

    #[test]
    fn single_iteration_possible() {
        // disjoint edges: everything matches in round one — the paper's
        // U.S. Patent observation ("it ends after only one iteration")
        let g = Graph::from_edges(6, &[(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)], false);
        let (pairs, out) = run(&g, &oracle_like()).unwrap();
        assert_eq!(pairs.len(), 3);
        assert!(out.stats.iterations.len() <= 2);
    }
}
