//! Maximal-Independent-Set (Section 7): the random-priority parallel
//! algorithm of Métivier et al. — MV-join + anti-join, nonlinear recursion.
//!
//! Per iteration over the undecided subgraph: every node draws `random()`;
//! a node whose priority beats every undecided neighbour's joins the MIS
//! (state 1) and its neighbours are removed (state 2). The SQL uses
//! `random()` exactly as the paper notes ("RDBMSs have a Rand function").

use crate::common::{self, EdgeStyle};
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_storage::FxHashSet;
use aio_withplus::{QueryResult, Result};

/// States: 0 = undecided, 1 = in the MIS, 2 = removed.
pub const SQL: &str = "\
with S(ID, st) as (
  (select V.ID, 0 from V)
  union by update ID
  (select Dec.ID, Dec.st from Dec where Dec.st > 0
   computed by
     Und(ID) as select S.ID from S where S.st = 0;
     Pri(ID, r) as select Und.ID, random() from Und;
     EU(F, T) as select E.F, E.T from E, Und as U1, Und as U2
                where E.F = U1.ID and E.T = U2.ID;
     MinNb(ID, mr) as select EU.F, min(P2.r) from EU, Pri as P2
                     where EU.T = P2.ID group by EU.F;
     Win(ID) as select Pri.ID from Pri
               left outer join MinNb on Pri.ID = MinNb.ID
               where Pri.r < coalesce(MinNb.mr, 2.0);
     NbrT(ID, st) as select distinct EU.T, 2 from EU, Win where EU.F = Win.ID;
     WinT(ID, st) as select Win.ID, 1 from Win;
     Dec(ID, st) as select U.ID, coalesce(W.st, N.st, 0)
                   from Und as U
                   left outer join WinT as W on U.ID = W.ID
                   left outer join NbrT as N on U.ID = N.ID;))
select * from S";

/// Run MIS (the `seed` makes `random()` reproducible); returns the MIS.
pub fn run(g: &Graph, profile: &EngineProfile, seed: u64) -> Result<(FxHashSet<i64>, QueryResult)> {
    aio_algebra::seed_random(seed);
    let mut db = common::db_for(g, profile, EdgeStyle::Raw)?;
    if g.directed {
        // independence is over the underlying undirected graph
        let extra: Vec<_> = g
            .edges()
            .map(|(u, v, w)| aio_storage::row![v as i64, u as i64, w])
            .collect();
        db.catalog.relation_mut("E")?.extend(extra)?;
    }
    let out = db.execute(SQL)?;
    let set = out
        .relation
        .iter()
        .filter(|r| r[1].as_f64() == Some(1.0) || r[1].as_int() == Some(1))
        .map(|r| r[0].as_int().unwrap())
        .collect();
    Ok((set, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::{all_profiles, oracle_like};
    use aio_graph::{generate, reference, GraphKind};

    fn check(g: &Graph, profile: &EngineProfile, seed: u64) {
        let (set, _) = run(g, profile, seed).unwrap();
        let flags: Vec<bool> = (0..g.node_count() as i64)
            .map(|v| set.contains(&v))
            .collect();
        assert!(
            reference::is_maximal_independent_set(g, &flags),
            "not a maximal independent set (seed {seed})"
        );
    }

    #[test]
    fn produces_maximal_independent_sets() {
        let g = generate(GraphKind::PowerLaw, 100, 400, false, 101);
        for seed in [1, 2, 3] {
            check(&g, &oracle_like(), seed);
        }
    }

    #[test]
    fn all_profiles_produce_valid_sets() {
        let g = generate(GraphKind::Uniform, 80, 240, false, 102);
        for p in all_profiles() {
            check(&g, &p, 7);
        }
    }

    #[test]
    fn isolated_nodes_always_join() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0)], false);
        let (set, _) = run(&g, &oracle_like(), 5).unwrap();
        assert!(set.contains(&2));
        assert!(set.contains(&3));
        assert_eq!(set.contains(&0), !set.contains(&1));
    }

    #[test]
    fn converges_in_few_rounds() {
        // "MIS requires the similar number of iterations over different
        // graphs, and the average number 4-6" (Section 7.2)
        let g = generate(GraphKind::PowerLaw, 200, 800, false, 103);
        let (_, out) = run(&g, &oracle_like(), 11).unwrap();
        assert!(
            out.stats.iterations.len() <= 12,
            "took {} iterations",
            out.stats.iterations.len()
        );
    }
}
