//! Graph-Bisimulation (Table 2, after Henzinger et al.): partition
//! refinement by signature hashing — the Kanellakis–Smolka scheme as
//! recursive SQL.
//!
//! The recursive relation `B(ID, blk)` holds each node's block id,
//! initialized from the node label. Per iteration every node's signature
//! combines its own block with a commutative hash of the *set* of its
//! successors' blocks (a `distinct` projection makes it a set, as classic
//! bisimulation requires); the signature becomes the next block id.
//! Refinement stabilizes within |V| rounds; `maxrecursion` bounds the
//! loop since the block *values* keep being re-hashed even once the
//! partition is stable.
//!
//! Hash collisions could merge distinct blocks; with the modulus below the
//! probability is negligible at the scales tested, and the tests compare
//! against an exact reference refinement.

use crate::common::{self, EdgeStyle};
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_storage::FxHashMap;
use aio_withplus::{QueryResult, Result};

/// The block ids are re-hashed every round even once the partition is
/// stable (the hash is injective per block, so the *partition* no longer
/// changes), so termination comes from `maxrecursion` rather than the
/// value fixpoint; refinement stabilizes in at most |V| rounds.
pub fn sql(max_rounds: usize) -> String {
    format!(
        "\
with B(ID, blk) as (
  (select L.ID, 1.0 * L.lbl from L)
  union by update ID
  (select Sig.ID, Sig.h from Sig
   computed by
     DSucc(ID, sb) as select distinct E.F, B2.blk from E, B as B2
                     where E.T = B2.ID;
     SuccH(ID, s) as select DSucc.ID,
                           sum(((DSucc.sb + 17.0) * (DSucc.sb + 3.0)) % 999983.0)
                    from DSucc group by DSucc.ID;
     Sig(ID, h) as select B.ID,
                          (B.blk * 1000003.0 + coalesce(SuccH.s, 0.0)) % 999983.0
                   from B left outer join SuccH on B.ID = SuccH.ID;)
  maxrecursion {max_rounds})
select * from B"
    )
}

/// Run bisimulation; returns node → block id (ids are hashes — only the
/// induced partition is meaningful).
pub fn run(g: &Graph, profile: &EngineProfile) -> Result<(FxHashMap<i64, i64>, QueryResult)> {
    let mut db = common::db_for(g, profile, EdgeStyle::Raw)?;
    let out = db.execute(&sql(g.node_count() + 2))?;
    let map = out
        .relation
        .iter()
        .filter_map(|r| Some((r[0].as_int()?, r[1].as_f64()? as i64)))
        .collect();
    Ok((map, out))
}

/// Exact Kanellakis–Smolka partition refinement (the correctness oracle).
pub fn reference_bisimulation(g: &Graph) -> Vec<usize> {
    let n = g.node_count();
    let mut block: Vec<usize> = g.labels.iter().map(|&l| l as usize).collect();
    loop {
        // signature: (own block, sorted set of successor blocks)
        let mut sigs: Vec<(usize, Vec<usize>)> = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let mut succ: Vec<usize> = g.neighbors(v).iter().map(|&w| block[w as usize]).collect();
            succ.sort_unstable();
            succ.dedup();
            sigs.push((block[v as usize], succ));
        }
        let mut ids: std::collections::HashMap<&(usize, Vec<usize>), usize> =
            std::collections::HashMap::new();
        let mut next = vec![0usize; n];
        for (v, sig) in sigs.iter().enumerate() {
            let fresh = ids.len();
            next[v] = *ids.entry(sig).or_insert(fresh);
        }
        let stable = same_partition(&block, &next);
        block = next;
        if stable {
            return block;
        }
    }
}

/// Do two labelings induce the same partition?
pub fn same_partition<A, B>(a: &[A], b: &[B]) -> bool
where
    A: std::hash::Hash + Eq + Copy,
    B: std::hash::Hash + Eq + Copy,
{
    if a.len() != b.len() {
        return false;
    }
    let mut fwd: std::collections::HashMap<A, B> = std::collections::HashMap::new();
    let mut bwd: std::collections::HashMap<B, A> = std::collections::HashMap::new();
    for (&x, &y) in a.iter().zip(b) {
        if *fwd.entry(x).or_insert(y) != y {
            return false;
        }
        if *bwd.entry(y).or_insert(x) != x {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::oracle_like;
    use aio_graph::{generate, GraphKind};

    fn check(g: &Graph) {
        let (blocks, _) = run(g, &oracle_like()).unwrap();
        let sql: Vec<i64> = (0..g.node_count() as i64).map(|v| blocks[&v]).collect();
        let exact = reference_bisimulation(g);
        assert!(
            same_partition(&sql, &exact),
            "partitions differ:\nsql   = {sql:?}\nexact = {exact:?}"
        );
    }

    #[test]
    fn chain_vs_chain() {
        // two disjoint chains with identical labels are bisimilar
        // position by position
        let mut g = Graph::from_edges(
            6,
            &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)],
            true,
        );
        g.labels = vec![0, 0, 0, 0, 0, 0];
        let (blocks, _) = run(&g, &oracle_like()).unwrap();
        assert_eq!(blocks[&0], blocks[&3]);
        assert_eq!(blocks[&1], blocks[&4]);
        assert_eq!(blocks[&2], blocks[&5]);
        assert_ne!(blocks[&0], blocks[&2], "chain positions differ");
        check(&g);
    }

    #[test]
    fn labels_split_blocks() {
        let mut g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)], true);
        g.labels = vec![0, 1, 0, 2];
        let (blocks, _) = run(&g, &oracle_like()).unwrap();
        // 0 → label-1 node, 2 → label-2 node: different successor sets
        assert_ne!(blocks[&0], blocks[&2]);
        check(&g);
    }

    #[test]
    fn matches_exact_refinement_on_random_graphs() {
        for seed in [201, 202, 203] {
            let g = generate(GraphKind::PowerLaw, 60, 200, true, seed);
            check(&g);
        }
        let g = generate(GraphKind::CitationDag, 80, 240, true, 204);
        check(&g);
    }

    #[test]
    fn complete_graph_is_one_block_per_label() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in 0..5u32 {
                if u != v {
                    edges.push((u, v, 1.0));
                }
            }
        }
        let mut g = Graph::from_edges(5, &edges, true);
        g.labels = vec![3, 3, 3, 3, 3];
        let (blocks, out) = run(&g, &oracle_like()).unwrap();
        let first = blocks[&0];
        assert!(blocks.values().all(|&b| b == first));
        assert_eq!(out.stats.iterations.len(), g.node_count() + 2);
    }
}
