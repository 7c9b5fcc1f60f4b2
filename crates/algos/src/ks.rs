//! Keyword-Search (Section 7, after BANKS): find roots of Steiner trees —
//! each node keeps an indicator vector over the query keywords, OR-folded
//! from its out-neighbours per iteration; after `depth` iterations the
//! nodes whose vector is all-ones can reach every keyword within `depth`
//! hops. Logic OR is the `(max, ×)` semiring per keyword; self-loops keep
//! a node's own bits.
//!
//! The paper's test: 3 labels, depth 4.

use crate::common::{self, EdgeStyle};
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_storage::FxHashSet;
use aio_withplus::{QueryResult, Result};

/// The indicator columns are seeded from the label relation `L` with
/// boolean expressions (`1.0 * (L.lbl = k)`).
pub fn sql(labels: [i64; 3], depth: usize) -> String {
    let (l0, l1, l2) = (labels[0], labels[1], labels[2]);
    format!(
        "with K(ID, b0, b1, b2) as (
           (select L.ID, 1.0 * (L.lbl = {l0}), 1.0 * (L.lbl = {l1}), 1.0 * (L.lbl = {l2}) from L)
           union by update ID
           (select E.F, max(K.b0 * E.ew), max(K.b1 * E.ew), max(K.b2 * E.ew)
            from K, E where K.ID = E.T group by E.F)
           maxrecursion {depth})
         select K.ID from K where K.b0 + K.b1 + K.b2 > 2.5"
    )
}

/// Run KS; returns the Steiner-tree root candidates.
pub fn run(
    g: &Graph,
    profile: &EngineProfile,
    labels: [i64; 3],
    depth: usize,
) -> Result<(FxHashSet<i64>, QueryResult)> {
    let mut db = common::db_for(g, profile, EdgeStyle::WithLoops(1.0))?;
    let out = db.execute(&sql(labels, depth))?;
    let roots = out.relation.iter().filter_map(|r| r[0].as_int()).collect();
    Ok((roots, out))
}

/// Reference: node v is a root iff for each keyword some node with that
/// label is reachable from v within `depth` hops.
pub fn reference_ks(g: &Graph, labels: [i64; 3], depth: usize) -> FxHashSet<i64> {
    use std::collections::VecDeque;
    let mut roots = FxHashSet::default();
    for s in 0..g.node_count() as u32 {
        let mut dist = vec![u32::MAX; g.node_count()];
        dist[s as usize] = 0;
        let mut q = VecDeque::new();
        q.push_back(s);
        let mut found = [false; 3];
        while let Some(v) = q.pop_front() {
            for (k, &l) in labels.iter().enumerate() {
                if g.labels[v as usize] as i64 == l {
                    found[k] = true;
                }
            }
            if dist[v as usize] >= depth as u32 {
                continue;
            }
            for &w in g.neighbors(v) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    q.push_back(w);
                }
            }
        }
        if found.iter().all(|&f| f) {
            roots.insert(s as i64);
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::{all_profiles, oracle_like};
    use aio_graph::{generate, GraphKind};

    fn check(g: &Graph, profile: &EngineProfile) {
        let labels = [0i64, 1, 2];
        let (roots, _) = run(g, profile, labels, 4).unwrap();
        assert_eq!(roots, reference_ks(g, labels, 4));
    }

    #[test]
    fn matches_reference() {
        let g = generate(GraphKind::PowerLaw, 100, 400, true, 121);
        check(&g, &oracle_like());
    }

    #[test]
    fn all_profiles_agree() {
        let g = generate(GraphKind::Uniform, 70, 280, true, 122);
        for p in all_profiles() {
            check(&g, &p);
        }
    }

    #[test]
    fn depth_limits_reach() {
        // chain 0→1→2→3 with labels 0,1,2 at nodes 1,2,3: node 0 needs
        // depth 3 to see them all
        let mut g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], true);
        g.labels = vec![7, 0, 1, 2];
        let (roots3, _) = run(&g, &oracle_like(), [0, 1, 2], 3).unwrap();
        assert!(roots3.contains(&0));
        let (roots2, _) = run(&g, &oracle_like(), [0, 1, 2], 2).unwrap();
        assert!(!roots2.contains(&0), "depth 2 cannot reach label 2");
    }

    #[test]
    fn node_carrying_all_labels_impossible_with_three() {
        // a node can carry at most one label, so an isolated node is never
        // a root for three distinct keywords
        let mut g = Graph::from_edges(2, &[(0, 1, 1.0)], true);
        g.labels = vec![0, 1];
        let (roots, _) = run(&g, &oracle_like(), [0, 1, 2], 4).unwrap();
        assert!(roots.is_empty());
    }
}
