//! Native reference implementations — correctness oracles.
//!
//! Every with+ algorithm in `aio-algos` is checked against these
//! straightforward in-memory implementations. They are deliberately
//! textbook (Cormen et al. for BFS/Bellman-Ford/Floyd-Warshall, Kahn for
//! TopoSort, Matula–Beck peeling for k-core, power iteration for
//! PageRank/HITS) rather than fast.

use crate::graph::Graph;
use std::collections::VecDeque;

/// BFS levels from `src`; unreachable nodes get `u32::MAX`.
pub fn bfs_levels(g: &Graph, src: u32) -> Vec<u32> {
    let mut level = vec![u32::MAX; g.node_count()];
    let mut q = VecDeque::new();
    level[src as usize] = 0;
    q.push_back(src);
    while let Some(v) = q.pop_front() {
        for &w in g.neighbors(v) {
            if level[w as usize] == u32::MAX {
                level[w as usize] = level[v as usize] + 1;
                q.push_back(w);
            }
        }
    }
    level
}

/// Single-source shortest distances (Bellman-Ford); `f64::INFINITY` when
/// unreachable.
pub fn bellman_ford(g: &Graph, src: u32) -> Vec<f64> {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[src as usize] = 0.0;
    for _ in 0..n {
        let mut changed = false;
        for u in 0..n as u32 {
            let du = dist[u as usize];
            if du.is_infinite() {
                continue;
            }
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                let nd = du + g.edge_weights(u)[i];
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// All-pairs shortest distances (Floyd-Warshall) — O(n³), small graphs only.
#[allow(clippy::needless_range_loop)] // textbook matrix indexing
pub fn floyd_warshall(g: &Graph) -> Vec<Vec<f64>> {
    let n = g.node_count();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for (u, v, w) in g.edges() {
        let cell = &mut d[u as usize][v as usize];
        if w < *cell {
            *cell = w;
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = d[i][k];
            if dik.is_infinite() {
                continue;
            }
            for j in 0..n {
                let alt = dik + d[k][j];
                if alt < d[i][j] {
                    d[i][j] = alt;
                }
            }
        }
    }
    d
}

/// Weakly connected components via union-find; returns the smallest node
/// id in each node's component (matching the paper's min-flooding WCC).
pub fn wcc_min_label(g: &Graph) -> Vec<u32> {
    let n = g.node_count();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut r = x;
        while parent[r as usize] != r {
            r = parent[r as usize];
        }
        let mut c = x;
        while parent[c as usize] != r {
            let next = parent[c as usize];
            parent[c as usize] = r;
            c = next;
        }
        r
    }
    for (u, v, _) in g.edges() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            // union by smaller id so the root IS the min label
            if ru < rv {
                parent[rv as usize] = ru;
            } else {
                parent[ru as usize] = rv;
            }
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// PageRank by power iteration with the paper's update
/// `W' = c · (Eᵀ W) + (1 − c)/n` (Eq. 9 — no dangling redistribution, no
/// out-degree normalization unless the edge weights encode it).
pub fn pagerank(g: &Graph, c: f64, iters: usize) -> Vec<f64> {
    let n = g.node_count();
    let mut w = vec![0.0f64; n];
    let base = (1.0 - c) / n as f64;
    for _ in 0..iters {
        let mut next = vec![0.0f64; n];
        for u in 0..n as u32 {
            let wu = w[u as usize];
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                next[v as usize] += wu * g.edge_weights(u)[i];
            }
        }
        for (nv, old) in next.iter_mut().zip(w.iter()) {
            // nodes with no in-edges keep their old value under
            // union-by-update; matched nodes get c·sum + base
            let _ = old;
            *nv = c * *nv + base;
        }
        // union-by-update: only nodes appearing as a target are updated
        let mut updated = vec![false; n];
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                updated[v as usize] = true;
            }
        }
        for v in 0..n {
            if updated[v] {
                w[v] = next[v];
            }
        }
    }
    w
}

/// Normalized out-degree edge weights (`1/outdeg`), the standard PageRank
/// transition graph.
pub fn with_pagerank_weights(g: &Graph) -> Graph {
    let mut edges = Vec::with_capacity(g.edge_count());
    for u in 0..g.node_count() as u32 {
        let d = g.out_degree(u).max(1) as f64;
        for &v in g.neighbors(u) {
            edges.push((u, v, 1.0 / d));
        }
    }
    let mut out = Graph::from_edges(g.node_count(), &edges, true);
    out.directed = g.directed;
    out.node_weights = g.node_weights.clone();
    out.labels = g.labels.clone();
    out
}

/// HITS hub/authority scores with 2-norm normalization (Eq. 12).
pub fn hits(g: &Graph, iters: usize) -> (Vec<f64>, Vec<f64>) {
    let n = g.node_count();
    let mut h = vec![1.0f64; n];
    let mut a = vec![1.0f64; n];
    for _ in 0..iters {
        let mut na = vec![0.0f64; n];
        for u in 0..n as u32 {
            let hu = h[u as usize];
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                na[v as usize] += hu * g.edge_weights(u)[i];
            }
        }
        let mut nh = vec![0.0f64; n];
        for u in 0..n as u32 {
            let mut s = 0.0;
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                s += na[v as usize] * g.edge_weights(u)[i];
            }
            nh[u as usize] = s;
        }
        let hn = nh.iter().map(|x| x * x).sum::<f64>().sqrt();
        let an = na.iter().map(|x| x * x).sum::<f64>().sqrt();
        if hn > 0.0 {
            nh.iter_mut().for_each(|x| *x /= hn);
        }
        if an > 0.0 {
            na.iter_mut().for_each(|x| *x /= an);
        }
        h = nh;
        a = na;
    }
    (h, a)
}

/// Kahn's algorithm: topological levels (length of the longest incoming
/// chain), or `None` if the graph has a cycle. Matches the L values of
/// Eq. (13): a node's level is the iteration in which it is removed.
pub fn topo_levels(g: &Graph) -> Option<Vec<u32>> {
    let n = g.node_count();
    let mut indeg = vec![0usize; n];
    for (_, v, _) in g.edges() {
        indeg[v as usize] += 1;
    }
    let mut level = vec![0u32; n];
    let mut frontier: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut removed = 0usize;
    let mut l = 0u32;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            level[v as usize] = l;
            removed += 1;
            for &w in g.neighbors(v) {
                indeg[w as usize] -= 1;
                if indeg[w as usize] == 0 {
                    next.push(w);
                }
            }
        }
        frontier = next;
        l += 1;
    }
    if removed == n {
        Some(level)
    } else {
        None
    }
}

/// k-core membership by iterative peeling (degrees counted on the stored
/// digraph's out-degree within the surviving subgraph, matching the SQL
/// formulation).
pub fn kcore(g: &Graph, k: usize) -> Vec<bool> {
    let n = g.node_count();
    let mut alive = vec![true; n];
    loop {
        let mut removed_any = false;
        let mut deg = vec![0usize; n];
        for (u, v, _) in g.edges() {
            if alive[u as usize] && alive[v as usize] {
                deg[u as usize] += 1;
            }
        }
        for v in 0..n {
            if alive[v] && deg[v] < k {
                alive[v] = false;
                removed_any = true;
            }
        }
        if !removed_any {
            return alive;
        }
    }
}

/// Is `set` an independent set of `g`?
pub fn is_independent_set(g: &Graph, set: &[bool]) -> bool {
    g.edges()
        .all(|(u, v, _)| !(set[u as usize] && set[v as usize]) || u == v)
}

/// Is `set` a *maximal* independent set (no node can be added)?
pub fn is_maximal_independent_set(g: &Graph, set: &[bool]) -> bool {
    if !is_independent_set(g, set) {
        return false;
    }
    (0..g.node_count() as u32).all(|v| {
        set[v as usize]
            || g.neighbors(v).iter().any(|&w| set[w as usize])
            || g.reverse_neighbors_contains_set(v, set)
    })
}

impl Graph {
    fn reverse_neighbors_contains_set(&self, v: u32, set: &[bool]) -> bool {
        // O(m) fallback: does any node with an edge *to* v belong to set?
        self.edges().any(|(u, t, _)| t == v && set[u as usize])
    }
}

/// Is `pairs` a valid matching (each node at most once, pairs are edges)?
pub fn is_valid_matching(g: &Graph, pairs: &[(u32, u32)]) -> bool {
    let mut used = vec![false; g.node_count()];
    for &(u, v) in pairs {
        if used[u as usize] || used[v as usize] || u == v {
            return false;
        }
        if !g.neighbors(u).contains(&v) {
            return false;
        }
        used[u as usize] = true;
        used[v as usize] = true;
    }
    true
}

/// Is the matching maximal (no remaining edge joins two unmatched nodes)?
pub fn is_maximal_matching(g: &Graph, pairs: &[(u32, u32)]) -> bool {
    if !is_valid_matching(g, pairs) {
        return false;
    }
    let mut used = vec![false; g.node_count()];
    for &(u, v) in pairs {
        used[u as usize] = true;
        used[v as usize] = true;
    }
    g.edges()
        .all(|(u, v, _)| u == v || used[u as usize] || used[v as usize])
}

/// SimRank by the naive iterative definition (small graphs only):
/// `s(a,b) = C/(|I(a)||I(b)|) Σ s(i,j)` over in-neighbours, `s(a,a)=1`.
#[allow(clippy::needless_range_loop)] // textbook matrix indexing
pub fn simrank(g: &Graph, c: f64, iters: usize) -> Vec<Vec<f64>> {
    let n = g.node_count();
    let rev = g.reverse();
    let mut s = vec![vec![0.0f64; n]; n];
    for (i, row) in s.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for _ in 0..iters {
        let mut next = vec![vec![0.0f64; n]; n];
        for a in 0..n {
            next[a][a] = 1.0;
            for b in 0..n {
                if a == b {
                    continue;
                }
                let ia = rev.neighbors(a as u32);
                let ib = rev.neighbors(b as u32);
                if ia.is_empty() || ib.is_empty() {
                    continue;
                }
                let mut sum = 0.0;
                for &i in ia {
                    for &j in ib {
                        sum += s[i as usize][j as usize];
                    }
                }
                next[a][b] = c * sum / (ia.len() as f64 * ib.len() as f64);
            }
        }
        s = next;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GraphKind};

    fn path() -> Graph {
        Graph::from_edges(
            5,
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
            true,
        )
    }

    #[test]
    fn bfs_on_path() {
        let l = bfs_levels(&path(), 0);
        assert_eq!(l, vec![0, 1, 2, 3, 4]);
        let l = bfs_levels(&path(), 2);
        assert_eq!(l[0], u32::MAX);
        assert_eq!(l[4], 2);
    }

    #[test]
    fn bellman_ford_weighted() {
        let g = Graph::from_edges(
            4,
            &[(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0)],
            true,
        );
        let d = bellman_ford(&g, 0);
        assert_eq!(d, vec![0.0, 2.0, 1.0, 3.0]);
    }

    #[test]
    fn floyd_warshall_matches_bellman_ford() {
        let g = generate(GraphKind::Uniform, 30, 120, true, 11);
        let apsp = floyd_warshall(&g);
        for src in [0u32, 7, 19] {
            let d = bellman_ford(&g, src);
            assert_eq!(apsp[src as usize], d, "row {src}");
        }
    }

    #[test]
    fn wcc_labels_min() {
        let g = Graph::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (4, 5, 1.0)], false);
        let l = wcc_min_label(&g);
        assert_eq!(l, vec![0, 0, 0, 3, 4, 4]);
    }

    #[test]
    fn toposort_levels() {
        let g = Graph::from_edges(
            4,
            &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
            true,
        );
        assert_eq!(topo_levels(&g), Some(vec![0, 1, 1, 2]));
        let cyc = Graph::from_edges(2, &[(0, 1, 1.0), (1, 0, 1.0)], true);
        assert_eq!(topo_levels(&cyc), None);
    }

    #[test]
    fn pagerank_sums_reasonably() {
        let g = generate(GraphKind::PowerLaw, 100, 500, true, 3);
        let gw = with_pagerank_weights(&g);
        let pr = pagerank(&gw, 0.85, 20);
        assert!(pr.iter().all(|&x| x >= 0.0));
        assert!(pr.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn hits_normalized() {
        let g = generate(GraphKind::PowerLaw, 50, 200, true, 4);
        let (h, a) = hits(&g, 15);
        let hn: f64 = h.iter().map(|x| x * x).sum();
        let an: f64 = a.iter().map(|x| x * x).sum();
        assert!((hn - 1.0).abs() < 1e-9);
        assert!((an - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kcore_peels() {
        // triangle + pendant: 2-core (undirected) is the triangle
        let g = Graph::from_edges(
            4,
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)],
            false,
        );
        let core = kcore(&g, 2);
        assert_eq!(core, vec![true, true, true, false]);
    }

    #[test]
    fn matching_validity_checks() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)], false);
        assert!(is_valid_matching(&g, &[(0, 1), (2, 3)]));
        assert!(is_maximal_matching(&g, &[(0, 1), (2, 3)]));
        assert!(!is_maximal_matching(&g, &[(0, 1)]));
        assert!(!is_valid_matching(&g, &[(0, 2)]), "not an edge");
        assert!(!is_valid_matching(&g, &[(0, 1), (1, 2)]), "node reused");
    }

    #[test]
    fn independent_set_checks() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)], false);
        assert!(is_maximal_independent_set(&g, &[true, false, true]));
        assert!(is_independent_set(&g, &[true, false, false]));
        assert!(!is_maximal_independent_set(&g, &[true, false, false]));
        assert!(!is_independent_set(&g, &[true, true, false]));
    }

    #[test]
    fn simrank_identity_and_symmetry() {
        let g = Graph::from_edges(3, &[(0, 2, 1.0), (1, 2, 1.0)], true);
        let s = simrank(&g, 0.8, 5);
        assert_eq!(s[0][0], 1.0);
        assert!(s[0][1] >= 0.0);
        assert_eq!(s[0][1], s[1][0]);
    }
}
