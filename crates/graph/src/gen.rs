//! Seeded synthetic graph generators.
//!
//! Stand-ins for the SNAP datasets of Table 3 (no network access in this
//! reproduction): a preferential-attachment generator for the power-law
//! social/web graphs, Erdős–Rényi for near-uniform graphs, and a citation
//! generator whose edges always point from newer to older nodes — a DAG by
//! construction, as U.S. Patent Citation effectively is for TopoSort.
//! Two adversarial families round out the differential-testing corpus:
//! `Disconnected` (several islands plus isolated vertices) and `Noisy`
//! (deliberate self-loops and duplicate edges).
//!
//! Every entry point takes an explicit `u64` seed; no generator reads
//! global or thread-local randomness, so any graph in a testkit replay
//! file is bit-reproducible across hosts from `(kind, n, m, directed,
//! seed)` alone.

use crate::graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Roughly how a dataset's degree structure looks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// Heavy-tailed degree distribution (social networks, web graphs).
    PowerLaw,
    /// Near-uniform degrees (Erdős–Rényi G(n, m) with rejection of loops).
    Uniform,
    /// Acyclic: edges from newer to older nodes (citations).
    CitationDag,
    /// Several islands of uniform edges plus isolated vertices; exercises
    /// unreachable-node handling (BFS/SSSP infinity, per-component WCC).
    Disconnected,
    /// Uniform edges salted with self-loops and duplicate edges; exercises
    /// multigraph tolerance in every executor.
    Noisy,
}

/// Generate a graph with ~`m` edges over `n` nodes.
pub fn generate(kind: GraphKind, n: usize, m: usize, directed: bool, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = match kind {
        GraphKind::PowerLaw => power_law_edges(n, m, directed, &mut rng),
        GraphKind::Uniform => uniform_edges(n, m, &mut rng),
        GraphKind::CitationDag => citation_edges(n, m, &mut rng),
        GraphKind::Disconnected => disconnected_edges(n, m, &mut rng),
        GraphKind::Noisy => noisy_edges(n, m, &mut rng),
    };
    // citation graphs are directed by construction
    let directed = directed || kind == GraphKind::CitationDag;
    let mut g = Graph::from_edges(n, &edges, directed);
    // node weights in [0, 20] (Section 7, for MNM) and labels from a small
    // alphabet (for LP / KS)
    g.node_weights = (0..n).map(|_| rng.random_range(0.0..20.0)).collect();
    g.labels = (0..n).map(|_| rng.random_range(0..8u32)).collect();
    g
}

/// Preferential-attachment stand-in, explicit seed.
pub fn power_law(n: usize, m: usize, directed: bool, seed: u64) -> Graph {
    generate(GraphKind::PowerLaw, n, m, directed, seed)
}

/// Erdős–Rényi G(n, m), explicit seed. `Uniform` under its textbook name.
pub fn erdos_renyi(n: usize, m: usize, directed: bool, seed: u64) -> Graph {
    generate(GraphKind::Uniform, n, m, directed, seed)
}

/// Citation-style DAG, explicit seed (always directed).
pub fn citation_dag(n: usize, m: usize, seed: u64) -> Graph {
    generate(GraphKind::CitationDag, n, m, true, seed)
}

/// Multi-island graph with isolated vertices, explicit seed.
pub fn disconnected(n: usize, m: usize, directed: bool, seed: u64) -> Graph {
    generate(GraphKind::Disconnected, n, m, directed, seed)
}

/// Self-loop / duplicate-edge multigraph, explicit seed.
pub fn noisy(n: usize, m: usize, directed: bool, seed: u64) -> Graph {
    generate(GraphKind::Noisy, n, m, directed, seed)
}

/// Preferential attachment à la Barabási–Albert with random endpoints
/// biased by an endpoint pool (each accepted edge feeds its endpoints back
/// into the pool, giving the heavy tail).
fn power_law_edges(n: usize, m: usize, _directed: bool, rng: &mut StdRng) -> Vec<(u32, u32, f64)> {
    assert!(n >= 2);
    let mut edges = Vec::with_capacity(m);
    let mut pool: Vec<u32> = Vec::with_capacity(2 * m);
    // ring seed so everything is attachable
    pool.push(0);
    pool.push(1);
    edges.push((0, 1, 1.0));
    while edges.len() < m {
        let u = rng.random_range(0..n as u32);
        // 70%: attach preferentially; 30%: uniform (keeps the tail finite)
        let v = if rng.random_bool(0.7) {
            pool[rng.random_range(0..pool.len())]
        } else {
            rng.random_range(0..n as u32)
        };
        if u == v {
            continue;
        }
        edges.push((u, v, 1.0));
        pool.push(u);
        pool.push(v);
        if pool.len() > 4 * m {
            pool.truncate(2 * m);
        }
    }
    edges
}

fn uniform_edges(n: usize, m: usize, rng: &mut StdRng) -> Vec<(u32, u32, f64)> {
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.random_range(0..n as u32);
        let v = rng.random_range(0..n as u32);
        if u != v {
            edges.push((u, v, 1.0));
        }
    }
    edges
}

/// Edges from a higher-id node to a lower-id node: a DAG. Target choice is
/// biased toward recent nodes (citations favour recent work).
fn citation_edges(n: usize, m: usize, rng: &mut StdRng) -> Vec<(u32, u32, f64)> {
    assert!(n >= 2);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.random_range(1..n as u32);
        // bias: v in [u/2, u) half the time, uniform otherwise
        let v = if u > 2 && rng.random_bool(0.5) {
            rng.random_range(u / 2..u)
        } else {
            rng.random_range(0..u)
        };
        edges.push((u, v, 1.0));
    }
    edges
}

/// 2–4 islands of uniform edges over disjoint vertex ranges; the last ~10%
/// of vertices stay isolated (degree zero in both directions).
fn disconnected_edges(n: usize, m: usize, rng: &mut StdRng) -> Vec<(u32, u32, f64)> {
    assert!(n >= 4);
    let isolated = (n / 10).max(1);
    let live = n - isolated;
    let islands = 2 + rng.random_range(0..3usize).min(live / 2 - 1);
    // island i owns vertex range [bounds[i], bounds[i+1])
    let mut bounds = vec![0u32];
    for i in 1..islands {
        bounds.push((live * i / islands) as u32);
    }
    bounds.push(live as u32);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let i = rng.random_range(0..islands);
        let (lo, hi) = (bounds[i], bounds[i + 1]);
        if hi - lo < 2 {
            continue;
        }
        let u = rng.random_range(lo..hi);
        let v = rng.random_range(lo..hi);
        if u != v {
            edges.push((u, v, 1.0));
        }
    }
    edges
}

/// Uniform edges where ~10% are self-loops and ~15% duplicate an earlier
/// edge verbatim — a deliberate multigraph.
fn noisy_edges(n: usize, m: usize, rng: &mut StdRng) -> Vec<(u32, u32, f64)> {
    assert!(n >= 2);
    let mut edges: Vec<(u32, u32, f64)> = Vec::with_capacity(m);
    while edges.len() < m {
        if !edges.is_empty() && rng.random_bool(0.15) {
            let dup = edges[rng.random_range(0..edges.len())];
            edges.push(dup);
        } else if rng.random_bool(0.1) {
            let u = rng.random_range(0..n as u32);
            edges.push((u, u, 1.0));
        } else {
            let u = rng.random_range(0..n as u32);
            let v = rng.random_range(0..n as u32);
            if u != v {
                edges.push((u, v, 1.0));
            }
        }
    }
    edges
}

/// A named, seeded corpus entry: everything the differential testkit needs
/// to rebuild the exact same graph on any host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorpusPreset {
    pub name: &'static str,
    pub kind: GraphKind,
    pub n: usize,
    pub m: usize,
    pub directed: bool,
    pub seed: u64,
}

impl CorpusPreset {
    /// Build the preset's graph (bit-reproducible).
    pub fn build(&self) -> Graph {
        generate(self.kind, self.n, self.m, self.directed, self.seed)
    }

    /// Build with a different seed (for multi-seed sweeps over one family).
    pub fn build_seeded(&self, seed: u64) -> Graph {
        generate(self.kind, self.n, self.m, self.directed, seed)
    }
}

/// The five seeded corpus families of the differential suite. Sizes are
/// deliberately small: the full algorithm × engine × parallelism matrix
/// must finish within a CI budget of a few minutes on one core.
pub const CORPUS_PRESETS: &[CorpusPreset] = &[
    CorpusPreset {
        name: "erdos-renyi",
        kind: GraphKind::Uniform,
        n: 24,
        m: 70,
        directed: true,
        seed: 0xE2D0_5001,
    },
    CorpusPreset {
        name: "power-law",
        kind: GraphKind::PowerLaw,
        n: 28,
        m: 90,
        directed: true,
        seed: 0xE2D0_5002,
    },
    CorpusPreset {
        name: "citation-dag",
        kind: GraphKind::CitationDag,
        n: 26,
        m: 60,
        directed: true,
        seed: 0xE2D0_5003,
    },
    CorpusPreset {
        name: "disconnected",
        kind: GraphKind::Disconnected,
        n: 30,
        m: 50,
        directed: true,
        seed: 0xE2D0_5004,
    },
    CorpusPreset {
        name: "noisy-multi",
        kind: GraphKind::Noisy,
        n: 22,
        m: 60,
        directed: true,
        seed: 0xE2D0_5005,
    },
    CorpusPreset {
        name: "erdos-renyi-undirected",
        kind: GraphKind::Uniform,
        n: 20,
        m: 44,
        directed: false,
        seed: 0xE2D0_5006,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = generate(GraphKind::PowerLaw, 100, 400, true, 7);
        let b = generate(GraphKind::PowerLaw, 100, 400, true, 7);
        assert_eq!(a.edge_count(), b.edge_count());
        assert!(a.edges().zip(b.edges()).all(|(x, y)| x == y));
        let c = generate(GraphKind::PowerLaw, 100, 400, true, 8);
        assert!(a.edges().zip(c.edges()).any(|(x, y)| x != y));
    }

    #[test]
    fn sizes_respected() {
        let g = generate(GraphKind::Uniform, 50, 200, true, 1);
        assert_eq!(g.node_count(), 50);
        assert_eq!(g.edge_count(), 200);
        let u = generate(GraphKind::Uniform, 50, 200, false, 1);
        assert_eq!(u.edge_count(), 400, "undirected stores both directions");
    }

    #[test]
    fn citation_graph_is_a_dag() {
        let g = generate(GraphKind::CitationDag, 300, 1200, true, 3);
        assert!(g.is_dag());
        assert!(g.edges().all(|(u, v, _)| v < u));
    }

    #[test]
    fn power_law_has_heavy_tail() {
        let g = generate(GraphKind::PowerLaw, 2000, 10_000, true, 5);
        let mut in_deg = vec![0usize; 2000];
        for (_, v, _) in g.edges() {
            in_deg[v as usize] += 1;
        }
        let max = *in_deg.iter().max().unwrap();
        let avg = 10_000.0 / 2000.0;
        assert!(
            (max as f64) > 8.0 * avg,
            "hub degree {max} should dwarf the average {avg}"
        );
    }

    #[test]
    fn metadata_ranges() {
        let g = generate(GraphKind::Uniform, 100, 300, true, 9);
        assert!(g.node_weights.iter().all(|&w| (0.0..20.0).contains(&w)));
        assert!(g.labels.iter().all(|&l| l < 8));
    }

    #[test]
    fn disconnected_has_isolated_vertices_and_islands() {
        let g = generate(GraphKind::Disconnected, 50, 120, true, 11);
        let n = g.node_count();
        let mut deg = vec![0usize; n];
        for (u, v, _) in g.edges() {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let isolated = deg.iter().filter(|&&d| d == 0).count();
        assert!(isolated >= 1, "expected isolated vertices, found none");
        let comps = crate::reference::wcc_min_label(&g);
        let distinct: std::collections::HashSet<_> = comps.iter().collect();
        assert!(
            distinct.len() >= 3,
            "expected ≥3 components (incl. isolates)"
        );
    }

    #[test]
    fn noisy_has_self_loops_and_duplicates() {
        let g = generate(GraphKind::Noisy, 30, 200, true, 13);
        let loops = g.edges().filter(|(u, v, _)| u == v).count();
        assert!(loops >= 1, "expected self-loops");
        let mut seen = std::collections::HashSet::new();
        let dupes = g.edges().filter(|&(u, v, _)| !seen.insert((u, v))).count();
        assert!(dupes >= 1, "expected duplicate edges");
    }

    #[test]
    fn explicit_seed_wrappers_match_generate() {
        let a = erdos_renyi(40, 100, true, 21);
        let b = generate(GraphKind::Uniform, 40, 100, true, 21);
        assert!(a.edges().zip(b.edges()).all(|(x, y)| x == y));
        assert!(citation_dag(40, 100, 22).is_dag());
        let _ = power_law(40, 100, false, 23);
        let _ = disconnected(40, 60, false, 24);
        let _ = noisy(10, 30, true, 25);
    }

    #[test]
    fn corpus_presets_build_and_stay_small() {
        assert!(CORPUS_PRESETS.len() >= 5);
        for p in CORPUS_PRESETS {
            let g = p.build();
            assert_eq!(g.node_count(), p.n, "{}", p.name);
            assert!(g.node_count() <= 64, "{} too big for CI", p.name);
            let again = p.build_seeded(p.seed);
            assert!(g.edges().zip(again.edges()).all(|(x, y)| x == y));
        }
        // distinct families
        let names: std::collections::HashSet<_> = CORPUS_PRESETS.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), CORPUS_PRESETS.len());
    }
}
