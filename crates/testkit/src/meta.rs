//! Metamorphic relations: transformations of the input graph with a known
//! effect on the output.
//!
//! Unlike the differential matrix, these need no second implementation —
//! the algorithm is compared against *itself* on a transformed input:
//!
//! * **Relabel** — permuting vertex ids permutes value maps and set
//!   answers, and leaves partitions (WCC) isomorphic;
//! * **EdgeShuffle** — the answer is independent of edge storage order
//!   (exactly for min/max semirings, within epsilon for sums);
//! * **IsolatedVertices** — appending unreachable vertices leaves existing
//!   answers untouched and gives the new vertices their trivial values.
//!   (PageRank is deliberately excluded: its base term `(1−c)/n` depends
//!   on the vertex count, so this relation does not hold for it.)

use crate::corpus::rebuild;
use crate::exec::{run_algo, Executor, Params};
use crate::result::AlgoResult;
use aio_algos::Tolerance;
use aio_graph::Graph;
use std::collections::{BTreeMap, BTreeSet};

/// The algorithms the metamorphic suite covers. Chosen for crisp invariants:
/// label-propagation-style algorithms tie-break on row order and MIS is
/// randomized, so their relations are weaker than equality.
pub const META_ALGOS: &[&str] = &["bfs", "sssp", "pr", "wcc", "kc", "tc"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaRelation {
    Relabel,
    EdgeShuffle,
    IsolatedVertices,
}

/// Minimal deterministic RNG (xorshift64*) so the transforms are seeded
/// without pulling the rand shim into the library's dependency set.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn shuffled<T: Clone>(items: &[T], rng: &mut Rng) -> Vec<T> {
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// A random permutation π of `0..n`.
fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let ids: Vec<u32> = (0..n as u32).collect();
    shuffled(&ids, rng)
}

fn permuted_graph(g: &Graph, pi: &[u32]) -> Graph {
    let n = g.node_count();
    let edges: Vec<(u32, u32, f64)> = g
        .edges()
        .map(|(u, v, w)| (pi[u as usize], pi[v as usize], w))
        .collect();
    let mut out = rebuild(n, &edges, g);
    for (v, &img) in pi.iter().enumerate().take(n) {
        out.node_weights[img as usize] = g.node_weights[v];
        out.labels[img as usize] = g.labels[v];
    }
    out
}

fn with_isolated(g: &Graph, extra: usize) -> Graph {
    let edges: Vec<(u32, u32, f64)> = g.edges().collect();
    let mut out = rebuild(g.node_count() + extra, &edges, g);
    out.node_weights.truncate(g.node_count());
    out.node_weights.resize(g.node_count() + extra, 1.0);
    out.labels.truncate(g.node_count());
    out.labels.resize(g.node_count() + extra, 0);
    out
}

fn map_node(pi: &[u32], v: i64) -> i64 {
    pi[v as usize] as i64
}

/// Apply π to a result's node ids (values travel with their node).
fn permute_result(r: &AlgoResult, pi: &[u32]) -> AlgoResult {
    match r {
        AlgoResult::NodeF64(m) => {
            AlgoResult::NodeF64(m.iter().map(|(&v, &x)| (map_node(pi, v), x)).collect())
        }
        AlgoResult::NodeI64(m) => {
            AlgoResult::NodeI64(m.iter().map(|(&v, &x)| (map_node(pi, v), x)).collect())
        }
        AlgoResult::NodeSet(s) => AlgoResult::NodeSet(s.iter().map(|&v| map_node(pi, v)).collect()),
        AlgoResult::PairSet(s) => AlgoResult::PairSet(
            s.iter()
                .map(|&(u, v)| (map_node(pi, u), map_node(pi, v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Group a labeling into its partition: a set of node groups, ignoring the
/// label values themselves.
fn partition(m: &BTreeMap<i64, i64>) -> BTreeSet<BTreeSet<i64>> {
    let mut groups: BTreeMap<i64, BTreeSet<i64>> = BTreeMap::new();
    for (&v, &l) in m {
        groups.entry(l).or_default().insert(v);
    }
    groups.into_values().collect()
}

fn tolerance_for(key: &str, relation: MetaRelation) -> Tolerance {
    match key {
        // sums get reassociated by any reordering; min/max answers do not
        "pr" => Tolerance::Epsilon {
            eps: 1e-9,
            rank_top: 0,
        },
        _ => {
            let _ = relation;
            Tolerance::Exact
        }
    }
}

/// Check one metamorphic relation for one algorithm on one graph. All runs
/// go through the serial oracle-like with+ profile — the relation under
/// test is about the *algorithm*, the engine sweep is [`crate::diff`]'s
/// job.
pub fn check_metamorphic(
    key: &str,
    g: &Graph,
    relation: MetaRelation,
    seed: u64,
    p: &Params,
) -> Result<(), String> {
    let exec = Executor {
        name: "with+/oracle_like p1".into(),
        family: "with+/oracle_like".into(),
        kind: crate::exec::ExecKind::WithPlus(aio_algebra::oracle_like()),
    };
    let mut rng = Rng::new(seed ^ 0x4D45_5441_u64);
    let a = run_algo(key, g, &exec, p)?;
    let tol = tolerance_for(key, relation);
    match relation {
        MetaRelation::Relabel => {
            let pi = permutation(g.node_count(), &mut rng);
            let g2 = permuted_graph(g, &pi);
            let mut p2 = p.clone();
            p2.src = pi[p.src as usize];
            let b = run_algo(key, &g2, &exec, &p2)?;
            if key == "wcc" {
                // labels are min node ids — not equivariant; the induced
                // partitions must be isomorphic under π
                let (AlgoResult::NodeI64(ma), AlgoResult::NodeI64(mb)) = (&a, &b) else {
                    return Err("wcc result shape changed".into());
                };
                let mapped: BTreeMap<i64, i64> = ma
                    .iter()
                    .map(|(&v, &l)| (pi[v as usize] as i64, l))
                    .collect();
                if partition(&mapped) != partition(mb) {
                    return Err("wcc partition not invariant under relabeling".into());
                }
                Ok(())
            } else {
                permute_result(&a, &pi)
                    .compare(&b, &tol)
                    .map_err(|e| format!("not equivariant under relabeling: {e}"))
            }
        }
        MetaRelation::EdgeShuffle => {
            let edges: Vec<(u32, u32, f64)> = g.edges().collect();
            let g2 = rebuild(g.node_count(), &shuffled(&edges, &mut rng), g);
            let b = run_algo(key, &g2, &exec, p)?;
            a.compare(&b, &tol)
                .map_err(|e| format!("sensitive to edge storage order: {e}"))
        }
        MetaRelation::IsolatedVertices => {
            if key == "pr" {
                return Err("PageRank's base term depends on n; relation inapplicable".into());
            }
            let extra = 3;
            let n = g.node_count();
            let g2 = with_isolated(g, extra);
            let b = run_algo(key, &g2, &exec, p)?;
            let expected = match &a {
                AlgoResult::NodeF64(m) => {
                    let mut m = m.clone();
                    for i in 0..extra {
                        // bfs: unreached flag 0; sssp: unreachable = ∞
                        let v = match key {
                            "bfs" => 0.0,
                            "sssp" => f64::INFINITY,
                            _ => return Err(format!("no isolated-vertex rule for {key}")),
                        };
                        m.insert((n + i) as i64, v);
                    }
                    AlgoResult::NodeF64(m)
                }
                AlgoResult::NodeI64(m) if key == "wcc" => {
                    // new ids are larger than every existing id, so they
                    // cannot disturb min labels and form singleton components
                    let mut m = m.clone();
                    for i in 0..extra {
                        m.insert((n + i) as i64, (n + i) as i64);
                    }
                    AlgoResult::NodeI64(m)
                }
                AlgoResult::NodeSet(_) | AlgoResult::PairSet(_) => a.clone(),
                other => return Err(format!("no isolated-vertex rule for {}", other.shape())),
            };
            expected
                .compare(&b, &tol)
                .map_err(|e| format!("disturbed by isolated vertices: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_graph::{generate, GraphKind};

    #[test]
    fn all_relations_hold_on_a_small_graph() {
        let g = generate(GraphKind::Uniform, 12, 30, true, 81);
        let dag = generate(GraphKind::CitationDag, 12, 24, true, 82);
        let p = Params::default();
        for &key in META_ALGOS {
            let graph = if key == "tc" { &dag } else { &g };
            for rel in [
                MetaRelation::Relabel,
                MetaRelation::EdgeShuffle,
                MetaRelation::IsolatedVertices,
            ] {
                if key == "pr" && rel == MetaRelation::IsolatedVertices {
                    continue;
                }
                check_metamorphic(key, graph, rel, 0xBEEF, &p)
                    .unwrap_or_else(|e| panic!("{key}/{rel:?}: {e}"));
            }
        }
    }

    #[test]
    fn pagerank_isolated_vertices_is_rejected_as_inapplicable() {
        let g = generate(GraphKind::Uniform, 8, 16, true, 83);
        let err = check_metamorphic(
            "pr",
            &g,
            MetaRelation::IsolatedVertices,
            1,
            &Params::default(),
        )
        .unwrap_err();
        assert!(err.contains("inapplicable"), "{err}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = Rng::new(5);
        let pi = permutation(20, &mut rng);
        let mut seen = [false; 20];
        for &x in &pi {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
    }
}
