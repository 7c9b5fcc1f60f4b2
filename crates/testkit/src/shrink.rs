//! Counterexample shrinking and replay files.
//!
//! When the harness finds a failing graph it greedily minimizes it: drop
//! edge chunks (halving chunk sizes, ddmin style), then trailing isolated
//! vertices, re-checking the failure predicate after every candidate
//! removal. The surviving minimal case is serialized into a plain-text
//! replay file that reconstructs the exact graph — node count, direction
//! flag, edges with weights, node weights, labels — with no dependence on
//! any generator or RNG.

use aio_graph::Graph;

/// An explicit, generator-free graph description (stored-edge form).
#[derive(Clone, Debug, PartialEq)]
pub struct CaseGraph {
    pub n: usize,
    /// The semantic flag; edges below are the *stored* (already
    /// symmetrized) representation either way.
    pub directed: bool,
    pub edges: Vec<(u32, u32, f64)>,
    pub node_weights: Vec<f64>,
    pub labels: Vec<u32>,
}

impl CaseGraph {
    pub fn from_graph(g: &Graph) -> CaseGraph {
        CaseGraph {
            n: g.node_count(),
            directed: g.directed,
            edges: g.edges().collect(),
            node_weights: g.node_weights.clone(),
            labels: g.labels.clone(),
        }
    }

    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::from_edges(self.n, &self.edges, true);
        g.directed = self.directed;
        g.node_weights = self.node_weights.clone();
        g.labels = self.labels.clone();
        g
    }
}

/// Generic delta-debugging minimization: the smallest subsequence of
/// `items` (greedy chunk removal with halving chunk sizes) for which
/// `fails` still returns `true`. The predicate must be deterministic;
/// the full input is assumed failing. Used for graph edges here and for
/// interleaved-schedule witnesses in [`crate::mvcc`].
pub fn ddmin<T: Clone>(items: &[T], fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    let mut cur: Vec<T> = items.to_vec();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut progress = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut candidate = cur.clone();
            candidate.drain(start..end);
            if fails(&candidate) {
                cur = candidate;
                progress = true;
                // same `start` now points at the next chunk
            } else {
                start = end;
            }
        }
        if chunk == 1 && !progress {
            break;
        }
        if chunk > 1 {
            chunk /= 2;
        }
    }
    cur
}

/// Greedily shrink `case` while `fails` keeps returning `true` for the
/// shrunk graph. The predicate must be deterministic; the input case is
/// assumed failing.
pub fn shrink(case: &CaseGraph, fails: impl Fn(&Graph) -> bool) -> CaseGraph {
    let mut cur = case.clone();
    // phase 1: ddmin over edges
    cur.edges = ddmin(&case.edges, |edges| {
        let mut candidate = case.clone();
        candidate.edges = edges.to_vec();
        fails(&candidate.to_graph())
    });
    // phase 2: compact to the vertices still referenced by an edge,
    // remapping ids to 0..k (order-preserving); keep only if still failing
    let mut used: Vec<u32> = cur.edges.iter().flat_map(|&(u, v, _)| [u, v]).collect();
    used.sort_unstable();
    used.dedup();
    if !used.is_empty() && used.len() < cur.n {
        let mut remap = vec![u32::MAX; cur.n];
        for (new, &old) in used.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let candidate = CaseGraph {
            n: used.len(),
            directed: cur.directed,
            edges: cur
                .edges
                .iter()
                .map(|&(u, v, w)| (remap[u as usize], remap[v as usize], w))
                .collect(),
            node_weights: used.iter().map(|&v| cur.node_weights[v as usize]).collect(),
            labels: used.iter().map(|&v| cur.labels[v as usize]).collect(),
        };
        if fails(&candidate.to_graph()) {
            cur = candidate;
        }
    }
    cur
}

/// A self-contained failing-case record: the algorithm, a description of
/// the failure, and the exact minimal graph.
#[derive(Clone, Debug, PartialEq)]
pub struct Replay {
    pub algo: String,
    pub detail: String,
    pub case: CaseGraph,
}

impl Replay {
    pub fn graph(&self) -> Graph {
        self.case.to_graph()
    }

    /// Serialize to the replay text format (one `key: value` or record
    /// line per row; floats via `{:?}` so the round-trip is bit-exact).
    pub fn render(&self) -> String {
        let c = &self.case;
        let mut out = String::from("aio-testkit-replay v1\n");
        out.push_str(&format!("algo: {}\n", self.algo));
        out.push_str(&format!("detail: {}\n", self.detail.replace('\n', " ")));
        out.push_str(&format!("directed: {}\n", c.directed));
        out.push_str(&format!("nodes: {}\n", c.n));
        for v in 0..c.n {
            out.push_str(&format!(
                "node: {} {:?} {}\n",
                v, c.node_weights[v], c.labels[v]
            ));
        }
        for &(u, v, w) in &c.edges {
            out.push_str(&format!("edge: {u} {v} {w:?}\n"));
        }
        out
    }

    pub fn parse(text: &str) -> Result<Replay, String> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some("aio-testkit-replay v1") {
            return Err("missing replay header".into());
        }
        let mut algo = None;
        let mut detail = String::new();
        let mut directed = None;
        let mut n = None;
        let mut node_weights = Vec::new();
        let mut labels = Vec::new();
        let mut edges = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line
                .split_once(':')
                .ok_or_else(|| format!("bad line: {line}"))?;
            let rest = rest.trim();
            match key {
                "algo" => algo = Some(rest.to_string()),
                "detail" => detail = rest.to_string(),
                "directed" => directed = Some(rest.parse::<bool>().map_err(|e| e.to_string())?),
                "nodes" => n = Some(rest.parse::<usize>().map_err(|e| e.to_string())?),
                "node" => {
                    let f: Vec<&str> = rest.split_whitespace().collect();
                    if f.len() != 3 {
                        return Err(format!("bad node line: {line}"));
                    }
                    node_weights.push(f[1].parse::<f64>().map_err(|e| e.to_string())?);
                    labels.push(f[2].parse::<u32>().map_err(|e| e.to_string())?);
                }
                "edge" => {
                    let f: Vec<&str> = rest.split_whitespace().collect();
                    if f.len() != 3 {
                        return Err(format!("bad edge line: {line}"));
                    }
                    edges.push((
                        f[0].parse::<u32>().map_err(|e| e.to_string())?,
                        f[1].parse::<u32>().map_err(|e| e.to_string())?,
                        f[2].parse::<f64>().map_err(|e| e.to_string())?,
                    ));
                }
                other => return Err(format!("unknown replay key {other}")),
            }
        }
        let n = n.ok_or("missing nodes line")?;
        if node_weights.len() != n {
            return Err(format!(
                "expected {n} node lines, got {}",
                node_weights.len()
            ));
        }
        Ok(Replay {
            algo: algo.ok_or("missing algo line")?,
            detail,
            case: CaseGraph {
                n,
                directed: directed.ok_or("missing directed line")?,
                edges,
                node_weights,
                labels,
            },
        })
    }

    /// Write the replay under `dir`; returns the file path.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("replay-{}.txt", self.algo));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_graph::{generate, GraphKind};

    #[test]
    fn replay_roundtrips_bit_exactly() {
        let g = generate(GraphKind::PowerLaw, 15, 40, true, 91);
        let r = Replay {
            algo: "wcc".into(),
            detail: "synthetic\nmultiline".into(),
            case: CaseGraph::from_graph(&g),
        };
        let parsed = Replay::parse(&r.render()).unwrap();
        assert_eq!(parsed.case, r.case);
        let g2 = parsed.graph();
        assert_eq!(
            g2.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
        assert_eq!(g2.node_weights, g.node_weights);
        assert_eq!(g2.labels, g.labels);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Replay::parse("not a replay").is_err());
        assert!(Replay::parse("aio-testkit-replay v1\nwat: 3\n").is_err());
        assert!(
            Replay::parse("aio-testkit-replay v1\nalgo: x\ndirected: true\nnodes: 2\n").is_err()
        );
    }

    #[test]
    fn shrink_reaches_the_known_minimal_core() {
        // failure predicate: "has any edge" — the minimum failing graph is
        // one edge between two compacted vertices
        let g = generate(GraphKind::Uniform, 20, 60, true, 92);
        let case = CaseGraph::from_graph(&g);
        let fails = |g: &Graph| g.edge_count() >= 1;
        assert!(fails(&case.to_graph()), "seed case must fail");
        let min = shrink(&case, fails);
        assert_eq!(min.edges.len(), 1, "{:?}", min.edges);
        assert_eq!(min.n, 2);
        let (u, v, _) = min.edges[0];
        assert_eq!((u.min(v), u.max(v)), (0, 1));
        assert!(fails(&min.to_graph()));
    }

    #[test]
    fn ddmin_finds_a_minimal_failing_subsequence() {
        // failure: contains at least one 7 and one 3, in that order
        let items: Vec<i32> = vec![1, 7, 2, 9, 3, 7, 4, 3, 5];
        let fails = |xs: &[i32]| {
            let i7 = xs.iter().position(|&x| x == 7);
            matches!(i7, Some(i) if xs[i..].contains(&3))
        };
        assert!(fails(&items));
        let min = ddmin(&items, fails);
        assert_eq!(min, vec![7, 3]);
    }

    #[test]
    fn ddmin_keeps_a_one_element_witness() {
        let min = ddmin(&[5], |xs: &[i32]| !xs.is_empty());
        assert_eq!(min, vec![5]);
    }

    #[test]
    fn shrink_is_a_noop_when_nothing_can_go() {
        let case = CaseGraph {
            n: 2,
            directed: true,
            edges: vec![(0, 1, 1.0)],
            node_weights: vec![1.0; 2],
            labels: vec![0; 2],
        };
        let min = shrink(&case, |g| g.edge_count() >= 1);
        assert_eq!(min, case);
    }
}
