//! Diameter-Estimation (Table 2, after HADI): estimate the graph's
//! (effective) diameter by expanding hop-neighbourhoods until they stop
//! growing. Instead of HADI's Flajolet–Martin sketches we run the exact
//! hop expansion from a sample of sources — each one a with+ program
//! (the tropical MV-join of `sssp`) whose iteration count *is* the
//! eccentricity — and report the maximum.

use crate::common::{self, EdgeStyle};
use crate::sssp;
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_withplus::Result;

/// Estimate the diameter from `samples` BFS sources (deterministically
/// spread over the id space). Returns (estimate, per-source
/// eccentricities).
pub fn run(g: &Graph, profile: &EngineProfile, samples: usize) -> Result<(u32, Vec<u32>)> {
    let n = g.node_count().max(1);
    let mut eccs = Vec::with_capacity(samples);
    for i in 0..samples {
        let src = ((i * n) / samples.max(1)) as u32;
        let mut db = common::db_for(g, profile, EdgeStyle::WithLoops(0.0))?;
        for row in db.catalog.relation_mut("V")?.iter_mut() {
            let id = row[0].as_int().unwrap();
            row[1] = if id == src as i64 { 0.0 } else { f64::INFINITY }.into();
        }
        let out = db.execute(sssp::SQL)?;
        // hop counts with unit weights: eccentricity = max finite distance
        let ecc = out
            .relation
            .iter()
            .filter_map(|r| r[1].as_f64())
            .filter(|d| d.is_finite())
            .fold(0.0f64, f64::max) as u32;
        eccs.push(ecc);
    }
    Ok((eccs.iter().copied().max().unwrap_or(0), eccs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::oracle_like;
    use aio_graph::{generate, reference, GraphKind};

    #[test]
    fn path_graph_diameter_exact() {
        let edges: Vec<(u32, u32, f64)> = (0..7).map(|i| (i, i + 1, 1.0)).collect();
        let g = Graph::from_edges(8, &edges, false);
        let (d, eccs) = run(&g, &oracle_like(), 8).unwrap();
        assert_eq!(d, 7, "{eccs:?}");
    }

    #[test]
    fn estimate_is_a_lower_bound_on_true_diameter() {
        let g = generate(GraphKind::Uniform, 60, 150, false, 161);
        let (est, _) = run(&g, &oracle_like(), 4).unwrap();
        // exact diameter via BFS from every node
        let mut exact = 0u32;
        for s in 0..g.node_count() as u32 {
            for l in reference::bfs_levels(&g, s) {
                if l != u32::MAX {
                    exact = exact.max(l);
                }
            }
        }
        assert!(est <= exact);
        assert!(est > 0);
    }
}
