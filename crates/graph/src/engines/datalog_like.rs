//! SociaLite stand-in: tuple-at-a-time semi-naive evaluation with
//! (monotonic) recursive aggregates.
//!
//! SociaLite evaluates DATALOG rules bottom-up, keeping per-predicate hash
//! tables and joining deltas tuple by tuple; its monotonic-aggregate
//! extension lets `min`/`sum` live inside recursion. We mirror that
//! execution style — hash-map relations, per-tuple probing — which puts it
//! between the raw CSR engine and the materializing RDBMS in Fig. 11.

use crate::graph::Graph;
use aio_storage::FxHashMap;
use aio_trace::Tracer;

pub struct DatalogEngine<'g> {
    g: &'g Graph,
    /// edge(F → [(T, w)]) as a hash relation (the SociaLite storage model)
    edge: FxHashMap<u32, Vec<(u32, f64)>>,
    redge: FxHashMap<u32, Vec<(u32, f64)>>,
    tracer: Option<&'g Tracer>,
}

impl<'g> DatalogEngine<'g> {
    pub fn new(g: &'g Graph) -> Self {
        let mut edge: FxHashMap<u32, Vec<(u32, f64)>> = FxHashMap::default();
        let mut redge: FxHashMap<u32, Vec<(u32, f64)>> = FxHashMap::default();
        for (u, v, w) in g.edges() {
            edge.entry(u).or_default().push((v, w));
            redge.entry(v).or_default().push((u, w));
        }
        DatalogEngine {
            g,
            edge,
            redge,
            tracer: None,
        }
    }

    /// Record one `dl_round` span per semi-naive round (delta sizes) on
    /// `tracer`.
    pub fn set_tracer(&mut self, tracer: &'g Tracer) {
        self.tracer = Some(tracer);
    }

    /// `dist(v, min d)` with the monotonic `min` aggregate:
    /// `dist(t, d+w) :- dist(f, d), edge(f, t, w)` — semi-naive.
    pub fn sssp(&self, src: u32) -> Vec<f64> {
        let n = self.g.node_count();
        let mut dist: FxHashMap<u32, f64> = FxHashMap::default();
        dist.insert(src, 0.0);
        let mut delta: Vec<(u32, f64)> = vec![(src, 0.0)];
        let mut round = 0u64;
        while !delta.is_empty() {
            let span = aio_trace::maybe_span(self.tracer, "dl_round");
            if let Some(s) = &span {
                s.field("round", round);
                s.field("delta_tuples", delta.len() as u64);
            }
            round += 1;
            let mut next: FxHashMap<u32, f64> = FxHashMap::default();
            for &(f, d) in &delta {
                if let Some(out) = self.edge.get(&f) {
                    for &(t, w) in out {
                        let nd = d + w;
                        let cur = dist.get(&t).copied().unwrap_or(f64::INFINITY);
                        if nd < cur {
                            dist.insert(t, nd);
                            let e = next.entry(t).or_insert(f64::INFINITY);
                            if nd < *e {
                                *e = nd;
                            }
                        }
                    }
                }
            }
            delta = next.into_iter().collect();
        }
        (0..n as u32)
            .map(|v| dist.get(&v).copied().unwrap_or(f64::INFINITY))
            .collect()
    }

    /// `comp(v, min l)` over the symmetrized edges.
    pub fn wcc(&self) -> Vec<u32> {
        let n = self.g.node_count();
        let mut label: FxHashMap<u32, u32> = (0..n as u32).map(|v| (v, v)).collect();
        let mut delta: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, v)).collect();
        let mut round = 0u64;
        while !delta.is_empty() {
            let span = aio_trace::maybe_span(self.tracer, "dl_round");
            if let Some(s) = &span {
                s.field("round", round);
                s.field("delta_tuples", delta.len() as u64);
            }
            round += 1;
            let mut next: FxHashMap<u32, u32> = FxHashMap::default();
            for &(v, l) in &delta {
                for dir in [&self.edge, &self.redge] {
                    if let Some(out) = dir.get(&v) {
                        for &(t, _) in out {
                            if l < label[&t] {
                                label.insert(t, l);
                                let e = next.entry(t).or_insert(u32::MAX);
                                if l < *e {
                                    *e = l;
                                }
                            }
                        }
                    }
                }
            }
            delta = next.into_iter().collect();
        }
        (0..n as u32).map(|v| label[&v]).collect()
    }

    /// Iterated PageRank rule
    /// `rank'(t, c·sum(rank(f)·w) + (1−c)/n) :- rank(f), edge(f, t, w)`
    /// (non-monotonic, so evaluated iteratively as SociaLite programs do).
    pub fn pagerank(&self, c: f64, iters: usize) -> Vec<f64> {
        let n = self.g.node_count();
        let base = (1.0 - c) / n as f64;
        let mut rank: FxHashMap<u32, f64> = (0..n as u32).map(|v| (v, base)).collect();
        for iter in 0..iters {
            let span = aio_trace::maybe_span(self.tracer, "dl_round");
            if let Some(s) = &span {
                s.field("round", iter as u64);
                s.field("delta_tuples", n as u64); // non-monotonic: full relation each round
            }
            let mut sums: FxHashMap<u32, f64> = FxHashMap::default();
            for (&f, out) in &self.edge {
                let rf = rank[&f];
                for &(t, w) in out {
                    *sums.entry(t).or_insert(0.0) += rf * w;
                }
            }
            for (t, s) in sums {
                rank.insert(t, c * s + base);
            }
        }
        (0..n as u32).map(|v| rank[&v]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GraphKind};
    use crate::reference;

    #[test]
    fn sssp_matches_reference() {
        let g = generate(GraphKind::Uniform, 180, 700, true, 41);
        let d = DatalogEngine::new(&g).sssp(0);
        assert_eq!(d, reference::bellman_ford(&g, 0));
    }

    #[test]
    fn wcc_matches_reference() {
        let g = generate(GraphKind::Uniform, 250, 400, false, 42);
        assert_eq!(DatalogEngine::new(&g).wcc(), reference::wcc_min_label(&g));
    }

    #[test]
    fn sssp_rounds_trace_shrinking_wavefront() {
        let g = crate::graph::Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], true);
        let tracer = aio_trace::Tracer::new();
        let mut eng = DatalogEngine::new(&g);
        eng.set_tracer(&tracer);
        let d = eng.sssp(0);
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0]);
        let trace = tracer.finish();
        trace.validate().unwrap();
        let rounds: Vec<_> = trace.spans_named("dl_round").collect();
        assert_eq!(rounds.len(), 4, "wavefront drains after |path| rounds");
        for (i, r) in rounds.iter().enumerate() {
            assert_eq!(r.field_u64("round"), Some(i as u64));
            assert_eq!(
                r.field_u64("delta_tuples"),
                Some(1),
                "path wavefront is 1 wide"
            );
        }
    }

    #[test]
    fn pagerank_matches_gas() {
        let g = generate(GraphKind::PowerLaw, 100, 400, true, 43);
        let gw = reference::with_pagerank_weights(&g);
        let a = DatalogEngine::new(&gw).pagerank(0.85, 12);
        let b = crate::engines::vertex_centric::VertexCentric::new(&gw).pagerank(0.85, 12);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}
