//! Giraph stand-in: a Pregel-style BSP engine with explicit message
//! passing and vote-to-halt.
//!
//! Unlike the GAS engine, every superstep materializes heap-allocated
//! message queues and delivers them by bucketing — the per-message overhead
//! that makes Giraph the slower native system in Fig. 11.

use crate::graph::Graph;
use aio_trace::Tracer;

/// A message in flight.
#[derive(Clone, Debug)]
pub struct Message {
    pub target: u32,
    pub value: f64,
}

/// Vertex program: called once per active vertex per superstep with its
/// incoming messages; returns the new value and outgoing messages, plus
/// whether the vertex votes to halt.
pub trait VertexProgram {
    /// Compute step. `superstep` starts at 0.
    fn compute(
        &self,
        vertex: u32,
        value: f64,
        messages: &[f64],
        g: &Graph,
        superstep: usize,
        out: &mut Vec<Message>,
    ) -> (f64, bool);
}

/// The BSP scheduler.
pub struct Bsp<'g> {
    g: &'g Graph,
    tracer: Option<&'g Tracer>,
}

impl<'g> Bsp<'g> {
    pub fn new(g: &'g Graph) -> Self {
        Bsp { g, tracer: None }
    }

    /// Record one `superstep` span per superstep (active-vertex and
    /// message counts) on `tracer`.
    pub fn set_tracer(&mut self, tracer: &'g Tracer) {
        self.tracer = Some(tracer);
    }

    /// Run to global halt (all voted and no messages) or `max_supersteps`.
    /// Returns final vertex values and the number of supersteps run.
    pub fn run<P: VertexProgram>(
        &self,
        program: &P,
        init: Vec<f64>,
        max_supersteps: usize,
    ) -> (Vec<f64>, usize) {
        let n = self.g.node_count();
        let mut values = init;
        // inbox per vertex: rebuilt every superstep (the Giraph-ish cost)
        let mut inbox: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut active = vec![true; n];
        let mut steps = 0;
        for superstep in 0..max_supersteps {
            let span = aio_trace::maybe_span(self.tracer, "superstep");
            if let Some(s) = &span {
                s.field("superstep", superstep as u64);
            }
            let mut outgoing: Vec<Message> = Vec::new();
            let mut active_vertices: u64 = 0;
            let mut out_buf: Vec<Message> = Vec::new();
            for v in 0..n as u32 {
                let has_msgs = !inbox[v as usize].is_empty();
                if !active[v as usize] && !has_msgs {
                    continue;
                }
                active_vertices += 1;
                out_buf.clear();
                let (nv, halt) = program.compute(
                    v,
                    values[v as usize],
                    &inbox[v as usize],
                    self.g,
                    superstep,
                    &mut out_buf,
                );
                values[v as usize] = nv;
                active[v as usize] = !halt;
                outgoing.extend(out_buf.iter().cloned());
            }
            for b in inbox.iter_mut() {
                b.clear();
            }
            if let Some(s) = &span {
                s.field("active_vertices", active_vertices);
                s.field("messages_sent", outgoing.len() as u64);
            }
            aio_metrics::hooks::superstep(active_vertices);
            if active_vertices == 0 {
                break;
            }
            steps = superstep + 1;
            if outgoing.is_empty() && !active.iter().any(|&a| a) {
                break;
            }
            for m in outgoing {
                inbox[m.target as usize].push(m.value);
            }
        }
        (values, steps)
    }

    /// PageRank (fixed supersteps; every vertex stays active).
    pub fn pagerank(&self, c: f64, iters: usize) -> Vec<f64> {
        struct Pr {
            c: f64,
            n: usize,
            iters: usize,
        }
        impl VertexProgram for Pr {
            fn compute(
                &self,
                vertex: u32,
                value: f64,
                messages: &[f64],
                g: &Graph,
                superstep: usize,
                out: &mut Vec<Message>,
            ) -> (f64, bool) {
                let new_value = if superstep == 0 {
                    value
                } else {
                    self.c * messages.iter().sum::<f64>() + (1.0 - self.c) / self.n as f64
                };
                if superstep < self.iters {
                    for (i, &t) in g.neighbors(vertex).iter().enumerate() {
                        out.push(Message {
                            target: t,
                            value: new_value * g.edge_weights(vertex)[i],
                        });
                    }
                    (new_value, false)
                } else {
                    (new_value, true)
                }
            }
        }
        let n = self.g.node_count();
        let base = (1.0 - c) / n as f64;
        let (vals, _) = self.run(&Pr { c, n, iters }, vec![base; n], iters + 2);
        vals
    }

    /// WCC by min-label flooding with vote-to-halt.
    pub fn wcc(&self) -> Vec<u32> {
        struct Wcc;
        impl VertexProgram for Wcc {
            fn compute(
                &self,
                vertex: u32,
                value: f64,
                messages: &[f64],
                g: &Graph,
                superstep: usize,
                out: &mut Vec<Message>,
            ) -> (f64, bool) {
                let incoming = messages.iter().copied().fold(f64::INFINITY, f64::min);
                let new_value = if superstep == 0 {
                    value
                } else {
                    value.min(incoming)
                };
                if superstep == 0 || new_value < value {
                    for &t in g.neighbors(vertex) {
                        out.push(Message {
                            target: t,
                            value: new_value,
                        });
                    }
                }
                (new_value, true) // halt; woken by messages
            }
        }
        // flood over the symmetrized graph for weak connectivity
        let sym = symmetrize(self.g);
        let mut bsp = Bsp::new(&sym);
        if let Some(t) = self.tracer {
            bsp.set_tracer(t);
        }
        let init: Vec<f64> = (0..sym.node_count()).map(|v| v as f64).collect();
        let (vals, _) = bsp.run(&Wcc, init, sym.node_count() + 2);
        vals.into_iter().map(|v| v as u32).collect()
    }

    /// SSSP with vote-to-halt relaxation.
    pub fn sssp(&self, src: u32) -> Vec<f64> {
        struct Sssp {
            src: u32,
        }
        impl VertexProgram for Sssp {
            fn compute(
                &self,
                vertex: u32,
                value: f64,
                messages: &[f64],
                g: &Graph,
                superstep: usize,
                out: &mut Vec<Message>,
            ) -> (f64, bool) {
                let best_in = messages.iter().copied().fold(f64::INFINITY, f64::min);
                let candidate = if superstep == 0 && vertex == self.src {
                    0.0
                } else {
                    best_in
                };
                if candidate < value {
                    for (i, &t) in g.neighbors(vertex).iter().enumerate() {
                        out.push(Message {
                            target: t,
                            value: candidate + g.edge_weights(vertex)[i],
                        });
                    }
                    (candidate, true)
                } else {
                    (value, true)
                }
            }
        }
        let n = self.g.node_count();
        let (vals, _) = self.run(&Sssp { src }, vec![f64::INFINITY; n], n + 2);
        vals
    }
}

fn symmetrize(g: &Graph) -> Graph {
    let mut edges: Vec<(u32, u32, f64)> = g.edges().collect();
    edges.extend(g.edges().map(|(u, v, w)| (v, u, w)));
    Graph::from_edges(g.node_count(), &edges, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GraphKind};
    use crate::reference;

    #[test]
    fn sssp_matches_reference() {
        let g = generate(GraphKind::Uniform, 150, 600, true, 31);
        let d = Bsp::new(&g).sssp(0);
        assert_eq!(d, reference::bellman_ford(&g, 0));
    }

    #[test]
    fn wcc_matches_reference() {
        let g = generate(GraphKind::Uniform, 200, 350, false, 32);
        let labels = Bsp::new(&g).wcc();
        assert_eq!(labels, reference::wcc_min_label(&g));
    }

    #[test]
    fn pagerank_matches_gas_engine() {
        let g = generate(GraphKind::PowerLaw, 120, 500, true, 33);
        let gw = reference::with_pagerank_weights(&g);
        let a = Bsp::new(&gw).pagerank(0.85, 10);
        let b = crate::engines::vertex_centric::VertexCentric::new(&gw).pagerank(0.85, 10);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn supersteps_trace_active_vertices() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], true);
        let tracer = aio_trace::Tracer::new();
        let mut bsp = Bsp::new(&g);
        bsp.set_tracer(&tracer);
        let d = bsp.sssp(0);
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0]);
        let trace = tracer.finish();
        trace.validate().unwrap();
        let steps: Vec<_> = trace.spans_named("superstep").collect();
        assert_eq!(steps.len(), 4, "one wavefront superstep per path hop");
        // superstep 0: every vertex is initially active
        assert_eq!(steps[0].field_u64("active_vertices"), Some(4));
        assert_eq!(steps[0].field_u64("messages_sent"), Some(1));
        // later supersteps: only the message-woken wavefront computes
        assert_eq!(steps[1].field_u64("active_vertices"), Some(1));
        assert_eq!(steps[1].field_u64("messages_sent"), Some(1));
        // the run goes quiet: the sink relaxes but sends nothing onward
        assert_eq!(steps.last().unwrap().field_u64("messages_sent"), Some(0));
    }

    #[test]
    fn wcc_threads_tracer_through_symmetrized_run() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)], true);
        let tracer = aio_trace::Tracer::new();
        let mut bsp = Bsp::new(&g);
        bsp.set_tracer(&tracer);
        let labels = bsp.wcc();
        assert_eq!(labels, vec![0, 0, 0]);
        let trace = tracer.finish();
        assert!(trace.spans_named("superstep").next().is_some());
    }

    #[test]
    fn halts_without_work() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0)], true);
        let d = Bsp::new(&g).sssp(2);
        assert_eq!(d[2], 0.0);
        assert!(d[0].is_infinite());
    }
}
