//! # aio-algos — the paper's graph algorithms as with+ programs
//!
//! Every algorithm of Table 2 that the SIGMOD'17 evaluation exercises
//! (and several more) expressed in the with+ SQL dialect and executed
//! through `aio-withplus`, each validated against a native reference
//! implementation:
//!
//! | module | algorithm | recursion | operations |
//! |---|---|---|---|
//! | [`tc`] | transitive closure (Fig. 1) | linear | `union` |
//! | [`bfs`] | BFS (Eq. 5) | linear | MV-join(max,×) + ⊎ |
//! | [`wcc`] | Connected-Component (Eq. 6) | linear | MV-join(min,×) + ⊎ |
//! | [`sssp`] | Bellman-Ford (Eq. 7) | linear | MV-join(min,+) + ⊎ |
//! | [`apsp`] | Floyd-Warshall (Eq. 8) | **nonlinear** | MM-join(min,+) + ⊎ |
//! | [`pagerank`] | PageRank (Eq. 9, Figs. 3/9) | linear | MV-join(sum,×) + ⊎ |
//! | [`rwr`] | Random-Walk-with-Restart (Eq. 10) | linear | MV-join + θ-join + ⊎ |
//! | [`simrank`] | SimRank (Eq. 11) | linear | 2×MM-join + ⊎ |
//! | [`hits`] | HITS (Eq. 12, Fig. 6) | **mutual** (emulated) | 2×MV-join + θ-join + agg + ⊎ |
//! | [`toposort`] | TopoSort (Eq. 13, Fig. 5) | nonlinear | anti-join + ∪ |
//! | [`kcore`] | K-core | nonlinear | agg + θ-join + ⊎(replace) |
//! | [`mis`] | Maximal-Independent-Set | nonlinear | random + anti-join + ⊎ |
//! | [`mnm`] | Maximal-Node-Matching | nonlinear | max-agg + θ-join + ⊎ |
//! | [`lp`] | Label-Propagation | linear | count-agg + ⊎ |
//! | [`ks`] | Keyword-Search | linear | MV-join(max,×)³ + ⊎ |
//! | [`mcl`] | Markov-Clustering | nonlinear | MM-join + agg + ⊎(replace) |
//! | [`ktruss`] | K-truss | nonlinear | triangle join + count-agg + ⊎(replace) |
//! | [`diameter`] | Diameter-Estimation | linear | sampled tropical MV-joins |
//! | [`bisim`] | Graph-Bisimulation | nonlinear | distinct + sum-hash signatures + ⊎ |

pub mod apsp;
pub mod bfs;
pub mod bisim;
pub mod common;
pub mod diameter;
pub mod hits;
pub mod kcore;
pub mod ks;
pub mod ktruss;
pub mod lp;
pub mod mcl;
pub mod mis;
pub mod mnm;
pub mod pagerank;
pub mod registry;
pub mod rwr;
pub mod simrank;
pub mod sssp;
pub mod tc;
pub mod toposort;
pub mod wcc;

pub use registry::{by_key, evaluated, AlgoSpec, Engine, Equivalence, Tolerance, TABLE2};
