//! Table 2 — the catalogue of graph algorithms the four operations support.

/// Which aggregates an algorithm's semiring uses (the `Aggregation` column
/// of Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregation {
    None,
    Max,
    Min,
    MinOrMax,
    Sum,
    Count,
}

impl std::fmt::Display for Aggregation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Aggregation::None => "-",
            Aggregation::Max => "max",
            Aggregation::Min => "min",
            Aggregation::MinOrMax => "max/min",
            Aggregation::Sum => "sum",
            Aggregation::Count => "count",
        })
    }
}

/// One row of Table 2.
#[derive(Clone, Copy, Debug)]
pub struct AlgoSpec {
    pub name: &'static str,
    /// Short key used by the bench harness.
    pub key: &'static str,
    pub aggregation: Aggregation,
    /// Expressible with linear recursion?
    pub linear: bool,
    /// Expressible (only) with nonlinear recursion?
    pub nonlinear: bool,
    /// Implemented as a with+ program in this crate?
    pub implemented: bool,
    /// Part of the paper's 10-algorithm evaluation (Figs. 7/8)?
    pub evaluated: bool,
}

/// Table 2 verbatim (19 rows), annotated with our implementation status.
pub const TABLE2: [AlgoSpec; 19] = [
    AlgoSpec {
        name: "TC",
        key: "tc",
        aggregation: Aggregation::None,
        linear: true,
        nonlinear: true,
        implemented: true,
        evaluated: false,
    },
    AlgoSpec {
        name: "BFS",
        key: "bfs",
        aggregation: Aggregation::Max,
        linear: true,
        nonlinear: false,
        implemented: true,
        evaluated: false,
    },
    AlgoSpec {
        name: "Connected-Component",
        key: "wcc",
        aggregation: Aggregation::MinOrMax,
        linear: true,
        nonlinear: false,
        implemented: true,
        evaluated: true,
    },
    AlgoSpec {
        name: "Bellman-Ford",
        key: "sssp",
        aggregation: Aggregation::Min,
        linear: true,
        nonlinear: false,
        implemented: true,
        evaluated: true,
    },
    AlgoSpec {
        name: "Floyd-Warshall",
        key: "apsp",
        aggregation: Aggregation::Min,
        linear: false,
        nonlinear: true,
        implemented: true,
        evaluated: false,
    },
    AlgoSpec {
        name: "PageRank",
        key: "pr",
        aggregation: Aggregation::Sum,
        linear: true,
        nonlinear: false,
        implemented: true,
        evaluated: true,
    },
    AlgoSpec {
        name: "Random-Walk-with-Restart",
        key: "rwr",
        aggregation: Aggregation::Sum,
        linear: true,
        nonlinear: false,
        implemented: true,
        evaluated: false,
    },
    AlgoSpec {
        name: "SimRank",
        key: "simrank",
        aggregation: Aggregation::Sum,
        linear: true,
        nonlinear: false,
        implemented: true,
        evaluated: false,
    },
    AlgoSpec {
        name: "HITS",
        key: "hits",
        aggregation: Aggregation::Sum,
        linear: false,
        nonlinear: true,
        implemented: true,
        evaluated: true,
    },
    AlgoSpec {
        name: "TopoSort",
        key: "ts",
        aggregation: Aggregation::None,
        linear: false,
        nonlinear: true,
        implemented: true,
        evaluated: true,
    },
    AlgoSpec {
        name: "Keyword-Search",
        key: "ks",
        aggregation: Aggregation::Max,
        linear: true,
        nonlinear: false,
        implemented: true,
        evaluated: true,
    },
    AlgoSpec {
        name: "Label-Propagation",
        key: "lp",
        aggregation: Aggregation::Count,
        linear: true,
        nonlinear: false,
        implemented: true,
        evaluated: true,
    },
    AlgoSpec {
        name: "Maximal-Independent-Set",
        key: "mis",
        aggregation: Aggregation::MinOrMax,
        linear: false,
        nonlinear: true,
        implemented: true,
        evaluated: true,
    },
    AlgoSpec {
        name: "Maximal-Node-Matching",
        key: "mnm",
        aggregation: Aggregation::MinOrMax,
        linear: false,
        nonlinear: true,
        implemented: true,
        evaluated: true,
    },
    AlgoSpec {
        name: "Diameter-Estimation",
        key: "diam",
        aggregation: Aggregation::None,
        linear: true,
        nonlinear: false,
        implemented: true,
        evaluated: false,
    },
    AlgoSpec {
        name: "Markov-Clustering",
        key: "mcl",
        aggregation: Aggregation::Sum,
        linear: false,
        nonlinear: true,
        implemented: true,
        evaluated: false,
    },
    AlgoSpec {
        name: "K-core",
        key: "kc",
        aggregation: Aggregation::Count,
        linear: false,
        nonlinear: true,
        implemented: true,
        evaluated: true,
    },
    AlgoSpec {
        name: "K-truss",
        key: "ktruss",
        aggregation: Aggregation::Count,
        linear: false,
        nonlinear: true,
        implemented: true,
        evaluated: false,
    },
    AlgoSpec {
        name: "Graph-Bisimulation",
        key: "bisim",
        aggregation: Aggregation::Sum,
        linear: false,
        nonlinear: true,
        implemented: true,
        evaluated: false,
    },
];

/// An executor family the differential testkit can route an algorithm to.
///
/// `WithPlus` fans out further inside the harness: all three RDBMS
/// profiles (oracle/db2/postgres-like) × the parallelism knob {1, 2, 8}.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The with+ PSM interpreter (three profiles × parallelism settings).
    WithPlus,
    /// SQL'99 `WITH RECURSIVE` baseline, where Table 1 says it's legal.
    Sql99,
    /// PowerGraph-style vertex-centric/GAS stand-in.
    VertexCentric,
    /// Giraph-style BSP stand-in.
    Bsp,
    /// SociaLite-style datalog stand-in.
    Datalog,
    /// Textbook reference implementation (`aio_graph::reference` et al.).
    Oracle,
}

/// How strictly two executors' results must agree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tolerance {
    /// Integer / set-valued answers: results must be identical.
    Exact,
    /// Float-valued scores: absolute error ≤ `eps` per entry, and the
    /// descending-score order of the top `rank_top` entries must agree
    /// (ties broken by id).
    Epsilon { eps: f64, rank_top: usize },
    /// The answer family is non-unique (e.g. *a* maximal independent set);
    /// each result is checked against a property oracle instead of
    /// compared value-for-value, and only same-engine determinism is
    /// asserted across parallelism settings.
    PropertyOracle,
}

/// Per-algorithm differential-testing metadata: which executors can run it
/// and how closely they must agree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Equivalence {
    pub engines: &'static [Engine],
    pub tolerance: Tolerance,
}

impl Equivalence {
    pub fn supports(&self, e: Engine) -> bool {
        self.engines.contains(&e)
    }
}

use Engine::{Bsp, Datalog, Oracle, Sql99, VertexCentric, WithPlus};

const EPS_TIGHT: Tolerance = Tolerance::Epsilon {
    eps: 1e-9,
    rank_top: 0,
};
const EPS_RANKED: Tolerance = Tolerance::Epsilon {
    eps: 1e-7,
    rank_top: 5,
};

impl AlgoSpec {
    /// The differential matrix row for this algorithm. Every implemented
    /// algorithm at least runs on `WithPlus` (three profiles × parallelism);
    /// the extra engines are the ones whose semantics provably line up with
    /// the with+ formulation (Section 7's comparison set).
    pub fn equivalence(&self) -> Equivalence {
        let (engines, tolerance): (&'static [Engine], Tolerance) = match self.key {
            "tc" => (&[WithPlus, Sql99, Oracle], Tolerance::Exact),
            "bfs" => (&[WithPlus, Oracle], Tolerance::Exact),
            "wcc" => (
                &[WithPlus, VertexCentric, Bsp, Datalog, Oracle],
                Tolerance::Exact,
            ),
            "sssp" => (&[WithPlus, VertexCentric, Bsp, Datalog, Oracle], EPS_TIGHT),
            "apsp" => (&[WithPlus, Oracle], EPS_TIGHT),
            // SQL'99 PageRank is PostgreSQL-only (Fig. 9) and agrees with
            // with+ only on generation-stable graphs; the harness augments
            // the corpus graph accordingly before this comparison.
            "pr" => (
                &[WithPlus, Sql99, VertexCentric, Bsp, Datalog, Oracle],
                EPS_RANKED,
            ),
            "rwr" => (&[WithPlus, Oracle], EPS_RANKED),
            "simrank" => (&[WithPlus, Oracle], EPS_RANKED),
            "hits" => (&[WithPlus, Oracle], EPS_RANKED),
            "ts" => (&[WithPlus, Oracle], Tolerance::Exact),
            "kc" => (&[WithPlus, Oracle], Tolerance::Exact),
            "mis" | "mnm" => (&[WithPlus, Oracle], Tolerance::PropertyOracle),
            // remaining algorithms: differential across the three RDBMS
            // profiles × parallelism only (no independent second semantics)
            _ => (&[WithPlus], Tolerance::Exact),
        };
        Equivalence { engines, tolerance }
    }
}

/// The 10 algorithms of the Section 7 evaluation, in the paper's naming:
/// SSSP, WCC, PR, HITS, TS, KC, MIS, LP, MNM, KS.
pub fn evaluated() -> Vec<&'static AlgoSpec> {
    TABLE2.iter().filter(|a| a.evaluated).collect()
}

pub fn by_key(key: &str) -> Option<&'static AlgoSpec> {
    TABLE2.iter().find(|a| a.key.eq_ignore_ascii_case(key))
}

/// Render Table 2 (the `repro table2` output).
pub fn render_table2() -> String {
    let mut out = format!(
        "{:<28} {:>10} {:>7} {:>10} {:>12}\n",
        "Graph Algorithm", "Aggregation", "linear", "nonlinear", "implemented"
    );
    for a in TABLE2 {
        out.push_str(&format!(
            "{:<28} {:>10} {:>7} {:>10} {:>12}\n",
            a.name,
            a.aggregation.to_string(),
            if a.linear { "yes" } else { "" },
            if a.nonlinear { "yes" } else { "" },
            if a.implemented { "yes" } else { "no" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_rows_ten_evaluated() {
        assert_eq!(TABLE2.len(), 19);
        assert_eq!(evaluated().len(), 10);
    }

    #[test]
    fn lookup_by_key() {
        assert_eq!(by_key("PR").unwrap().name, "PageRank");
        assert!(by_key("nope").is_none());
    }

    #[test]
    fn table2_spot_checks() {
        let hits = by_key("hits").unwrap();
        assert!(hits.nonlinear && !hits.linear);
        assert_eq!(hits.aggregation, Aggregation::Sum);
        let bf = by_key("sssp").unwrap();
        assert!(bf.linear);
        assert_eq!(bf.aggregation, Aggregation::Min);
    }

    #[test]
    fn every_algorithm_has_a_differential_row() {
        for a in &TABLE2 {
            let eq = a.equivalence();
            assert!(
                eq.supports(Engine::WithPlus),
                "{}: with+ is the system under test",
                a.key
            );
            assert!(!eq.engines.is_empty());
        }
        // the three native stand-ins only implement PR / WCC / SSSP
        for e in [Engine::VertexCentric, Engine::Bsp, Engine::Datalog] {
            let keys: Vec<&str> = TABLE2
                .iter()
                .filter(|a| a.equivalence().supports(e))
                .map(|a| a.key)
                .collect();
            assert_eq!(keys, vec!["wcc", "sssp", "pr"], "{e:?}");
        }
        // float-scored algorithms never demand exact equality
        for key in ["pr", "rwr", "simrank", "hits", "sssp", "apsp"] {
            let t = by_key(key).unwrap().equivalence().tolerance;
            assert!(
                matches!(t, Tolerance::Epsilon { .. }),
                "{key} must use epsilon tolerance, got {t:?}"
            );
        }
        assert_eq!(
            by_key("mis").unwrap().equivalence().tolerance,
            Tolerance::PropertyOracle
        );
    }

    #[test]
    fn render_contains_all() {
        let t = render_table2();
        for a in TABLE2 {
            assert!(t.contains(a.name));
        }
    }
}
