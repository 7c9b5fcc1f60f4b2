//! The nine datasets of Table 3 and their synthetic stand-ins.
//!
//! Published statistics are recorded verbatim; `DatasetSpec::synthesize`
//! produces a seeded graph whose node/edge counts are the published ones
//! multiplied by `scale`, generated to match the dataset's character
//! (directedness, heavy tail, DAG-ness). `scale = 1.0` reaches the
//! published sizes.

use crate::gen::{generate, GraphKind};
use crate::graph::Graph;

/// One row of Table 3.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Paper's short key (YT, LJ, OK, WV, TT, WG, WT, GP, PC).
    pub key: &'static str,
    pub name: &'static str,
    /// Published |V|.
    pub nodes: usize,
    /// Published |E|.
    pub edges: usize,
    pub directed: bool,
    pub diameter: u32,
    pub avg_degree: f64,
    pub kind: GraphKind,
}

/// Table 3, in the paper's order: 3 undirected graphs then 6 directed.
pub const DATASETS: [DatasetSpec; 9] = [
    DatasetSpec {
        key: "YT",
        name: "Youtube",
        nodes: 1_134_890,
        edges: 2_987_624,
        directed: false,
        diameter: 20,
        avg_degree: 5.27,
        kind: GraphKind::PowerLaw,
    },
    DatasetSpec {
        key: "LJ",
        name: "LiveJournal",
        nodes: 3_997_962,
        edges: 34_681_189,
        directed: false,
        diameter: 17,
        avg_degree: 17.35,
        kind: GraphKind::PowerLaw,
    },
    DatasetSpec {
        key: "OK",
        name: "Orkut",
        nodes: 3_072_441,
        edges: 117_185_083,
        directed: false,
        diameter: 9,
        avg_degree: 76.22,
        kind: GraphKind::PowerLaw,
    },
    DatasetSpec {
        key: "WV",
        name: "Wiki Vote",
        nodes: 7_115,
        edges: 103_689,
        directed: true,
        diameter: 7,
        avg_degree: 29.14,
        kind: GraphKind::PowerLaw,
    },
    DatasetSpec {
        key: "TT",
        name: "Twitter",
        nodes: 81_306,
        edges: 1_768_149,
        directed: true,
        diameter: 7,
        avg_degree: 51.69,
        kind: GraphKind::PowerLaw,
    },
    DatasetSpec {
        key: "WG",
        name: "Web Google",
        nodes: 875_713,
        edges: 5_105_039,
        directed: true,
        diameter: 21,
        avg_degree: 11.66,
        kind: GraphKind::PowerLaw,
    },
    DatasetSpec {
        key: "WT",
        name: "Wiki Talk",
        nodes: 2_394_385,
        edges: 5_021_410,
        directed: true,
        diameter: 9,
        avg_degree: 4.19,
        kind: GraphKind::PowerLaw,
    },
    DatasetSpec {
        key: "GP",
        name: "Google+",
        nodes: 107_614,
        edges: 13_673_453,
        directed: true,
        diameter: 6,
        avg_degree: 254.12,
        kind: GraphKind::PowerLaw,
    },
    DatasetSpec {
        key: "PC",
        name: "U.S. Patent Citation",
        nodes: 3_774_768,
        edges: 16_518_948,
        directed: true,
        diameter: 22,
        avg_degree: 8.75,
        kind: GraphKind::CitationDag,
    },
];

/// Floors that keep scaled stand-ins non-degenerate.
const MIN_NODES: usize = 64;
const MIN_EDGES: usize = 128;

impl DatasetSpec {
    pub fn by_key(key: &str) -> Option<&'static DatasetSpec> {
        DATASETS.iter().find(|d| d.key.eq_ignore_ascii_case(key))
    }

    /// The three undirected graphs of Fig. 7.
    pub fn undirected() -> Vec<&'static DatasetSpec> {
        DATASETS.iter().filter(|d| !d.directed).collect()
    }

    /// The six directed graphs of Fig. 8.
    pub fn directed() -> Vec<&'static DatasetSpec> {
        DATASETS.iter().filter(|d| d.directed).collect()
    }

    /// Scaled node/edge counts.
    pub fn scaled(&self, scale: f64) -> (usize, usize) {
        let n = ((self.nodes as f64 * scale) as usize).max(MIN_NODES);
        let m = ((self.edges as f64 * scale) as usize).max(MIN_EDGES);
        (n, m)
    }

    /// The seed `synthesize` uses: a stable hash of the dataset key, so a
    /// replay file can name it explicitly.
    pub fn default_seed(&self) -> u64 {
        self.key.bytes().fold(0xA1016u64, |acc, b| {
            acc.wrapping_mul(131).wrapping_add(b as u64)
        })
    }

    /// Generate the stand-in at `scale` (deterministic: the seed derives
    /// from the dataset key via [`default_seed`](Self::default_seed)).
    pub fn synthesize(&self, scale: f64) -> Graph {
        self.synthesize_seeded(scale, self.default_seed())
    }

    /// Generate the stand-in at `scale` from an explicit seed — the
    /// bit-reproducible entry point testkit replay files record.
    pub fn synthesize_seeded(&self, scale: f64, seed: u64) -> Graph {
        let (n, m) = self.scaled(scale);
        generate(self.kind, n, m, self.directed, seed)
    }

    /// The k used by the K-core experiment: "k is set to 10 for the dense
    /// graph Orkut and 5 for the others" (Section 7).
    pub fn kcore_k(&self) -> i64 {
        if self.key == "OK" {
            10
        } else {
            5
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape() {
        assert_eq!(DATASETS.len(), 9);
        assert_eq!(DatasetSpec::undirected().len(), 3);
        assert_eq!(DatasetSpec::directed().len(), 6);
        let pc = DatasetSpec::by_key("pc").unwrap();
        assert_eq!(pc.name, "U.S. Patent Citation");
        assert!(DatasetSpec::by_key("XX").is_none());
    }

    #[test]
    fn synthesized_sizes_track_scale() {
        let wv = DatasetSpec::by_key("WV").unwrap();
        let g = wv.synthesize(0.1);
        assert_eq!(g.node_count(), 711);
        assert_eq!(g.edge_count(), 10_368);
        // floors kick in at tiny scales
        let g = wv.synthesize(1e-9);
        assert!(g.node_count() >= MIN_NODES);
    }

    #[test]
    fn stand_in_matches_character() {
        let pc = DatasetSpec::by_key("PC").unwrap().synthesize(0.001);
        assert!(pc.is_dag(), "patent citations stand-in must be a DAG");
        let yt = DatasetSpec::by_key("YT").unwrap().synthesize(0.001);
        assert!(!yt.directed);
        // symmetrized: even edge count, both directions present
        let (u, v, _) = yt.edges().next().unwrap();
        assert!(yt.neighbors(v).contains(&u));
    }

    #[test]
    fn deterministic_per_key() {
        let a = DatasetSpec::by_key("TT").unwrap().synthesize(0.01);
        let b = DatasetSpec::by_key("TT").unwrap().synthesize(0.01);
        assert!(a.edges().zip(b.edges()).all(|(x, y)| x == y));
    }

    #[test]
    fn kcore_parameter() {
        assert_eq!(DatasetSpec::by_key("OK").unwrap().kcore_k(), 10);
        assert_eq!(DatasetSpec::by_key("YT").unwrap().kcore_k(), 5);
    }
}
