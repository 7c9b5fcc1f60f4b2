//! Reading real edge lists — the SNAP text format the paper's datasets
//! ship in (`# comment` lines, then `u<TAB|SPACE>v[<TAB|SPACE>w]` per
//! line). A library loader, for when the real datasets are in the
//! repository: the reproduction harness and the benchmark run on the
//! generated stand-ins (`datasets`) and call nothing here.

use crate::graph::Graph;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Errors while reading an edge list.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    Parse { line: usize, text: String },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "{e}"),
            IoError::Parse { line, text } => write!(f, "bad edge on line {line}: {text}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parse a SNAP-style edge list from any reader. Node ids are re-mapped
/// densely (SNAP ids are sparse); an optional third column is the edge
/// weight (default 1.0).
pub fn read_edge_list<R: Read>(reader: R, directed: bool) -> Result<Graph, IoError> {
    let mut ids: HashMap<u64, u32> = HashMap::new();
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let intern = |raw: u64, ids: &mut HashMap<u64, u32>| -> u32 {
        let next = ids.len() as u32;
        *ids.entry(raw).or_insert(next)
    };
    for (no, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
            return Err(IoError::Parse {
                line: no + 1,
                text: t.to_string(),
            });
        };
        let (Ok(u), Ok(v)) = (a.parse::<u64>(), b.parse::<u64>()) else {
            return Err(IoError::Parse {
                line: no + 1,
                text: t.to_string(),
            });
        };
        let w = match parts.next() {
            Some(x) => x.parse::<f64>().map_err(|_| IoError::Parse {
                line: no + 1,
                text: t.to_string(),
            })?,
            None => 1.0,
        };
        let (su, sv) = (intern(u, &mut ids), intern(v, &mut ids));
        edges.push((su, sv, w));
    }
    Ok(Graph::from_edges(ids.len(), &edges, directed))
}

/// Read an edge-list file.
pub fn read_edge_list_file(path: impl AsRef<Path>, directed: bool) -> Result<Graph, IoError> {
    let f = std::fs::File::open(path)?;
    read_edge_list(f, directed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# Directed graph: toy
# FromNodeId  ToNodeId
0\t99
99\t7
7 0
0 7 2.5
";

    #[test]
    fn parses_snap_format() {
        let g = read_edge_list(SAMPLE.as_bytes(), true).unwrap();
        assert_eq!(g.node_count(), 3, "sparse ids densified");
        assert_eq!(g.edge_count(), 4);
        // weighted edge survives
        assert!(g.edges().any(|(_, _, w)| w == 2.5));
    }

    #[test]
    fn undirected_symmetrizes() {
        let g = read_edge_list("1 2\n2 3\n".as_bytes(), false).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert!(!g.directed);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let g = read_edge_list("\n# c\n% m\n5 6\n".as_bytes(), true).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn bad_lines_error_with_position() {
        let err = read_edge_list("1 2\nnot an edge\n".as_bytes(), true).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn file_roundtrip() {
        let path = std::env::temp_dir().join("aio_io_test_edges.txt");
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let g = read_edge_list_file(&path, true).unwrap();
        assert_eq!(g.node_count(), 3);
        assert!(!g.is_dag());
        let _ = std::fs::remove_file(&path);
    }
}
