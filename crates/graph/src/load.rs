//! Graph ↔ relation loaders.
//!
//! Produces the paper's canonical relations (Section 4.3): the edge
//! relation `E(F, T, ew)` with primary key `(F, T)`, the node relation
//! `V(ID, vw)`, plus `L(ID, lbl)` for labelled algorithms.

use crate::graph::Graph;
use aio_storage::{edge_schema, node_schema, row, DataType, Relation, Schema};

/// `E(F, T, ew)`.
pub fn edge_relation(g: &Graph) -> Relation {
    let mut e = Relation::with_pk(edge_schema(), &["F", "T"]).expect("static schema");
    e.extend(g.edges().map(|(u, v, w)| row![u as i64, v as i64, w]))
        .expect("three columns");
    e
}

/// `V(ID, vw)` with the given node weights.
pub fn node_relation(g: &Graph) -> Relation {
    let mut v = Relation::with_pk(node_schema(), &["ID"]).expect("static schema");
    v.extend((0..g.node_count()).map(|id| row![id as i64, g.node_weights[id]]))
        .expect("two columns");
    v
}

/// `V(ID, vw)` with a constant weight (e.g. all-zero PageRank seed).
pub fn node_relation_const(g: &Graph, vw: f64) -> Relation {
    let mut v = Relation::with_pk(node_schema(), &["ID"]).expect("static schema");
    v.extend((0..g.node_count()).map(|id| row![id as i64, vw]))
        .expect("two columns");
    v
}

/// `L(ID, lbl)` — node labels as integers.
pub fn label_relation(g: &Graph) -> Relation {
    let schema = Schema::of(&[("ID", DataType::Int), ("lbl", DataType::Int)]);
    let mut l = Relation::with_pk(schema, &["ID"]).expect("static schema");
    l.extend((0..g.node_count()).map(|id| row![id as i64, g.labels[id] as i64]))
        .expect("two columns");
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GraphKind};

    #[test]
    fn edge_relation_roundtrips() {
        let g = generate(GraphKind::Uniform, 20, 60, true, 2);
        let e = edge_relation(&g);
        assert_eq!(e.len(), g.edge_count());
        assert_eq!(e.schema().index_of("ew").unwrap(), 2);
    }

    #[test]
    fn node_relations() {
        let g = generate(GraphKind::Uniform, 20, 60, true, 2);
        let v = node_relation(&g);
        assert_eq!(v.len(), 20);
        let v0 = node_relation_const(&g, 0.0);
        assert!(v0.iter().all(|r| r[1].as_f64() == Some(0.0)));
    }

    #[test]
    fn labels_match_graph() {
        let g = generate(GraphKind::Uniform, 20, 60, true, 2);
        let l = label_relation(&g);
        assert_eq!(l.len(), 20);
        for r in l.iter() {
            let id = r[0].as_int().unwrap() as usize;
            assert_eq!(r[1].as_int().unwrap(), g.labels[id] as i64);
        }
    }
}
