//! Shared plumbing for the algorithm library: database setup from graphs,
//! result decoding, and the self-loop device.
//!
//! **Self-loops.** The paper's Eqs. (5)–(7) update a node's value with an
//! aggregate over its in-neighbours only; on cyclic graphs a node's *own*
//! value must participate in the `⊕` or a flooded flag/label/distance can
//! be overwritten with a worse one. The standard fix — equivalent to adding
//! the identity matrix scaled by the semiring's `1` — is to include a
//! self-loop per node whose weight is the `⊙`-identity (1 for `(max, ×)` /
//! `(min, ×)`, 0 for `(min, +)`). `edge_relation_with_loops` provides it.

use aio_algebra::EngineProfile;
use aio_graph::{load, Graph};
use aio_storage::{row, FxHashMap, Relation, WalPolicy};
use aio_withplus::{Database, Result};

/// How edge weights should be loaded for an algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeStyle {
    /// Raw weights as stored in the graph.
    Raw,
    /// Raw weights plus a self-loop of the given weight per node.
    WithLoops(f64),
    /// Out-degree-normalized weights (`1/outdeg`) — the PageRank / RWR
    /// transition matrix.
    PageRank,
}

/// Build a database over `g` with `E(F,T,ew)`, `V(ID,vw)` and `L(ID,lbl)`.
pub fn db_for(g: &Graph, profile: &EngineProfile, style: EdgeStyle) -> Result<Database> {
    let e = match style {
        EdgeStyle::Raw => load::edge_relation(g),
        EdgeStyle::WithLoops(w) => {
            let mut e = load::edge_relation(g);
            e.extend((0..g.node_count()).map(|v| row![v as i64, v as i64, w]))?;
            e
        }
        EdgeStyle::PageRank => {
            let gw = aio_graph::reference::with_pagerank_weights(g);
            load::edge_relation(&gw)
        }
    };
    db_over(g, profile, e)
}

/// A database over `g` whose edge table is `e`, beside `V(ID,vw)` and
/// `L(ID,lbl)`.
pub fn db_over(g: &Graph, profile: &EngineProfile, e: Relation) -> Result<Database> {
    let mut db = Database::new(profile.clone());
    db.create_table("E", e)?;
    db.create_table("V", load::node_relation(g))?;
    db.create_table("L", load::label_relation(g))?;
    Ok(db)
}

/// Rewrite `V`'s weights in place, `weight(id)` for every node (BFS /
/// SSSP seeds): one patch of `V`, which drops its statistics like any
/// write.
pub fn set_node_weights(db: &mut Database, weight: impl Fn(i64) -> f64) -> Result<()> {
    let v = db.catalog.relation("V")?;
    let set = v.iter().enumerate().filter_map(|(i, r)| {
        let mut row = r.clone();
        row[1] = weight(r[0].as_int()?).into();
        Some((i, row))
    });
    let set = set.collect();
    db.catalog.patch_rows("V", set, Vec::new())?;
    Ok(())
}

/// Append every edge of `g` reversed to `E`: the undirected algorithms
/// over a directed graph.
pub fn add_reverse_edges(db: &mut Database, g: &Graph) -> Result<()> {
    let reversed = g.edges().map(|(u, v, w)| row![v as i64, u as i64, w]);
    db.catalog
        .insert_rows("E", reversed.collect(), WalPolicy::None)?;
    Ok(())
}

/// Decode a two-column `(ID, value)` relation into an id → f64 map.
pub fn node_f64_map(rel: &Relation) -> FxHashMap<i64, f64> {
    rel.iter()
        .filter_map(|r| Some((r[0].as_int()?, r[1].as_f64()?)))
        .collect()
}

/// Decode a two-column `(ID, value)` relation into an id → i64 map.
pub fn node_i64_map(rel: &Relation) -> FxHashMap<i64, i64> {
    rel.iter()
        .filter_map(|r| Some((r[0].as_int()?, r[1].as_f64()? as i64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::oracle_like;
    use aio_graph::{generate, GraphKind};

    #[test]
    fn db_setup_loads_three_tables() {
        let g = generate(GraphKind::Uniform, 10, 30, true, 1);
        let db = db_for(&g, &oracle_like(), EdgeStyle::Raw).unwrap();
        assert_eq!(db.catalog.relation("E").unwrap().len(), 30);
        assert_eq!(db.catalog.relation("V").unwrap().len(), 10);
        assert_eq!(db.catalog.relation("L").unwrap().len(), 10);
    }

    #[test]
    fn loops_add_n_edges() {
        let g = generate(GraphKind::Uniform, 10, 30, true, 1);
        let db = db_for(&g, &oracle_like(), EdgeStyle::WithLoops(0.0)).unwrap();
        assert_eq!(db.catalog.relation("E").unwrap().len(), 40);
    }

    #[test]
    fn pagerank_weights_normalize() {
        let g = generate(GraphKind::Uniform, 10, 30, true, 1);
        let db = db_for(&g, &oracle_like(), EdgeStyle::PageRank).unwrap();
        // out-weights of each node sum to 1
        let mut sums: FxHashMap<i64, f64> = FxHashMap::default();
        for r in db.catalog.relation("E").unwrap().iter() {
            *sums.entry(r[0].as_int().unwrap()).or_insert(0.0) += r[2].as_f64().unwrap();
        }
        for (_, s) in sums {
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn seed_weights() {
        let g = generate(GraphKind::Uniform, 5, 10, true, 1);
        let mut db = db_for(&g, &oracle_like(), EdgeStyle::Raw).unwrap();
        set_node_weights(&mut db, |id| if id == 2 { 9.5 } else { 0.0 }).unwrap();
        let v = db.catalog.relation("V").unwrap();
        let m = node_f64_map(v);
        assert_eq!((m[&2], m[&3]), (9.5, 0.0));
    }
}
