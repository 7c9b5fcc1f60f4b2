//! Live connected components: a durable WCC view fed insert batches while
//! a session keeps the pre-batch generation pinned. Every batch must
//! refresh on the frontier path — folding into the view's own table and
//! logging at most 200 bytes per delta edge — and copy, for the pinned
//! reader's sake, only the row chunks it writes (`E`'s tail and the view's
//! chunks whose labels changed, not all of `E`); the pinned read must keep
//! answering the old components. Halfway through the database
//! checkpoints, so the reopen loads a snapshot plus a WAL tail, and the
//! re-attached view must agree with a union-find over every edge (the
//! example fails otherwise). The whole scenario runs twice: under the
//! paper's row engine (`oracle_like()`), and under the cost optimizer with
//! batch execution, where every refresh batch-scans `E` through its
//! columnar image — an append keeps the image of the rows before it, so
//! the refresh transposes only the batch's rows — and, from the second
//! batch on, drives every frontier join through `E`'s adjacency on `F`,
//! which the append kept too: the join extends it over the batch's rows
//! and builds nothing from scratch (the trie-cache counters say so).
//!
//! ```sh
//! cargo run --release --example live_components
//! ```

use all_in_one::algebra::{ExecMode, Optimizer};
use all_in_one::prelude::*;
use all_in_one::storage::CHUNK_ROWS;
use all_in_one::withplus::RefreshMode;
use std::sync::Arc;

const WCC: &str = "with C(ID, vw) as (
    (select V.ID, 1.0 * V.ID from V)
    union by update ID
    (select E.T, min(C.vw * E.ew) from C, E where C.ID = E.F group by E.T))
  select * from C";

/// The smallest vertex id of every vertex's component, by union-find.
fn components(n: usize, edges: &[(u32, u32)]) -> Vec<f64> {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(p: &mut [u32], mut x: u32) -> u32 {
        while p[x as usize] != x {
            p[x as usize] = p[p[x as usize] as usize];
            x = p[x as usize];
        }
        x
    }
    for &(u, v) in edges {
        let (a, b) = (find(&mut parent, u), find(&mut parent, v));
        parent[a.max(b) as usize] = a.min(b);
    }
    (0..n as u32).map(|v| find(&mut parent, v) as f64).collect()
}

/// `(ID, label)` rows as a label per vertex.
fn labels(rel: &Relation, n: usize) -> Vec<f64> {
    let mut out = vec![f64::NAN; n];
    for r in rel.iter() {
        out[r[0].as_int().unwrap() as usize] = r[1].as_f64().unwrap();
    }
    out
}

fn main() {
    let best = oracle_like()
        .with_optimizer(Optimizer::Cost)
        .with_exec(ExecMode::Batch);
    for (name, profile) in [("row engine", oracle_like()), ("Cost + Batch", best)] {
        println!("== {name} ==");
        scenario(profile);
        println!();
    }
}

fn scenario(profile: EngineProfile) {
    let batch_mode = profile.exec == ExecMode::Batch;
    let (n, batches, per_batch) = (5_000usize, 8, 100);
    let g = generate(GraphKind::Uniform, n, n, false, 7);
    let mut edges: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).collect();

    // WCC reads both directions of every edge and a unit self-loop per
    // vertex; the durable log lives in memory (`SimVfs`)
    let vfs = Arc::new(SimVfs::new());
    let (mut db, _) = Database::open_with_vfs(vfs.clone(), "db", profile.clone(), None).unwrap();
    let both =
        |&(u, v): &(u32, u32)| [row![u as i64, v as i64, 1.0], row![v as i64, u as i64, 1.0]];
    let mut e = Relation::new(edge_schema());
    e.extend(edges.iter().flat_map(both)).unwrap();
    e.extend((0..n as i64).map(|v| row![v, v, 1.0])).unwrap();
    db.create_table("E", e).unwrap();
    let mut nodes = Relation::new(node_schema());
    nodes.extend((0..n as i64).map(|v| row![v, 0.0])).unwrap();
    db.create_table("V", nodes).unwrap();
    db.create_view("cc", WCC).unwrap();
    println!("{n} vertices, {} edges", edges.len());

    let shared = SharedDatabase::new(db);
    let mut reader = shared.session();
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut vertex = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % n as u64) as u32
    };
    for b in 0..batches {
        let before = components(n, &edges);
        let batch: Vec<(u32, u32)> = (0..per_batch).map(|_| (vertex(), vertex())).collect();
        let adds = batch.iter().flat_map(both).collect();
        reader.begin_read();
        let engine = &all_in_one::metrics::global().engine;
        let copied = engine.mvcc_cow_rows_total.get();
        let index = (
            engine.trie_cache_hits_total.get(),
            engine.trie_cache_misses_total.get(),
        );
        let (report, image) = shared.with_writer(|db| {
            db.apply_edges(vec![EdgeDelta::insert("E", adds)]).unwrap();
            let e = db.catalog.entry("E").unwrap();
            let image = e.image.cached().map(|b| (b.len(), e.rel.len()));
            (db.view_report("cc").unwrap().clone(), image)
        });
        let (hits, built) = (
            engine.trie_cache_hits_total.get() - index.0,
            engine.trie_cache_misses_total.get() - index.1,
        );
        if batch_mode {
            // the refresh batch-scanned `E`: its image covers every row
            let (len, rows) = image.expect("the refresh left E's image");
            assert_eq!(len, rows, "batch {b}: E's image is not the whole table");
            // one frontier join per iteration, each through the kept
            // adjacency: hits, and no build from scratch
            if b > 0 {
                assert_eq!(
                    (hits, built),
                    (report.iterations as u64, 0),
                    "batch {b}: not every frontier join went through E's kept index"
                );
            }
        }
        let copied = engine.mvcc_cow_rows_total.get() - copied;
        let chunks = 1 + report.changed.min(n.div_ceil(CHUNK_ROWS));
        assert!(
            copied <= (chunks * CHUNK_ROWS) as u64,
            "batch {b}: {copied} rows copied on write, more than {chunks} chunks"
        );
        let pinned = reader.query("select ID, vw from cc").unwrap().relation;
        assert_eq!(labels(&pinned, n), before, "the pinned read moved");
        reader.end_read();
        assert_eq!(report.mode, RefreshMode::Frontier, "batch {b}");
        let per_edge = report.wal_bytes as f64 / (2 * per_batch) as f64;
        assert!(
            per_edge <= 200.0,
            "batch {b}: {per_edge} WAL bytes per delta edge"
        );
        println!(
            "batch {b}: {:>4} labels changed in {} iterations, {:.2} ms, {:.0} WAL bytes per delta edge, {copied} rows copied on write, {hits} joins through a kept index, {built} built",
            report.changed,
            report.iterations,
            report.duration.as_secs_f64() * 1e3,
            per_edge
        );
        edges.extend(batch);
        if b == batches / 2 {
            let cp = shared.with_writer(|db| db.checkpoint()).unwrap();
            println!("checkpoint: snapshot.{} of {} bytes", cp.seq, cp.bytes);
        }
    }
    println!("\n{}", shared.with_writer(|db| db.show_view("cc").unwrap()));
    drop((reader, shared));

    // reopen: the view re-attaches to the table recovery rebuilt
    let img = Arc::new(vfs.crash_image(UnsyncedFate::DropAll));
    let (mut db, report) = Database::open_with_vfs(img, "db", profile, None).unwrap();
    assert!(
        report.snapshot_seq == 1 && report.wal_txns_applied > 0 && report.corrupt.is_none(),
        "{report}"
    );
    db.register_view("cc", WCC, 1e-9).unwrap();
    let got = labels(db.view_relation("cc").unwrap(), n);
    assert_eq!(
        got,
        components(n, &edges),
        "the reopened view is not the components"
    );
    println!("reopened: {n} labels agree with union-find");
}
