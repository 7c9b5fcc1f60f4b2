//! The chunked row store (DESIGN §20) against a `Vec<Row>` model.
//!
//! 1. Over random scripts of every mutation a `Relation` offers — push,
//!    extend, set, `remove_rows`, `dedup_rows`, truncate, retain,
//!    `iter_mut`, a round trip through `into_rows`, and clones taken
//!    mid-script and then written past — the rows equal the model after
//!    every step, the chunk invariant holds (every chunk full but the last,
//!    none empty), and every clone still holds the rows it was taken with.
//! 2. A 400-row append to a 100k-row table under a pinned `Session` copies
//!    at most one chunk of rows (`mvcc_cow_rows_total`), and the pinned
//!    reader still reads its own generation.

use all_in_one::metrics;
use all_in_one::prelude::*;
use all_in_one::storage::{Row, CHUNK_ROWS};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Mutex;

/// Both tests read or move the process-wide copy counter.
static COUNTER: Mutex<()> = Mutex::new(());

/// Keys repeat (every 50th), so removals and dedup find duplicates.
fn gen_row(x: usize) -> Row {
    let k = (x % 50) as i64;
    row![k, k as f64 / 2.0]
}

fn gen_rows(from: usize, n: usize) -> Vec<Row> {
    (from..from + n).map(gen_row).collect()
}

fn assert_matches(rel: &Relation, model: &[Row], ctx: &str) {
    assert_eq!(rel.len(), model.len(), "{ctx}: len");
    assert!(rel.rows() == model, "{ctx}: rows differ from the model");
    let sizes: Vec<usize> = rel.chunks().map(<[Row]>::len).collect();
    if let Some((last, full)) = sizes.split_last() {
        assert!(full.iter().all(|&n| n == CHUNK_ROWS), "{ctx}: {sizes:?}");
        assert!(*last > 0 && *last <= CHUNK_ROWS, "{ctx}: {sizes:?}");
    }
    if !model.is_empty() {
        let (lo, hi) = (model.len() / 3, model.len() - model.len() / 4);
        assert!(rel.rows().range(lo..hi) == model[lo..hi], "{ctx}: range");
        assert_eq!(rel[hi - 1], model[hi - 1], "{ctx}: index");
    }
}

/// The model of `Relation::remove_rows`: each victim removes its first
/// not yet removed occurrence.
fn remove_model(model: &mut Vec<Row>, victims: &[Row]) -> usize {
    let mut pending: HashMap<Row, usize> = HashMap::new();
    for v in victims {
        *pending.entry(v.clone()).or_insert(0) += 1;
    }
    let before = model.len();
    model.retain(|r| match pending.get_mut(r) {
        Some(c) if *c > 0 => {
            *c -= 1;
            false
        }
        _ => true,
    });
    before - model.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chunked_store_behaves_like_a_vec(
        start in 0usize..4_000,
        script in proptest::collection::vec((0u8..10, 0usize..4_096, 0usize..2_600), 1..24),
    ) {
        let _g = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let mut model = gen_rows(0, start);
        let mut rel = Relation::from_rows(node_schema(), model.clone()).unwrap();
        let mut clones = vec![(rel.clone(), model.clone())];
        for (i, &(op, a, b)) in script.iter().enumerate() {
            let ctx = format!("step {i} {:?}", (op, a, b));
            match op {
                0 => {
                    rel.push(gen_row(a)).unwrap();
                    model.push(gen_row(a));
                }
                1 => {
                    rel.extend(gen_rows(a, b)).unwrap();
                    model.extend(gen_rows(a, b));
                }
                2 if !model.is_empty() => {
                    let i = a % model.len();
                    let old = rel.set(i, gen_row(b));
                    prop_assert_eq!(&old, &model[i]);
                    model[i] = gen_row(b);
                }
                3 if !model.is_empty() => {
                    let at = a % model.len();
                    let mut victims = model[at..(at + b % 40).min(model.len())].to_vec();
                    victims.push(row![-1, 0.5]);
                    let removed = rel.remove_rows(&victims);
                    prop_assert_eq!(removed, remove_model(&mut model, &victims), "{}", ctx);
                }
                4 => {
                    rel.dedup_rows();
                    let mut seen = Vec::new();
                    model.retain(|r| {
                        let new = !seen.contains(r);
                        seen.push(r.clone());
                        new
                    });
                }
                5 => {
                    let len = a % (model.len() + 1);
                    rel.truncate(len);
                    model.truncate(len);
                }
                6 => {
                    let keep = |r: &Row| r[0].as_int().unwrap() as usize % 3 != a % 3;
                    rel.retain(keep);
                    model.retain(keep);
                }
                7 => {
                    rel = Relation::from_rows(node_schema(), rel.into_rows()).unwrap();
                }
                8 => {
                    // a clone, then writes past it in the original
                    clones.push((rel.clone(), model.clone()));
                    rel.push(gen_row(b)).unwrap();
                    model.push(gen_row(b));
                    if !model.is_empty() {
                        let i = a % model.len();
                        rel.set(i, gen_row(a));
                        model[i] = gen_row(a);
                    }
                }
                _ => {
                    let bump = |r: &mut [Value]| {
                        if r[0].as_int().unwrap() as usize % 4 == a % 4 {
                            r[1] = Value::Float(b as f64);
                        }
                    };
                    rel.iter_mut().for_each(bump);
                    model.iter_mut().for_each(|r| bump(r));
                }
            }
            assert_matches(&rel, &model, &ctx);
            for (k, (c, m)) in clones.iter().enumerate() {
                assert_matches(c, m, &format!("{ctx}: clone {k}"));
            }
        }
        let owned = rel.into_rows();
        prop_assert!(owned == model, "into_rows");
    }
}

#[test]
fn an_append_under_a_pinned_session_copies_one_chunk() {
    let _g = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let n = 100_000;
    let edge = |i: usize| row![i as i64, (i + 1) as i64, 1.0];
    let mut db = Database::new(oracle_like());
    let mut e = Relation::new(edge_schema());
    e.extend((0..n).map(edge)).unwrap();
    db.create_table("E", e).unwrap();
    let shared = SharedDatabase::new(db);
    let mut reader = shared.session();
    reader.begin_read();

    let copied = || metrics::global().engine.mvcc_cow_rows_total.get();
    let before = copied();
    shared.with_writer(|db| {
        let adds = (n..n + 400).map(edge).collect();
        db.apply_edges(vec![EdgeDelta::insert("E", adds)]).unwrap();
    });
    let rows = copied() - before;
    assert!(
        rows <= CHUNK_ROWS as u64,
        "a 400-row append copied {rows} rows"
    );
    assert_eq!(rows, (n % CHUNK_ROWS) as u64, "the tail chunk, once");

    let count = |out: QueryResult| out.relation[0][0].as_int();
    let sql = "select count(*) from E";
    assert_eq!(count(reader.query(sql).unwrap()), Some(n as i64), "pinned");
    reader.end_read();
    assert_eq!(
        count(reader.query(sql).unwrap()),
        Some(n as i64 + 400),
        "new"
    );
}
