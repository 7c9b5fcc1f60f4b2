//! Statistics are computed when read (DESIGN §10): a table keeps them or
//! not — creation, `analyze` and every row mutation decide which — and
//! its first read since its last write sketches them, off the columnar
//! image when one is complete, else off a transpose of the rows.
//!
//! 1. Creating a base table sketches nothing; the first read does, and the
//!    second returns the same sketch. A temp table keeps none until it is
//!    analyzed.
//! 2. Every row mutation kind drops them until the next `analyze`.
//! 3. A complete image is sketched without a transpose (counted in bytes
//!    allocated on the reading thread).
//! 4. A pinned snapshot keeps its own; recovery marks every base table.
//! 5. A `Cost` + `Batch` PageRank view, whose table is R, ends its build
//!    with R marked and not sketched: the loop writes no statistics.
//! 6. The columnar sketch equals a row-at-a-time oracle.
//! 7. A probe counts a hit when statistics are given, a miss when none.

use all_in_one::algebra::{oracle_like, ExecMode, Optimizer};
use all_in_one::algos::common::{db_for, EdgeStyle};
use all_in_one::algos::pagerank;
use all_in_one::metrics;
use all_in_one::storage::{
    edge_schema, node_schema, open_catalog, row, Batch, Catalog, Column, ColumnSketch, DataType,
    FxHashSet, Mutation, Relation, RelationStats, Schema, SimVfs, Value, WalPolicy,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the bytes each thread allocates, so one test's reads are
/// measured apart from the tests running beside it.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a const-initialized thread-local without a destructor, which
// allocates nothing and is skipped once the thread is torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        // SAFETY: the caller's layout contract is the system allocator's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes `f` allocates on this thread.
fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

/// What a table's statistics must be: a sketch of a fresh transpose.
fn fresh(rel: &Relation) -> RelationStats {
    RelationStats::of(&Batch::from_relation(rel))
}

/// `E` with `n` rows over few distinct values: a sketch's sets stay tiny
/// beside a transpose of the rows.
fn edges(n: i64) -> Relation {
    let mut e = Relation::new(edge_schema());
    e.extend((0..n).map(|i| row![i % 4, i % 3, 0.5])).unwrap();
    e
}

fn computed(c: &Catalog, t: &str) -> bool {
    c.entry(t).unwrap().stats.as_ref().unwrap().get().is_some()
}

#[test]
fn a_base_table_is_sketched_on_its_first_read_and_cached() {
    let mut c = Catalog::new();
    c.create_table("E", edges(10)).unwrap();
    assert!(!computed(&c, "E"), "creating a table sketches nothing");
    let first = c.stats("E").expect("a base table keeps statistics");
    assert_eq!(*first, fresh(c.relation("E").unwrap()));
    assert!(computed(&c, "E"));
    assert!(std::ptr::eq(first, c.stats("E").unwrap()), "cached");
    c.analyze("E").unwrap();
    assert!(
        computed(&c, "E"),
        "analyze keeps a sketch of unchanged rows"
    );
}

#[test]
fn a_temp_table_has_statistics_only_once_analyzed() {
    let mut c = Catalog::new();
    c.create_temp("T", edges(5)).unwrap();
    assert!(c.entry("T").unwrap().stats.is_none());
    assert!(c.stats("T").is_none());
    c.analyze("T").unwrap();
    assert!(!computed(&c, "T"), "analyze sketches nothing");
    assert_eq!(*c.stats("T").unwrap(), fresh(c.relation("T").unwrap()));
}

#[test]
fn every_row_mutation_drops_statistics_until_analyzed() {
    let r = |f: i64| row![f, 1i64, 2.0];
    let lanes = Batch::from_relation(&edges(2));
    let mutations: Vec<(&str, Mutation)> = vec![
        (
            "insert",
            Mutation::Insert {
                table: "E".into(),
                rows: vec![r(9)],
            },
        ),
        (
            "patch",
            Mutation::Patch {
                table: "E".into(),
                set: vec![(0, r(7))],
                append: vec![],
            },
        ),
        (
            "patch lanes",
            Mutation::PatchLanes {
                table: "E".into(),
                cols: lanes,
                set: vec![(1, 1)],
                append: vec![],
            },
        ),
        (
            "edge delta",
            Mutation::EdgeDelta {
                table: "E".into(),
                adds: vec![r(8)],
                dels: vec![row![1i64, 1i64, 0.5]],
            },
        ),
        ("truncate", Mutation::Truncate { table: "E".into() }),
        (
            "replace rows",
            Mutation::ReplaceRows {
                table: "E".into(),
                rel: edges(3),
            },
        ),
    ];
    for (kind, m) in mutations {
        let mut c = Catalog::new();
        c.create_table("E", edges(6)).unwrap();
        c.stats("E").unwrap();
        c.apply(m, WalPolicy::None).unwrap();
        assert!(c.stats("E").is_none(), "{kind}: statistics survived");
        c.analyze("E").unwrap();
        let rel = c.relation("E").unwrap();
        assert_eq!(*c.stats("E").unwrap(), fresh(rel), "{kind}");
    }
}

#[test]
fn a_complete_image_is_sketched_without_a_transpose() {
    const N: i64 = 20_000;
    let one_column = N as usize * std::mem::size_of::<i64>();
    let mut c = Catalog::new();
    c.create_table("E", edges(N)).unwrap();
    let rows_read = allocated_by(|| {
        c.stats("E").unwrap();
    });
    assert!(rows_read >= 3 * one_column, "{rows_read} B: no transpose");
    assert!(c.entry("E").unwrap().image.cached().is_none(), "not cached");

    c.insert_rows("E", vec![row![1i64, 1i64, 0.5]], WalPolicy::None)
        .unwrap();
    let image = Batch::from_relation(c.relation("E").unwrap());
    c.install_image("E", image).unwrap();
    c.analyze("E").unwrap();
    let image_read = allocated_by(|| {
        c.stats("E").unwrap();
    });
    assert!(image_read < one_column, "{image_read} B: transposed");
    assert_eq!(*c.stats("E").unwrap(), fresh(c.relation("E").unwrap()));
}

#[test]
fn a_pinned_snapshot_keeps_its_own_statistics() {
    let mut c = Catalog::new();
    c.create_table("T", Relation::new(edge_schema())).unwrap();
    c.insert_rows("T", vec![row![1, 2, 1.0], row![2, 3, 1.0]], WalPolicy::None)
        .unwrap();
    c.analyze("T").unwrap();
    let hub = c.enable_mvcc();
    let pin = hub.pin();
    let snap = pin.catalog().stats("T").unwrap().clone();
    assert_eq!(snap.rows, 2);

    c.insert_rows("T", vec![row![3, 4, 1.0]], WalPolicy::None)
        .unwrap();
    assert!(c.stats("T").is_none(), "writer statistics dropped");
    assert_eq!(*pin.catalog().stats("T").unwrap(), snap);
    c.analyze("T").unwrap();
    assert_eq!(c.stats("T").unwrap().rows, 3);
    assert_eq!(*pin.catalog().stats("T").unwrap(), snap, "not the writer's");
}

#[test]
fn base_tables_keep_statistics_after_recovery() {
    let vfs = Arc::new(SimVfs::new());
    let (mut cat, _) = open_catalog(vfs.clone(), "db", None).unwrap();
    cat.create_table("V", Relation::new(node_schema())).unwrap();
    cat.create_temp("W", Relation::new(node_schema())).unwrap();
    cat.insert_rows("V", vec![row![1, 0.5], row![2, 0.5]], WalPolicy::None)
        .unwrap();
    assert!(cat.stats("V").is_none(), "the insert dropped them");
    drop(cat);

    let (recovered, report) = open_catalog(vfs, "db", None).unwrap();
    assert_eq!(report.stats_recomputed, 1, "V, not the temp table");
    assert!(!computed(&recovered, "V"), "marked, not sketched");
    let stats = recovered.stats("V").expect("recovered with statistics");
    assert_eq!(stats.rows, 2);
    assert_eq!(stats.columns[0].ndv, 2);
    assert!(recovered.stats("W").is_none());
}

#[test]
fn a_pagerank_view_build_writes_no_statistics() {
    let g = all_in_one::graph::gen::power_law(300, 3_000, true, 53);
    let best = oracle_like()
        .with_optimizer(Optimizer::Cost)
        .with_exec(ExecMode::Batch);
    let mut db = db_for(&g, &best, EdgeStyle::PageRank).unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", g.node_count() as f64);
    db.create_view("pr", &pagerank::sql(10)).unwrap();
    assert_eq!(
        db.catalog.names(),
        ["e", "l", "pr", "v"],
        "the view's table is R"
    );
    assert!(!computed(&db.catalog, "pr"), "R marked, not sketched");
    let rel = db.catalog.relation("pr").unwrap();
    assert_eq!(*db.catalog.stats("pr").unwrap(), fresh(rel));
}

/// Row-at-a-time reference implementation of the sketch, kept as the
/// oracle for the columnar one.
fn row_stats(r: &Relation) -> RelationStats {
    let arity = r.schema().arity();
    let mut seen: Vec<FxHashSet<&Value>> = (0..arity).map(|_| Default::default()).collect();
    let mut columns: Vec<ColumnSketch> = (0..arity)
        .map(|_| ColumnSketch {
            ndv: 0,
            min: None,
            max: None,
            nulls: 0,
        })
        .collect();
    for row in r.iter() {
        for (i, v) in row.iter().enumerate() {
            if *v == Value::Null {
                columns[i].nulls += 1;
                continue;
            }
            seen[i].insert(v);
            let c = &mut columns[i];
            if c.min.as_ref().is_none_or(|m| v < m) {
                c.min = Some(v.clone());
            }
            if c.max.as_ref().is_none_or(|m| v > m) {
                c.max = Some(v.clone());
            }
        }
    }
    for (c, s) in columns.iter_mut().zip(&seen) {
        c.ndv = s.len();
    }
    RelationStats {
        rows: r.len(),
        columns,
    }
}

#[test]
fn columnar_sketch_matches_the_row_oracle() {
    let mut mixed = Relation::new(Schema::new(vec![
        Column::new("a", DataType::Any),
        Column::new("b", DataType::Any),
    ]));
    mixed.push(row![1, 1.5]).unwrap();
    mixed.push(row![Value::Null, "x"]).unwrap();
    mixed.push(row![3, Value::Null]).unwrap();
    mixed.push(row![-0.0, "x"]).unwrap();
    let mut typed = Relation::new(edge_schema());
    typed.push(row![1, 2, 0.5]).unwrap();
    typed.push(row![Value::Null, 2, -0.0]).unwrap();
    typed.push(row![1, 7, f64::NAN]).unwrap();
    typed.push(row![4, Value::Null, 0.0]).unwrap();
    for rel in [&mixed, &typed] {
        let (a, b) = (row_stats(rel), fresh(rel));
        assert_eq!(a.rows, b.rows);
        for i in 0..rel.schema().arity() {
            let (x, y) = (a.column(i).unwrap(), b.column(i).unwrap());
            assert_eq!(x.ndv, y.ndv, "col {i} ndv");
            assert_eq!(x.min, y.min, "col {i} min");
            assert_eq!(x.max, y.max, "col {i} max");
            assert_eq!(x.nulls, y.nulls, "col {i} nulls");
        }
    }
}

#[test]
fn a_probe_counts_a_hit_when_statistics_are_given() {
    metrics::set_enabled(true);
    let mut c = Catalog::new();
    c.create_table("E", edges(4)).unwrap();
    c.create_temp("T", edges(4)).unwrap();
    let before = metrics::local_counters();
    c.stats("E").unwrap(); // sketched now
    c.stats("E").unwrap(); // cached
    assert!(c.stats("T").is_none());
    let d = metrics::local_counters().delta_since(&before);
    assert_eq!((d.stats_hits, d.stats_misses), (2, 1));
}
