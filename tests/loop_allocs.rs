//! Counted work per steady fixpoint iteration: the heap allocations one
//! iteration of SSSP and of PageRank makes under `Cost` + `Batch` at one
//! thread, the benchmark's best profile. A steady iteration is the
//! difference between two runs of one statement that differ only in their
//! `maxrecursion` cap, divided by the iterations between the caps: what
//! the run does once (compile, init, final query, drop) cancels.
//!
//! Allocation counts repeat exactly from run to run, so these bounds hold
//! on any machine and do not move with timing noise or code layout; they
//! do differ between the debug and the release build (`debug_assertions`
//! check more), which is why each bound names both. CI runs this file in
//! both builds.

use all_in_one::algebra::{oracle_like, EngineProfile, ExecMode, Optimizer};
use all_in_one::algos::common::{db_for, EdgeStyle};
use all_in_one::algos::pagerank;
use all_in_one::graph::Graph;
use all_in_one::withplus::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations (and reallocations)
/// made on each thread: tests running in parallel in this binary count
/// only their own.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn best() -> EngineProfile {
    oracle_like()
        .with_optimizer(Optimizer::Cost)
        .with_exec(ExecMode::Batch)
        .with_parallelism(1)
}

/// Allocations per iteration between a run capped at `lo` and one capped
/// at `hi` iterations, after one warm-up run (the catalog's caches, the
/// statistics and the join index rent settle in it).
fn per_iteration(db: &mut Database, sql: impl Fn(usize) -> String, lo: usize, hi: usize) -> u64 {
    let mut run = |cap: usize| {
        let before = allocs();
        let out = db.execute(&sql(cap)).unwrap();
        let n = allocs() - before;
        assert_eq!(out.stats.iterations.len(), cap, "{}", sql(cap));
        n
    };
    run(hi);
    let (a, b) = (run(lo), run(hi));
    (b - a) / (hi - lo) as u64
}

/// A `side × side` 4-neighbour lattice, both directions of every link
/// with their own integer weight in `[1, 11)`, one zero-weight self-loop
/// per vertex, and SSSP's seed: distance 0 at vertex 0, `+∞` elsewhere.
fn lattice(side: u32) -> Graph {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut weight = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (1 + x % 10) as f64
    };
    let mut edges = Vec::new();
    for v in 0..side * side {
        edges.push((v, v, 0.0));
        let right = (v % side + 1 < side).then_some(v + 1);
        let down = (v + side < side * side).then_some(v + side);
        for to in right.into_iter().chain(down) {
            edges.extend([(v, to, weight()), (to, v, weight())]);
        }
    }
    let mut g = Graph::from_edges((side * side) as usize, &edges, true);
    g.node_weights = (0..side * side)
        .map(|v| if v == 0 { 0.0 } else { f64::INFINITY })
        .collect();
    g
}

fn sssp_sql(cap: usize) -> String {
    format!(
        "with D(ID, vw) as (
           (select V.ID, V.vw from V)
           union by update ID
           (select E.T, min(D.vw + E.ew) from D, E where D.ID = E.F group by E.T)
           maxrecursion {cap})
         select * from D"
    )
}

/// Before each recursive step was prepared once per run, a steady SSSP
/// iteration made 237 allocations in the debug build and 197 in the
/// release build; preparing must take a third of them off.
const SSSP_PARENT: u64 = if cfg!(debug_assertions) { 237 } else { 197 };

#[test]
fn sssp_steady_iteration_allocations() {
    let mut db = db_for(&lattice(32), &best(), EdgeStyle::Raw).unwrap();
    let n = per_iteration(&mut db, sssp_sql, 20, 40);
    eprintln!("sssp: {n} allocations per steady iteration");
    assert!(
        n * 100 <= SSSP_PARENT * 65,
        "{n} allocations per steady SSSP iteration, more than 0.65 × {SSSP_PARENT}"
    );
}

/// Before each recursive step was prepared once per run, a PageRank
/// iteration made 191 allocations in the debug build and 151 in the
/// release build; preparing must add none.
const PAGERANK_PARENT: u64 = if cfg!(debug_assertions) { 191 } else { 151 };

#[test]
fn pagerank_iteration_allocations() {
    let g = all_in_one::graph::gen::power_law(300, 2400, true, 53);
    let mut db = db_for(&g, &best(), EdgeStyle::PageRank).unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", g.node_count() as f64);
    let n = per_iteration(&mut db, pagerank::sql, 5, 10);
    eprintln!("pagerank: {n} allocations per iteration");
    assert!(
        n <= PAGERANK_PARENT,
        "{n} allocations per PageRank iteration, more than {PAGERANK_PARENT}"
    );
}
