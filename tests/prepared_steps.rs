//! A fixpoint's recursive steps are prepared once per run (DESIGN §10):
//! what evaluating a step derives from its plan and the catalog's schemas
//! is kept for the run and ends with it. Statements run again on one
//! database — untraced, traced, one after the other — must each see their
//! own run's tables: R after every iteration is the same, by bits, in every
//! run, and the same as under `Off`, which prepares nothing across
//! iterations that a cache could get wrong.

use all_in_one::algebra::{oracle_like, EngineProfile, ExecMode, Optimizer};
use all_in_one::algos::common::{db_for, EdgeStyle};
use all_in_one::algos::pagerank;
use all_in_one::graph::Graph;
use all_in_one::storage::{Relation, Value};
use all_in_one::withplus::{Database, QueryResult};

const SSSP: &str = "\
with D(ID, vw) as (
  (select V.ID, V.vw from V)
  union by update ID
  (select E.T, min(D.vw + E.ew) from D, E where D.ID = E.F group by E.T))
select * from D";

/// A 10 × 10 lattice, both directions of every link with weights in
/// `[1, 11)`, a zero-weight self-loop per vertex, and SSSP's seed in `V`:
/// 0 at vertex 0, `+∞` elsewhere. PageRank reads the same tables.
fn database(profile: &EngineProfile) -> Database {
    let side = 10u32;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
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
    let mut db = db_for(&g, profile, EdgeStyle::Raw).unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", g.node_count() as f64);
    db
}

type Bits = Vec<Vec<(u8, u64)>>;

/// A relation's rows by their bits, in order.
fn bits(rel: &Relation) -> Bits {
    let bits = |v: &Value| match v {
        Value::Int(i) => (1, *i as u64),
        Value::Float(f) => (2, f.to_bits()),
        other => panic!("no bits for {other:?}"),
    };
    rel.iter().map(|r| r.iter().map(bits).collect()).collect()
}

/// R after every iteration, by bits, in order.
fn iterations(out: &QueryResult) -> Vec<Bits> {
    out.stats.snapshots.iter().map(bits).collect()
}

/// [`iterations`] with each iteration's rows sorted: the folds of `Off`
/// and of the optimizer may order R's rows differently.
fn sorted(iterations: &[Bits]) -> Vec<Bits> {
    let sort = |rows: &Bits| {
        let mut rows = rows.clone();
        rows.sort();
        rows
    };
    iterations.iter().map(sort).collect()
}

#[test]
fn prepared_state_never_outlives_its_run() {
    let best = oracle_like()
        .with_optimizer(Optimizer::Cost)
        .with_exec(ExecMode::Batch)
        .with_parallelism(1)
        .with_snapshots(true);
    let off = oracle_like().with_snapshots(true);
    let pagerank = pagerank::sql(8);
    let statements = [SSSP, pagerank.as_str()];
    let mut reference = database(&off);
    let expected: Vec<_> = (statements.iter())
        .map(|sql| sorted(&iterations(&reference.execute(sql).unwrap())))
        .collect();
    let mut db = database(&best);
    let mut runs = Vec::new();
    for _ in 0..2 {
        for sql in statements {
            runs.push((sql, db.execute(sql).unwrap()));
        }
    }
    for sql in statements {
        runs.push((sql, db.explain_analyze(sql).unwrap().result));
    }
    for (k, (sql, out)) in runs.iter().enumerate() {
        let i = statements.iter().position(|s| s == sql).unwrap();
        assert!(expected[i].len() >= 8, "{sql}: too few iterations");
        // the same rows in the same order as the first run, and as `Off`
        assert_eq!(iterations(out), iterations(&runs[i].1), "run {k}: {sql}");
        assert_eq!(sorted(&iterations(out)), expected[i], "run {k}: {sql}");
        // SSSP switches from replace to improve at iteration 0, and the
        // frontier steps it then runs are prepared again
        assert_eq!(out.stats.delta_driven, *sql == SSSP, "run {k}: {sql}");
    }
}
