//! Differential tests for the self-queryable metrics system relations:
//! `SELECT`/with+ over `aio_metrics` and `aio_query_log` must agree
//! row-for-row with the [`MetricsRegistry`] the engine itself maintains,
//! across parallelism {1, 8} × execution mode {row, batch} — and the
//! query log must contain the queries the engine just ran (the engine
//! observing itself through its own SQL surface).
//!
//! Everything here touches the process-global registry and enable flag, so
//! every test serializes on one mutex; the queries whose reports we assert
//! on run on this thread, and per-query attribution is thread-local, so
//! parallel *other* test binaries cannot perturb the deltas.
//!
//! [`MetricsRegistry`]: all_in_one::metrics::MetricsRegistry

use all_in_one::algebra::ExecMode;
use all_in_one::metrics;
use all_in_one::prelude::*;
use std::sync::Mutex;

static GATE: Mutex<()> = Mutex::new(());

/// A small two-table database: E(F, T, ew) path graph + V(ID, vw).
fn db(par: usize, exec: ExecMode) -> Database {
    let mut db = Database::new(oracle_like().with_parallelism(par));
    db.set_exec_mode(exec);
    let mut e = Relation::new(edge_schema());
    e.extend([
        row![1, 2, 1.0],
        row![2, 3, 1.0],
        row![3, 4, 1.0],
        row![1, 3, 1.0],
    ])
    .unwrap();
    db.create_table("E", e).unwrap();
    let mut v = Relation::new(node_schema());
    v.extend([row![1, 0.0], row![2, 0.0], row![3, 0.0], row![4, 0.0]])
        .unwrap();
    db.create_table("V", v).unwrap();
    db
}

const CONFIGS: [(usize, ExecMode); 4] = [
    (1, ExecMode::Row),
    (1, ExecMode::Batch),
    (8, ExecMode::Row),
    (8, ExecMode::Batch),
];

#[test]
fn select_over_aio_metrics_matches_registry_snapshot() {
    let _g = GATE.lock().unwrap();
    metrics::set_enabled(true);
    for (par, exec) in CONFIGS {
        let mut db = db(par, exec);
        // move some counters first so the table is not all zeros
        db.execute("select E.F, V.vw from E, V where E.T = V.ID")
            .unwrap();

        // Snapshot immediately before the SELECT: `execute` materializes
        // `aio_metrics` from the registry before running, and nothing on
        // this thread mutates the registry in between.
        let snap = metrics::global().snapshot();
        let out = db.execute("select * from aio_metrics").unwrap();
        assert_eq!(
            out.relation.len(),
            snap.len(),
            "par={par} exec={exec:?}: one row per sample"
        );
        let mut nonzero = 0;
        for (r, s) in out.relation.rows().iter().zip(&snap) {
            assert_eq!(r[0].to_string(), s.name, "name column");
            assert_eq!(r[1].to_string(), s.kind, "kind column");
            assert_eq!(
                r[2].as_f64().unwrap().to_bits(),
                s.value.to_bits(),
                "value column"
            );
            assert_eq!(r[3].to_string(), s.help, "help column");
            if s.value > 0.0 {
                nonzero += 1;
            }
        }
        assert!(nonzero > 0, "the workload moved at least one metric");
    }
}

#[test]
fn select_over_aio_query_log_matches_registry_log() {
    let _g = GATE.lock().unwrap();
    metrics::set_enabled(true);
    for (par, exec) in CONFIGS {
        metrics::global().clear_query_log();
        let mut db = db(par, exec);
        db.execute("select E.F, E.T from E where E.F = 1").unwrap();
        db.execute(
            "with TC(F, T) as (\
               (select E.F, E.T from E)\
               union\
               (select TC.F, E.T from TC, E where TC.T = E.F))\
             select * from TC",
        )
        .unwrap();

        let log = metrics::global().query_log();
        assert_eq!(log.len(), 2, "both statements were recorded");
        let out = db.execute("select * from aio_query_log").unwrap();
        assert_eq!(out.relation.len(), log.len(), "par={par} exec={exec:?}");
        for (r, q) in out.relation.rows().iter().zip(&log) {
            assert_eq!(r[0].as_int().unwrap(), q.seq as i64, "seq");
            assert_eq!(r[1].to_string(), format!("{:016x}", q.sql_hash), "sql_hash");
            assert_eq!(r[2].to_string(), q.sql, "sql");
            assert_eq!(r[4].as_int().unwrap(), q.rows_out as i64, "rows_out");
            assert_eq!(
                r[5].as_int().unwrap(),
                q.rows_scanned as i64,
                "rows_scanned"
            );
            assert_eq!(r[6].as_int().unwrap(), q.iterations as i64, "iterations");
            assert_eq!(r[7].as_int().unwrap(), q.peak_mem_bytes as i64, "peak_mem");
            assert_eq!(
                r[8].as_int().unwrap(),
                q.cache.trie_hits as i64,
                "trie_hits"
            );
            assert_eq!(r[14].as_int().unwrap(), q.par as i64, "par");
            assert_eq!(r[15].to_string(), q.exec, "exec");
            assert_eq!(r[16].to_string(), q.optimizer, "optimizer");
        }
        // knobs round-trip through the log
        let last = log.last().unwrap();
        assert_eq!(last.par as usize, par);
        assert_eq!(last.exec, exec.label());
        assert!(last.iterations >= 2, "with+ ran a fixpoint");
        assert!(last.rows_out == 6, "TC of the 4-path has 6 pairs");
    }
}

#[test]
fn engine_sees_its_own_just_run_queries() {
    let _g = GATE.lock().unwrap();
    metrics::set_enabled(true);
    metrics::global().clear_query_log();
    let mut db = db(1, ExecMode::Row);
    db.execute("select E.F, E.T from E where E.T = 4").unwrap();

    // The acceptance check: the engine queries its own log with SQL and
    // finds the statement it just executed.
    let out = db
        .execute("select aio_query_log.sql, aio_query_log.rows_out from aio_query_log")
        .unwrap();
    assert_eq!(out.relation.len(), 1);
    let row = &out.relation.rows()[0];
    assert!(
        row[0].to_string().contains("where E.T = 4"),
        "log row carries the SQL text: {row:?}"
    );
    assert_eq!(row[1].as_int(), Some(1), "one edge ends at 4");

    // The self-query itself lands in the log for the *next* reader.
    let out2 = db
        .execute("select aio_query_log.sql from aio_query_log")
        .unwrap();
    assert_eq!(out2.relation.len(), 2);
    assert!(out2.relation.rows()[1][0]
        .to_string()
        .contains("from aio_query_log"));
}

#[test]
fn with_plus_reads_system_tables_too() {
    let _g = GATE.lock().unwrap();
    metrics::set_enabled(true);
    let mut db = db(1, ExecMode::Row);
    db.execute("select E.F from E").unwrap();

    let snap = metrics::global().snapshot();
    // A converging with+ over the metrics table: the recursive subquery
    // re-derives the same rows, so union reaches its fixpoint after one
    // productive iteration. Metric names are unique, so |M| = |snapshot|.
    let out = db
        .execute(
            "with M(name, value) as (\
               (select aio_metrics.name, aio_metrics.value from aio_metrics)\
               union\
               (select M.name, M.value from M))\
             select * from M",
        )
        .unwrap();
    assert_eq!(out.relation.len(), snap.len());
}

#[test]
fn disabled_metrics_record_nothing() {
    let _g = GATE.lock().unwrap();
    metrics::set_enabled(true);
    metrics::global().clear_query_log();
    let mut db = db(1, ExecMode::Row);
    metrics::set_enabled(false);
    let off = db.execute("select E.F from E").unwrap();
    assert!(
        metrics::global().query_log().is_empty(),
        "disabled: no reports"
    );
    metrics::set_enabled(true);
    db.execute("select E.T from E").unwrap();
    let log = metrics::global().query_log();
    assert_eq!(log.len(), 1, "re-enabled: reports flow again");
    assert!(log[0].sql.contains("select E.T"));
    // the switch changes what is recorded, never what is returned
    let on = db.execute("select E.F from E").unwrap();
    assert_eq!(on.relation.rows(), off.relation.rows());
}
