//! The experiments of Section 7 and the appendix, one function per paper
//! table/figure. Each returns its report as text (the `repro` binary
//! prints it and EXPERIMENTS.md records it).

use crate::runner::{run_algo, AlgoRun, FIG7_ALGOS, FIG8_ALGOS, FIXED_ITERS};
use crate::{ms, TextTable};
use aio_algebra::ops::{AntiJoinImpl, UbuImpl};
use aio_algebra::{all_profiles, oracle_like, postgres_like, EngineProfile, ExecMode, Optimizer};
use aio_algos as algos;
use aio_algos::common::{db_for, EdgeStyle};
use aio_graph::engines::{Bsp, DatalogEngine, VertexCentric};
use aio_graph::{reference, DatasetSpec, DATASETS};
use aio_withplus::sql99::FeatureMatrix;
use aio_withplus::Result;
use std::time::{Duration, Instant};

/// One entry of [`EXPERIMENTS`].
pub struct Experiment {
    pub name: &'static str,
    /// Other spellings `repro` accepts for the same experiment.
    pub aliases: &'static [&'static str],
    /// Whether `repro all` (the default) runs it.
    pub in_all: bool,
    /// Dataset scale factor in, text report out.
    pub run: fn(f64) -> String,
}

/// Every experiment `repro` can run, in the order `repro all` runs them.
/// Dispatch, `all` and `--help` all read this table; a name missing here
/// is an error, not a skipped line.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        aliases: &[],
        in_all: true,
        run: |_| table1(),
    },
    Experiment {
        name: "table2",
        aliases: &[],
        in_all: true,
        run: |_| table2(),
    },
    Experiment {
        name: "table3",
        aliases: &[],
        in_all: true,
        run: table3,
    },
    Experiment {
        name: "table4_5",
        aliases: &["table4", "table5"],
        in_all: true,
        run: table4_5,
    },
    Experiment {
        name: "table6_7",
        aliases: &["table6", "table7"],
        in_all: true,
        run: table6_7,
    },
    // Tables 4–7 in one report; `all` already runs both halves
    Experiment {
        name: "exp1",
        aliases: &[],
        in_all: false,
        run: exp1,
    },
    Experiment {
        name: "fig7",
        aliases: &[],
        in_all: true,
        run: fig7,
    },
    Experiment {
        name: "fig8",
        aliases: &[],
        in_all: true,
        run: fig8,
    },
    Experiment {
        name: "fig10",
        aliases: &[],
        in_all: true,
        run: fig10,
    },
    Experiment {
        name: "fig11",
        aliases: &[],
        in_all: true,
        run: fig11,
    },
    Experiment {
        name: "fig12",
        aliases: &[],
        in_all: true,
        run: fig12,
    },
    Experiment {
        name: "fig13",
        aliases: &[],
        in_all: true,
        run: fig13,
    },
];

/// The experiment called `name` (or aliased to it), if there is one.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name || e.aliases.contains(&name))
}

/// Table 1: the with-clause feature matrix.
pub fn table1() -> String {
    format!(
        "Table 1 — The with Clause Supported by RDBMSs (emulated)\n\n{}",
        FeatureMatrix::render()
    )
}

/// Table 2: the algorithm catalogue.
pub fn table2() -> String {
    format!(
        "Table 2 — Graph Algorithms\n\n{}",
        algos::registry::render_table2()
    )
}

/// Table 3: the datasets and their synthesized stand-ins at `scale`.
pub fn table3(scale: f64) -> String {
    let mut t = TextTable::new(vec![
        "Graph",
        "|V| (paper)",
        "|E| (paper)",
        "Diam",
        "AvgDeg",
        "|V| (synth)",
        "|E| (synth)",
    ]);
    for d in &DATASETS {
        let (n, m) = d.scaled(scale);
        t.row(vec![
            format!("{} ({})", d.name, d.key),
            d.nodes.to_string(),
            d.edges.to_string(),
            d.diameter.to_string(),
            format!("{:.2}", d.avg_degree),
            n.to_string(),
            m.to_string(),
        ]);
    }
    format!(
        "Table 3 — The Real Datasets (synthesized at scale {scale})\n\n{}",
        t.render()
    )
}

/// Tables 4 & 5: the four union-by-update implementations, measured by
/// running PageRank for 15 iterations on the Web Google and U.S. Patent
/// Citation stand-ins under each system that supports the spelling.
pub fn table4_5(scale: f64) -> String {
    let mut out = String::new();
    for key in ["WG", "PC"] {
        let spec = DatasetSpec::by_key(key).unwrap();
        let g = spec.synthesize(scale);
        let mut t = TextTable::new(vec!["Time (ms)", "Oracle", "DB2", "PostgreSQL"]);
        for imp in UbuImpl::ALL {
            let mut cells = vec![imp.name().to_string()];
            for profile in all_profiles() {
                if !imp.supported_by(profile.name) {
                    cells.push("-".to_string());
                    continue;
                }
                let elapsed = (|| -> Result<_> {
                    let mut db = db_for(&g, &profile, EdgeStyle::PageRank)?;
                    db.ubu_impl = imp;
                    db.set_param("c", 0.85);
                    db.set_param("n", g.node_count() as f64);
                    let out = db.execute(&algos::pagerank::sql(FIXED_ITERS))?;
                    Ok(out.stats.elapsed)
                })();
                cells.push(match elapsed {
                    Ok(d) => ms(d),
                    Err(e) => format!("err: {e}"),
                });
            }
            t.row(cells);
        }
        out.push_str(&format!(
            "Table {} — union-by-update in {} (PR, {} iterations)\n\n{}\n",
            if key == "WG" { 4 } else { 5 },
            spec.name,
            FIXED_ITERS,
            t.render()
        ));
    }
    out.push_str(
        "Expected shape (paper): full outer join ≈ drop/alter < merge; update from ≈ full outer join.\n",
    );
    out
}

/// Tables 6 & 7: the three anti-join implementations, measured by running
/// TopoSort on the Web Google and U.S. Patent Citation stand-ins.
///
/// Web Google is cyclic, so (as in any RDBMS) the anti-join still peels the
/// acyclic prefix and terminates when no level is removable.
pub fn table6_7(scale: f64) -> String {
    let mut out = String::new();
    for key in ["WG", "PC"] {
        let spec = DatasetSpec::by_key(key).unwrap();
        let g = spec.synthesize(scale);
        let mut t = TextTable::new(vec!["Time (ms)", "Oracle", "DB2", "PostgreSQL"]);
        for imp in AntiJoinImpl::ALL {
            let mut cells = vec![imp.name().to_string()];
            for profile in all_profiles() {
                let elapsed = (|| -> Result<_> {
                    let mut db = db_for(&g, &profile, EdgeStyle::Raw)?;
                    db.anti_impl = imp;
                    let out = db.execute(algos::toposort::SQL)?;
                    Ok(out.stats.elapsed)
                })();
                cells.push(match elapsed {
                    Ok(d) => ms(d),
                    Err(e) => format!("err: {e}"),
                });
            }
            t.row(cells);
        }
        out.push_str(&format!(
            "Table {} — anti-join in {} (TopoSort)\n\n{}\n",
            if key == "WG" { 6 } else { 7 },
            spec.name,
            t.render()
        ));
    }
    out.push_str(
        "Expected shape (paper): not exists ≈ left outer join ≤ not in (marginal differences).\n",
    );
    out
}

fn fig_runs(specs: &[&'static DatasetSpec], algo_keys: &[&str], scale: f64) -> String {
    let mut out = String::new();
    for spec in specs {
        let g = spec.synthesize(scale);
        let mut t = TextTable::new(vec![
            "Algorithm",
            "Oracle (ms)",
            "DB2 (ms)",
            "PostgreSQL (ms)",
            "iters",
        ]);
        for key in algo_keys {
            let mut cells: Vec<String> = Vec::new();
            let mut iters = 0usize;
            let mut name = key.to_string();
            for profile in all_profiles() {
                match run_algo(key, &g, spec, &profile) {
                    Ok(run) => {
                        name = run.algo.to_string();
                        iters = run.iterations;
                        cells.push(ms(run.elapsed));
                    }
                    Err(e) => cells.push(format!("err: {e}")),
                }
            }
            let mut row = vec![name];
            row.extend(cells);
            row.push(iters.to_string());
            t.row(row);
        }
        out.push_str(&format!(
            "{} ({}): |V| = {}, |E| = {}\n\n{}\n",
            spec.name,
            spec.key,
            g.node_count(),
            g.edge_count(),
            t.render()
        ));
    }
    out
}

/// Fig. 7: the 9 algorithms (no TopoSort) over the 3 undirected graphs,
/// across the 3 profiles.
pub fn fig7(scale: f64) -> String {
    format!(
        "Figure 7 — Testing 9 Graph Algorithms over 3 Undirected Graphs\n\n{}\
Expected shape (paper): oracle ≤ db2 ≤ postgres; HITS ≫ PR.\n",
        fig_runs(&DatasetSpec::undirected(), &FIG7_ALGOS, scale)
    )
}

/// Fig. 8: all 10 algorithms over the 6 directed graphs.
pub fn fig8(scale: f64) -> String {
    format!(
        "Figure 8 — Testing 10 Graph Algorithms over 6 Directed Graphs\n\n{}\
Expected shape (paper): oracle ≤ db2 ≤ postgres; MNM iteration counts vary widely per graph.\n",
        fig_runs(&DatasetSpec::directed(), &FIG8_ALGOS, scale)
    )
}

/// Runs per Fig. 10 configuration. One run of a cell swings by ±30 %
/// between runs of one build, wider than the 10–50 % effect the figure
/// shows; the fastest of three alternating runs does not.
const FIG10_RUNS: usize = 3;

/// The faster of two runs of one configuration; an error wins.
fn faster(a: Result<AlgoRun>, b: Result<AlgoRun>) -> Result<AlgoRun> {
    let (a, b) = (a?, b?);
    Ok(if b.elapsed < a.elapsed { b } else { a })
}

/// Fig. 10 (Exp-A): indexing effectiveness in the PostgreSQL profile over
/// the 4 larger datasets; Oracle/DB2 plans ignore indexes, so only
/// postgres_like is shown with/without. Each cell is the fastest of
/// `FIG10_RUNS` runs, without and with the index taking turns.
pub fn fig10(scale: f64) -> String {
    let mut out = String::from("Figure 10 — The Effectiveness of Indexing (postgres_like)\n\n");
    for key in ["LJ", "OK", "WT", "PC"] {
        let spec = DatasetSpec::by_key(key).unwrap();
        let g = spec.synthesize(scale);
        let mut t = TextTable::new(vec!["Algorithm", "no index (ms)", "index (ms)", "speedup"]);
        for algo in ["sssp", "wcc", "pr", "lp"] {
            let run = |indexed| run_algo(algo, &g, spec, &postgres_like(indexed));
            let (mut without, mut with) = (run(false), run(true));
            for _ in 1..FIG10_RUNS {
                without = faster(without, run(false));
                with = faster(with, run(true));
            }
            match (without, with) {
                (Ok(a), Ok(b)) => {
                    let speedup = a.elapsed.as_secs_f64() / b.elapsed.as_secs_f64();
                    t.row(vec![
                        a.algo.to_string(),
                        ms(a.elapsed),
                        ms(b.elapsed),
                        format!("{speedup:.2}x"),
                    ]);
                }
                (a, b) => t.row(vec![
                    algo.to_string(),
                    a.map(|x| ms(x.elapsed)).unwrap_or_else(|e| e.to_string()),
                    b.map(|x| ms(x.elapsed)).unwrap_or_else(|e| e.to_string()),
                    "-".into(),
                ]),
            }
        }
        out.push_str(&format!("{} ({key})\n{}\n", spec.name, t.render()));
    }
    out.push_str("Expected shape (paper): 10–50% improvement, shrinking (or reversing) on the largest graph.\n");
    out
}

/// The best profile: `Cost` + `Batch` on one thread, every modern knob on
/// (what `repro explain --best` runs).
fn best_profile() -> EngineProfile {
    oracle_like()
        .with_optimizer(Optimizer::Cost)
        .with_exec(ExecMode::Batch)
}

/// Fig. 11 (Exp-B): with+ in the Oracle profile and in the best profile vs
/// the PowerGraph-, SociaLite- and Giraph-like engines, on PR / WCC / SSSP
/// over all nine stand-ins. Each gap is a ratio over the vertex-centric time
/// measured in the same process.
pub fn fig11(scale: f64) -> String {
    let mut out =
        String::from("Figure 11 — Comparison with PowerGraph, SociaLite and Giraph stand-ins\n\n");
    for algo in ["pr", "wcc", "sssp"] {
        let mut t = TextTable::new(vec![
            "Graph",
            "RDBMS/with+ (ms)",
            "best (ms)",
            "vertex-centric (ms)",
            "socialite-like (ms)",
            "bsp (ms)",
            "with+/vc",
            "best/vc",
        ]);
        for spec in &DATASETS {
            let g = spec.synthesize(scale);
            let gw = reference::with_pagerank_weights(&g);
            let time =
                |profile: &EngineProfile| run_algo(algo, &g, spec, profile).map(|r| r.elapsed);
            let (rdbms, best) = (time(&oracle_like()), time(&best_profile()));

            let t0 = Instant::now();
            match algo {
                "pr" => {
                    let _ = VertexCentric::new(&gw).pagerank(0.85, FIXED_ITERS);
                }
                "wcc" => {
                    let _ = VertexCentric::new(&g).wcc();
                }
                _ => {
                    let _ = VertexCentric::new(&g).sssp(0);
                }
            }
            let vc = t0.elapsed();

            let t0 = Instant::now();
            match algo {
                "pr" => {
                    let _ = DatalogEngine::new(&gw).pagerank(0.85, FIXED_ITERS);
                }
                "wcc" => {
                    let _ = DatalogEngine::new(&g).wcc();
                }
                _ => {
                    let _ = DatalogEngine::new(&g).sssp(0);
                }
            }
            let dl = t0.elapsed();

            let t0 = Instant::now();
            match algo {
                "pr" => {
                    let _ = Bsp::new(&gw).pagerank(0.85, FIXED_ITERS);
                }
                "wcc" => {
                    let _ = Bsp::new(&g).wcc();
                }
                _ => {
                    let _ = Bsp::new(&g).sssp(0);
                }
            }
            let bsp = t0.elapsed();

            let cell = |d: &Result<Duration>| match d {
                Ok(d) => ms(*d),
                Err(e) => format!("err: {e}"),
            };
            let gap = |d: &Result<Duration>| match d {
                Ok(d) => format!("{:.1}x", d.as_secs_f64() / vc.as_secs_f64().max(1e-9)),
                Err(_) => "-".into(),
            };
            t.row(vec![
                spec.key.to_string(),
                cell(&rdbms),
                cell(&best),
                ms(vc),
                ms(dl),
                ms(bsp),
                gap(&rdbms),
                gap(&best),
            ]);
        }
        let label = match algo {
            "pr" => "PR (15 iterations)",
            "wcc" => "WCC",
            _ => "SSSP",
        };
        out.push_str(&format!("({label})\n{}\n", t.render()));
    }
    out.push_str("Expected shape (paper): vertex-centric fastest at scale; RDBMS competitive on small graphs;\nBSP pays message overhead; gap widens for the path-oriented WCC/SSSP.\n");
    out
}

/// Fig. 12 (Exp-C): with vs with+ PageRank on Web Google — running time
/// and number of tuples accumulated per iteration (d = 14).
pub fn fig12(scale: f64) -> String {
    let spec = DatasetSpec::by_key("WG").unwrap();
    let g = spec.synthesize(scale);
    let iters = 14;
    let n = g.node_count();

    // warm the allocator/caches so run order cannot bias the comparison
    let _ = algos::pagerank::run(&g, &postgres_like(true), 0.85, 2).unwrap();
    let _ = algos::pagerank::run_sql99(&g, 0.85, 2).unwrap();
    let (_, plus) = algos::pagerank::run(&g, &postgres_like(true), 0.85, iters).unwrap();
    let (_, with99) = algos::pagerank::run_sql99(&g, 0.85, iters).unwrap();

    let mut t = TextTable::new(vec![
        "iteration",
        "with+ (ms)",
        "with (ms)",
        "with+ |R| (xn)",
        "with |R| (xn)",
    ]);
    let mut plus_cum = 0.0;
    let mut with_cum = 0.0;
    for i in 0..iters {
        let p = plus.stats.iterations.get(i);
        let w = with99.stats.iterations.get(i);
        plus_cum += p.map(|x| x.elapsed.as_secs_f64()).unwrap_or(0.0) * 1e3;
        with_cum += w.map(|x| x.elapsed.as_secs_f64()).unwrap_or(0.0) * 1e3;
        t.row(vec![
            (i + 1).to_string(),
            format!("{plus_cum:.1}"),
            format!("{with_cum:.1}"),
            p.map(|x| format!("{:.1}", x.r_rows as f64 / n as f64))
                .unwrap_or_default(),
            w.map(|x| format!("{:.1}", x.r_rows as f64 / n as f64))
                .unwrap_or_default(),
        ]);
    }
    format!(
        "Figure 12 — With vs Enhanced With: PageRank on {} (d = {iters}, n = {n})\n\n{}\n\
Expected shape (paper): with+ ≈ 2× faster cumulative; with+ |R| stays 1×n while with grows ≈ 1×n per iteration (15×n at the end).\n",
        spec.name,
        t.render()
    )
}

/// Fig. 13 (Exp-C): linear TC and APSP on Wiki Vote with depth 7 —
/// cumulative time per iteration, with+ vs the PostgreSQL `with` (union)
/// baseline for TC.
pub fn fig13(scale: f64) -> String {
    let spec = DatasetSpec::by_key("WV").unwrap();
    let g = spec.synthesize(scale);
    let depth = 7;

    // (a) TC: with+ `union` vs the SQL'99 union baseline (identical
    // semantics; with+ runs through the PSM translation). A warm-up run
    // keeps allocator state from biasing whichever goes first.
    let mut db = db_for(&g, &postgres_like(true), EdgeStyle::Raw).unwrap();
    let _ = db.execute(&algos::tc::sql(2)).unwrap();
    let tc_plus = db.execute(&algos::tc::sql(depth)).unwrap();

    let mut db99 = db_for(&g, &postgres_like(true), EdgeStyle::Raw).unwrap();
    let tc99 = {
        use aio_withplus::sql99::{Sql99Engine, Sql99System};
        use aio_withplus::{Parser, Statement};
        let sql = algos::tc::sql(depth);
        let Statement::WithPlus(w) = Parser::parse_statement(&sql).unwrap() else {
            unreachable!()
        };
        Sql99Engine::new(Sql99System::PostgreSql)
            .execute(&mut db99.catalog, &w, &Default::default())
            .unwrap()
    };

    // (b) APSP by linear recursion with MM-join.
    let mut dba = db_for(&g, &postgres_like(true), EdgeStyle::WithLoops(0.0)).unwrap();
    let apsp = dba.execute(&algos::apsp::sql_linear(depth)).unwrap();

    let mut t = TextTable::new(vec![
        "iteration",
        "TC with+ (ms)",
        "TC with/union (ms)",
        "TC |R|",
        "APSP (ms)",
        "APSP |R|",
    ]);
    let mut cp = 0.0;
    let mut cw = 0.0;
    let mut ca = 0.0;
    for i in 0..depth {
        let p = tc_plus.stats.iterations.get(i);
        let w = tc99.stats.iterations.get(i);
        let a = apsp.stats.iterations.get(i);
        cp += p.map(|x| x.elapsed.as_secs_f64()).unwrap_or(0.0) * 1e3;
        cw += w.map(|x| x.elapsed.as_secs_f64()).unwrap_or(0.0) * 1e3;
        ca += a.map(|x| x.elapsed.as_secs_f64()).unwrap_or(0.0) * 1e3;
        t.row(vec![
            (i + 1).to_string(),
            format!("{cp:.1}"),
            format!("{cw:.1}"),
            p.map(|x| x.r_rows.to_string()).unwrap_or_default(),
            format!("{ca:.1}"),
            a.map(|x| x.r_rows.to_string()).unwrap_or_default(),
        ]);
    }
    format!(
        "Figure 13 — Linear TC and APSP on {} (depth {depth})\n\n{}\n\
Expected shape (paper): with+ tracks the with/union baseline for TC; APSP costs more per iteration\n\
(extra aggregation in the MM-join) and its matrix densifies over iterations.\n",
        spec.name,
        t.render()
    )
}

/// Exp-1 summary table combining 4 & 5, 6 & 7 (convenience).
pub fn exp1(scale: f64) -> String {
    format!("{}\n{}", table4_5(scale), table6_7(scale))
}

/// `repro explain <algo>` — run the algorithm's with+ program with tracing
/// on, print the EXPLAIN ANALYZE report (annotated plan tree + per-iteration
/// convergence), and export the trace twice: `TRACE_<algo>.json`
/// (Chrome/Perfetto-loadable) and `TRACE_<algo>.jsonl` (schema-checked).
/// The engine is `oracle_like()`, or with `best` the benchmark's best
/// profile: that one with the cost optimizer and batch execution, on one
/// thread.
pub fn explain(algo: &str, scale: f64, best: bool) -> String {
    match explain_inner(algo, scale, best) {
        Ok(s) => s,
        Err(e) => format!("explain {algo} failed: {e}"),
    }
}

fn explain_inner(algo: &str, scale: f64, best: bool) -> Result<String> {
    let edges = ((2.0e5 * scale) as usize).clamp(150, 200_000);
    let nodes = (edges / 5).max(20);
    let g = aio_graph::generate(aio_graph::GraphKind::PowerLaw, nodes, edges, true, 7);
    let profile = if best { best_profile() } else { oracle_like() };
    let key = algo.to_ascii_lowercase();
    let (mut db, sql) = match key.as_str() {
        "pr" | "pagerank" => {
            let mut db = db_for(&g, &profile, EdgeStyle::PageRank)?;
            db.set_param("c", 0.85);
            db.set_param("n", g.node_count() as f64);
            (db, algos::pagerank::sql(10))
        }
        "tc" => {
            let db = db_for(&g, &profile, EdgeStyle::Raw)?;
            (db, algos::tc::sql(16))
        }
        "sssp" => {
            let mut db = db_for(&g, &profile, EdgeStyle::WithLoops(0.0))?;
            algos::sssp::seed(&mut db, 0)?;
            (db, algos::sssp::SQL.to_string())
        }
        "wcc" => {
            let db = db_for(&g, &profile, EdgeStyle::WithLoops(1.0))?;
            (db, algos::wcc::SQL.to_string())
        }
        other => {
            return Ok(format!(
                "explain: unknown algorithm {other} (supported: pagerank tc sssp wcc)"
            ))
        }
    };

    let out = db.explain_analyze(&sql)?;
    let jsonl = out.trace.to_jsonl();
    let perfetto = out.trace.to_chrome_json();
    let mut notes = vec![match aio_trace::json::validate_trace_jsonl(&jsonl) {
        Ok(n) => format!("jsonl schema: OK ({n} records)"),
        Err(e) => format!("jsonl schema: FAILED ({e})"),
    }];
    for (path, content) in [
        (format!("TRACE_{key}.jsonl"), &jsonl),
        (format!("TRACE_{key}.json"), &perfetto),
    ] {
        notes.push(match std::fs::write(&path, content) {
            Ok(()) => format!("wrote {path}"),
            Err(err) => format!("could not write {path}: {err}"),
        });
    }
    Ok(format!(
        "{}\ngraph: {} nodes, {} edges — result: {} rows, {} spans recorded\n{}\n\
         (load TRACE_{key}.json at https://ui.perfetto.dev or chrome://tracing)\n",
        out.report,
        nodes,
        db.catalog.relation("E")?.len(),
        out.result.relation.len(),
        out.trace.spans.len(),
        notes.join("\n"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: f64 = 0.0002;

    #[test]
    fn every_table_entry_dispatches() {
        for e in EXPERIMENTS {
            for name in std::iter::once(&e.name).chain(e.aliases) {
                assert_eq!(find(name).map(|found| found.name), Some(e.name), "{name}");
            }
        }
        // harnesses removed in PR 16, and the two words `repro` handles
        // itself, are not experiments
        for other in ["scaling", "wcoj", "metrics", "all", "explain"] {
            assert!(find(other).is_none(), "{other}");
        }
    }

    #[test]
    fn static_tables_render() {
        assert!(table1().contains("PostgreSQL"));
        assert!(table2().contains("PageRank"));
        assert!(table3(0.001).contains("Orkut"));
    }

    #[test]
    fn table4_5_runs_at_tiny_scale() {
        let out = table4_5(TINY);
        assert!(out.contains("merge"), "{out}");
        assert!(out.contains("full outer join"));
        assert!(!out.contains("err:"), "{out}");
    }

    #[test]
    fn table6_7_runs_at_tiny_scale() {
        let out = table6_7(TINY);
        assert!(out.contains("not exists"));
        assert!(!out.contains("err:"), "{out}");
    }

    #[test]
    fn fig12_runs_at_tiny_scale() {
        let out = fig12(TINY);
        assert!(out.contains("with+"), "{out}");
    }

    #[test]
    fn fig13_runs_at_tiny_scale() {
        let out = fig13(TINY);
        assert!(out.contains("APSP"), "{out}");
    }

    #[test]
    fn fig11_runs_on_one_dataset_shape() {
        // full fig11 is heavy; just ensure the harness produces rows
        let out = fig11(TINY);
        assert!(out.contains("vertex-centric") && out.contains("best/vc"));
        assert!(!out.contains("err:"), "{out}");
    }
}
