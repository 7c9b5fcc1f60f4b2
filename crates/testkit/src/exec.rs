//! Uniform execution: route an algorithm key to any applicable executor.
//!
//! The executor list for an algorithm comes from
//! [`AlgoSpec::equivalence`](aio_algos::AlgoSpec): the with+ PSM fans out
//! into the three RDBMS profiles × the requested parallelism settings, the
//! SQL'99 baseline covers the systems Table 1 allows, the three native
//! stand-ins cover PR/WCC/SSSP, and the oracle is the textbook reference.
//!
//! All executors for one algorithm receive the *same* graph. For PageRank
//! the caller is expected to pass a spanning-cycle-augmented graph (see
//! [`crate::corpus::augment_spanning_cycle`]); the natives then run
//! `iters − 1` iterations because their ranks start at the stationary base
//! `(1−c)/n` while with+ starts at zero — on augmented graphs the two
//! trajectories coincide at that offset.

use crate::result::AlgoResult;
use aio_algebra::{db2_like, oracle_like, postgres_like, EngineProfile, ExecMode, Optimizer};
use aio_algos::{by_key, Engine, Tolerance};
use aio_graph::engines::{Bsp, DatalogEngine, VertexCentric};
use aio_graph::{reference, Graph};
use aio_withplus::sql99::Sql99System;
use std::collections::{BTreeMap, BTreeSet};

/// Fixed per-algorithm parameters of the differential suite.
#[derive(Clone, Debug)]
pub struct Params {
    pub src: u32,
    pub pr_c: f64,
    pub pr_iters: usize,
    pub rwr_c: f64,
    pub rwr_iters: usize,
    pub simrank_c: f64,
    pub simrank_iters: usize,
    pub hits_iters: usize,
    pub lp_iters: usize,
    pub mcl_iters: usize,
    pub kcore_k: i64,
    pub ktruss_k: i64,
    pub ks_labels: [i64; 3],
    pub ks_depth: usize,
    pub mis_seed: u64,
    pub diam_samples: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            src: 0,
            pr_c: 0.85,
            pr_iters: 8,
            rwr_c: 0.9,
            rwr_iters: 8,
            simrank_c: 0.6,
            simrank_iters: 4,
            hits_iters: 6,
            lp_iters: 5,
            mcl_iters: 4,
            kcore_k: 2,
            ktruss_k: 3,
            ks_labels: [0, 1, 2],
            ks_depth: 3,
            mis_seed: 42,
            diam_samples: 4,
        }
    }
}

/// One concrete executor instance.
#[derive(Clone, Debug)]
pub enum ExecKind {
    WithPlus(EngineProfile),
    /// The with+ PSM routed through a [`aio_withplus::Session`]-armed run:
    /// a concurrent snapshot reader polls pinned generations while the
    /// algorithm converges, and the run fails if the reader observes any
    /// isolation anomaly. Final answers must stay row-identical to the
    /// plain `WithPlus` executor of the same profile.
    WithPlusSession(EngineProfile),
    Sql99(Sql99System),
    VertexCentric,
    Bsp,
    Datalog,
    Oracle,
}

#[derive(Clone, Debug)]
pub struct Executor {
    /// Display name, e.g. `with+/postgres_like+idx p8` or `native/bsp`.
    pub name: String,
    /// Engine family this executor belongs to (for coverage reporting).
    pub family: String,
    pub kind: ExecKind,
}

fn withplus_profiles() -> Vec<EngineProfile> {
    vec![oracle_like(), db2_like(), postgres_like(true)]
}

/// Enumerate every executor for `key` given the parallelism settings to
/// sweep for the with+ PSM. Property-oracle algorithms skip the `Oracle`
/// engine (their answers are non-unique; validation happens separately).
pub fn executors_for(key: &str, parallelism: &[usize]) -> Vec<Executor> {
    executors_for_opt(key, parallelism, &[Optimizer::Off])
}

/// [`executors_for`] additionally sweeping the with+ PSM over plan
/// optimization levels. Non-`Off` levels change the physical plan shape —
/// and therefore row scan order — so they get their *own* engine family:
/// algorithms whose answers are only comparable within one family
/// (property oracles, MCL's tie-breaking argmax) must not be compared
/// across optimizer modes.
pub fn executors_for_opt(
    key: &str,
    parallelism: &[usize],
    optimizers: &[Optimizer],
) -> Vec<Executor> {
    executors_for_cfg(key, parallelism, optimizers, &[ExecMode::Row])
}

/// [`executors_for_opt`] additionally sweeping the with+ PSM over physical
/// execution modes (row-at-a-time vs columnar batches). Batch execution is
/// row-identical by contract but still forks its own family (` exec=batch`
/// suffix) so a divergence report names the engine that misbehaved.
pub fn executors_for_cfg(
    key: &str,
    parallelism: &[usize],
    optimizers: &[Optimizer],
    exec_modes: &[ExecMode],
) -> Vec<Executor> {
    executors_for_matrix(key, parallelism, optimizers, exec_modes, false)
}

/// [`executors_for_cfg`] additionally sweeping the `sessions` axis: when
/// `sessions` is set, each with+ profile gains one executor that runs the
/// algorithm with an armed concurrent snapshot reader
/// ([`aio_withplus::arm_concurrent_reader`]) watching the fixpoint converge
/// generation by generation. Session executors keep the *same* engine
/// family as their serial counterpart — MVCC must not change answers, so
/// even within-family-only algorithms (property oracles, MCL) are compared
/// session-vs-serial row-identically.
pub fn executors_for_matrix(
    key: &str,
    parallelism: &[usize],
    optimizers: &[Optimizer],
    exec_modes: &[ExecMode],
    sessions: bool,
) -> Vec<Executor> {
    let spec = match by_key(key) {
        Some(s) => s,
        None => return Vec::new(),
    };
    let eq = spec.equivalence();
    let mut out = Vec::new();
    for engine in eq.engines {
        match engine {
            Engine::WithPlus => {
                for profile in withplus_profiles() {
                    for &opt in optimizers {
                        for &exec in exec_modes {
                            for &p in parallelism {
                                let prof = profile
                                    .clone()
                                    .with_parallelism(p)
                                    .with_optimizer(opt)
                                    .with_exec(exec);
                                let mut suffix = match opt {
                                    Optimizer::Off => String::new(),
                                    o => format!(" opt={}", o.label()),
                                };
                                if exec != ExecMode::Row {
                                    suffix.push_str(&format!(" exec={}", exec.label()));
                                }
                                out.push(Executor {
                                    name: format!("with+/{} p{p}{suffix}", prof.name),
                                    family: format!("with+/{}{suffix}", prof.name),
                                    kind: ExecKind::WithPlus(prof),
                                });
                            }
                        }
                    }
                    if sessions {
                        // one session executor per profile at the base
                        // configuration — the axis tests isolation, not
                        // the optimizer/exec cross product
                        let p = parallelism.first().copied().unwrap_or(1);
                        let prof = profile.clone().with_parallelism(p);
                        out.push(Executor {
                            name: format!("with+/{} p{p} sessions", prof.name),
                            family: format!("with+/{}", prof.name),
                            kind: ExecKind::WithPlusSession(prof),
                        });
                    }
                }
            }
            Engine::Sql99 => {
                let systems: &[Sql99System] = match key {
                    // union-all TC is legal on all three systems
                    "tc" => &[
                        Sql99System::Oracle,
                        Sql99System::Db2,
                        Sql99System::PostgreSql,
                    ],
                    // Fig. 9 needs `partition by` + `distinct`: PostgreSQL only
                    "pr" => &[Sql99System::PostgreSql],
                    _ => &[],
                };
                for &sys in systems {
                    out.push(Executor {
                        name: format!("sql99/{}", sys.name()),
                        family: format!("sql99/{}", sys.name()),
                        kind: ExecKind::Sql99(sys),
                    });
                }
            }
            Engine::VertexCentric => out.push(Executor {
                name: "native/vertex-centric".into(),
                family: "native/vertex-centric".into(),
                kind: ExecKind::VertexCentric,
            }),
            Engine::Bsp => out.push(Executor {
                name: "native/bsp".into(),
                family: "native/bsp".into(),
                kind: ExecKind::Bsp,
            }),
            Engine::Datalog => out.push(Executor {
                name: "native/datalog".into(),
                family: "native/datalog".into(),
                kind: ExecKind::Datalog,
            }),
            Engine::Oracle => {
                if eq.tolerance != Tolerance::PropertyOracle {
                    out.push(Executor {
                        name: "oracle".into(),
                        family: "oracle".into(),
                        kind: ExecKind::Oracle,
                    });
                }
            }
        }
    }
    out
}

fn nf64(map: aio_storage::FxHashMap<i64, f64>) -> AlgoResult {
    AlgoResult::NodeF64(map.into_iter().collect())
}

fn ni64(map: aio_storage::FxHashMap<i64, i64>) -> AlgoResult {
    AlgoResult::NodeI64(map.into_iter().collect())
}

fn vec_f64(v: Vec<f64>) -> AlgoResult {
    AlgoResult::NodeF64(
        v.into_iter()
            .enumerate()
            .map(|(i, x)| (i as i64, x))
            .collect(),
    )
}

fn vec_u32(v: Vec<u32>) -> AlgoResult {
    AlgoResult::NodeI64(
        v.into_iter()
            .enumerate()
            .map(|(i, x)| (i as i64, x as i64))
            .collect(),
    )
}

fn norm_matching(pairs: Vec<(u32, u32)>) -> AlgoResult {
    AlgoResult::Matching(
        pairs
            .into_iter()
            .map(|(a, b)| {
                let (a, b) = (a as i64, b as i64);
                (a.min(b), a.max(b))
            })
            .collect(),
    )
}

fn err_str<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Run algorithm `key` on `g` through one executor. Returns the normalized
/// result, or a description of the execution error.
pub fn run_algo(key: &str, g: &Graph, exec: &Executor, p: &Params) -> Result<AlgoResult, String> {
    match &exec.kind {
        ExecKind::WithPlus(profile) => run_withplus(key, g, profile, p),
        ExecKind::WithPlusSession(profile) => run_withplus_session(key, g, profile, p),
        ExecKind::Sql99(sys) => run_sql99(key, g, *sys, p),
        ExecKind::VertexCentric | ExecKind::Bsp | ExecKind::Datalog => {
            run_native(key, g, &exec.kind, p)
        }
        ExecKind::Oracle => run_oracle(key, g, p),
    }
}

fn run_withplus(
    key: &str,
    g: &Graph,
    profile: &EngineProfile,
    p: &Params,
) -> Result<AlgoResult, String> {
    use aio_algos as a;
    let depth = g.node_count() + 1;
    Ok(match key {
        "tc" => AlgoResult::PairSet(
            a::tc::run(g, profile, depth)
                .map_err(err_str)?
                .0
                .into_iter()
                .collect(),
        ),
        "bfs" => nf64(a::bfs::run(g, profile, p.src).map_err(err_str)?.0),
        "wcc" => ni64(a::wcc::run(g, profile).map_err(err_str)?.0),
        "sssp" => nf64(a::sssp::run(g, profile, p.src).map_err(err_str)?.0),
        "apsp" => AlgoResult::PairDist(
            a::apsp::run(g, profile)
                .map_err(err_str)?
                .0
                .into_iter()
                .collect(),
        ),
        "pr" => nf64(
            a::pagerank::run(g, profile, p.pr_c, p.pr_iters)
                .map_err(err_str)?
                .0,
        ),
        "rwr" => nf64(
            a::rwr::run(g, profile, p.src, p.rwr_c, p.rwr_iters)
                .map_err(err_str)?
                .0,
        ),
        "simrank" => AlgoResult::PairScores(
            a::simrank::run(g, profile, p.simrank_c, p.simrank_iters)
                .map_err(err_str)?
                .0
                .into_iter()
                .collect(),
        ),
        "hits" => AlgoResult::HubAuth(
            a::hits::run(g, profile, p.hits_iters)
                .map_err(err_str)?
                .0
                .into_iter()
                .collect(),
        ),
        "ts" => ni64(a::toposort::run(g, profile).map_err(err_str)?.0),
        "ks" => AlgoResult::NodeSet(
            a::ks::run(g, profile, p.ks_labels, p.ks_depth)
                .map_err(err_str)?
                .0
                .into_iter()
                .collect(),
        ),
        "lp" => ni64(a::lp::run(g, profile, p.lp_iters).map_err(err_str)?.0),
        "mis" => AlgoResult::NodeSet(
            a::mis::run(g, profile, p.mis_seed)
                .map_err(err_str)?
                .0
                .into_iter()
                .collect(),
        ),
        "mnm" => norm_matching(a::mnm::run(g, profile).map_err(err_str)?.0),
        "diam" => AlgoResult::Scalar(
            a::diameter::run(g, profile, p.diam_samples)
                .map_err(err_str)?
                .0 as i64,
        ),
        "mcl" => ni64(a::mcl::run(g, profile, p.mcl_iters).map_err(err_str)?.0),
        "kc" => AlgoResult::NodeSet(
            a::kcore::run(g, profile, p.kcore_k)
                .map_err(err_str)?
                .0
                .into_iter()
                .collect(),
        ),
        "ktruss" => AlgoResult::PairSet(
            a::ktruss::run(g, profile, p.ktruss_k)
                .map_err(err_str)?
                .0
                .into_iter()
                .collect(),
        ),
        "bisim" => ni64(a::bisim::run(g, profile).map_err(err_str)?.0),
        other => return Err(format!("unknown algorithm key {other}")),
    })
}

/// Run the with+ PSM with the concurrent-snapshot-reader harness armed:
/// while the algorithm's main statement executes, a reader thread pins
/// published generations and checks monotonicity, repeatable reads and
/// per-generation digest stability. Any anomaly — or the harness failing
/// to run at all — turns into an executor error, which the differential
/// matrix reports as a divergence.
fn run_withplus_session(
    key: &str,
    g: &Graph,
    profile: &EngineProfile,
    p: &Params,
) -> Result<AlgoResult, String> {
    aio_withplus::arm_concurrent_reader();
    let out = run_withplus(key, g, profile, p);
    // if the run errored before reaching the engine the flag may still be
    // set; never leak it into the next executor
    aio_withplus::disarm_concurrent_reader();
    let result = out?;
    let report = aio_withplus::take_concurrent_report()
        .ok_or("session axis: the armed concurrent reader never ran")?;
    if !report.anomalies.is_empty() {
        return Err(format!(
            "session axis: concurrent snapshot reader saw {} anomalie(s): {}",
            report.anomalies.len(),
            report.anomalies.join("; ")
        ));
    }
    if report.polls == 0 {
        return Err("session axis: concurrent reader made zero polls".into());
    }
    if report.generations.is_empty() {
        return Err("session axis: concurrent reader pinned no generations".into());
    }
    Ok(result)
}

fn run_sql99(key: &str, g: &Graph, sys: Sql99System, p: &Params) -> Result<AlgoResult, String> {
    use aio_algos as a;
    match key {
        "tc" => {
            // run the union-all formulation through the SQL'99 validator +
            // engine of the given system, then dedup into a pair set
            let mut db =
                a::common::db_for(g, &sys.profile(), a::common::EdgeStyle::Raw).map_err(err_str)?;
            let sql = a::tc::sql_union_all(g.node_count() + 1);
            let stmt = aio_withplus::Parser::parse_statement(&sql).map_err(err_str)?;
            let aio_withplus::Statement::WithPlus(w) = stmt else {
                return Err("expected a with statement".into());
            };
            let engine = aio_withplus::sql99::Sql99Engine::new(sys);
            let params = std::collections::HashMap::new();
            let out = engine
                .execute(&mut db.catalog, &w, &params)
                .map_err(err_str)?;
            let mut pairs = BTreeSet::new();
            for r in out.relation.iter() {
                let f = r[0].as_int().ok_or("non-int TC row")?;
                let t = r[1].as_int().ok_or("non-int TC row")?;
                pairs.insert((f, t));
            }
            Ok(AlgoResult::PairSet(pairs))
        }
        "pr" => {
            if sys != Sql99System::PostgreSql {
                return Err(format!(
                    "Fig. 9 PageRank is PostgreSQL-only, got {}",
                    sys.name()
                ));
            }
            let (map, _) = a::pagerank::run_sql99(g, p.pr_c, p.pr_iters).map_err(err_str)?;
            Ok(nf64(map))
        }
        other => Err(format!("no SQL'99 formulation for {other}")),
    }
}

fn run_native(key: &str, g: &Graph, kind: &ExecKind, p: &Params) -> Result<AlgoResult, String> {
    // the natives' PageRank consumes pre-normalized 1/outdeg weights and
    // starts from the stationary base — hence the weighted graph and the
    // one-iteration offset (see module docs)
    let gw;
    let (graph, pr_iters) = if key == "pr" {
        if p.pr_iters == 0 {
            return Err("native PageRank offset needs iters ≥ 1".into());
        }
        gw = reference::with_pagerank_weights(g);
        (&gw, p.pr_iters - 1)
    } else {
        (g, 0)
    };
    let out = match (key, kind) {
        ("wcc", ExecKind::VertexCentric) => vec_u32(VertexCentric::new(graph).wcc()),
        ("wcc", ExecKind::Bsp) => vec_u32(Bsp::new(graph).wcc()),
        ("wcc", ExecKind::Datalog) => vec_u32(DatalogEngine::new(graph).wcc()),
        ("sssp", ExecKind::VertexCentric) => vec_f64(VertexCentric::new(graph).sssp(p.src)),
        ("sssp", ExecKind::Bsp) => vec_f64(Bsp::new(graph).sssp(p.src)),
        ("sssp", ExecKind::Datalog) => vec_f64(DatalogEngine::new(graph).sssp(p.src)),
        ("pr", ExecKind::VertexCentric) => {
            vec_f64(VertexCentric::new(graph).pagerank(p.pr_c, pr_iters))
        }
        ("pr", ExecKind::Bsp) => vec_f64(Bsp::new(graph).pagerank(p.pr_c, pr_iters)),
        ("pr", ExecKind::Datalog) => vec_f64(DatalogEngine::new(graph).pagerank(p.pr_c, pr_iters)),
        (other, k) => return Err(format!("native engine {k:?} cannot run {other}")),
    };
    Ok(out)
}

/// The SQL-semantics HITS reference: joint normalization over the nodes
/// that appear in `R_ha` (both an in- and an out-edge endpoint), mirroring
/// the Fig. 6 program — *not* the textbook per-vector 2-norm.
fn oracle_hits_sql_style(g: &Graph, iters: usize) -> BTreeMap<i64, (f64, f64)> {
    let n = g.node_count();
    let mut h = vec![1.0f64; n];
    let mut a = vec![1.0f64; n];
    for _ in 0..iters {
        let mut na = vec![0.0f64; n];
        let mut has_a = vec![false; n];
        for (u, v, w) in g.edges() {
            na[v as usize] += h[u as usize] * w;
            has_a[v as usize] = true;
        }
        let mut nh = vec![0.0f64; n];
        let mut has_h = vec![false; n];
        for (u, v, w) in g.edges() {
            if has_a[v as usize] {
                nh[u as usize] += na[v as usize] * w;
                has_h[u as usize] = true;
            }
        }
        let in_rha: Vec<bool> = (0..n).map(|v| has_a[v] && has_h[v]).collect();
        let norm = |vals: &[f64]| {
            (0..n)
                .filter(|&v| in_rha[v])
                .map(|v| vals[v] * vals[v])
                .sum::<f64>()
                .sqrt()
        };
        let (norm_h, norm_a) = (norm(&nh), norm(&na));
        for v in 0..n {
            if in_rha[v] {
                h[v] = nh[v] / norm_h;
                a[v] = na[v] / norm_a;
            }
        }
    }
    (0..n).map(|v| (v as i64, (h[v], a[v]))).collect()
}

/// BFS-per-source reachable pairs with path length ≥ 1 (DAG-only oracle —
/// on cyclic graphs it would miss `(u, u)` pairs the SQL closure derives).
fn oracle_tc(g: &Graph) -> BTreeSet<(i64, i64)> {
    let mut pairs = BTreeSet::new();
    for s in 0..g.node_count() as u32 {
        for (v, &l) in reference::bfs_levels(g, s).iter().enumerate() {
            if l != u32::MAX && l > 0 {
                pairs.insert((s as i64, v as i64));
            }
        }
    }
    pairs
}

fn run_oracle(key: &str, g: &Graph, p: &Params) -> Result<AlgoResult, String> {
    Ok(match key {
        "tc" => AlgoResult::PairSet(oracle_tc(g)),
        "bfs" => AlgoResult::NodeF64(
            reference::bfs_levels(g, p.src)
                .into_iter()
                .enumerate()
                .map(|(v, l)| (v as i64, if l == u32::MAX { 0.0 } else { 1.0 }))
                .collect(),
        ),
        "wcc" => vec_u32(reference::wcc_min_label(g)),
        "sssp" => vec_f64(reference::bellman_ford(g, p.src)),
        "apsp" => {
            let d = reference::floyd_warshall(g);
            let mut map = BTreeMap::new();
            for (i, row) in d.iter().enumerate() {
                for (j, &dist) in row.iter().enumerate() {
                    if dist.is_finite() {
                        map.insert((i as i64, j as i64), dist);
                    }
                }
            }
            AlgoResult::PairDist(map)
        }
        "pr" => {
            let gw = reference::with_pagerank_weights(g);
            vec_f64(reference::pagerank(&gw, p.pr_c, p.pr_iters))
        }
        "rwr" => vec_f64(aio_algos::rwr::reference_rwr(
            g,
            p.src,
            p.rwr_c,
            p.rwr_iters,
        )),
        "simrank" => {
            let s = reference::simrank(g, p.simrank_c, p.simrank_iters);
            let mut map = BTreeMap::new();
            for (i, row) in s.iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    if v != 0.0 {
                        map.insert((i as i64, j as i64), v);
                    }
                }
            }
            AlgoResult::PairScores(map)
        }
        "hits" => AlgoResult::HubAuth(oracle_hits_sql_style(g, p.hits_iters)),
        "ts" => {
            let levels = reference::topo_levels(g).ok_or("oracle toposort: graph is cyclic")?;
            vec_u32(levels)
        }
        "kc" => AlgoResult::NodeSet(
            reference::kcore(g, p.kcore_k as usize)
                .into_iter()
                .enumerate()
                .filter_map(|(v, alive)| alive.then_some(v as i64))
                .collect(),
        ),
        other => return Err(format!("no oracle for {other}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_enumeration_matches_equivalence() {
        let pr = executors_for("pr", &[1, 2]);
        // 3 profiles × 2 parallelism + sql99/postgres + 3 natives + oracle
        assert_eq!(pr.len(), 3 * 2 + 1 + 3 + 1, "{pr:#?}");
        let tc = executors_for("tc", &[1]);
        // 3 profiles + 3 sql99 systems + oracle
        assert_eq!(tc.len(), 3 + 3 + 1);
        // property-oracle algorithms drop the oracle executor
        let mis = executors_for("mis", &[1]);
        assert!(mis.iter().all(|e| !matches!(e.kind, ExecKind::Oracle)));
        assert!(executors_for("nope", &[1]).is_empty());
    }

    #[test]
    fn optimizer_sweep_multiplies_withplus_and_isolates_families() {
        let pr = executors_for_opt("pr", &[1], &Optimizer::all());
        // 3 profiles × 3 optimizer levels + sql99/postgres + 3 natives + oracle
        assert_eq!(pr.len(), 3 * 3 + 1 + 3 + 1, "{pr:#?}");
        assert!(pr.iter().any(|e| e.name.ends_with(" opt=cost")));
        assert!(pr.iter().any(|e| e.name.ends_with(" opt=rules")));
        // Off keeps the unsuffixed names so default counts stay stable
        assert!(pr.iter().any(|e| e.name == "with+/oracle_like p1"));
        // non-Off levels fork their own engine family (plan shape changes
        // row order, so within-family-only algorithms must not cross)
        for e in &pr {
            if e.name.contains(" opt=") {
                assert!(e.family.contains(" opt="), "{e:?}");
            } else {
                assert!(!e.family.contains(" opt="), "{e:?}");
            }
        }
    }

    #[test]
    fn exec_mode_sweep_forks_batch_family() {
        let pr = executors_for_cfg(
            "pr",
            &[1],
            &[Optimizer::Off],
            &[ExecMode::Row, ExecMode::Batch],
        );
        // 3 profiles × 2 exec modes + sql99/postgres + 3 natives + oracle
        assert_eq!(pr.len(), 3 * 2 + 1 + 3 + 1, "{pr:#?}");
        assert!(pr
            .iter()
            .any(|e| e.name == "with+/oracle_like p1 exec=batch"));
        assert!(pr.iter().any(|e| e.name == "with+/oracle_like p1"));
        for e in &pr {
            if e.name.contains(" exec=batch") {
                assert!(e.family.ends_with(" exec=batch"), "{e:?}");
            } else {
                assert!(!e.family.contains("exec="), "{e:?}");
            }
        }
    }

    #[test]
    fn sessions_axis_adds_one_executor_per_profile_in_the_base_family() {
        let with = executors_for_matrix("pr", &[1, 2], &[Optimizer::Off], &[ExecMode::Row], true);
        let without = executors_for_cfg("pr", &[1, 2], &[Optimizer::Off], &[ExecMode::Row]);
        assert_eq!(with.len(), without.len() + 3, "{with:#?}");
        let sessions: Vec<_> = with
            .iter()
            .filter(|e| matches!(e.kind, ExecKind::WithPlusSession(_)))
            .collect();
        assert_eq!(sessions.len(), 3);
        for s in &sessions {
            assert!(s.name.ends_with(" sessions"), "{s:?}");
            // same family as the serial executor: answers must be
            // row-identical even for within-family-only algorithms
            assert!(
                with.iter()
                    .any(|e| { matches!(e.kind, ExecKind::WithPlus(_)) && e.family == s.family }),
                "{s:?}"
            );
        }
    }

    #[test]
    fn session_executor_matches_serial_and_reader_sees_no_anomalies() {
        let g = aio_graph::generate(aio_graph::GraphKind::Uniform, 10, 24, true, 11);
        let p = Params::default();
        let profile = aio_algebra::oracle_like();
        for key in ["wcc", "pr"] {
            let serial = run_withplus(key, &g, &profile, &p).unwrap();
            let session = run_withplus_session(key, &g, &profile, &p)
                .unwrap_or_else(|e| panic!("{key}: {e}"));
            session
                .compare(&serial, &Tolerance::Exact)
                .unwrap_or_else(|e| panic!("{key}: session diverged from serial: {e}"));
        }
    }

    #[test]
    fn with_plus_agrees_with_oracle_on_a_small_graph() {
        let g = aio_graph::generate(aio_graph::GraphKind::Uniform, 12, 30, true, 7);
        let p = Params::default();
        for key in ["bfs", "wcc", "sssp", "kc"] {
            let wp = run_algo(key, &g, &executors_for(key, &[1])[0], &p).unwrap();
            let oracle = run_oracle(key, &g, &p).unwrap();
            let tol = aio_algos::by_key(key).unwrap().equivalence().tolerance;
            wp.compare(&oracle, &tol)
                .unwrap_or_else(|e| panic!("{key}: {e}"));
        }
    }

    #[test]
    fn native_pagerank_offset_matches_with_plus_on_augmented_graph() {
        let base = aio_graph::generate(aio_graph::GraphKind::PowerLaw, 16, 40, true, 9);
        let g = crate::corpus::augment_spanning_cycle(&base);
        let p = Params::default();
        let wp = run_withplus("pr", &g, &aio_algebra::oracle_like(), &p).unwrap();
        for kind in [ExecKind::VertexCentric, ExecKind::Bsp, ExecKind::Datalog] {
            let nat = run_native("pr", &g, &kind, &p).unwrap();
            wp.compare(
                &nat,
                &Tolerance::Epsilon {
                    eps: 1e-7,
                    rank_top: 5,
                },
            )
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }
}
