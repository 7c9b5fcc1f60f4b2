//! The differential matrix: algorithm × engine × parallelism × corpus.
//!
//! For every corpus graph and every applicable algorithm, run all
//! executors enumerated by [`executors_for_matrix`] and compare each result
//! against the first one under the algorithm's tolerance. Any disagreement
//! becomes a [`Divergence`]; when both sides are with+ PSM runs the report
//! additionally pins down the *first iteration* whose recursive-relation
//! state differs, via the profile's snapshot knob.

use crate::corpus::{augment_spanning_cycle, NamedGraph};
use crate::exec::{executors_for_matrix, run_algo, ExecKind, Executor, Params};
use crate::result::AlgoResult;
use aio_algebra::{EngineProfile, ExecMode, Optimizer};
use aio_algos::{by_key, Tolerance, TABLE2};
use aio_graph::{reference, Graph};
use aio_withplus::QueryResult;
use std::collections::BTreeSet;

/// What to run. `Default` covers every implemented algorithm at the
/// paper-relevant parallelism settings {1, 2, 8}.
#[derive(Clone, Debug)]
pub struct MatrixConfig {
    pub algos: Vec<&'static str>,
    pub parallelism: Vec<usize>,
    /// Plan-optimization levels to sweep the with+ PSM over. The default
    /// `[Off]` keeps the paper-faithful fixed plans only.
    pub optimizers: Vec<Optimizer>,
    /// Physical execution modes to sweep the with+ PSM over. The default
    /// `[Row]` keeps row-at-a-time operators only; adding
    /// [`ExecMode::Batch`] pits the columnar engine against every other
    /// executor under exact row equivalence.
    pub exec_modes: Vec<ExecMode>,
    /// Add the `sessions` axis: each with+ profile additionally runs the
    /// algorithm through a [`aio_withplus::Session`]-armed execution with a
    /// concurrent snapshot reader polling pinned generations while the
    /// fixpoint converges. The reader's anomalies become divergences, and
    /// the final answer is compared row-identically against the serial
    /// executor of the same family. Default `false`.
    pub sessions: bool,
    pub params: Params,
    /// Localize with+-vs-with+ divergences to their first iteration.
    pub localize: bool,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            algos: TABLE2
                .iter()
                .filter(|a| a.implemented)
                .map(|a| a.key)
                .collect(),
            parallelism: vec![1, 2, 8],
            optimizers: vec![Optimizer::Off],
            exec_modes: vec![ExecMode::Row],
            sessions: false,
            params: Params::default(),
            localize: true,
        }
    }
}

impl MatrixConfig {
    /// A fast subset for tier-1 CI: the three algorithms the natives also
    /// implement, serial + 2-way parallel.
    pub fn smoke() -> Self {
        MatrixConfig {
            algos: vec!["wcc", "sssp", "pr", "tc"],
            parallelism: vec![1, 2],
            ..MatrixConfig::default()
        }
    }

    /// The optimizer-equivalence matrix: every Table 2 algorithm under
    /// optimizer ∈ {Off, Rules, Cost} × parallelism {1, 8}, each result
    /// checked against the textbook oracle / baseline under the
    /// algorithm's tolerance.
    pub fn optimizer_equivalence() -> Self {
        MatrixConfig {
            parallelism: vec![1, 8],
            optimizers: Optimizer::all().to_vec(),
            ..MatrixConfig::default()
        }
    }

    /// A tier-1-sized slice of [`MatrixConfig::optimizer_equivalence`].
    pub fn optimizer_smoke() -> Self {
        MatrixConfig {
            algos: vec!["wcc", "sssp", "pr", "tc"],
            parallelism: vec![1, 8],
            optimizers: Optimizer::all().to_vec(),
            ..MatrixConfig::default()
        }
    }

    /// The sessions matrix: every implemented Table 2 algorithm runs both
    /// serially and through a session-armed execution with a concurrent
    /// snapshot reader; answers must be row-identical and the reader must
    /// observe zero isolation anomalies. `./ci.sh full` runs this
    /// exhaustively; tier-1 uses [`MatrixConfig::sessions_smoke`].
    pub fn sessions_full() -> Self {
        MatrixConfig {
            parallelism: vec![1],
            sessions: true,
            ..MatrixConfig::default()
        }
    }

    /// A tier-1-sized slice of [`MatrixConfig::sessions_full`].
    pub fn sessions_smoke() -> Self {
        MatrixConfig {
            algos: vec!["wcc", "sssp", "pr", "tc"],
            parallelism: vec![1],
            sessions: true,
            ..MatrixConfig::default()
        }
    }

    /// The columnar smoke matrix: the natives' algorithms under exec mode
    /// ∈ {Row, Batch} × parallelism {1, 2}, so the batch engine is checked
    /// against the row engine, the natives, SQL'99 and the oracle at once.
    pub fn columnar_smoke() -> Self {
        MatrixConfig {
            algos: vec!["wcc", "sssp", "pr", "tc"],
            parallelism: vec![1, 2],
            exec_modes: vec![ExecMode::Row, ExecMode::Batch],
            ..MatrixConfig::default()
        }
    }
}

/// One observed disagreement between two executors.
#[derive(Clone, Debug)]
pub struct Divergence {
    pub algo: String,
    pub graph: String,
    pub left: String,
    pub right: String,
    pub detail: String,
    /// 1-based iteration whose recursive state first differs (with+ vs
    /// with+ only).
    pub first_divergent_iteration: Option<usize>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}/{}] {} vs {}: {}",
            self.algo, self.graph, self.left, self.right, self.detail
        )?;
        if let Some(it) = self.first_divergent_iteration {
            write!(f, " (first divergent iteration: {it})")?;
        }
        Ok(())
    }
}

/// Coverage + divergence summary of one matrix run.
#[derive(Clone, Debug, Default)]
pub struct MatrixReport {
    pub algorithms: BTreeSet<String>,
    pub engine_families: BTreeSet<String>,
    pub graph_families: BTreeSet<String>,
    pub runs: usize,
    pub comparisons: usize,
    pub divergences: Vec<Divergence>,
}

impl MatrixReport {
    pub fn summary(&self) -> String {
        format!(
            "{} algorithms × {} engine families × {} graph families: \
             {} runs, {} comparisons, {} divergences",
            self.algorithms.len(),
            self.engine_families.len(),
            self.graph_families.len(),
            self.runs,
            self.comparisons,
            self.divergences.len()
        )
    }
}

/// Which graphs an algorithm can run on. TC's union-all baseline and the
/// path-counting oracle need acyclic inputs; TopoSort is DAG-only by
/// definition.
pub fn applicable(key: &str, g: &Graph) -> bool {
    match key {
        "tc" | "ts" => g.is_dag(),
        _ => g.node_count() > 0,
    }
}

fn validate_property(key: &str, g: &Graph, r: &AlgoResult) -> Result<(), String> {
    match (key, r) {
        ("mis", AlgoResult::NodeSet(set)) => {
            let mut flags = vec![false; g.node_count()];
            for &v in set {
                flags[v as usize] = true;
            }
            if !reference::is_independent_set(g, &flags) {
                return Err("result is not an independent set".into());
            }
            if !reference::is_maximal_independent_set(g, &flags) {
                return Err("independent set is not maximal".into());
            }
            Ok(())
        }
        ("mnm", AlgoResult::Matching(pairs)) => {
            // matching is over the underlying *undirected* graph (the
            // algorithm symmetrizes E internally), so validate against the
            // symmetric closure, not the stored orientation
            let edges: Vec<(u32, u32, f64)> = g.edges().collect();
            let und = Graph::from_edges(g.node_count(), &edges, false);
            let ps: Vec<(u32, u32)> = pairs.iter().map(|&(a, b)| (a as u32, b as u32)).collect();
            if !reference::is_valid_matching(&und, &ps) {
                return Err("result is not a valid matching".into());
            }
            if !reference::is_maximal_matching(&und, &ps) {
                return Err("matching is not maximal".into());
            }
            Ok(())
        }
        _ => Err(format!("no property oracle for {key} ({})", r.shape())),
    }
}

/// Run the with+ program for `key` and return the full [`QueryResult`]
/// (with per-iteration snapshots if the profile asks for them).
pub fn withplus_stats(
    key: &str,
    g: &Graph,
    profile: &EngineProfile,
    p: &Params,
) -> Result<QueryResult, String> {
    use aio_algos as a;
    let e = |e: aio_withplus::WithPlusError| e.to_string();
    let depth = g.node_count() + 1;
    match key {
        "tc" => a::tc::run(g, profile, depth).map(|r| r.1).map_err(e),
        "bfs" => a::bfs::run(g, profile, p.src).map(|r| r.1).map_err(e),
        "wcc" => a::wcc::run(g, profile).map(|r| r.1).map_err(e),
        "sssp" => a::sssp::run(g, profile, p.src).map(|r| r.1).map_err(e),
        "apsp" => a::apsp::run(g, profile).map(|r| r.1).map_err(e),
        "pr" => a::pagerank::run(g, profile, p.pr_c, p.pr_iters)
            .map(|r| r.1)
            .map_err(e),
        "rwr" => a::rwr::run(g, profile, p.src, p.rwr_c, p.rwr_iters)
            .map(|r| r.1)
            .map_err(e),
        "simrank" => a::simrank::run(g, profile, p.simrank_c, p.simrank_iters)
            .map(|r| r.1)
            .map_err(e),
        "hits" => a::hits::run(g, profile, p.hits_iters)
            .map(|r| r.1)
            .map_err(e),
        "ts" => a::toposort::run(g, profile).map(|r| r.1).map_err(e),
        "ks" => a::ks::run(g, profile, p.ks_labels, p.ks_depth)
            .map(|r| r.1)
            .map_err(e),
        "lp" => a::lp::run(g, profile, p.lp_iters).map(|r| r.1).map_err(e),
        "mis" => a::mis::run(g, profile, p.mis_seed).map(|r| r.1).map_err(e),
        "mnm" => a::mnm::run(g, profile).map(|r| r.1).map_err(e),
        "mcl" => a::mcl::run(g, profile, p.mcl_iters).map(|r| r.1).map_err(e),
        "kc" => a::kcore::run(g, profile, p.kcore_k).map(|r| r.1).map_err(e),
        "ktruss" => a::ktruss::run(g, profile, p.ktruss_k)
            .map(|r| r.1)
            .map_err(e),
        "bisim" => a::bisim::run(g, profile).map(|r| r.1).map_err(e),
        other => Err(format!("no with+ stats for {other}")),
    }
}

fn render_state(rel: &aio_storage::Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Re-run a with+-vs-with+ disagreement with per-iteration snapshots
/// enabled and report the first (1-based) iteration whose recursive state
/// differs. `None` if the states never differ (the divergence came from the
/// final select) or snapshots are unavailable for this algorithm.
pub fn first_divergent_iteration(
    key: &str,
    g: &Graph,
    left: &EngineProfile,
    right: &EngineProfile,
    p: &Params,
) -> Option<usize> {
    let a = withplus_stats(key, g, &left.clone().with_snapshots(true), p).ok()?;
    let b = withplus_stats(key, g, &right.clone().with_snapshots(true), p).ok()?;
    let (sa, sb) = (&a.stats.snapshots, &b.stats.snapshots);
    for i in 0..sa.len().min(sb.len()) {
        if render_state(&sa[i]) != render_state(&sb[i]) {
            return Some(i + 1);
        }
    }
    if sa.len() != sb.len() {
        return Some(sa.len().min(sb.len()) + 1);
    }
    None
}

/// Execute the full differential matrix over `corpus`.
pub fn run_matrix(corpus: &[NamedGraph], cfg: &MatrixConfig) -> MatrixReport {
    let mut report = MatrixReport::default();
    for named in corpus {
        report.graph_families.insert(named.name.clone());
        for &key in &cfg.algos {
            if !applicable(key, &named.graph) {
                continue;
            }
            let tol = match by_key(key) {
                Some(s) => s.equivalence().tolerance,
                None => continue,
            };
            // PageRank comparability across all six executor families needs
            // every node to have an incoming path of every length
            let graph = if key == "pr" {
                augment_spanning_cycle(&named.graph)
            } else {
                named.graph.clone()
            };
            let execs = executors_for_matrix(
                key,
                &cfg.parallelism,
                &cfg.optimizers,
                &cfg.exec_modes,
                cfg.sessions,
            );
            let mut results: Vec<(Executor, AlgoResult)> = Vec::new();
            for ex in execs {
                report.runs += 1;
                report.engine_families.insert(ex.family.clone());
                match run_algo(key, &graph, &ex, &cfg.params) {
                    Ok(r) => results.push((ex, r)),
                    Err(detail) => report.divergences.push(Divergence {
                        algo: key.into(),
                        graph: named.name.clone(),
                        left: ex.name.clone(),
                        right: "-".into(),
                        detail: format!("execution error: {detail}"),
                        first_divergent_iteration: None,
                    }),
                }
            }
            report.algorithms.insert(key.to_string());
            if tol == Tolerance::PropertyOracle {
                for (ex, r) in &results {
                    report.comparisons += 1;
                    if let Err(detail) = validate_property(key, &graph, r) {
                        report.divergences.push(Divergence {
                            algo: key.into(),
                            graph: named.name.clone(),
                            left: ex.name.clone(),
                            right: "property oracle".into(),
                            detail,
                            first_divergent_iteration: None,
                        });
                    }
                }
            }
            // Pairwise value comparison. Some answers are only compared
            // *within* one engine family (determinism across the
            // parallelism sweep, not across physical plans):
            // * property-oracle algorithms — `random()` draws follow row
            //   scan order, which legitimately differs between hash- and
            //   sort-based profiles, yielding different-but-valid sets;
            // * MCL — the cluster decode is an argmax over float sums that
            //   land on exact ties for symmetric structures, so the
            //   aggregation order of the physical plan can flip labels.
            let within_family_only = tol == Tolerance::PropertyOracle || key == "mcl";
            if let Some((base_ex, base)) = results.first() {
                for (ex, r) in &results[1..] {
                    let (l_ex, l) = if within_family_only {
                        match results.iter().find(|(b, _)| b.family == ex.family) {
                            Some((b, v)) if !std::ptr::eq(b, ex) => (b, v),
                            _ => continue,
                        }
                    } else {
                        (base_ex, base)
                    };
                    report.comparisons += 1;
                    if let Err(detail) = l.compare(r, &cmp_tolerance(tol)) {
                        let loc = if cfg.localize {
                            localize(key, &graph, l_ex, ex, &cfg.params)
                        } else {
                            None
                        };
                        report.divergences.push(Divergence {
                            algo: key.into(),
                            graph: named.name.clone(),
                            left: l_ex.name.clone(),
                            right: ex.name.clone(),
                            detail,
                            first_divergent_iteration: loc,
                        });
                    }
                }
            }
        }
    }
    report
}

/// Property-oracle answers are compared exactly (determinism check);
/// everything else uses the registry tolerance as-is.
fn cmp_tolerance(tol: Tolerance) -> Tolerance {
    match tol {
        Tolerance::PropertyOracle => Tolerance::Exact,
        t => t,
    }
}

fn localize(key: &str, g: &Graph, a: &Executor, b: &Executor, p: &Params) -> Option<usize> {
    match (&a.kind, &b.kind) {
        (ExecKind::WithPlus(pa), ExecKind::WithPlus(pb)) => {
            first_divergent_iteration(key, g, pa, pb, p)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_graph::{generate, GraphKind};

    #[test]
    fn tiny_matrix_has_no_divergences() {
        let corpus = vec![
            NamedGraph {
                name: "tiny-uniform".into(),
                graph: generate(GraphKind::Uniform, 14, 35, true, 71),
            },
            NamedGraph {
                name: "tiny-dag".into(),
                graph: generate(GraphKind::CitationDag, 12, 24, true, 72),
            },
        ];
        let cfg = MatrixConfig {
            algos: vec!["wcc", "tc", "ts"],
            parallelism: vec![1, 2],
            ..MatrixConfig::default()
        };
        let report = run_matrix(&corpus, &cfg);
        assert!(
            report.divergences.is_empty(),
            "{}",
            report
                .divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.runs > 0 && report.comparisons > 0);
        // ts/tc only ran on the DAG
        assert_eq!(report.graph_families.len(), 2);
    }

    #[test]
    fn sessions_axis_runs_clean_on_a_tiny_corpus() {
        let corpus = vec![NamedGraph {
            name: "tiny-uniform".into(),
            graph: generate(GraphKind::Uniform, 12, 28, true, 74),
        }];
        let cfg = MatrixConfig {
            algos: vec!["wcc", "pr"],
            parallelism: vec![1],
            sessions: true,
            ..MatrixConfig::default()
        };
        let report = run_matrix(&corpus, &cfg);
        assert!(
            report.divergences.is_empty(),
            "{}",
            report
                .divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        // 3 session runs per algorithm rode along with the serial ones
        assert!(report.runs >= 2 * 6, "{}", report.summary());
    }

    #[test]
    fn localization_finds_the_first_bad_iteration() {
        // two *different algorithms* would be apples/oranges; instead check
        // the snapshot comparator reports None for two identical runs
        let g = generate(GraphKind::Uniform, 10, 24, true, 73);
        let p = Params::default();
        let a = aio_algebra::oracle_like();
        let b = aio_algebra::postgres_like(true);
        assert_eq!(first_divergent_iteration("wcc", &g, &a, &b, &p), None);
    }
}
