//! The incremental-vs-recompute differential matrix: live-graph mutation
//! scripts driven through [`aio_withplus::Database::apply_edges`], with the
//! maintained view checked row-for-row against a cold recompute after
//! *every* batch.
//!
//! The cell axes are algorithm × graph family × mutation script ×
//! parallelism × exec mode. The algorithms are chosen to cover every
//! refresh strategy the IVM layer implements:
//!
//! * `tc` — Monotone (`union`): insert-only batches resume semi-naive from
//!   a delta-derived seed, deletions fall back to a full rebuild;
//! * `wcc` / `sssp` — MonotoneUbu (`union by update` + bare `min`):
//!   insert-only batches run the frontier merge-improve loop;
//! * `pr` — Reconverge: every batch warm-starts the replace-UBU loop from
//!   the previous fixpoint with epsilon stopping.
//!
//! Mutation scripts are graph-level edit sequences; the E-table deltas fed
//! to `apply_edges` are derived by multiset-diffing the algorithm's *own*
//! edge encoding (self-loop devices, WCC's reverse edges, PageRank's
//! `1/outdeg` renormalization) before and after each batch, so a single
//! graph edit can legitimately fan out into many delete+insert row pairs.
//!
//! The oracle is deliberately boring: a fresh [`Database`] built from the
//! post-batch graph with the same view registered cold. Tolerance is exact
//! for the set/min-plus algorithms and keyed-epsilon for PageRank (warm
//! re-convergence stops within `epsilon` of the cold fixpoint, not on the
//! same iterate).
//!
//! [`shrink_ivm_case`] delta-debugs a failing cell — batches, then edits,
//! then base edges, then the vertex count — into a witness small enough to
//! read (the fault-injection test demands ≤ 8 nodes and ≤ 3 batches), and
//! [`ivm_replay`] serializes it through the standard replay format with the
//! script round-tripped in the detail line.

use crate::corpus::rebuild;
use crate::shrink::{CaseGraph, Replay};
use aio_algebra::{EngineProfile, ExecMode};
use aio_graph::{generate, load, Graph, GraphKind};
use aio_storage::{edge_schema, row, Relation, Row};
use aio_withplus::{Database, EdgeDelta};
use std::collections::{BTreeMap, BTreeSet};

/// The algorithms the IVM matrix covers, spanning all refresh strategies.
pub const IVM_ALGOS: &[&str] = &["tc", "wcc", "sssp", "pr"];

/// Default convergence epsilon for re-converging (PageRank-class) views.
pub const IVM_EPSILON: f64 = 1e-9;

/// Keyed comparison tolerance for re-converging views: warm and cold stop
/// within `IVM_EPSILON` of the true fixpoint each, so their difference is
/// bounded by a small multiple of it.
pub const PR_TOLERANCE: f64 = 1e-6;

/// View SQL per algorithm. Authored *without* `maxrecursion` so the same
/// stopping rule (set fixpoint, UBU stability, or epsilon) governs both the
/// cold build and every incremental refresh.
pub fn view_sql(algo: &str) -> &'static str {
    match algo {
        "tc" => {
            "with TC(F, T) as (\
                   (select E.F, E.T from E) \
                   union \
                   (select TC.F, E.T from TC, E where TC.T = E.F)) \
                 select * from TC"
        }
        "wcc" => {
            "with C(ID, vw) as (\
                    (select V.ID, 1.0 * V.ID from V) \
                    union by update ID \
                    (select E.T, min(C.vw * E.ew) from C, E where C.ID = E.F group by E.T)) \
                  select * from C"
        }
        "sssp" => {
            "with D(ID, vw) as (\
                     (select V.ID, V.vw from V) \
                     union by update ID \
                     (select E.T, min(D.vw + E.ew) from D, E where D.ID = E.F group by E.T)) \
                   select * from D"
        }
        "pr" => {
            "with P(ID, W) as (\
                   (select V.ID, 0.0 from V) \
                   union by update ID \
                   (select E.T, :c * sum(P.W * E.ew) + (1 - :c) / :n from P, E \
                    where P.ID = E.F group by E.T)) \
                 select ID, W from P"
        }
        other => panic!("no IVM view for {other}"),
    }
}

/// One graph-level edit batch: stored-form edges to append and to remove
/// (one occurrence each; removals must exist at application time).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Batch {
    pub add: Vec<(u32, u32, f64)>,
    pub del: Vec<(u32, u32, f64)>,
}

impl Batch {
    pub fn is_empty(&self) -> bool {
        self.add.is_empty() && self.del.is_empty()
    }
}

/// A named sequence of edit batches.
#[derive(Clone, Debug, PartialEq)]
pub struct MutationScript {
    pub name: String,
    pub batches: Vec<Batch>,
}

/// Serialize a script into a single line (`|`-separated batches of
/// `+u>v*w` / `-u>v*w` edits; floats via `{:?}` for a bit-exact
/// round-trip). Embedded in replay `detail` lines.
pub fn render_script(s: &MutationScript) -> String {
    let batch = |b: &Batch| {
        b.add
            .iter()
            .map(|&(u, v, w)| format!("+{u}>{v}*{w:?}"))
            .chain(b.del.iter().map(|&(u, v, w)| format!("-{u}>{v}*{w:?}")))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "{}: {}",
        s.name,
        s.batches.iter().map(batch).collect::<Vec<_>>().join(" | ")
    )
}

/// Parse [`render_script`] output back into a script.
pub fn parse_script(text: &str) -> Result<MutationScript, String> {
    let (name, rest) = text.split_once(':').ok_or("missing script name")?;
    let mut batches = Vec::new();
    for part in rest.split('|') {
        let mut b = Batch::default();
        for tok in part.split_whitespace() {
            let (sign, body) = tok.split_at(1);
            let (uv, w) = body
                .split_once('*')
                .ok_or_else(|| format!("bad edit {tok}"))?;
            let (u, v) = uv
                .split_once('>')
                .ok_or_else(|| format!("bad edit {tok}"))?;
            let edge = (
                u.parse::<u32>().map_err(|e| e.to_string())?,
                v.parse::<u32>().map_err(|e| e.to_string())?,
                w.parse::<f64>().map_err(|e| e.to_string())?,
            );
            match sign {
                "+" => b.add.push(edge),
                "-" => b.del.push(edge),
                other => return Err(format!("bad edit sign {other}")),
            }
        }
        batches.push(b);
    }
    Ok(MutationScript {
        name: name.trim().to_string(),
        batches,
    })
}

/// Minimal deterministic RNG (xorshift64*), mirroring [`crate::meta`].
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn random_new_edge(n: usize, rng: &mut Rng) -> (u32, u32, f64) {
    loop {
        let u = rng.below(n) as u32;
        let v = rng.below(n) as u32;
        if u != v {
            // weights from a small positive set so min-plus stays exact
            let w = [1.0, 2.0, 3.0][rng.below(3)];
            return (u, v, w);
        }
    }
}

/// The three canonical mutation-script families for a base graph:
///
/// * `grow` — insert-only batches (the incremental fast paths);
/// * `churn` — each batch mixes inserts with deletions (fallback +
///   re-convergence paths);
/// * `decay` — delete-only batches.
pub fn scripts_for(g: &Graph, seed: u64) -> Vec<MutationScript> {
    let n = g.node_count();
    let k = (g.edge_count() / 8).clamp(2, 12);
    let mut rng = Rng::new(seed ^ 0xA111A);
    let mut out = Vec::new();

    let grow = (0..3)
        .map(|_| Batch {
            add: (0..k).map(|_| random_new_edge(n, &mut rng)).collect(),
            del: Vec::new(),
        })
        .collect();
    out.push(MutationScript {
        name: "grow".into(),
        batches: grow,
    });

    // churn and decay sample deletions from the *current* edge multiset,
    // tracked batch to batch
    let mut cur: Vec<(u32, u32, f64)> = g.edges().collect();
    let mut churn = Vec::new();
    for _ in 0..3 {
        let mut b = Batch::default();
        for _ in 0..k {
            b.add.push(random_new_edge(n, &mut rng));
        }
        for _ in 0..k.min(cur.len()) {
            b.del.push(cur.swap_remove(rng.below(cur.len())));
        }
        cur.extend(b.add.iter().copied());
        churn.push(b);
    }
    out.push(MutationScript {
        name: "churn".into(),
        batches: churn,
    });

    let mut cur: Vec<(u32, u32, f64)> = g.edges().collect();
    let mut decay = Vec::new();
    for _ in 0..3 {
        let mut b = Batch::default();
        for _ in 0..k.min(cur.len().saturating_sub(1)) {
            b.del.push(cur.swap_remove(rng.below(cur.len())));
        }
        decay.push(b);
    }
    out.push(MutationScript {
        name: "decay".into(),
        batches: decay,
    });
    out
}

/// Apply one batch to a stored-form edge list. Fails if a deletion names an
/// edge that is not present.
pub fn apply_batch(edges: &mut Vec<(u32, u32, f64)>, batch: &Batch) -> Result<(), String> {
    for &(u, v, w) in &batch.del {
        let at = edges
            .iter()
            .position(|&e| e == (u, v, w))
            .ok_or_else(|| format!("delete of absent edge {u}>{v}*{w}"))?;
        edges.swap_remove(at);
    }
    edges.extend(batch.add.iter().copied());
    Ok(())
}

/// The algorithm's own E-table encoding of a graph: exactly the rows, in
/// order, that `aio_algos::common::db_for` + the per-algorithm setup load
/// (edges, self-loops, then the reversed edges of a directed WCC graph).
pub fn e_rows(g: &Graph, algo: &str) -> Vec<Row> {
    let mut rel = match algo {
        "pr" => load::edge_relation(&aio_graph::reference::with_pagerank_weights(g)),
        _ => load::edge_relation(g),
    };
    let loops = |w: f64| (0..g.node_count()).map(move |v| row![v as i64, v as i64, w]);
    let reversed = g.edges().map(|(u, v, w)| row![v as i64, u as i64, w]);
    let extra: Vec<Row> = match algo {
        "wcc" if g.directed => loops(1.0).chain(reversed).collect(),
        "wcc" => loops(1.0).collect(),
        "sssp" => loops(0.0).collect(),
        _ => Vec::new(),
    };
    rel.extend(extra).expect("three columns");
    rel.into_rows()
}

/// Multiset difference `new − old` / `old − new` over whole rows: the
/// [`EdgeDelta`] that turns one E-table state into the other.
pub fn e_delta(old: &[Row], new: &[Row]) -> EdgeDelta {
    let mut count: BTreeMap<&Row, i64> = BTreeMap::new();
    for r in new {
        *count.entry(r).or_insert(0) += 1;
    }
    for r in old {
        *count.entry(r).or_insert(0) -= 1;
    }
    let mut adds = Vec::new();
    let mut dels = Vec::new();
    for (r, c) in count {
        for _ in 0..c.max(0) {
            adds.push(r.clone());
        }
        for _ in 0..(-c).max(0) {
            dels.push(r.clone());
        }
    }
    EdgeDelta::new("E", adds, dels)
}

/// Build the database for `algo` over `g` with the rows the algorithm
/// library loads (SSSP seeds from node 0, PageRank params `c = 0.85`),
/// `E` created whole.
pub fn build_ivm_db(g: &Graph, algo: &str, profile: &EngineProfile) -> Result<Database, String> {
    if !["tc", "wcc", "sssp", "pr"].contains(&algo) {
        return Err(format!("no IVM setup for {algo}"));
    }
    let e = Relation::from_rows(edge_schema(), e_rows(g, algo)).map_err(|e| e.to_string())?;
    let mut db = aio_algos::common::db_over(g, profile, e).map_err(|e| e.to_string())?;
    match algo {
        "sssp" => aio_algos::sssp::seed(&mut db, 0).map_err(|e| e.to_string())?,
        "pr" => {
            db.set_param("c", 0.85);
            db.set_param("n", g.node_count() as f64);
        }
        _ => {}
    }
    Ok(db)
}

fn sorted_rows(rel: &Relation) -> Vec<Row> {
    let mut rows: Vec<Row> = rel.iter().cloned().collect();
    rows.sort();
    rows
}

/// Compare a maintained view against its cold oracle: exact multiset
/// equality, except re-converging algorithms (`pr`) compare per-key values
/// within [`PR_TOLERANCE`].
pub fn compare_view(algo: &str, live: &Relation, cold: &Relation) -> Result<(), String> {
    if algo != "pr" {
        let (a, b) = (sorted_rows(live), sorted_rows(cold));
        if a != b {
            let only_live: Vec<_> = a.iter().filter(|r| !b.contains(r)).take(3).collect();
            let only_cold: Vec<_> = b.iter().filter(|r| !a.contains(r)).take(3).collect();
            return Err(format!(
                "row mismatch: {} live vs {} cold rows; live-only {:?}, cold-only {:?}",
                a.len(),
                b.len(),
                only_live,
                only_cold
            ));
        }
        return Ok(());
    }
    let keyed = |rel: &Relation| -> Result<BTreeMap<i64, f64>, String> {
        rel.iter()
            .map(|r| {
                Ok((
                    r[0].as_int().ok_or("non-integer key")?,
                    r[1].as_f64().ok_or("non-float value")?,
                ))
            })
            .collect()
    };
    let (a, b) = (keyed(live)?, keyed(cold)?);
    if a.len() != b.len() {
        return Err(format!(
            "key count mismatch: {} live vs {} cold",
            a.len(),
            b.len()
        ));
    }
    for (k, va) in &a {
        let vb = b
            .get(k)
            .ok_or_else(|| format!("key {k} missing from cold run"))?;
        if (va - vb).abs() > PR_TOLERANCE {
            return Err(format!(
                "key {k}: live {va} vs cold {vb} (tol {PR_TOLERANCE})"
            ));
        }
    }
    Ok(())
}

/// Outcome of one matrix cell: refresh modes used per batch, or the first
/// divergence (batch is 1-based).
pub struct CellOutcome {
    pub modes: Vec<String>,
    pub failure: Option<(usize, String)>,
}

/// Drive one (algorithm, graph, script) case under `profile`: register the
/// view, apply every batch through `apply_edges`, and after each batch
/// compare against a cold rebuild on the post-batch graph.
pub fn run_ivm_case(
    algo: &str,
    g: &Graph,
    script: &MutationScript,
    profile: &EngineProfile,
) -> CellOutcome {
    let mut modes = Vec::new();
    let fail = |i: usize, d: String| CellOutcome {
        modes: Vec::new(),
        failure: Some((i, d)),
    };
    let view = format!("ivm_{algo}");
    let mut db = match build_ivm_db(g, algo, profile) {
        Ok(db) => db,
        Err(e) => return fail(0, format!("setup: {e}")),
    };
    if let Err(e) = db.create_view_with(&view, view_sql(algo), IVM_EPSILON) {
        return fail(0, format!("create_view: {e}"));
    }
    let mut cur_edges: Vec<(u32, u32, f64)> = g.edges().collect();
    let mut cur = g.clone();
    for (i, batch) in script.batches.iter().enumerate() {
        let no = i + 1;
        if let Err(e) = apply_batch(&mut cur_edges, batch) {
            return fail(no, format!("bad script: {e}"));
        }
        let next = rebuild(g.node_count(), &cur_edges, g);
        let delta = e_delta(&e_rows(&cur, algo), &e_rows(&next, algo));
        if let Err(e) = db.apply_edges(vec![delta]) {
            return fail(no, format!("apply_edges: {e}"));
        }
        modes.push(
            db.view_report(&view)
                .map(|r| r.mode.label().to_string())
                .unwrap_or_else(|| "?".into()),
        );
        // cold oracle on the post-batch graph
        let cold = match build_ivm_db(&next, algo, profile) {
            Ok(mut db2) => match db2.create_view_with(&view, view_sql(algo), IVM_EPSILON) {
                Ok(()) => db2.view_relation(&view).cloned().map_err(|e| e.to_string()),
                Err(e) => Err(e.to_string()),
            },
            Err(e) => Err(e),
        };
        let cold = match cold {
            Ok(r) => r,
            Err(e) => return fail(no, format!("cold rebuild: {e}")),
        };
        let live = match db.view_relation(&view) {
            Ok(r) => r,
            Err(e) => return fail(no, format!("view_relation: {e}")),
        };
        if let Err(detail) = compare_view(algo, live, &cold) {
            return CellOutcome {
                modes,
                failure: Some((no, detail)),
            };
        }
        cur = next;
    }
    CellOutcome {
        modes,
        failure: None,
    }
}

/// What to run. Defaults to the full acceptance matrix: 4 algorithms ×
/// 4 graph families × 3 mutation scripts × parallelism {1, 8} × exec
/// {row, batch}.
#[derive(Clone, Debug)]
pub struct IvmMatrixConfig {
    pub algos: Vec<&'static str>,
    pub parallelism: Vec<usize>,
    pub exec_modes: Vec<ExecMode>,
    /// Restrict to these script names; empty = all of [`scripts_for`].
    pub scripts: Vec<&'static str>,
    pub seed: u64,
}

impl Default for IvmMatrixConfig {
    fn default() -> Self {
        IvmMatrixConfig {
            algos: IVM_ALGOS.to_vec(),
            parallelism: vec![1, 8],
            exec_modes: vec![ExecMode::Row, ExecMode::Batch],
            scripts: Vec::new(),
            seed: 7,
        }
    }
}

impl IvmMatrixConfig {
    /// A tier-1-sized slice: every algorithm and script family, serial row
    /// execution only.
    pub fn smoke() -> Self {
        IvmMatrixConfig {
            parallelism: vec![1],
            exec_modes: vec![ExecMode::Row],
            ..IvmMatrixConfig::default()
        }
    }
}

/// The IVM corpus: one small graph per structural family. Sizes are kept
/// modest because every cell pays `batches × (incremental + cold rebuild)`.
pub fn ivm_corpus(seed: u64) -> Vec<(String, Graph)> {
    vec![
        (
            "uniform".into(),
            generate(GraphKind::Uniform, 18, 40, true, seed),
        ),
        (
            "power-law".into(),
            generate(GraphKind::PowerLaw, 18, 45, true, seed + 1),
        ),
        (
            "citation-dag".into(),
            generate(GraphKind::CitationDag, 16, 32, true, seed + 2),
        ),
        (
            "disconnected".into(),
            generate(GraphKind::Disconnected, 18, 24, true, seed + 3),
        ),
    ]
}

/// One observed incremental-vs-recompute disagreement.
#[derive(Clone, Debug)]
pub struct IvmDivergence {
    pub algo: String,
    pub graph: String,
    pub script: String,
    /// 1-based batch whose post-refresh state diverged.
    pub batch: usize,
    /// Executor description (`par=8 exec=batch`).
    pub exec: String,
    pub detail: String,
}

impl std::fmt::Display for IvmDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}/{}/{} batch {} {}] {}",
            self.algo, self.graph, self.script, self.batch, self.exec, self.detail
        )
    }
}

/// Coverage + divergence summary of one IVM matrix run.
#[derive(Clone, Debug, Default)]
pub struct IvmMatrixReport {
    pub algorithms: BTreeSet<String>,
    pub graph_families: BTreeSet<String>,
    pub scripts: BTreeSet<String>,
    pub cells: usize,
    pub batches: usize,
    pub comparisons: usize,
    /// How often each refresh strategy ran (resume / frontier /
    /// re-converge / full).
    pub refresh_modes: BTreeMap<String, usize>,
    pub divergences: Vec<IvmDivergence>,
}

impl IvmMatrixReport {
    pub fn summary(&self) -> String {
        let modes = self
            .refresh_modes
            .iter()
            .map(|(m, c)| format!("{m}×{c}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{} algorithms × {} graph families × {} scripts: {} cells, \
             {} batches, {} comparisons, {} divergences (refreshes: {modes})",
            self.algorithms.len(),
            self.graph_families.len(),
            self.scripts.len(),
            self.cells,
            self.batches,
            self.comparisons,
            self.divergences.len()
        )
    }
}

/// Execute the full incremental-vs-recompute matrix.
pub fn run_ivm_matrix(cfg: &IvmMatrixConfig) -> IvmMatrixReport {
    let mut report = IvmMatrixReport::default();
    for (family, g) in ivm_corpus(cfg.seed) {
        report.graph_families.insert(family.clone());
        for &algo in &cfg.algos {
            report.algorithms.insert(algo.to_string());
            for script in scripts_for(&g, cfg.seed) {
                if !cfg.scripts.is_empty() && !cfg.scripts.contains(&script.name.as_str()) {
                    continue;
                }
                report.scripts.insert(script.name.clone());
                for &par in &cfg.parallelism {
                    for &exec in &cfg.exec_modes {
                        let profile = aio_algebra::oracle_like()
                            .with_parallelism(par)
                            .with_exec(exec);
                        let exec_desc = format!("par={par} exec={}", exec.label());
                        report.cells += 1;
                        let out = run_ivm_case(algo, &g, &script, &profile);
                        report.batches += out.modes.len();
                        report.comparisons += out.modes.len();
                        for m in &out.modes {
                            *report.refresh_modes.entry(m.clone()).or_insert(0) += 1;
                        }
                        if let Some((batch, detail)) = out.failure {
                            report.divergences.push(IvmDivergence {
                                algo: algo.into(),
                                graph: family.clone(),
                                script: script.name.clone(),
                                batch,
                                exec: exec_desc,
                                detail,
                            });
                        }
                    }
                }
            }
        }
    }
    report
}

/// Metamorphic batch relations for one (algorithm, graph, script) case:
/// the final maintained state must be invariant under (a) coalescing the
/// whole script into one batch and (b) shuffling the edits inside each
/// batch. `pr` compares within [`PR_TOLERANCE`]; everything else exactly.
pub fn check_batch_metamorphic(
    algo: &str,
    g: &Graph,
    script: &MutationScript,
    profile: &EngineProfile,
) -> Result<(), String> {
    let final_rows = |script: &MutationScript| -> Result<Relation, String> {
        let out = run_ivm_case(algo, g, script, profile);
        if let Some((batch, detail)) = out.failure {
            return Err(format!("[{} batch {batch}] {detail}", script.name));
        }
        // replay the edits to rebuild the final graph, then read the view
        // off a fresh incremental run — rerun instead of threading state out
        let mut db = build_ivm_db(g, algo, profile)?;
        db.create_view_with("m", view_sql(algo), IVM_EPSILON)
            .map_err(|e| e.to_string())?;
        let mut edges: Vec<(u32, u32, f64)> = g.edges().collect();
        let mut cur = g.clone();
        for b in &script.batches {
            apply_batch(&mut edges, b)?;
            let next = rebuild(g.node_count(), &edges, g);
            db.apply_edges(vec![e_delta(&e_rows(&cur, algo), &e_rows(&next, algo))])
                .map_err(|e| e.to_string())?;
            cur = next;
        }
        db.view_relation("m").cloned().map_err(|e| e.to_string())
    };

    let base = final_rows(script)?;

    // (a) one coalesced batch with the same net effect
    let mut edges: Vec<(u32, u32, f64)> = g.edges().collect();
    for b in &script.batches {
        apply_batch(&mut edges, b)?;
    }
    let final_graph = rebuild(g.node_count(), &edges, g);
    // the coalesced variant is one apply_edges call with the net delta
    // (it can't always be expressed as graph edits — a script may delete
    // edges an earlier batch added)
    let net = e_delta(&e_rows(g, algo), &e_rows(&final_graph, algo));
    let coalesced_rows = {
        let mut db = build_ivm_db(g, algo, profile)?;
        db.create_view_with("m", view_sql(algo), IVM_EPSILON)
            .map_err(|e| e.to_string())?;
        db.apply_edges(vec![net]).map_err(|e| e.to_string())?;
        db.view_relation("m").cloned().map_err(|e| e.to_string())?
    };
    compare_view(algo, &coalesced_rows, &base)
        .map_err(|e| format!("coalesced vs per-batch: {e}"))?;

    // (b) shuffle the edit order inside every batch
    let mut rng = Rng::new(0xC0FFEE);
    let shuffled = MutationScript {
        name: format!("{}-shuffled", script.name),
        batches: script
            .batches
            .iter()
            .map(|b| {
                let mut b = b.clone();
                for i in (1..b.add.len()).rev() {
                    b.add.swap(i, rng.below(i + 1));
                }
                for i in (1..b.del.len()).rev() {
                    b.del.swap(i, rng.below(i + 1));
                }
                b
            })
            .collect(),
    };
    let shuffled_rows = final_rows(&shuffled)?;
    compare_view(algo, &shuffled_rows, &base).map_err(|e| format!("shuffled vs base: {e}"))
}

/// The insert-then-delete no-op relation: a batch that adds `k` fresh edges
/// and deletes them *in the same batch* must commit a generation whose
/// result delta is empty and leave the view rows bit-identical.
pub fn check_net_zero_batch(algo: &str, g: &Graph, profile: &EngineProfile) -> Result<(), String> {
    let mut db = build_ivm_db(g, algo, profile)?;
    db.create_view_with("z", view_sql(algo), IVM_EPSILON)
        .map_err(|e| e.to_string())?;
    let before = db.view_relation("z").cloned().map_err(|e| e.to_string())?;
    let mut rng = Rng::new(0xDEAD10);
    let fresh: Vec<Row> = (0..3)
        .map(|_| {
            let (u, v, w) = random_new_edge(g.node_count(), &mut rng);
            row![u as i64, v as i64, w]
        })
        .collect();
    let deltas = db
        .apply_edges(vec![EdgeDelta::new("E", fresh.clone(), fresh)])
        .map_err(|e| e.to_string())?;
    if !deltas.is_empty() {
        return Err(format!(
            "net-zero batch must cancel out before refreshing, got {} result deltas",
            deltas.len()
        ));
    }
    let after = db.view_relation("z").cloned().map_err(|e| e.to_string())?;
    if sorted_rows(&before) != sorted_rows(&after) {
        return Err("net-zero batch changed the view rows".into());
    }
    Ok(())
}

/// Does `(graph, script)` still make the incremental path diverge from the
/// cold recompute? The predicate behind every shrinking phase.
pub fn ivm_case_fails(
    algo: &str,
    g: &Graph,
    script: &MutationScript,
    profile: &EngineProfile,
) -> bool {
    run_ivm_case(algo, g, script, profile).failure.is_some()
}

/// Delta-debug a failing IVM case to a minimal witness: drop whole
/// batches, then individual edits, then base-graph edges, then unused
/// trailing vertices. Node ids are never remapped, so the script stays
/// valid against the shrunk graph.
pub fn shrink_ivm_case(
    algo: &str,
    g: &Graph,
    script: &MutationScript,
    profile: &EngineProfile,
) -> (CaseGraph, MutationScript) {
    use crate::shrink::ddmin;
    let mut case = CaseGraph::from_graph(g);
    let mut cur = script.clone();

    // phase 1: whole batches
    cur.batches = ddmin(&cur.batches, |bs| {
        let s = MutationScript {
            name: cur.name.clone(),
            batches: bs.to_vec(),
        };
        ivm_case_fails(algo, &case.to_graph(), &s, profile)
    });

    // phase 2: individual edits, batch by batch (adds then dels)
    for i in 0..cur.batches.len() {
        let adds = cur.batches[i].add.clone();
        cur.batches[i].add = ddmin(&adds, |a| {
            let mut s = cur.clone();
            s.batches[i].add = a.to_vec();
            ivm_case_fails(algo, &case.to_graph(), &s, profile)
        });
        let dels = cur.batches[i].del.clone();
        cur.batches[i].del = ddmin(&dels, |d| {
            let mut s = cur.clone();
            s.batches[i].del = d.to_vec();
            ivm_case_fails(algo, &case.to_graph(), &s, profile)
        });
    }
    cur.batches.retain(|b| !b.is_empty());

    // phase 3: base edges (deletions must keep naming live edges, which the
    // failure predicate enforces by treating bad scripts as non-failures —
    // apply_batch errors surface as divergences, so guard explicitly)
    let script_ok = |g: &Graph, s: &MutationScript| {
        let mut edges: Vec<(u32, u32, f64)> = g.edges().collect();
        s.batches.iter().all(|b| apply_batch(&mut edges, b).is_ok())
    };
    case.edges = ddmin(&case.edges.clone(), |es| {
        let mut c = case.clone();
        c.edges = es.to_vec();
        let g = c.to_graph();
        script_ok(&g, &cur) && ivm_case_fails(algo, &g, &cur, profile)
    });

    // phase 4: compact to the vertices still referenced by an edge or an
    // edit, remapping ids order-preservingly in both the graph AND the
    // script; keep only if the compacted case still fails
    let mut used: Vec<u32> = case.edges.iter().flat_map(|&(u, v, _)| [u, v]).collect();
    for b in &cur.batches {
        used.extend(b.add.iter().chain(&b.del).flat_map(|&(u, v, _)| [u, v]));
    }
    used.sort_unstable();
    used.dedup();
    if !used.is_empty() && used.len() < case.n {
        let mut remap = vec![u32::MAX; case.n];
        for (new, &old) in used.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let map_edges = |es: &[(u32, u32, f64)]| {
            es.iter()
                .map(|&(u, v, w)| (remap[u as usize], remap[v as usize], w))
                .collect()
        };
        let c = CaseGraph {
            n: used.len(),
            directed: case.directed,
            edges: map_edges(&case.edges),
            node_weights: used
                .iter()
                .map(|&v| case.node_weights[v as usize])
                .collect(),
            labels: used.iter().map(|&v| case.labels[v as usize]).collect(),
        };
        let s = MutationScript {
            name: cur.name.clone(),
            batches: cur
                .batches
                .iter()
                .map(|b| Batch {
                    add: map_edges(&b.add),
                    del: map_edges(&b.del),
                })
                .collect(),
        };
        if ivm_case_fails(algo, &c.to_graph(), &s, profile) {
            case = c;
            cur = s;
        }
    }
    (case, cur)
}

/// Package a shrunk IVM failure as a standard replay file; the mutation
/// script rides in the detail line (see [`parse_script`]).
pub fn ivm_replay(algo: &str, detail: &str, case: &CaseGraph, script: &MutationScript) -> Replay {
    Replay {
        algo: format!("ivm-{algo}"),
        detail: format!("{detail} // script {}", render_script(script)),
        case: case.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::oracle_like;

    /// The seed fault flag is process-global: tests that arm it must not
    /// interleave with tests exercising the clipped resume/frontier paths.
    static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn fault_guard() -> std::sync::MutexGuard<'static, ()> {
        FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn scripts_are_deterministic_and_apply_cleanly() {
        let g = generate(GraphKind::Uniform, 12, 30, true, 5);
        let a = scripts_for(&g, 9);
        let b = scripts_for(&g, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        for s in &a {
            let mut edges: Vec<_> = g.edges().collect();
            for batch in &s.batches {
                apply_batch(&mut edges, batch).unwrap();
            }
        }
    }

    #[test]
    fn script_render_round_trips() {
        let g = generate(GraphKind::PowerLaw, 10, 25, true, 6);
        for s in scripts_for(&g, 11) {
            let parsed = parse_script(&render_script(&s)).unwrap();
            assert_eq!(parsed, s);
        }
        assert!(parse_script("no batches here").is_err());
    }

    #[test]
    fn e_delta_is_an_exact_multiset_diff() {
        let old = vec![row![1, 2, 1.0], row![2, 3, 1.0], row![2, 3, 1.0]];
        let new = vec![row![2, 3, 1.0], row![4, 5, 2.0]];
        let d = e_delta(&old, &new);
        assert_eq!(d.adds, vec![row![4, 5, 2.0]]);
        assert_eq!(d.dels, vec![row![1, 2, 1.0], row![2, 3, 1.0]]);
    }

    #[test]
    fn pagerank_edge_deltas_renormalize_out_degrees() {
        // adding an out-edge to node 0 changes the weight of every
        // existing out-edge of node 0: the delta must be del+add pairs
        let g = Graph::from_edges(3, &[(0, 1, 1.0)], true);
        let g2 = Graph::from_edges(3, &[(0, 1, 1.0), (0, 2, 1.0)], true);
        let d = e_delta(&e_rows(&g, "pr"), &e_rows(&g2, "pr"));
        assert_eq!(d.dels, vec![row![0, 1, 1.0]]);
        assert_eq!(d.adds, vec![row![0, 1, 0.5], row![0, 2, 0.5]]);
    }

    #[test]
    fn single_cell_runs_clean_per_algorithm() {
        let _g = fault_guard();
        let g = generate(GraphKind::Uniform, 12, 28, true, 13);
        for &algo in IVM_ALGOS {
            let script = &scripts_for(&g, 13)[0]; // grow
            let out = run_ivm_case(algo, &g, script, &oracle_like());
            assert!(out.failure.is_none(), "{algo}: {:?}", out.failure);
            assert_eq!(out.modes.len(), 3);
        }
    }

    #[test]
    fn deletions_fall_back_but_stay_correct() {
        let _g = fault_guard();
        let g = generate(GraphKind::Uniform, 12, 28, true, 17);
        let scripts = scripts_for(&g, 17);
        let decay = scripts.iter().find(|s| s.name == "decay").unwrap();
        let out = run_ivm_case("tc", &g, decay, &oracle_like());
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert!(out.modes.iter().all(|m| m == "full"), "{:?}", out.modes);
    }

    #[test]
    fn net_zero_batches_are_noops_everywhere() {
        let _g = fault_guard();
        let g = generate(GraphKind::Uniform, 10, 22, true, 19);
        for &algo in IVM_ALGOS {
            check_net_zero_batch(algo, &g, &oracle_like()).unwrap();
        }
    }

    #[test]
    fn metamorphic_relations_hold_for_tc_grow() {
        let _g = fault_guard();
        let g = generate(GraphKind::CitationDag, 10, 20, true, 23);
        let script = &scripts_for(&g, 23)[0];
        check_batch_metamorphic("tc", &g, script, &oracle_like()).unwrap();
    }

    #[test]
    fn planted_seed_fault_is_caught_and_shrinks_small() {
        let _g = fault_guard();
        let g = generate(GraphKind::CitationDag, 12, 24, true, 29);
        let script = scripts_for(&g, 29).remove(0); // grow: insert-only → resume
        let profile = oracle_like();
        aio_algebra::fault::inject_ivm_seed_off_by_one(true);
        let caught = ivm_case_fails("tc", &g, &script, &profile);
        let (case, min_script) = if caught {
            shrink_ivm_case("tc", &g, &script, &profile)
        } else {
            aio_algebra::fault::inject_ivm_seed_off_by_one(false);
            panic!("planted seed fault was not detected");
        };
        let still_fails = ivm_case_fails("tc", &case.to_graph(), &min_script, &profile);
        aio_algebra::fault::inject_ivm_seed_off_by_one(false);
        assert!(
            still_fails,
            "shrunk witness must still fail under the fault"
        );
        assert!(case.n <= 8, "witness has {} nodes", case.n);
        assert!(
            min_script.batches.len() <= 3,
            "witness has {} batches",
            min_script.batches.len()
        );
        // healthy engine passes the witness
        assert!(!ivm_case_fails(
            "tc",
            &case.to_graph(),
            &min_script,
            &profile
        ));
        // and the replay round-trips, script included
        let rep = ivm_replay("tc", "seed off-by-one", &case, &min_script);
        let parsed = Replay::parse(&rep.render()).unwrap();
        assert_eq!(parsed.case, case);
        let script_text = parsed.detail.split("// script ").nth(1).unwrap();
        assert_eq!(parse_script(script_text).unwrap(), min_script);
    }
}
