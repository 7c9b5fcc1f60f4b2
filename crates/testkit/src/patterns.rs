//! Cyclic-pattern differential layer: WCOJ vs binary join plans.
//!
//! The worst-case-optimal multiway join (leapfrog triejoin) is proven
//! correct the same way the with+ programs are: differentially. For every
//! seeded graph and every cyclic pattern (triangle, 4-cycle, diamond,
//! k-clique) this module runs
//!
//! * a **forced binary** left-deep [`Plan::Join`] tree, and
//! * a **direct** [`Plan::MultiwayJoin`] built from the same atoms
//!   (so the WCOJ operator executes regardless of the cost model's
//!   decision), and
//! * the pattern's **SQL** through the full `Database` stack under
//!   optimizer ∈ {Off, Cost} (Cost may or may not pick the WCOJ plan —
//!   either way the answer must not change),
//!
//! each swept over parallelism × exec mode, and compares the results as
//! sorted row multisets. Any disagreement is a [`Divergence`] in the
//! shared [`MatrixReport`] shape.

use crate::corpus::NamedGraph;
use crate::diff::{Divergence, MatrixReport};
use aio_algebra::{
    agm_bound, choose_order, execute, is_cyclic, EngineProfile, ExecMode, Optimizer, Plan,
};
use aio_algebra::{oracle_like, JoinType};
use aio_algos::common::{db_for, EdgeStyle};
use aio_graph::{generate, Graph, GraphKind};

/// A conjunctive edge pattern: atoms `E(vars[i].0, vars[i].1)` over the
/// pattern variables `0..n_vars`. All built-in patterns are cyclic — that
/// is the point of the layer.
#[derive(Clone, Debug)]
pub struct Pattern {
    pub name: String,
    /// One `(from_var, to_var)` pair per edge atom.
    pub atoms: Vec<(usize, usize)>,
    pub n_vars: usize,
}

impl Pattern {
    fn new(name: &str, atoms: Vec<(usize, usize)>) -> Pattern {
        let n_vars = atoms.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(0);
        let p = Pattern {
            name: name.into(),
            atoms,
            n_vars,
        };
        debug_assert!(is_cyclic(&p.atom_vars()), "{} must be cyclic", p.name);
        p
    }

    /// E(a,b) ∧ E(b,c) ∧ E(c,a).
    pub fn triangle() -> Pattern {
        Pattern::new("triangle", vec![(0, 1), (1, 2), (2, 0)])
    }

    /// The chordless directed 4-cycle.
    pub fn four_cycle() -> Pattern {
        Pattern::new("4-cycle", vec![(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    /// A 4-cycle with one chord (two triangles sharing an edge).
    pub fn diamond() -> Pattern {
        Pattern::new("diamond", vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    }

    /// The k-path `0 → 1 → … → k−1` closed into a transitive clique:
    /// one atom per ordered pair `i < j`.
    pub fn clique(k: usize) -> Pattern {
        assert!(k >= 3, "a clique pattern needs k ≥ 3");
        let mut atoms = Vec::new();
        for i in 0..k {
            for j in i + 1..k {
                atoms.push((i, j));
            }
        }
        Pattern::new(&format!("{k}-clique"), atoms)
    }

    /// The atom → variable-set view the cyclicity detector and AGM bound
    /// consume.
    pub fn atom_vars(&self) -> Vec<Vec<usize>> {
        self.atoms.iter().map(|&(a, b)| vec![a, b]).collect()
    }

    /// Every `(atom, column)` slot binding each variable, in atom order.
    fn slots_of(&self) -> Vec<Vec<(usize, usize)>> {
        let mut slots = vec![Vec::new(); self.n_vars];
        for (i, &(a, b)) in self.atoms.iter().enumerate() {
            slots[a].push((i, 0));
            slots[b].push((i, 1));
        }
        slots
    }

    fn col_name(col: usize) -> &'static str {
        if col == 0 {
            "F"
        } else {
            "T"
        }
    }

    /// The pattern as SQL over the raw edge table `E(F, T, W)`, projecting
    /// one column per pattern variable.
    pub fn sql(&self) -> String {
        let slots = self.slots_of();
        let proj: Vec<String> = slots
            .iter()
            .enumerate()
            .map(|(v, s)| {
                let (atom, col) = s[0];
                format!("e{atom}.{} as v{v}", Self::col_name(col))
            })
            .collect();
        let from: Vec<String> = (0..self.atoms.len()).map(|i| format!("E e{i}")).collect();
        let mut preds = Vec::new();
        for s in &slots {
            for w in s.windows(2) {
                let ((a0, c0), (a1, c1)) = (w[0], w[1]);
                preds.push(format!(
                    "e{a0}.{} = e{a1}.{}",
                    Self::col_name(c0),
                    Self::col_name(c1)
                ));
            }
        }
        format!(
            "select {} from {} where {}",
            proj.join(", "),
            from.join(", "),
            preds.join(" and ")
        )
    }

    /// A left-deep binary join tree in atom order, equating each new
    /// atom's variable slots with their first earlier occurrence.
    pub fn binary_plan(&self) -> Plan {
        let mut plan = Plan::scan_as("E", "e0");
        for i in 1..self.atoms.len() {
            let mut on = Vec::new();
            let (a, b) = self.atoms[i];
            for (col, var) in [(0usize, a), (1usize, b)] {
                if let Some(&(pa, pc)) = self.slots_of()[var].iter().find(|&&(pa, _)| pa < i) {
                    on.push((
                        format!("e{pa}.{}", Self::col_name(pc)),
                        format!("e{i}.{}", Self::col_name(col)),
                    ));
                }
            }
            plan = Plan::Join {
                left: Box::new(plan),
                right: Box::new(Plan::scan_as("E", format!("e{i}"))),
                on,
                residual: None,
                kind: JoinType::Inner,
            };
        }
        plan
    }

    /// The direct [`Plan::MultiwayJoin`]: elimination order from
    /// [`choose_order`], AGM estimate from the edge count `m`.
    pub fn wcoj_plan(&self, m: usize) -> Plan {
        let atom_vars = self.atom_vars();
        let order = choose_order(self.n_vars, &atom_vars);
        let mut pos_of = vec![0usize; self.n_vars];
        for (pos, &v) in order.iter().enumerate() {
            pos_of[v] = pos;
        }
        let vars: Vec<Vec<Option<usize>>> = self
            .atoms
            .iter()
            .map(|&(a, b)| vec![Some(pos_of[a]), Some(pos_of[b]), None])
            .collect();
        let atoms: Vec<(f64, Vec<usize>)> = atom_vars
            .iter()
            .map(|vs| (m.max(1) as f64, vs.clone()))
            .collect();
        Plan::MultiwayJoin {
            children: (0..self.atoms.len())
                .map(|i| Plan::scan_as("E", format!("e{i}")))
                .collect(),
            vars,
            var_names: order.iter().map(|v| format!("v{v}")).collect(),
            agm_est: agm_bound(&atoms).min(u64::MAX as f64) as u64,
        }
    }
}

/// The default pattern set: the three fixed shapes plus the 4-clique.
pub fn default_patterns() -> Vec<Pattern> {
    vec![
        Pattern::triangle(),
        Pattern::four_cycle(),
        Pattern::diamond(),
        Pattern::clique(4),
    ]
}

/// Eight small seeded graphs spanning sparse/dense × uniform/power-law —
/// bit-reproducible, dense enough to contain every default pattern.
pub fn pattern_corpus() -> Vec<NamedGraph> {
    let specs: [(GraphKind, usize, usize, u64); 8] = [
        (GraphKind::Uniform, 12, 40, 701),
        (GraphKind::Uniform, 20, 80, 702),
        (GraphKind::Uniform, 30, 90, 703),
        (GraphKind::PowerLaw, 16, 64, 704),
        (GraphKind::PowerLaw, 24, 96, 705),
        (GraphKind::PowerLaw, 32, 100, 706),
        (GraphKind::Uniform, 10, 45, 707),
        (GraphKind::PowerLaw, 14, 56, 708),
    ];
    specs
        .iter()
        .map(|&(kind, n, m, seed)| NamedGraph {
            name: format!("{kind:?}-n{n}-m{m}-s{seed}"),
            graph: generate(kind, n, m, true, seed),
        })
        .collect()
}

/// What to sweep. Defaults follow the equivalence obligations: parallelism
/// {1, 8} × exec {row, batch} × optimizer {off, cost}.
#[derive(Clone, Debug)]
pub struct PatternMatrixConfig {
    pub patterns: Vec<Pattern>,
    pub parallelism: Vec<usize>,
    pub exec_modes: Vec<ExecMode>,
    pub optimizers: Vec<Optimizer>,
}

impl Default for PatternMatrixConfig {
    fn default() -> Self {
        PatternMatrixConfig {
            patterns: default_patterns(),
            parallelism: vec![1, 8],
            exec_modes: vec![ExecMode::Row, ExecMode::Batch],
            optimizers: vec![Optimizer::Off, Optimizer::Cost],
        }
    }
}

fn sorted_rows(rel: &aio_storage::Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

fn profile_for(p: usize, exec: ExecMode) -> EngineProfile {
    oracle_like().with_parallelism(p).with_exec(exec)
}

/// Run one plan against the raw edge table of `g` under `profile`.
fn run_plan(g: &Graph, plan: &Plan, profile: &EngineProfile) -> Result<Vec<String>, String> {
    let db = db_for(g, profile, EdgeStyle::Raw).map_err(|e| e.to_string())?;
    let (rel, _) = execute(plan, &db.catalog, profile).map_err(|e| e.to_string())?;
    Ok(sorted_rows(&rel))
}

/// Run the pattern's SQL through the full `Database` stack.
fn run_sql(
    g: &Graph,
    sql: &str,
    profile: &EngineProfile,
    opt: Optimizer,
    exec: ExecMode,
) -> Result<Vec<String>, String> {
    let mut db = db_for(g, profile, EdgeStyle::Raw).map_err(|e| e.to_string())?;
    db.set_optimizer(opt);
    db.set_exec_mode(exec);
    let out = db.execute(sql).map_err(|e| e.to_string())?;
    Ok(sorted_rows(&out.relation))
}

/// Execute the full pattern differential matrix over `corpus`.
///
/// Two comparison chains per (graph, pattern): the *plan* chain (forced
/// binary vs direct WCOJ — different physical operators, identical full
/// output rows) and the *SQL* chain (optimizer sweep over the projected
/// pattern query). Chains are compared against their own first result
/// because their output schemas differ.
pub fn run_pattern_matrix(corpus: &[NamedGraph], cfg: &PatternMatrixConfig) -> MatrixReport {
    let mut report = MatrixReport::default();
    for named in corpus {
        report.graph_families.insert(named.name.clone());
        let m = named.graph.edge_count();
        for pat in &cfg.patterns {
            report.algorithms.insert(format!("pattern/{}", pat.name));
            let binary = pat.binary_plan();
            let wcoj = pat.wcoj_plan(m);
            let sql = pat.sql();
            let mut diverge = |left: &str, right: &str, detail: String| {
                report.divergences.push(Divergence {
                    algo: format!("pattern/{}", pat.name),
                    graph: named.name.clone(),
                    left: left.into(),
                    right: right.into(),
                    detail,
                    first_divergent_iteration: None,
                });
            };
            // chain 1: forced binary vs direct WCOJ, full output rows
            let mut plan_base: Option<(String, Vec<String>)> = None;
            for &p in &cfg.parallelism {
                for &exec in &cfg.exec_modes {
                    let profile = profile_for(p, exec);
                    for (engine, plan) in [("binary", &binary), ("wcoj", &wcoj)] {
                        report.runs += 1;
                        let name = format!("pattern/{engine} p{p} exec={}", exec.label());
                        report
                            .engine_families
                            .insert(format!("pattern/{engine} exec={}", exec.label()));
                        match run_plan(&named.graph, plan, &profile) {
                            Ok(rows) => match &plan_base {
                                None => plan_base = Some((name, rows)),
                                Some((bname, brows)) => {
                                    report.comparisons += 1;
                                    if &rows != brows {
                                        diverge(
                                            bname,
                                            &name,
                                            format!(
                                                "{} vs {} result rows",
                                                brows.len(),
                                                rows.len()
                                            ),
                                        );
                                    }
                                }
                            },
                            Err(e) => diverge(&name, "-", format!("execution error: {e}")),
                        }
                    }
                }
            }
            // chain 2: the SQL query under the optimizer sweep
            let mut sql_base: Option<(String, Vec<String>)> = None;
            for &p in &cfg.parallelism {
                for &exec in &cfg.exec_modes {
                    let profile = profile_for(p, exec);
                    for &opt in &cfg.optimizers {
                        report.runs += 1;
                        let name =
                            format!("pattern/sql opt={} p{p} exec={}", opt.label(), exec.label());
                        report
                            .engine_families
                            .insert(format!("pattern/sql opt={}", opt.label()));
                        match run_sql(&named.graph, &sql, &profile, opt, exec) {
                            Ok(rows) => match &sql_base {
                                None => sql_base = Some((name, rows)),
                                Some((bname, brows)) => {
                                    report.comparisons += 1;
                                    if &rows != brows {
                                        diverge(
                                            bname,
                                            &name,
                                            format!(
                                                "{} vs {} result rows",
                                                brows.len(),
                                                rows.len()
                                            ),
                                        );
                                    }
                                }
                            },
                            Err(e) => diverge(&name, "-", format!("execution error: {e}")),
                        }
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_are_cyclic_and_well_formed() {
        for pat in default_patterns() {
            assert!(is_cyclic(&pat.atom_vars()), "{}", pat.name);
            assert!(pat.n_vars >= 3);
            // every variable occurs in ≥ 2 atoms (no dangling projections)
            let slots = pat.slots_of();
            assert!(slots.iter().all(|s| s.len() >= 2), "{}", pat.name);
        }
        assert_eq!(Pattern::clique(4).atoms.len(), 6);
        assert_eq!(Pattern::clique(5).atoms.len(), 10);
    }

    #[test]
    fn triangle_sql_mentions_every_alias_and_closes_the_cycle() {
        let sql = Pattern::triangle().sql();
        for alias in ["e0", "e1", "e2"] {
            assert!(sql.contains(alias), "{sql}");
        }
        assert!(
            sql.contains("e2.T = e0.F") || sql.contains("e0.F = e2.T"),
            "{sql}"
        );
    }

    #[test]
    fn tiny_pattern_matrix_is_clean() {
        let corpus = vec![pattern_corpus().remove(0)];
        let cfg = PatternMatrixConfig {
            patterns: vec![Pattern::triangle(), Pattern::four_cycle()],
            parallelism: vec![1],
            exec_modes: vec![ExecMode::Row],
            optimizers: vec![Optimizer::Off, Optimizer::Cost],
        };
        let report = run_pattern_matrix(&corpus, &cfg);
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
        assert_eq!(report.runs, 2 * (2 + 2));
        assert!(report.comparisons > 0);
    }

    #[test]
    fn wcoj_plan_binds_every_variable_once_per_atom() {
        let pat = Pattern::diamond();
        let Plan::MultiwayJoin {
            vars,
            var_names,
            agm_est,
            ..
        } = pat.wcoj_plan(100)
        else {
            panic!("expected a MultiwayJoin");
        };
        assert_eq!(var_names.len(), 4);
        assert!(agm_est > 0);
        for v in &vars {
            assert_eq!(v.len(), 3);
            assert_eq!(v.iter().filter(|x| x.is_some()).count(), 2);
        }
    }
}
