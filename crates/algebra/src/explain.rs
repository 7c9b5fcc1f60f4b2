//! EXPLAIN ANALYZE: render a [`Plan`] tree annotated with the spans its
//! execution recorded.
//!
//! The traced [`Evaluator`](crate::Evaluator) stamps every operator span
//! with the node's *pre-order id* (field `node`); both it and
//! [`walk_pre_order`] follow [`Plan::children`]. Re-walking the plan here and
//! grouping spans by that id yields per-node aggregates — invocation count,
//! total wall time, output cardinality, and for joins the build/probe phase
//! split — across however many times the plan ran (a with+ recursive step
//! executes once per iteration; EXPLAIN sums them and reports `calls`).

use crate::plan::Plan;
use aio_trace::{SpanRecord, Trace};
use std::collections::{BTreeMap, HashMap};

/// Aggregated measurements for one plan node across all its invocations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeAgg {
    pub calls: u64,
    pub rows_out: u64,
    pub time_ns: u64,
    pub build_ns: u64,
    pub probe_ns: u64,
    pub morsels: u64,
    /// Summed optimizer cardinality estimates (field `est_rows`), parallel
    /// to `rows_out`, and how many invocations recorded one — estimates are
    /// only stamped when the evaluator traces with statistics available.
    pub est_rows: u64,
    pub est_recorded: u64,
    /// Columnar batches produced (field `batches`), stamped only when the
    /// evaluator runs in [`ExecMode::Batch`](crate::profile::ExecMode) and
    /// the node produced columns; row-mode renders are unchanged.
    pub batches: u64,
    pub batches_recorded: u64,
    /// Invocations that ran entirely on column kernels (field `typed` =
    /// true) out of those that recorded the field — batch-mode project and
    /// aggregate nodes only.
    pub typed: u64,
    pub typed_recorded: u64,
    /// How a join that a small input drove through a table's cached trie
    /// ran (field `join_index`: `driven=D, index=E.F`), with the number of
    /// invocations that ran that way; hashed calls record none.
    pub join_index: BTreeMap<String, u64>,
    /// Invocations of an aggregate that ran as one operator with the join
    /// under it (field `fused`).
    pub fused: u64,
}

impl NodeAgg {
    fn absorb(&mut self, s: &SpanRecord) {
        self.calls += 1;
        self.time_ns += s.dur_ns();
        self.rows_out += s.field_u64("rows_out").unwrap_or(0);
        self.build_ns += s.field_u64("build_ns").unwrap_or(0);
        self.probe_ns += s.field_u64("probe_ns").unwrap_or(0);
        self.morsels += s.field_u64("morsels").unwrap_or(0);
        if let Some(e) = s.field_u64("est_rows") {
            self.est_rows += e;
            self.est_recorded += 1;
        }
        if let Some(b) = s.field_u64("batches") {
            self.batches += b;
            self.batches_recorded += 1;
        }
        if let Some(aio_trace::FieldValue::Bool(t)) = s.field("typed") {
            self.typed += *t as u64;
            self.typed_recorded += 1;
        }
        if let Some(aio_trace::FieldValue::Str(how)) = s.field("join_index") {
            *self.join_index.entry(how.clone()).or_default() += 1;
        }
        if let Some(aio_trace::FieldValue::Bool(true)) = s.field("fused") {
            self.fused += 1;
        }
    }
}

/// One-line logical description of a plan node (no children).
pub fn describe(plan: &Plan) -> String {
    match plan {
        Plan::Scan { table, alias } => match alias {
            Some(a) if a != table => format!("Scan {table} AS {a}"),
            _ => format!("Scan {table}"),
        },
        Plan::Values(rel) => format!("Values ({} rows)", rel.len()),
        Plan::Select { pred, .. } => format!("Select {pred}"),
        Plan::Project { items, .. } => format!(
            "Project [{}]",
            items
                .iter()
                .map(|(_, n)| n.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Plan::Aggregate { group_by, .. } => {
            if group_by.is_empty() {
                "Aggregate".to_string()
            } else {
                format!("Aggregate by [{}]", group_by.join(", "))
            }
        }
        Plan::Window { partition_by, .. } => {
            format!("Window partition by [{}]", partition_by.join(", "))
        }
        Plan::Distinct(_) => "Distinct".to_string(),
        Plan::Join {
            on, residual, kind, ..
        } => {
            let keys = on
                .iter()
                .map(|(l, r)| format!("{l}={r}"))
                .collect::<Vec<_>>()
                .join(" and ");
            let mut s = format!("Join[{kind:?}] on {keys}");
            if let Some(p) = residual {
                s.push_str(&format!(" where {p}"));
            }
            s
        }
        Plan::Product { .. } => "Product".to_string(),
        Plan::UnionAll { .. } => "UnionAll".to_string(),
        Plan::Union { .. } => "Union".to_string(),
        Plan::Difference { .. } => "Difference".to_string(),
        Plan::AntiJoin { on, imp, .. } => format!(
            "AntiJoin[{imp:?}] on {}",
            on.iter()
                .map(|(l, r)| format!("{l}={r}"))
                .collect::<Vec<_>>()
                .join(" and ")
        ),
        Plan::SemiJoin { on, .. } => format!(
            "SemiJoin on {}",
            on.iter()
                .map(|(l, r)| format!("{l}={r}"))
                .collect::<Vec<_>>()
                .join(" and ")
        ),
        Plan::MultiwayJoin {
            var_names, agm_est, ..
        } => format!(
            "MultiwayJoin vars={} agm_est={agm_est}",
            crate::wcoj::render_vars(var_names)
        ),
    }
}

/// Visit `plan` in the evaluator's pre-order (node, then children in
/// evaluation order), calling `f(id, node)` for each.
pub fn walk_pre_order<'p>(plan: &'p Plan, f: &mut impl FnMut(u64, &'p Plan)) {
    let mut id = 0u64;
    plan.visit(&mut |p| {
        f(id, p);
        id += 1;
    });
}

/// Group op spans by their `node` field.
pub(crate) fn aggregate_by_node<'s>(
    spans: impl IntoIterator<Item = &'s SpanRecord>,
) -> HashMap<u64, NodeAgg> {
    let mut by_node: HashMap<u64, NodeAgg> = HashMap::new();
    for s in spans {
        if let Some(n) = s.field_u64("node") {
            by_node.entry(n).or_default().absorb(s);
        }
    }
    by_node
}

/// All spans in `trace` that are (transitive) descendants of span
/// `root` — the op spans of one plan execution when `root` is the
/// query-level span wrapping it.
pub fn spans_under(trace: &Trace, root: u64) -> Vec<&SpanRecord> {
    let parent_of: HashMap<u64, u64> = trace.spans.iter().map(|s| (s.id, s.parent)).collect();
    let mut out: Vec<&SpanRecord> = trace
        .spans
        .iter()
        .filter(|s| {
            let mut cur = s.parent;
            while cur != 0 {
                if cur == root {
                    return true;
                }
                cur = parent_of.get(&cur).copied().unwrap_or(0);
            }
            false
        })
        .collect();
    out.sort_by_key(|s| s.id);
    out
}

/// Human-readable duration (ns → µs/ms/s as appropriate).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Render the annotated plan tree. `spans` must be the op spans of
/// executions of *this* plan (filter with [`spans_under`] first when the
/// trace covers more than one plan). With `timings` off, wall-clock
/// annotations are suppressed — that variant is deterministic and
/// snapshot-friendly.
pub fn render_analyzed(plan: &Plan, spans: &[&SpanRecord], timings: bool) -> String {
    let by_node = aggregate_by_node(spans.iter().copied());
    let mut out = String::new();
    render_node(plan, &mut 0, &by_node, timings, "", true, true, &mut out);
    out
}

/// ` how` when every call ran that way, else ` how (n/calls calls)`.
fn calls_that_way(how: &str, n: u64, calls: u64) -> String {
    if n == calls {
        format!(" {how}")
    } else {
        format!(" {how} ({n}/{calls} calls)")
    }
}

#[allow(clippy::too_many_arguments)]
fn render_node(
    p: &Plan,
    seq: &mut u64,
    by_node: &HashMap<u64, NodeAgg>,
    timings: bool,
    prefix: &str,
    is_last: bool,
    is_root: bool,
    out: &mut String,
) {
    let id = *seq;
    *seq += 1;
    let (tee, pad) = if is_root {
        ("", "")
    } else if is_last {
        ("└── ", "    ")
    } else {
        ("├── ", "│   ")
    };
    out.push_str(prefix);
    out.push_str(tee);
    out.push_str(&describe(p));
    match by_node.get(&id) {
        Some(a) => {
            out.push_str(&format!("  (calls={} rows={}", a.calls, a.rows_out));
            if a.batches_recorded > 0 {
                out.push_str(&format!(" batches={}", a.batches));
            }
            if a.typed_recorded > 0 {
                // true / false when every call agreed, else typed calls / calls
                match a.typed {
                    0 => out.push_str(" typed=false"),
                    t if t == a.typed_recorded => out.push_str(" typed=true"),
                    t => out.push_str(&format!(" typed={t}/{}", a.typed_recorded)),
                }
            }
            if a.est_recorded > 0 {
                out.push_str(&format!(" est={}", a.est_rows));
            }
            if timings {
                out.push_str(&format!(" time={}", fmt_ns(a.time_ns)));
            }
            if matches!(p, Plan::Join { .. }) {
                if timings {
                    out.push_str(&format!(
                        " build={} probe={}",
                        fmt_ns(a.build_ns),
                        fmt_ns(a.probe_ns)
                    ));
                }
                out.push_str(&format!(" morsels={}", a.morsels));
                for (how, &n) in &a.join_index {
                    out.push_str(&calls_that_way(how, n, a.calls));
                }
            }
            if a.fused > 0 {
                out.push_str(&calls_that_way("fused", a.fused, a.calls));
            }
            if matches!(p, Plan::MultiwayJoin { .. }) && timings {
                out.push_str(&format!(
                    " build={} probe={}",
                    fmt_ns(a.build_ns),
                    fmt_ns(a.probe_ns)
                ));
            }
            out.push(')');
        }
        None => out.push_str("  (never executed)"),
    }
    out.push('\n');
    let children = p.children();
    let child_prefix = format!("{prefix}{pad}");
    for (i, c) in children.iter().enumerate() {
        render_node(
            c,
            seq,
            by_node,
            timings,
            &child_prefix,
            i + 1 == children.len(),
            false,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr;
    use crate::ops::join::JoinType;
    use crate::plan::execute_traced;
    use crate::profile::oracle_like;
    use aio_storage::{edge_schema, row, Catalog, Relation};
    use aio_trace::Tracer;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut e = Relation::new(edge_schema());
        e.extend([row![1, 2, 1.0], row![2, 3, 1.0], row![3, 1, 1.0]])
            .unwrap();
        c.create_table("E", e).unwrap();
        c
    }

    fn hop_plan() -> Plan {
        Plan::Project {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::scan_as("E", "E1")),
                right: Box::new(Plan::scan_as("E", "E2")),
                on: vec![("E1.T".into(), "E2.F".into())],
                residual: None,
                kind: JoinType::Inner,
            }),
            items: vec![
                (ScalarExpr::col("E1.F"), "F".into()),
                (ScalarExpr::col("E2.T"), "T".into()),
            ],
        }
    }

    #[test]
    fn pre_order_matches_traced_node_ids() {
        let c = catalog();
        let t = Tracer::new();
        let profile = oracle_like();
        execute_traced(&hop_plan(), &c, &profile, Some(&t)).unwrap();
        let trace = t.finish();
        trace.validate().unwrap();
        // project=0, join=1, scan E1=2, scan E2=3 in pre-order
        let mut seen: Vec<(&str, u64)> = trace
            .spans
            .iter()
            .map(|s| (s.name, s.field_u64("node").unwrap()))
            .collect();
        seen.sort_by_key(|(_, n)| *n);
        assert_eq!(
            seen,
            vec![("project", 0), ("join", 1), ("scan", 2), ("scan", 3)]
        );
    }

    #[test]
    fn render_annotates_every_node() {
        let c = catalog();
        let t = Tracer::new();
        let profile = oracle_like();
        execute_traced(&hop_plan(), &c, &profile, Some(&t)).unwrap();
        let trace = t.finish();
        let spans: Vec<&aio_trace::SpanRecord> = trace.spans.iter().collect();
        let text = render_analyzed(&hop_plan(), &spans, true);
        assert!(
            text.contains("Project [F, T]  (calls=1 rows=3 est=3 time="),
            "{text}"
        );
        assert!(text.contains("Join[Inner] on E1.T=E2.F"), "{text}");
        assert!(text.contains("build="), "{text}");
        assert!(
            text.contains("Scan E AS E1  (calls=1 rows=3 est=3"),
            "{text}"
        );
        assert!(!text.contains("never executed"), "{text}");
        // deterministic variant drops wall-clock numbers
        let stable = render_analyzed(&hop_plan(), &spans, false);
        assert!(!stable.contains("time="), "{stable}");
        assert!(stable.contains("morsels=1"), "{stable}");
    }

    #[test]
    fn batch_mode_annotates_batches_row_mode_does_not() {
        let c = catalog();
        let t = Tracer::new();
        let profile = oracle_like().with_exec(crate::profile::ExecMode::Batch);
        execute_traced(&hop_plan(), &c, &profile, Some(&t)).unwrap();
        let trace = t.finish();
        let spans: Vec<&aio_trace::SpanRecord> = trace.spans.iter().collect();
        let text = render_analyzed(&hop_plan(), &spans, false);
        assert!(text.contains(" batches="), "{text}");

        let t2 = Tracer::new();
        execute_traced(&hop_plan(), &c, &oracle_like(), Some(&t2)).unwrap();
        let trace2 = t2.finish();
        let spans2: Vec<&aio_trace::SpanRecord> = trace2.spans.iter().collect();
        let row_text = render_analyzed(&hop_plan(), &spans2, false);
        assert!(!row_text.contains("batches="), "{row_text}");
    }

    #[test]
    fn repeated_execution_aggregates_calls() {
        let c = catalog();
        let t = Tracer::new();
        let profile = oracle_like();
        for _ in 0..3 {
            execute_traced(&hop_plan(), &c, &profile, Some(&t)).unwrap();
        }
        let trace = t.finish();
        let spans: Vec<&aio_trace::SpanRecord> = trace.spans.iter().collect();
        let text = render_analyzed(&hop_plan(), &spans, false);
        assert!(text.contains("calls=3 rows=9 est=9"), "{text}");
    }

    #[test]
    fn spans_under_selects_one_execution() {
        let c = catalog();
        let t = Tracer::new();
        let profile = oracle_like();
        let roots: Vec<u64> = (0..2)
            .map(|_| {
                let g = t.span("query");
                let id = g.id();
                drop(g);
                id
            })
            .collect();
        // re-run with real nesting
        let g = t.span("query");
        let root = g.id();
        execute_traced(&hop_plan(), &c, &profile, Some(&t)).unwrap();
        drop(g);
        let trace = t.finish();
        assert_eq!(spans_under(&trace, root).len(), 4);
        for r in roots {
            assert!(spans_under(&trace, r).is_empty());
        }
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(150_000), "150.0µs");
        assert_eq!(fmt_ns(25_000_000), "25.0ms");
        assert_eq!(fmt_ns(12_000_000_000), "12.00s");
    }
}
