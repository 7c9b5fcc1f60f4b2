//! EXPLAIN ANALYZE reports for with+ statements.
//!
//! A traced with+ run produces `query` spans labelled by subquery
//! (`init[i]`, `rec[i]`, `<label>.computed.<name>`, `final`) wrapping the
//! evaluator's per-operator spans, and one `iteration` span per loop pass.
//! This module re-walks the compiled plans, correlates spans back to plan
//! nodes through [`aio_algebra::explain`], and renders the whole thing:
//! a convergence table (the Fig. 12-style per-iteration telemetry) followed
//! by one annotated plan tree per subquery.
//!
//! Note on semi-naive modes (`union` / `union all`, and a delta-driven
//! `union by update`, whose header says `delta-driven`): the executed
//! recursive plans scan the working table `__delta_R` where the source says
//! `R` (a delta-driven run from its second iteration on). The rebinding
//! only renames the scanned table — plan shape and node ids are unchanged —
//! so the report shows the *logical* plan while the measurements come from
//! the rebound execution.

use crate::compile::CompiledWithPlus;
use crate::psm::RunStats;
use aio_algebra::explain as node_explain;
use aio_algebra::Plan;
use aio_trace::{SpanRecord, Trace};

/// Gather the op spans of every execution of the subquery labelled `label`,
/// plus how many times it ran.
fn section_spans<'t>(trace: &'t Trace, label: &str) -> (u64, Vec<&'t SpanRecord>) {
    let mut calls = 0u64;
    let mut out: Vec<&SpanRecord> = Vec::new();
    for q in trace.spans_named("query") {
        let matches = q
            .field("plan")
            .map(|v| v.to_string() == label)
            .unwrap_or(false);
        if matches {
            calls += 1;
            out.extend(node_explain::spans_under(trace, q.id));
        }
    }
    (calls, out)
}

fn push_section(out: &mut String, label: &str, plan: &Plan, trace: &Trace, timings: bool) {
    let (calls, spans) = section_spans(trace, label);
    out.push_str(&format!("-- {label} (executions={calls})\n"));
    for line in node_explain::render_analyzed(plan, &spans, timings).lines() {
        out.push_str("   ");
        out.push_str(line);
        out.push('\n');
    }
}

/// The per-iteration convergence table: delta cardinalities, |R|, `C_i`
/// outcomes, union-by-update changed rows, and the iteration's own operator
/// counts — the quantities Section 7.2 and Fig. 12 reason with.
pub fn convergence_table(stats: &RunStats, timings: bool) -> String {
    let mut out = String::new();
    for (i, it) in stats.iterations.iter().enumerate() {
        let ci: Vec<String> = it
            .subqueries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                let mut s = format!("q{qi}: delta={}", q.delta_rows);
                if q.ubu_changed_rows > 0 {
                    s.push_str(&format!(" ubu_changed={}", q.ubu_changed_rows));
                }
                s.push_str(if q.changed { " C=true" } else { " C=false" });
                s
            })
            .collect();
        out.push_str(&format!(
            "it {:>3}: delta={} |R|={} joins={} aggs={} ubu={}",
            i + 1,
            it.delta_rows,
            it.r_rows,
            it.exec.joins,
            it.exec.aggregations,
            it.exec.union_by_updates,
        ));
        if timings {
            out.push_str(&format!(
                " time={}",
                node_explain::fmt_ns(it.elapsed.as_nanos() as u64)
            ));
        }
        if it.subqueries.len() > 1 || it.subqueries.iter().any(|q| q.ubu_changed_rows > 0) {
            out.push_str(&format!("  [{}]", ci.join("; ")));
        }
        out.push('\n');
    }
    out
}

/// Full EXPLAIN ANALYZE report for a with+ statement.
pub fn render_with_plus(
    c: &CompiledWithPlus,
    stats: &RunStats,
    trace: &Trace,
    timings: bool,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "EXPLAIN ANALYZE with+ {} ({:?}, {} iteration{}{})\n",
        c.rec_name,
        c.union,
        stats.iterations.len(),
        if stats.iterations.len() == 1 { "" } else { "s" },
        if stats.delta_driven {
            ", delta-driven"
        } else {
            ""
        },
    ));
    out.push_str(&convergence_table(stats, timings));
    out.push_str(&format!("init : {}\n", stats.init_exec));
    out.push_str(&format!("final: {}\n", stats.final_exec));
    out.push_str(&format!("total: {}\n", stats.exec));
    out.push_str(&resource_footer(stats));

    for (i, step) in c.init.iter().enumerate() {
        let label = format!("init[{i}]");
        for (name, _, plan) in &step.computed {
            push_section(
                &mut out,
                &format!("{label}.computed.{name}"),
                plan,
                trace,
                timings,
            );
        }
        push_section(&mut out, &label, &step.plan, trace, timings);
    }
    for (i, step) in c.recursive.iter().enumerate() {
        let label = format!("rec[{i}]");
        for (name, _, plan) in &step.computed {
            push_section(
                &mut out,
                &format!("{label}.computed.{name}"),
                plan,
                trace,
                timings,
            );
        }
        push_section(&mut out, &label, &step.plan, trace, timings);
    }
    push_section(&mut out, "final", &c.final_plan, trace, timings);
    out
}

/// The resource-accounting footer: cache hit rates and the peak estimated
/// operator-output size. Deterministic (no wall clock), so it is safe under
/// `timings: false` snapshot tests; all zeros when metrics are disabled.
fn resource_footer(stats: &RunStats) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "cache: trie {}/{} hits, stats {}/{} hits, cols {}/{} hits\n",
        stats.cache.trie_hits,
        stats.cache.trie_total(),
        stats.cache.stats_hits,
        stats.cache.stats_total(),
        stats.cache.cols_hits,
        stats.cache.cols_total(),
    ));
    out.push_str(&format!(
        "peak mem: {} bytes (est. largest operator output)\n",
        stats.peak_mem_bytes
    ));
    out
}

/// EXPLAIN ANALYZE report for a one-shot SELECT.
pub fn render_select(plan: &Plan, stats: &RunStats, trace: &Trace, timings: bool) -> String {
    let mut out = String::new();
    out.push_str("EXPLAIN ANALYZE select\n");
    push_section(&mut out, "select", plan, trace, timings);
    out.push_str(&resource_footer(stats));
    out
}
