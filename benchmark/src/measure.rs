//! The passes of one run and the metrics they yield.
//!
//! A *timed* run (tracing and the engine's metrics registry off) sets the
//! workload up several times, runs the `best` pass and the `paper` pass and
//! reports the end-to-end metrics. A *traced* run sets up once, alternates
//! untraced and traced operations, and reports the per-layer metrics and
//! the layer-share table.

use crate::engine::{self, JsonObj, Profile, Tracer};
use crate::stats::{median, tail_percentile};
use crate::steady::Clock;
use crate::trace::{self, OP, REPLAY};
use crate::workloads::{self, Config, Layers, Workload, NATIVE_EVERY, TRACED_OPS};
use std::collections::BTreeMap;
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`: the operation counts below are sized
/// for it and scale linearly with `--seconds`.
pub const RUN_SECONDS: f64 = 25.0;

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Timed,
    Traced,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Timed => "end_to_end",
            Mode::Traced => "per_layer",
        }
    }
}

/// Operation counts of one run. Fixed numbers, identical on every commit:
/// a faster engine finishes sooner, it is not given more work.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub best_ops: usize,
    pub paper_ops: usize,
    pub setups: usize,
    pub traced_ops: usize,
}

impl Plan {
    /// `(best, paper)` operations at [`RUN_SECONDS`].
    fn base(name: &str) -> (usize, usize) {
        match name {
            "pagerank_dense" => (165, 56),
            "live_views" => (180, 60),
            _ => (150, 50),
        }
    }

    /// Counts scaled to `seconds`, never below what `op_ms_p90` (100
    /// samples) and `paper_op_ms_p50` (25) need.
    pub fn for_seconds(name: &str, seconds: f64) -> Plan {
        let (best, paper) = Plan::base(name);
        let scale = |ops: usize, floor: usize| {
            ((ops as f64 * seconds / RUN_SECONDS).round() as usize).max(floor)
        };
        Plan {
            best_ops: scale(best, 100),
            paper_ops: scale(paper, 25),
            setups: SETUPS,
            traced_ops: TRACED_OPS,
        }
    }

    /// Insert batches `live_views` may consume in one database's life:
    /// warm-up, the longer pass with its untimed operations, or the
    /// alternating traced pass — and a few to spare.
    pub fn batches(&self) -> usize {
        let pass = self.best_ops.max(self.paper_ops);
        workloads::WARMUP_OPS + pass + pass / NATIVE_EVERY + 2 * self.traced_ops + 8
    }
}

/// End-to-end metrics: `(name, unit)`, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("paper_op_ms_p50", "ms"),
    ("edges_per_s", "1/s"),
    ("native_gap", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Layer = module path up to the last
/// dot. Every workload reports every one (0 where the layer is idle).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("withplus.parser.parse_us", "us"),
    ("withplus.compile.compile_us", "us"),
    ("algebra.optimize.plan_us", "us"),
    ("withplus.psm.run_ms", "ms"),
    ("withplus.psm.init_ms", "ms"),
    ("withplus.psm.iterations", "count"),
    ("withplus.psm.iter_ms_p50", "ms"),
    ("withplus.psm.iter_ms_max", "ms"),
    ("withplus.psm.delta_rows", "count"),
    ("withplus.psm.ubu_changed_rows", "count"),
    ("withplus.psm.useful_update_ratio", "ratio"),
    ("withplus.psm.convergence_check_ms", "ms"),
    ("withplus.psm.loop_overhead_ms", "ms"),
    ("withplus.psm.loop_overhead_pct", "%"),
    ("withplus.psm.unattributed_pct", "%"),
    ("algebra.plan.execute_ms", "ms"),
    ("algebra.plan.rec_step_ms", "ms"),
    ("algebra.plan.final_select_ms", "ms"),
    ("algebra.plan.rows_scanned", "count"),
    ("algebra.plan.rows_produced", "count"),
    ("algebra.plan.rows_scanned_per_out_row", "ratio"),
    ("algebra.plan.peak_operator_bytes", "bytes"),
    ("algebra.ops.join.build_ms", "ms"),
    ("algebra.ops.join.probe_ms", "ms"),
    ("algebra.ops.groupby.ms", "ms"),
    ("algebra.ops.union_by_update.ms", "ms"),
    ("algebra.wcoj.join_ms", "ms"),
    ("algebra.wcoj.seeks", "count"),
    ("storage.column.columnarize_ms", "ms"),
    ("storage.column.to_relation_ms", "ms"),
    ("storage.keyidx.build_ms", "ms"),
    ("storage.relation.clone_ms", "ms"),
    ("storage.catalog.analyze_ms", "ms"),
    ("storage.catalog.stats_cache_hit_ratio", "ratio"),
    ("storage.trie.build_ms", "ms"),
    ("storage.trie.cache_hit_ratio", "ratio"),
    ("storage.wal.bytes", "bytes"),
    ("storage.wal.fsyncs", "count"),
    ("storage.wal.fsync_ms", "ms"),
    ("storage.wal.bytes_per_delta_edge", "bytes"),
    ("storage.snapshot.checkpoint_ms", "ms"),
    ("storage.recover.reopen_ms", "ms"),
    ("storage.mvcc.fork_us", "us"),
    ("storage.mvcc.generations", "count"),
    ("withplus.ivm.apply_ms_p50", "ms"),
    ("withplus.ivm.view_delta_rows", "count"),
    ("withplus.ivm.full_fallbacks", "count"),
    ("withplus.session.read_ms_p50", "ms"),
    ("bench.native_ms", "ms"),
    ("graph.load.relation_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.fail_ratio", "ratio"),
];

/// Per-layer metrics that are the median duration of a span:
/// `(metric, span, nanoseconds per unit)`.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("withplus.parser.parse_us", "withplus.parser.parse", 1e3),
    (
        "withplus.compile.compile_us",
        "withplus.compile.compile",
        1e3,
    ),
    ("algebra.optimize.plan_us", "algebra.optimize.plan", 1e3),
    ("withplus.psm.run_ms", "withplus.psm.run", 1e6),
    ("algebra.plan.execute_ms", "algebra.plan.execute", 1e6),
    (
        "withplus.psm.convergence_check_ms",
        "withplus.psm.convergence_check",
        1e6,
    ),
    ("algebra.plan.rec_step_ms", "algebra.plan.rec_step", 1e6),
    (
        "algebra.plan.final_select_ms",
        "algebra.plan.final_select",
        1e6,
    ),
    ("algebra.ops.groupby.ms", "algebra.ops.groupby", 1e6),
    (
        "algebra.ops.union_by_update.ms",
        "algebra.ops.union_by_update",
        1e6,
    ),
    ("algebra.wcoj.join_ms", "algebra.wcoj.join", 1e6),
    (
        "storage.column.columnarize_ms",
        "storage.column.columnarize",
        1e6,
    ),
    (
        "storage.column.to_relation_ms",
        "storage.column.to_relation",
        1e6,
    ),
    ("storage.keyidx.build_ms", "storage.keyidx.build", 1e6),
    ("storage.relation.clone_ms", "storage.relation.clone", 1e6),
    ("storage.catalog.analyze_ms", "storage.catalog.analyze", 1e6),
    ("storage.mvcc.fork_us", "storage.mvcc.fork", 1e3),
    ("withplus.ivm.apply_ms_p50", "withplus.ivm.apply", 1e6),
    ("withplus.session.read_ms_p50", "withplus.session.read", 1e6),
];

/// Counts the traced pass must reproduce exactly from the same seed.
const EXACT: &[&str] = &[
    "withplus.psm.iterations",
    "withplus.psm.delta_rows",
    "withplus.psm.ubu_changed_rows",
    "algebra.plan.rows_scanned",
    "storage.wal.bytes",
    "storage.wal.fsyncs",
    "storage.mvcc.generations",
];

/// Replay groups that stand for work the fixpoint loop does once per
/// iteration: their share of an operation is scaled by the iteration count.
const PER_ITERATION: &[&str] = &["withplus.psm.iteration", "algebra.plan.operators"];

/// One row of the layer-share table.
pub struct Share {
    /// `op` for the spans of the operation itself (they add up to it), else
    /// the replay group: the span directly under the replay root.
    pub group: &'static str,
    pub layer: &'static str,
    pub calls: usize,
    /// Self time per operation, ms (per-iteration replays × iterations).
    pub self_ms: f64,
    /// `self_ms` as a share of the operation's median latency.
    pub share: f64,
}

/// Everything one run measured.
pub struct Measured {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit, samples)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    pub shares: Vec<Share>,
    pub exact: BTreeMap<&'static str, f64>,
    pub input_hash: u64,
    pub trace_jsonl: Option<String>,
    /// Median clock factor of the `best` pass (timed runs): reported
    /// reference-clock ms × this = raw wall ms.
    pub clock_factor: Option<f64>,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Timed operations of one pass, a native sample before every
/// [`NATIVE_EVERY`]-th and the workload's half-way work in the middle.
/// Latencies and native times are in reference-clock ms: each is divided by
/// the mean of the clock factors probed just before and just after it.
struct Pass {
    latencies: Vec<f64>,
    native: Vec<f64>,
    /// The clock factor next to every operation.
    factors: Vec<f64>,
    /// Operations run (timed and untimed) and how many failed their check.
    attempted: u64,
    failed: u64,
}

fn pass(w: &mut dyn Workload, clock: &Clock, ops: usize, with_native: bool) -> Pass {
    let mut p = Pass {
        latencies: Vec::with_capacity(ops),
        native: Vec::new(),
        factors: Vec::with_capacity(ops),
        attempted: 0,
        failed: 0,
    };
    let mut before = clock.factor();
    for i in 0..ops {
        if with_native && i % NATIVE_EVERY == 0 {
            let ms = w.native_ms();
            let after = clock.factor();
            p.native.push(ms / ((before + after) / 2.0));
            // one untimed operation, so the next timed one (and the probe
            // before it) starts from the same cache state as all the others
            p.attempted += 1;
            p.failed += u64::from(!w.op().ok);
            before = clock.factor();
        }
        if i == ops / 2 && w.halfway().is_some() {
            before = clock.factor();
        }
        let s = w.op();
        let after = clock.factor();
        let factor = (before + after) / 2.0;
        p.latencies.push(s.ms / factor);
        p.factors.push(factor);
        p.attempted += 1;
        p.failed += u64::from(!s.ok);
        before = after;
    }
    p
}

pub fn run(name: &str, cfg: &Config, mode: Mode, plan: &Plan) -> Result<Measured, String> {
    let cfg = Config {
        batches: plan.batches(),
        ..cfg.clone()
    };
    engine::set_metrics(false);
    match mode {
        Mode::Timed => timed(name, &cfg, plan),
        Mode::Traced => traced(name, &cfg, plan),
    }
}

fn timed(name: &str, cfg: &Config, plan: &Plan) -> Result<Measured, String> {
    // set-up, several times: the last one is measured on
    let mut setups = Vec::with_capacity(plan.setups);
    let mut best = None;
    let clock = Clock::new();
    for _ in 0..plan.setups.max(1) {
        drop(best.take());
        let before = clock.factor();
        let t = Instant::now();
        best = Some(workloads::build(name, cfg, Profile::Best)?);
        let s = t.elapsed().as_secs_f64();
        setups.push(s / ((before + clock.factor()) / 2.0));
    }
    let mut best = best.expect("at least one set-up");

    let b = pass(best.as_mut(), &clock, plan.best_ops, true);
    let peak_rss = peak_rss_mb();
    let work = best.work_per_op();
    let input_hash = best.input_hash();
    let (mut attempted, mut failed) = (b.attempted, b.failed);
    let checks = best.finish(&mut Layers::default());
    attempted += checks.0;
    failed += checks.1;

    let mut paper = workloads::build(name, cfg, Profile::Paper)?;
    let p = pass(paper.as_mut(), &clock, plan.paper_ops, false);
    attempted += p.attempted;
    failed += p.failed;
    let checks = paper.finish(&mut Layers::default());
    attempted += checks.0;
    failed += checks.1;

    let p50 = median(&b.latencies);
    let n = b.latencies.len();
    let measured = |name: &str| -> Option<(f64, usize)> {
        Some(match name {
            "setup_s" => (median(&setups), setups.len()),
            "op_ms_p50" => (p50, n),
            // refused (absent) under 100 samples; the driver's runs have them
            "op_ms_p90" => (tail_percentile(&b.latencies, 90)?, n),
            "paper_op_ms_p50" => (median(&p.latencies), p.latencies.len()),
            "edges_per_s" => (work / (p50 / 1e3), n),
            "native_gap" => (p50 / median(&b.native), b.native.len()),
            "peak_rss_mb" => (peak_rss, 1),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        })
    };
    let metrics = END_TO_END
        .iter()
        .filter_map(|&(name, unit)| measured(name).map(|(v, n)| (name, v, unit, n)))
        .collect();
    Ok(Measured {
        workload: name.to_string(),
        attempted,
        failed,
        metrics,
        shares: Vec::new(),
        exact: BTreeMap::new(),
        input_hash,
        trace_jsonl: None,
        clock_factor: Some(median(&b.factors)),
    })
}

fn traced(name: &str, cfg: &Config, plan: &Plan) -> Result<Measured, String> {
    let mut layers = Layers::default();
    let mut w = workloads::build(name, cfg, Profile::Best)?;
    if let Some(ms) = w.halfway() {
        layers.push("storage.snapshot.checkpoint_ms", ms);
    }
    for _ in 0..3 {
        layers.push("bench.native_ms", w.native_ms());
    }
    w.begin_traced()?;

    // Untraced and traced operations alternate, so host drift cancels in
    // the tracing overhead taken between their medians.
    let tracer = Tracer::new();
    let (mut reference, mut latencies) = (Vec::new(), Vec::new());
    let mut failed = 0;
    for _ in 0..plan.traced_ops {
        let plain = w.op();
        reference.push(plain.ms);
        engine::set_metrics(true);
        let s = w.traced_op(&tracer, &mut layers);
        engine::set_metrics(false);
        latencies.push(s.ms);
        failed += u64::from(!plain.ok) + u64::from(!s.ok);
    }
    let trace = tracer.finish();
    let input_hash = w.input_hash();
    let mut attempted = 2 * plan.traced_ops as u64;
    let checks = w.finish(&mut layers);
    attempted += checks.0;
    failed += checks.1;

    let op_ms = median(&latencies);
    let mut values: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (name, samples) in &layers.0 {
        values.insert(name, (median(samples), samples.len()));
    }
    for &(metric, span, per_unit) in SPAN_METRICS {
        let d = trace::durations(&trace, span);
        if !d.is_empty() {
            values.insert(metric, (median(&d) / per_unit, d.len()));
        }
    }
    let get =
        |values: &BTreeMap<&'static str, (f64, usize)>, k: &str| values.get(k).map_or(0.0, |v| v.0);

    // derived numbers
    let iter_p50 = get(&values, "withplus.psm.iter_ms_p50");
    if iter_p50 > 0.0 {
        let rec_step = get(&values, "algebra.plan.rec_step_ms");
        let ubu = get(&values, "algebra.ops.union_by_update.ms");
        let overhead = iter_p50 - rec_step - ubu;
        let explained = rec_step
            + ubu
            + get(&values, "storage.relation.clone_ms")
            + get(&values, "withplus.psm.convergence_check_ms");
        values.insert("withplus.psm.loop_overhead_ms", (overhead, latencies.len()));
        values.insert(
            "withplus.psm.loop_overhead_pct",
            (100.0 * overhead / iter_p50, latencies.len()),
        );
        values.insert(
            "withplus.psm.unattributed_pct",
            (100.0 * (iter_p50 - explained) / iter_p50, latencies.len()),
        );
        let init = get(&values, "withplus.psm.elapsed_ms")
            - get(&values, "withplus.psm.loop_ms")
            - get(&values, "algebra.plan.final_select_ms");
        values.insert("withplus.psm.init_ms", (init.max(0.0), latencies.len()));
    }
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let sum = |k: &str| layers.0.get(k).map_or(0.0, |v| v.iter().sum::<f64>());
    values.insert(
        "storage.trie.cache_hit_ratio",
        (
            ratio(
                sum("storage.trie.cache_hits"),
                sum("storage.trie.cache_misses"),
            ),
            latencies.len(),
        ),
    );
    values.insert(
        "storage.catalog.stats_cache_hit_ratio",
        (
            ratio(
                sum("storage.catalog.stats_hits"),
                sum("storage.catalog.stats_misses"),
            ),
            latencies.len(),
        ),
    );
    values.insert(
        "withplus.ivm.full_fallbacks",
        (sum("withplus.ivm.full_fallbacks"), latencies.len()),
    );
    let reference_ms = median(&reference);
    values.insert(
        "bench.trace_overhead_pct",
        (
            100.0 * (op_ms - reference_ms) / reference_ms,
            latencies.len(),
        ),
    );
    values.insert(
        "bench.fail_ratio",
        (failed as f64 / attempted as f64, attempted as usize),
    );

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (v, n) = values.get(name).copied().unwrap_or((0.0, 0));
            (name, v, unit, n)
        })
        .collect();
    let exact = EXACT.iter().map(|&k| (k, get(&values, k))).collect();
    let iterations = get(&values, "withplus.psm.iterations").max(1.0);
    Ok(Measured {
        workload: name.to_string(),
        attempted,
        failed,
        metrics,
        shares: shares(&trace, op_ms, latencies.len(), iterations),
        exact,
        input_hash,
        trace_jsonl: Some(trace.to_jsonl()),
        clock_factor: None,
    })
}

/// Self time of every layer span per operation, as a share of the
/// operation's median latency. Spans under [`OP`] are the operation itself
/// and add up to it. Spans under [`REPLAY`] are the replayed layer calls,
/// grouped by the span directly under the replay root: each group is one
/// more way to divide the run span (one middle iteration call by call, the
/// step's operators one by one), scaled by the iteration count where the
/// loop repeats the work. Groups overlap each other; rows within a group
/// do not.
fn shares(trace: &engine::Trace, op_ms: f64, ops: usize, iterations: f64) -> Vec<Share> {
    let own = trace::self_times(&trace.spans);
    let by_id: BTreeMap<u64, &engine::SpanRecord> = trace.spans.iter().map(|s| (s.id, s)).collect();
    // the ancestor directly under the root (the span itself at depth 1)
    let group = |s: &engine::SpanRecord| {
        let (mut top, mut under) = (s, s);
        while let Some(p) = by_id.get(&top.parent) {
            under = top;
            top = p;
        }
        if top.name == REPLAY {
            under.name
        } else {
            OP
        }
    };
    let mut rows: BTreeMap<(&'static str, &'static str), (usize, f64)> = BTreeMap::new();
    for s in trace.spans.iter().filter(|s| s.name != REPLAY) {
        let g = group(s);
        let scale = if PER_ITERATION.contains(&g) {
            iterations
        } else {
            1.0
        };
        let layer = if s.name == OP { "bench.glue" } else { s.name };
        let row = rows.entry((g, layer)).or_insert((0, 0.0));
        row.0 += 1;
        row.1 += own[&s.id] as f64 / 1e6 * scale;
    }
    let mut out: Vec<Share> = rows
        .into_iter()
        .map(|((group, layer), (calls, total_ms))| {
            let self_ms = total_ms / ops.max(1) as f64;
            Share {
                group,
                layer,
                calls,
                self_ms,
                share: self_ms / op_ms,
            }
        })
        .collect();
    // the operation first, then the replay groups, largest rows first
    out.sort_by(|a, b| {
        (a.group != OP, a.group)
            .cmp(&(b.group != OP, b.group))
            .then(b.self_ms.total_cmp(&a.self_ms))
    });
    out
}

impl Measured {
    /// Every metric by name with its unit and sample count, and the
    /// layer-share table of a traced run.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for (name, value, unit, n) in &self.metrics {
            s.push_str(&format!(
                "{:<17} {name:<40} {value:>16.4} {unit:<6} n={n}\n",
                self.workload
            ));
        }
        s.push_str(&format!(
            "{:<17} {:<40} {:>16.4} {:<6} n={}\n",
            self.workload,
            "fail_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.attempted
        ));
        if let Some(f) = self.clock_factor {
            s.push_str(&format!(
                "{:<17} times are reference-clock ms; the host ran at {f:.3}x the reference \
                 (wall ms = reported ms x {f:.3})\n",
                self.workload
            ));
        }
        if !self.shares.is_empty() {
            s.push_str(&format!(
                "{:<17} layer shares: self time per operation / median operation; group `op` is the \
                 operation itself, the others replay its layers on captured operands\n",
                self.workload
            ));
            for sh in &self.shares {
                s.push_str(&format!(
                    "{:<17}   {:<24} {:<34} {:>10.3} ms {:>7.2}% calls={}\n",
                    self.workload,
                    sh.group,
                    sh.layer,
                    sh.self_ms,
                    sh.share * 100.0,
                    sh.calls
                ));
            }
        }
        s
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`; with `detail` also what `run` / `aa` / `check` read.
    pub fn result_json(&self, detail: bool) -> String {
        let metrics = self
            .metrics
            .iter()
            .fold(JsonObj::new(), |o, (name, value, unit, _)| {
                let metric = JsonObj::new().f64("value", *value).str("unit", unit);
                o.raw(name, &metric.finish())
            });
        let mut doc = JsonObj::new()
            .raw("correct", if self.failed == 0 { "true" } else { "false" })
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish());
        if detail {
            let exact = self
                .exact
                .iter()
                .fold(JsonObj::new(), |o, (k, v)| o.f64(k, *v));
            doc = doc
                .raw("exact", &exact.finish())
                .str("input_hash", &format!("{:016x}", self.input_hash));
        }
        doc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_scales_with_seconds_but_keeps_percentile_floors() {
        let p = Plan::for_seconds("pagerank_dense", RUN_SECONDS);
        assert_eq!((p.best_ops, p.paper_ops), (165, 56));
        let p = Plan::for_seconds("pagerank_dense", 2.0 * RUN_SECONDS);
        assert_eq!((p.best_ops, p.paper_ops), (330, 112));
        let p = Plan::for_seconds("sssp_lattice", 1.0);
        assert_eq!((p.best_ops, p.paper_ops), (100, 25));
        assert!(p.batches() > workloads::WARMUP_OPS + p.best_ops);
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = engine::parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(END_TO_END));
        assert_eq!(listed("per_layer"), table(PER_LAYER));
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(names, workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_num()),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = Measured {
            workload: "w".into(),
            attempted: 4,
            failed: 1,
            metrics: vec![("op_ms_p50", 0.1 + 0.2, "ms", 4)],
            shares: Vec::new(),
            exact: BTreeMap::from([("withplus.psm.iterations", 10.0)]),
            input_hash: 7,
            trace_jsonl: None,
            clock_factor: None,
        };
        // every digit of a measured value is written
        assert_eq!(
            m.result_json(false),
            r#"{"correct":false,"attempted":4,"failed":1,"metrics":{"op_ms_p50":{"value":0.30000000000000004,"unit":"ms"}}}"#
        );
        // `--detail 1` adds what `run` / `aa` / `check` read, and parses back
        let doc = engine::parse_json(&m.result_json(true)).expect("valid JSON");
        let exact = doc
            .get("exact")
            .and_then(|e| e.get("withplus.psm.iterations"));
        assert_eq!(exact.and_then(|v| v.as_num()), Some(10.0));
        assert_eq!(
            doc.get("input_hash").and_then(|v| v.as_str()),
            Some("0000000000000007")
        );
    }
}
