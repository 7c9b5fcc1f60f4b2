//! # aio-trace — hierarchical span tracing for the all-in-one runtime
//!
//! A dependency-free observability substrate in the spirit of database
//! EXPLAIN ANALYZE and structured span tracing: monotonic-clocked
//! hierarchical [`SpanRecord`]s with typed fields, instant [`EventRecord`]s,
//! and pluggable [`sink::Sink`]s (bounded in-memory ring buffer, streaming
//! JSONL, no-op). A finished [`Trace`] renders as a span tree, exports to
//! the Chrome Trace Event format (loadable in `chrome://tracing` and
//! Perfetto), or serializes to JSONL validated by the built-in minimal JSON
//! parser ([`json`]).
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero-cost when disabled.** Instrumentation sites hold an
//!    `Option<&Tracer>`; `None` costs one branch and allocates nothing.
//!    There is no global registry and no atomics on the hot path.
//! 2. **Spans always close.** [`SpanGuard`] closes its span on drop, so
//!    early returns and `?` propagation cannot leak an open span.
//! 3. **Deterministic modulo timestamps.** Span ids are sequential, fields
//!    keep insertion order, and [`Trace::render_tree`] strips everything
//!    timing-related — so tests can snapshot trace *structure* byte-exactly
//!    while wall-clock numbers vary run to run.

pub mod chrome;
pub mod json;
pub mod sink;

use sink::{RingSink, Sink};
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::time::Instant;

/// A typed span/event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Bool(bool),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Int(v) => write!(f, "{v}"),
            FieldValue::UInt(v) => write!(f, "{v}"),
            FieldValue::Float(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl FieldValue {
    /// JSON rendering (strings escaped and quoted).
    pub fn to_json(&self) -> String {
        match self {
            FieldValue::Int(v) => v.to_string(),
            FieldValue::UInt(v) => v.to_string(),
            FieldValue::Float(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    format!("\"{v}\"")
                }
            }
            FieldValue::Str(v) => format!("\"{}\"", json::escape(v)),
            FieldValue::Bool(v) => v.to_string(),
        }
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::UInt(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::UInt(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::UInt(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// A field key: usually a `&'static str`, owned only for dynamic names
/// (e.g. DATALOG predicate names).
pub type FieldKey = Cow<'static, str>;

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Sequential id, starting at 1 (0 means "no parent").
    pub id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent: u64,
    /// Nesting depth (roots are 0).
    pub depth: u32,
    pub name: &'static str,
    /// Start offset from the tracer's epoch, nanoseconds (monotonic clock).
    pub start_ns: u64,
    /// End offset from the tracer's epoch, nanoseconds.
    pub end_ns: u64,
    pub fields: Vec<(FieldKey, FieldValue)>,
}

impl SpanRecord {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A field coerced to u64 (Int/UInt only).
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key)? {
            FieldValue::UInt(v) => Some(*v),
            FieldValue::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }
}

/// One instant event, attached to the span that was open when it fired.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Id of the enclosing span (0 = fired outside any span).
    pub span: u64,
    pub name: &'static str,
    pub at_ns: u64,
    pub fields: Vec<(FieldKey, FieldValue)>,
}

struct OpenSpan {
    id: u64,
    parent: u64,
    depth: u32,
    name: &'static str,
    start_ns: u64,
    fields: Vec<(FieldKey, FieldValue)>,
}

struct Inner {
    next_id: u64,
    open: Vec<OpenSpan>,
    ring: RingSink,
    // `Send` so a `Tracer`-carrying engine (e.g. a `Database` behind a
    // session layer) can move across threads; the tracer itself stays
    // single-threaded (`RefCell`, not `Sync`)
    extra: Vec<Box<dyn Sink + Send>>,
}

/// The span collector. Hand out `Option<&Tracer>` to instrumentation sites;
/// `None` is the disabled (no-op) configuration.
///
/// Single-threaded by design: the coordinating thread of an execution opens
/// and closes spans; morsel workers never touch the tracer (their effects
/// surface as span fields like `morsels`). This keeps the hot path free of
/// locks and atomics.
pub struct Tracer {
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// In-memory tracer with the default ring capacity (256k spans).
    pub fn new() -> Tracer {
        Tracer::with_capacity(1 << 18)
    }

    /// In-memory tracer keeping at most `capacity` spans/events (oldest
    /// evicted first).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            inner: RefCell::new(Inner {
                next_id: 1,
                open: Vec::new(),
                ring: RingSink::new(capacity),
                extra: Vec::new(),
            }),
        }
    }

    /// Attach an additional streaming sink (e.g. [`sink::JsonlSink`]).
    /// Every completed span and event is forwarded to it as it is recorded.
    pub fn add_sink(&self, sink: Box<dyn Sink + Send>) {
        self.inner.borrow_mut().extra.push(sink);
    }

    /// Nanoseconds since this tracer was created (monotonic).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let now = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_id;
        inner.next_id += 1;
        let (parent, depth) = match inner.open.last() {
            Some(p) => (p.id, p.depth + 1),
            None => (0, 0),
        };
        inner.open.push(OpenSpan {
            id,
            parent,
            depth,
            name,
            start_ns: now,
            fields: Vec::new(),
        });
        SpanGuard { tracer: self, id }
    }

    /// Record an instant event attached to the innermost open span.
    pub fn event(
        &self,
        name: &'static str,
        fields: impl IntoIterator<Item = (FieldKey, FieldValue)>,
    ) {
        let now = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let span = inner.open.last().map(|s| s.id).unwrap_or(0);
        let ev = EventRecord {
            span,
            name,
            at_ns: now,
            fields: fields.into_iter().collect(),
        };
        for s in inner.extra.iter_mut() {
            s.on_event(&ev);
        }
        inner.ring.on_event(&ev);
    }

    fn add_field(&self, span_id: u64, key: FieldKey, value: FieldValue) {
        let mut inner = self.inner.borrow_mut();
        if let Some(s) = inner.open.iter_mut().rev().find(|s| s.id == span_id) {
            s.fields.push((key, value));
        }
    }

    fn close(&self, span_id: u64) {
        let now = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        // Guards close in LIFO order; close any forgotten descendants too
        // so nesting stays well-formed even if a guard leaked via mem::forget.
        while let Some(top) = inner.open.last() {
            let done = top.id == span_id;
            let top = inner.open.pop().unwrap();
            let rec = SpanRecord {
                id: top.id,
                parent: top.parent,
                depth: top.depth,
                name: top.name,
                start_ns: top.start_ns,
                end_ns: now,
                fields: top.fields,
            };
            for s in inner.extra.iter_mut() {
                s.on_span(&rec);
            }
            inner.ring.on_span(&rec);
            if done {
                break;
            }
        }
    }

    /// Number of currently open spans (0 once all guards have dropped).
    pub fn open_spans(&self) -> usize {
        self.inner.borrow().open.len()
    }

    /// Finish tracing: force-close any stragglers, flush extra sinks, and
    /// return the collected trace.
    pub fn finish(self) -> Trace {
        {
            let mut inner = self.inner.borrow_mut();
            debug_assert!(inner.open.is_empty(), "finish() with spans still open");
            while let Some(top) = inner.open.pop() {
                let rec = SpanRecord {
                    id: top.id,
                    parent: top.parent,
                    depth: top.depth,
                    name: top.name,
                    start_ns: top.start_ns,
                    end_ns: top.start_ns,
                    fields: top.fields,
                };
                inner.ring.on_span(&rec);
            }
            for s in inner.extra.iter_mut() {
                s.flush();
            }
        }
        let inner = self.inner.into_inner();
        inner.ring.into_trace()
    }
}

/// RAII handle for an open span: add fields while it lives, closes on drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach a typed field to this span.
    pub fn field(&self, key: impl Into<FieldKey>, value: impl Into<FieldValue>) {
        self.tracer.add_field(self.id, key.into(), value.into());
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.close(self.id);
    }
}

/// Open a span only when a tracer is present (the common instrumentation
/// idiom: `let _g = maybe_span(tracer, "join");`).
pub fn maybe_span<'t>(tracer: Option<&'t Tracer>, name: &'static str) -> Option<SpanGuard<'t>> {
    tracer.map(|t| t.span(name))
}

/// A finished, immutable trace: spans in completion order plus events in
/// emission order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    pub spans: Vec<SpanRecord>,
    pub events: Vec<EventRecord>,
}

impl Trace {
    /// All spans with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Children of `parent_id` (0 = roots), ordered by open order (id).
    pub fn children_of(&self, parent_id: u64) -> Vec<&SpanRecord> {
        let mut out: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.parent == parent_id)
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Copy with all timestamps zeroed (structure-only comparisons).
    pub fn normalized(&self) -> Trace {
        let mut t = self.clone();
        for s in t.spans.iter_mut() {
            s.start_ns = 0;
            s.end_ns = 0;
        }
        for e in t.events.iter_mut() {
            e.at_ns = 0;
        }
        t
    }

    /// Structural well-formedness: unique ids, existing parents, child
    /// intervals inside parent intervals, consistent depths. Returns the
    /// first violation found.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let mut by_id: HashMap<u64, &SpanRecord> = HashMap::new();
        for s in &self.spans {
            if s.id == 0 {
                return Err("span id 0 is reserved".into());
            }
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
            }
            if by_id.insert(s.id, s).is_some() {
                return Err(format!("duplicate span id {}", s.id));
            }
        }
        for s in &self.spans {
            if s.parent == 0 {
                if s.depth != 0 {
                    return Err(format!("root span {} has depth {}", s.id, s.depth));
                }
                continue;
            }
            let Some(p) = by_id.get(&s.parent) else {
                return Err(format!("span {} has unknown parent {}", s.id, s.parent));
            };
            if s.depth != p.depth + 1 {
                return Err(format!(
                    "span {} depth {} but parent {} depth {}",
                    s.id, s.depth, p.id, p.depth
                ));
            }
            if s.parent >= s.id {
                return Err(format!(
                    "span {} opened before its parent {}",
                    s.id, s.parent
                ));
            }
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span {} [{}, {}] escapes parent {} [{}, {}]",
                    s.id, s.start_ns, s.end_ns, p.id, p.start_ns, p.end_ns
                ));
            }
        }
        for e in &self.events {
            if e.span != 0 && !by_id.contains_key(&e.span) {
                return Err(format!(
                    "event {} attached to unknown span {}",
                    e.name, e.span
                ));
            }
        }
        Ok(())
    }

    /// Deterministic span-tree rendering: names + non-timing fields, no
    /// timestamps. Timing-valued fields (keys ending in `_ns`) are dropped
    /// so the output is byte-stable across runs.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for root in self.children_of(0) {
            self.render_node(root, "", true, true, &mut out);
        }
        out
    }

    fn render_node(
        &self,
        s: &SpanRecord,
        prefix: &str,
        is_last: bool,
        is_root: bool,
        out: &mut String,
    ) {
        let (tee, pad) = if is_root {
            ("", "")
        } else if is_last {
            ("└── ", "    ")
        } else {
            ("├── ", "│   ")
        };
        out.push_str(prefix);
        out.push_str(tee);
        out.push_str(s.name);
        for (k, v) in &s.fields {
            if k.ends_with("_ns") {
                continue;
            }
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        let kids = self.children_of(s.id);
        let child_prefix = format!("{prefix}{pad}");
        for (i, c) in kids.iter().enumerate() {
            self.render_node(c, &child_prefix, i + 1 == kids.len(), false, out);
        }
    }

    /// Serialize to JSONL (one JSON object per line; spans then events).
    /// The schema is what [`json::validate_trace_jsonl`] checks.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&sink::span_jsonl(s));
            out.push('\n');
        }
        for e in &self.events {
            out.push_str(&sink::event_jsonl(e));
            out.push('\n');
        }
        out
    }

    /// Export to the Chrome Trace Event format (Perfetto-compatible).
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace() -> Trace {
        let t = Tracer::new();
        {
            let root = t.span("run");
            root.field("algo", "pr");
            {
                let it = t.span("iteration");
                it.field("iter", 0u64);
                {
                    let j = t.span("join");
                    j.field("rows_out", 42u64);
                    j.field("build_ns", 1234u64);
                }
                t.event(
                    "converged",
                    [(FieldKey::from("delta"), FieldValue::UInt(0))],
                );
            }
        }
        t.finish()
    }

    #[test]
    fn spans_nest_and_close() {
        let tr = toy_trace();
        assert_eq!(tr.spans.len(), 3);
        tr.validate().unwrap();
        // completion order: join, iteration, run
        assert_eq!(tr.spans[0].name, "join");
        assert_eq!(tr.spans[2].name, "run");
        assert_eq!(tr.spans[0].depth, 2);
        assert_eq!(tr.spans[2].parent, 0);
        assert_eq!(tr.events.len(), 1);
        assert_eq!(tr.events[0].name, "converged");
    }

    #[test]
    fn guard_closes_on_early_return() {
        let t = Tracer::new();
        let f = || -> Result<(), ()> {
            let _g = t.span("outer");
            let _h = t.span("inner");
            Err(())? // early exit; both guards must still close
        };
        let _ = f();
        assert_eq!(t.open_spans(), 0);
        let tr = t.finish();
        assert_eq!(tr.spans.len(), 2);
        tr.validate().unwrap();
    }

    #[test]
    fn render_tree_is_deterministic_and_timestamp_free() {
        let a = toy_trace().render_tree();
        let b = toy_trace().render_tree();
        assert_eq!(a, b);
        assert!(a.contains("run algo=pr"));
        assert!(a.contains("└── iteration iter=0"));
        assert!(a.contains("join rows_out=42"));
        assert!(!a.contains("build_ns"), "timing fields stripped:\n{a}");
    }

    #[test]
    fn normalized_traces_compare_equal_across_runs() {
        assert_eq!(toy_trace().normalized(), toy_trace().normalized());
    }

    #[test]
    fn disabled_tracer_is_a_noop() {
        let none: Option<&Tracer> = None;
        assert!(maybe_span(none, "x").is_none());
    }

    #[test]
    fn validate_catches_bad_parent() {
        let mut tr = toy_trace();
        tr.spans[0].parent = 99;
        assert!(tr.validate().is_err());
    }

    #[test]
    fn ring_capacity_evicts_oldest() {
        let t = Tracer::with_capacity(2);
        for _ in 0..5 {
            let _g = t.span("s");
        }
        let tr = t.finish();
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[0].id, 4);
    }
}
