//! Span arithmetic for the traced run: self times, per-name aggregation and
//! the JSONL artifact. Spans are opened by the workloads around each call
//! into a layer; this module only reads the finished trace.

use crate::engine::{SpanRecord, Trace};
use std::collections::HashMap;

/// Root span of one traced operation.
pub const OP: &str = "op";
/// Root span of the layer replays that follow a traced operation. Not part
/// of the operation's latency.
pub const REPLAY: &str = "replay";

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn cover(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span, by span id: its duration minus the part of its
/// interval that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| cover(c, s.start_ns, s.end_ns));
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Durations (ns) of every span with the given name, in completion order.
pub fn durations(trace: &Trace, name: &str) -> Vec<f64> {
    trace.spans_named(name).map(|s| s.dur_ns() as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            depth: 0,
            name,
            start_ns,
            end_ns,
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_cover_of_children() {
        let spans = vec![
            span(1, 0, "op", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60), // overlaps `a` by 10: cover is 50, not 60
            span(4, 2, "leaf", 15, 20),
            span(5, 1, "c", 90, 120), // clipped to the parent's end
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - (50 + 10));
        assert_eq!(own[&2], 30 - 5);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&4], 5);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let trace = Trace {
            spans: vec![
                span(1, 0, "op", 0, 10),
                span(2, 1, "x", 2, 4),
                span(3, 0, "op", 20, 50),
                span(4, 3, "x", 25, 35),
            ],
            events: Vec::new(),
        };
        let own = self_times(&trace.spans);
        assert_eq!((own[&2], own[&4]), (2, 10));
        assert_eq!((own[&1], own[&3]), (8, 20));
        assert_eq!(durations(&trace, "op"), vec![10.0, 30.0]);
    }

    #[test]
    fn spans_recorded_by_the_engine_tracer_nest_under_the_open_span() {
        let tracer = crate::engine::Tracer::new();
        {
            let op = tracer.span(OP);
            op.field("op", 7u64);
            let _inner = tracer.span("layer");
        }
        let trace = tracer.finish();
        let op = trace.spans_named(OP).next().expect("op span");
        let inner = trace.spans_named("layer").next().expect("layer span");
        assert_eq!(inner.parent, op.id);
        assert_eq!(op.field_u64("op"), Some(7));
        let own = self_times(&trace.spans);
        assert!(own[&op.id] <= op.dur_ns());
    }
}
