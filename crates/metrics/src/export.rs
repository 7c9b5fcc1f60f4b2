//! Export surfaces: Prometheus text exposition, a strict validator for it
//! (used by the CI metrics smoke step), and JSON export built on the same
//! `aio-trace` JSON helpers as the trace sinks — one serializer, two crates.

use crate::{bucket_bound, MetricView, MetricsRegistry, QueryReport, NBUCKETS};
use aio_trace::json::{JsonArr, JsonObj};
use std::fmt::Write as _;

impl MetricsRegistry {
    /// Prometheus text exposition (version 0.0.4): `# HELP` / `# TYPE`
    /// per family; histograms emit cumulative `_bucket{le=...}` series plus
    /// `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        self.engine.visit(&mut |name, view, help| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {}", view.kind());
            match view {
                MetricView::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                MetricView::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                MetricView::Histogram(h) => {
                    let buckets = h.bucket_counts();
                    let mut cum = 0u64;
                    for (i, n) in buckets.iter().enumerate().take(NBUCKETS - 1) {
                        cum += n;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", bucket_bound(i));
                    }
                    cum += buckets[NBUCKETS - 1];
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        });
        out
    }

    /// Everything as one JSON document: `{"metrics":[...],"queries":[...]}`.
    pub fn to_json(&self) -> String {
        let mut metrics = JsonArr::new();
        for s in self.snapshot() {
            metrics.push_raw(
                &JsonObj::new()
                    .str("name", &s.name)
                    .str("kind", s.kind)
                    .f64("value", s.value)
                    .str("help", s.help)
                    .finish(),
            );
        }
        let mut queries = JsonArr::new();
        for q in self.query_log() {
            queries.push_raw(&query_report_json(&q));
        }
        JsonObj::new()
            .raw("metrics", &metrics.finish())
            .raw("queries", &queries.finish())
            .finish()
    }
}

/// One query report as a JSON object (the element type of `to_json`'s `queries`).
pub fn query_report_json(q: &QueryReport) -> String {
    JsonObj::new()
        .u64("seq", q.seq)
        .str("sql_hash", &format!("{:016x}", q.sql_hash))
        .str("sql", &q.sql)
        .f64("wall_ms", q.wall_ms)
        .u64("rows_out", q.rows_out)
        .u64("rows_scanned", q.rows_scanned)
        .u64("iterations", q.iterations)
        .u64("peak_mem_bytes", q.peak_mem_bytes)
        .u64("trie_hits", q.cache.trie_hits)
        .u64("trie_misses", q.cache.trie_misses)
        .u64("stats_hits", q.cache.stats_hits)
        .u64("stats_misses", q.cache.stats_misses)
        .u64("cols_hits", q.cache.cols_hits)
        .u64("cols_misses", q.cache.cols_misses)
        .u64("wal_records", q.cache.wal_records)
        .u64("wal_bytes", q.cache.wal_bytes)
        .u64("par", q.par)
        .str("exec", q.exec)
        .str("optimizer", q.optimizer)
        .finish()
}

/// Validate a Prometheus text exposition: every line is a well-formed
/// `# HELP`, `# TYPE` (with a known metric type) or `name[{labels}] value`
/// sample whose name is legal and whose value parses. Samples must follow
/// a TYPE line for their family. Returns the number of sample lines.
/// Test support, compiled for this module's unit tests only.
#[cfg(test)]
fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
            && !name.starts_with(|c: char| c.is_ascii_digit())
    }
    let mut samples = 0usize;
    let mut family: Option<String> = None;
    for (lineno, line) in text.lines().enumerate() {
        let at = |msg: &str| format!("line {}: {msg}", lineno + 1);
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let arg = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !valid_name(name) || arg.is_empty() {
                        return Err(at("malformed HELP"));
                    }
                }
                "TYPE" => {
                    if !valid_name(name)
                        || !matches!(
                            arg,
                            "counter" | "gauge" | "histogram" | "summary" | "untyped"
                        )
                    {
                        return Err(at("malformed TYPE"));
                    }
                    family = Some(name.to_string());
                }
                _ => return Err(at("unknown # directive")),
            }
            continue;
        }
        // sample: name[{labels}] value
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return Err(at("sample missing value")),
        };
        let name = match name_part.split_once('{') {
            Some((n, labels)) => {
                if !labels.ends_with('}') {
                    return Err(at("unterminated label set"));
                }
                n
            }
            None => name_part,
        };
        if !valid_name(name) {
            return Err(at(&format!("bad metric name {name:?}")));
        }
        let fam = family
            .as_deref()
            .ok_or_else(|| at("sample before any TYPE"))?;
        if !name.starts_with(fam) {
            return Err(at(&format!("sample {name:?} outside family {fam:?}")));
        }
        if value_part != "+Inf" && value_part != "-Inf" && value_part.parse::<f64>().is_err() {
            return Err(at(&format!("bad sample value {value_part:?}")));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples".into());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_trace::json::{parse, Json};

    fn busy_registry() -> (MetricsRegistry, std::sync::MutexGuard<'static, ()>) {
        let gate = crate::TEST_GATE.lock().unwrap();
        crate::set_enabled(true);
        let reg = MetricsRegistry::default();
        reg.engine.wal_records_total.add(3);
        reg.engine.wal_bytes_total.add(120);
        reg.engine.catalog_rows.set(42);
        reg.engine.checkpoint_ms.observe(7);
        reg.engine.checkpoint_ms.observe(900);
        reg.record_query(QueryReport {
            sql: "select * from e".into(),
            sql_hash: crate::fnv1a("select * from e"),
            wall_ms: 1.5,
            rows_out: 10,
            exec: "row",
            optimizer: "cost",
            ..Default::default()
        });
        (reg, gate)
    }

    #[test]
    fn prometheus_exposition_validates_and_is_cumulative() {
        let (reg, _gate) = busy_registry();
        let text = reg.to_prometheus();
        let samples = validate_prometheus(&text).unwrap();
        assert!(samples > 40, "only {samples} samples");
        assert!(text.contains("# TYPE aio_wal_records_total counter"));
        assert!(text.contains("aio_wal_records_total 3"));
        assert!(text.contains("# TYPE aio_checkpoint_ms histogram"));
        // le="1024" must already include both the 7ms and 900ms observations
        assert!(text.contains("aio_checkpoint_ms_bucket{le=\"1024\"} 2"));
        assert!(text.contains("aio_checkpoint_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("aio_checkpoint_ms_sum 907"));
        assert!(text.contains("aio_checkpoint_ms_count 2"));
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("# HELP only_help\n").is_err());
        assert!(validate_prometheus("no_type_yet 1\n").is_err());
        assert!(validate_prometheus("# TYPE x counter\nx notanumber\n").is_err());
        assert!(validate_prometheus("# TYPE x counter\nBadName 1\n").is_err());
        assert!(validate_prometheus("# TYPE x widget\nx 1\n").is_err());
        assert!(validate_prometheus("# TYPE x counter\ny 1\n").is_err());
        assert!(validate_prometheus("# TYPE x counter\nx{le=\"1\" 1\n").is_err());
    }

    #[test]
    fn json_export_parses_and_mirrors_snapshot() {
        let (reg, _gate) = busy_registry();
        let doc = parse(&reg.to_json()).unwrap();
        let metrics = doc.get("metrics").unwrap().as_arr().unwrap();
        assert_eq!(metrics.len(), reg.snapshot().len());
        let wal = metrics
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("aio_wal_bytes_total"))
            .unwrap();
        assert_eq!(wal.get("value").unwrap().as_num(), Some(120.0));
        let queries = doc.get("queries").unwrap().as_arr().unwrap();
        assert_eq!(queries.len(), 1);
        assert_eq!(
            queries[0].get("sql").and_then(Json::as_str),
            Some("select * from e")
        );
        assert_eq!(queries[0].get("rows_out").unwrap().as_num(), Some(10.0));
        assert_eq!(
            queries[0]
                .get("sql_hash")
                .and_then(Json::as_str)
                .map(str::len),
            Some(16)
        );
    }
}
