//! # aio-bench — the reproduction harness
//!
//! One function per experiment of the paper's evaluation (Section 7 +
//! appendix); the `repro` binary drives them through
//! [`experiments::EXPERIMENTS`]. Only the paper's tables and figures live
//! here — engine performance is measured by the standalone `benchmark/`
//! package (`BENCHMARK.json`).
//!
//! | paper artifact | function |
//! |---|---|
//! | Table 1 (with-clause features) | [`experiments::table1`] |
//! | Table 2 (algorithm catalogue) | [`experiments::table2`] |
//! | Table 3 (datasets) | [`experiments::table3`] |
//! | Tables 4 & 5 (union-by-update impls) | [`experiments::table4_5`] |
//! | Tables 6 & 7 (anti-join impls) | [`experiments::table6_7`] |
//! | Fig. 7 (9 algos × 3 undirected graphs) | [`experiments::fig7`] |
//! | Fig. 8 (10 algos × 6 directed graphs) | [`experiments::fig8`] |
//! | Fig. 10 (indexing effectiveness) | [`experiments::fig10`] |
//! | Fig. 11 (RDBMS vs graph systems) | [`experiments::fig11`] |
//! | Fig. 12 (with vs with+ PageRank) | [`experiments::fig12`] |
//! | Fig. 13 (linear TC and APSP) | [`experiments::fig13`] |

pub mod experiments;
pub mod runner;

/// Format a duration in the paper's style (milliseconds).
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Simple aligned table printer.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(c.len());
                } else {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(c.len());
                if i == 0 {
                    out.push_str(&format!("{c:<w$}"));
                } else {
                    out.push_str(&format!("  {c:>w$}"));
                }
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().max(1) - 1)));
        out.push('\n');
        for r in &self.rows {
            line(r, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "ms"]);
        t.row(vec!["pagerank", "12.5"]);
        t.row(vec!["wcc", "3.0"]);
        let s = t.render();
        assert!(s.contains("pagerank"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(std::time::Duration::from_millis(1500)), "1500.0");
    }
}
