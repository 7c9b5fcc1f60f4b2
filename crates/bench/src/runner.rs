//! Uniform algorithm runner used by Figs. 7/8: runs one of the paper's ten
//! evaluated algorithms on one dataset stand-in under one engine profile,
//! with the paper's parameters (PR/HITS/LP: 15 iterations; KC: k = 10 on
//! Orkut, 5 otherwise; KS: 3 labels, depth 4; MIS averaged over repeated
//! runs).

use aio_algebra::EngineProfile;
use aio_algos as algos;
use aio_graph::{DatasetSpec, Graph};
use aio_withplus::Result;
use std::time::Duration;

/// Iterations the paper fixes for PR, HITS and LP.
pub const FIXED_ITERS: usize = 15;
/// MIS repetitions ("we repeat 10 times to report the average time");
/// scaled down for the harness default.
pub const MIS_REPEATS: usize = 3;

/// Outcome of one algorithm run.
#[derive(Clone, Debug)]
pub struct AlgoRun {
    pub algo: &'static str,
    pub elapsed: Duration,
    pub iterations: usize,
    pub result_rows: usize,
}

/// Run algorithm `key` (paper's Fig. 7/8 keys) on `g`.
pub fn run_algo(
    key: &str,
    g: &Graph,
    spec: &DatasetSpec,
    profile: &EngineProfile,
) -> Result<AlgoRun> {
    let (algo, out, rows) = match key {
        "sssp" => {
            let (m, out) = algos::sssp::run(g, profile, 0)?;
            ("SSSP", out, m.len())
        }
        "wcc" => {
            let (m, out) = algos::wcc::run(g, profile)?;
            ("WCC", out, m.len())
        }
        "pr" => {
            let (m, out) = algos::pagerank::run(g, profile, 0.85, FIXED_ITERS)?;
            ("PR", out, m.len())
        }
        "hits" => {
            let (m, out) = algos::hits::run(g, profile, FIXED_ITERS)?;
            ("HITS", out, m.len())
        }
        "ts" => {
            let (m, out) = algos::toposort::run(g, profile)?;
            ("TS", out, m.len())
        }
        "kc" => {
            let (m, out) = algos::kcore::run(g, profile, spec.kcore_k())?;
            ("KC", out, m.len())
        }
        "mis" => {
            // average over repeated runs, per the paper
            let mut total = Duration::ZERO;
            let mut last = None;
            for seed in 0..MIS_REPEATS as u64 {
                let (m, out) = algos::mis::run(g, profile, 1000 + seed)?;
                total += out.stats.elapsed;
                last = Some((m.len(), out));
            }
            let (rows, out) = last.unwrap();
            return Ok(AlgoRun {
                algo: "MIS",
                elapsed: total / MIS_REPEATS as u32,
                iterations: out.stats.iterations.len(),
                result_rows: rows,
            });
        }
        "lp" => {
            let (m, out) = algos::lp::run(g, profile, FIXED_ITERS)?;
            ("LP", out, m.len())
        }
        "mnm" => {
            let (m, out) = algos::mnm::run(g, profile)?;
            ("MNM", out, m.len())
        }
        "ks" => {
            let (m, out) = algos::ks::run(g, profile, [0, 1, 2], 4)?;
            ("KS", out, m.len())
        }
        other => {
            return Err(aio_withplus::WithPlusError::Restriction(format!(
                "unknown algorithm key {other}"
            )))
        }
    };
    Ok(AlgoRun {
        algo,
        elapsed: out.stats.elapsed,
        iterations: out.stats.iterations.len(),
        result_rows: rows,
    })
}

/// The Fig. 7 algorithm set (undirected graphs: no TopoSort).
pub const FIG7_ALGOS: [&str; 9] = ["sssp", "wcc", "pr", "hits", "kc", "mis", "lp", "mnm", "ks"];

/// The Fig. 8 algorithm set (directed graphs: all ten).
pub const FIG8_ALGOS: [&str; 10] = [
    "sssp", "wcc", "pr", "hits", "ts", "kc", "mis", "lp", "mnm", "ks",
];

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::oracle_like;

    #[test]
    fn run_every_evaluated_algorithm_once() {
        let spec = DatasetSpec::by_key("WV").unwrap();
        let g = spec.synthesize(0.002); // tiny stand-in
        for key in FIG8_ALGOS {
            let run = run_algo(key, &g, spec, &oracle_like()).unwrap();
            assert!(
                run.result_rows > 0 || key == "ts" || key == "kc" || key == "ks" || key == "mnm",
                "{key} returned nothing"
            );
            assert!(run.iterations > 0, "{key} never iterated");
        }
    }

    #[test]
    fn unknown_key_rejected() {
        let spec = DatasetSpec::by_key("WV").unwrap();
        let g = spec.synthesize(0.002);
        assert!(run_algo("nope", &g, spec, &oracle_like()).is_err());
    }
}
