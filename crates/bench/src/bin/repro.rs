//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [EXPERIMENT ...] [--scale S]
//! repro explain <algo> [--best] [--scale S]
//! ```
//!
//! The experiments are the entries of [`aio_bench::experiments::EXPERIMENTS`]
//! (`repro --help` prints them); `all`, the default, runs the ones that
//! table marks `in_all`. `explain <algo>` (pagerank | tc | sssp | wcc) is
//! EXPLAIN ANALYZE: it prints the annotated plan tree + per-iteration
//! convergence and writes `TRACE_<algo>.json` (Perfetto) and
//! `TRACE_<algo>.jsonl`; `--best` runs it under the benchmark's best
//! profile (cost optimizer, batch execution, one thread) instead of
//! `oracle_like()`. `--scale S` is the dataset scale factor relative
//! to the published sizes (default 0.001; 1.0 = the full SNAP sizes).
//!
//! Engine performance is not measured here: that is `benchmark/`
//! (`BENCHMARK.json`).

use aio_bench::experiments::{self as exp, Experiment, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.001f64;
    let mut best = false;
    let mut picks: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("missing/bad value for --scale"));
            }
            "--best" => best = true,
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other => picks.push(other.to_string()),
        }
    }
    if picks.is_empty() {
        picks.push("all".to_string());
    }

    // `repro explain <algo>`: the algorithm name is a positional operand,
    // not an experiment of its own.
    if picks[0] == "explain" {
        let algo = picks.get(1).map(String::as_str).unwrap_or("pagerank");
        print!("{}", exp::explain(algo, scale, best));
        return;
    }

    // Resolve every name before running anything: a typo or a removed
    // experiment must fail the invocation, not be skipped inside it.
    let selected: Vec<(&str, &Experiment)> = if picks.iter().any(|p| p == "all") {
        EXPERIMENTS
            .iter()
            .filter(|e| e.in_all)
            .map(|e| (e.name, e))
            .collect()
    } else {
        picks
            .iter()
            .map(|p| match exp::find(p) {
                Some(e) => (p.as_str(), e),
                None => usage(&format!("unknown experiment: {p}")),
            })
            .collect()
    };

    println!("all-in-one reproduction harness — scale {scale}\n");
    for (pick, e) in selected {
        let started = std::time::Instant::now();
        println!("{}", (e.run)(scale));
        println!(
            "[{pick} done in {:.1}s]\n{}",
            started.elapsed().as_secs_f64(),
            "=".repeat(72)
        );
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!(
        "usage: repro [EXPERIMENT ...] [--scale S]\n\
         \x20      repro explain <pagerank|tc|sssp|wcc> [--best] [--scale S]\n\
         experiments: {} all",
        names.join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
