//! Shortest paths three ways: Bellman-Ford (linear recursion), the
//! nonlinear Floyd-Warshall MM-join (distance doubling), and the
//! Oracle-vs-PostgreSQL profile gap on the same query — plus Bellman-Ford
//! again under the cost optimizer, where it runs delta-driven (the example
//! fails if it does not, or if its distances differ).
//!
//! ```sh
//! cargo run --release --example shortest_paths
//! ```

use all_in_one::algebra::Optimizer;
use all_in_one::algos;
use all_in_one::prelude::*;

fn main() {
    // a weighted citation-style DAG plus some cross edges
    let spec = DatasetSpec::by_key("WV").unwrap();
    let g = spec.synthesize(0.01);
    println!(
        "Wiki-Vote stand-in: {} nodes, {} edges\n",
        g.node_count(),
        g.edge_count()
    );

    // --- single source, per profile ------------------------------------
    for profile in all_profiles() {
        let (dist, run) = algos::sssp::run(&g, &profile, 0).unwrap();
        let reached = dist.values().filter(|d| d.is_finite()).count();
        println!(
            "{:<18} SSSP: {:>8.1} ms, {} iterations, {} reachable, {} sorts, {} index scans",
            profile.name,
            run.stats.elapsed.as_secs_f64() * 1e3,
            run.stats.iterations.len(),
            reached,
            run.stats.exec.sorts,
            run.stats.exec.index_scans,
        );
    }

    // --- the same statement, delta-driven ---------------------------------
    // Under the cost optimizer the loop proves Eq. 7 may fold by
    // improvement, so each iteration joins only the distances the previous
    // one improved; the answer must not change.
    let (full, full_run) = algos::sssp::run(&g, &oracle_like(), 0).unwrap();
    let cost = oracle_like().with_optimizer(Optimizer::Cost);
    let (delta, delta_run) = algos::sssp::run(&g, &cost, 0).unwrap();
    assert!(delta_run.stats.delta_driven, "Eq. 7 must run delta-driven");
    assert_eq!(delta, full, "delta-driven distances differ from full-width");
    let derived =
        |run: &QueryResult| -> usize { run.stats.iterations.iter().map(|it| it.delta_rows).sum() };
    println!(
        "\ndelta-driven SSSP: {} iterations, {} rows derived (full-width: {})",
        delta_run.stats.iterations.len(),
        derived(&delta_run),
        derived(&full_run)
    );

    // --- all pairs by nonlinear recursion -------------------------------
    let small = DatasetSpec::by_key("WV").unwrap().synthesize(0.002);
    let (apsp, run) = algos::apsp::run(&small, &oracle_like()).unwrap();
    println!(
        "\nnonlinear Floyd-Warshall on {} nodes: {} reachable pairs in {} doubling rounds",
        small.node_count(),
        apsp.len(),
        run.stats.iterations.len()
    );

    // eccentricity of node 0 under the nonlinear closure
    let ecc = apsp
        .iter()
        .filter(|((f, _), d)| *f == 0 && d.is_finite())
        .map(|(_, d)| *d)
        .fold(0.0f64, f64::max);
    println!("eccentricity(0) = {ecc}");
}
