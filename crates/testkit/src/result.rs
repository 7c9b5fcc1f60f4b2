//! Normalized algorithm results and tolerance-aware comparison.
//!
//! Every executor's raw output (hash maps, vectors indexed by node id,
//! pair sets…) is converted into one of the [`AlgoResult`] shapes below so
//! that any two executors of the same algorithm can be compared by a single
//! routine. Comparison failures return a human-readable description of the
//! first mismatch — that string is what ends up in a divergence report.

use aio_algos::Tolerance;
use std::collections::{BTreeMap, BTreeSet};

/// A normalized algorithm answer.
#[derive(Clone, Debug, PartialEq)]
pub enum AlgoResult {
    /// id → float score/distance/flag (BFS, SSSP, PageRank, RWR, diameter
    /// eccentricities…). `f64::INFINITY` marks "unreachable".
    NodeF64(BTreeMap<i64, f64>),
    /// id → integer label/level (WCC, TopoSort, LP, MCL, bisimulation).
    NodeI64(BTreeMap<i64, i64>),
    /// A set of node ids (k-core members, keyword-search roots, MIS).
    NodeSet(BTreeSet<i64>),
    /// A set of node pairs (transitive closure, k-truss edges).
    PairSet(BTreeSet<(i64, i64)>),
    /// (a, b) → similarity score where a missing pair means 0 (SimRank).
    PairScores(BTreeMap<(i64, i64), f64>),
    /// (from, to) → distance where a missing pair means unreachable (APSP);
    /// key sets must therefore match exactly.
    PairDist(BTreeMap<(i64, i64), f64>),
    /// id → (hub, authority) (HITS).
    HubAuth(BTreeMap<i64, (f64, f64)>),
    /// A matching, normalized to `(min, max)` pairs.
    Matching(BTreeSet<(i64, i64)>),
    /// A single integer (diameter estimate).
    Scalar(i64),
}

fn f64_eq_exact(a: f64, b: f64) -> bool {
    a == b
        || (a.is_nan() && b.is_nan())
        || (a.is_infinite() && b.is_infinite() && a.signum() == b.signum())
}

fn f64_close(a: f64, b: f64, eps: f64) -> bool {
    f64_eq_exact(a, b) || (a - b).abs() <= eps
}

fn key_diff<K: Ord + std::fmt::Debug, V>(a: &BTreeMap<K, V>, b: &BTreeMap<K, V>) -> Option<String> {
    if let Some(k) = a.keys().find(|k| !b.contains_key(k)) {
        return Some(format!("key {k:?} present on the left only"));
    }
    if let Some(k) = b.keys().find(|k| !a.contains_key(k)) {
        return Some(format!("key {k:?} present on the right only"));
    }
    None
}

/// Check that the descending-score order of the left side's top
/// `rank_top` entries is respected by the right side, ignoring pairs whose
/// left-side scores are within `2·eps` of each other (those may legally
/// swap under floating-point reassociation).
fn rank_order_ok(
    a: &BTreeMap<i64, f64>,
    b: &BTreeMap<i64, f64>,
    rank_top: usize,
    eps: f64,
) -> Result<(), String> {
    let mut order: Vec<(i64, f64)> = a.iter().map(|(&k, &v)| (k, v)).collect();
    order.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
    order.truncate(rank_top);
    for i in 0..order.len() {
        for j in (i + 1)..order.len() {
            let (ki, vi) = order[i];
            let (kj, vj) = order[j];
            if vi - vj > 2.0 * eps && b[&ki] <= b[&kj] {
                return Err(format!(
                    "rank inversion in top {rank_top}: left has {ki} ({vi}) > {kj} ({vj}) \
                     but right has {} ≤ {}",
                    b[&ki], b[&kj]
                ));
            }
        }
    }
    Ok(())
}

fn cmp_f64_maps<K: Ord + Copy + std::fmt::Debug>(
    a: &BTreeMap<K, f64>,
    b: &BTreeMap<K, f64>,
    tol: &Tolerance,
) -> Result<(), String> {
    if let Some(d) = key_diff(a, b) {
        return Err(d);
    }
    for (k, &va) in a {
        let vb = b[k];
        let ok = match tol {
            Tolerance::Exact => f64_eq_exact(va, vb),
            Tolerance::Epsilon { eps, .. } => f64_close(va, vb, *eps),
            Tolerance::PropertyOracle => true,
        };
        if !ok {
            return Err(format!("value mismatch at {k:?}: {va} vs {vb}"));
        }
    }
    Ok(())
}

impl AlgoResult {
    /// Compare two results under an algorithm's tolerance. `Ok(())` means
    /// the executors agree; `Err` carries the first observed mismatch.
    pub fn compare(&self, other: &AlgoResult, tol: &Tolerance) -> Result<(), String> {
        use AlgoResult::*;
        match (self, other) {
            (NodeF64(a), NodeF64(b)) => {
                cmp_f64_maps(a, b, tol)?;
                if let Tolerance::Epsilon { eps, rank_top } = tol {
                    if *rank_top > 0 {
                        rank_order_ok(a, b, *rank_top, *eps)?;
                    }
                }
                Ok(())
            }
            (NodeI64(a), NodeI64(b)) => {
                if let Some(d) = key_diff(a, b) {
                    return Err(d);
                }
                match a.iter().find(|(k, v)| b[k] != **v) {
                    Some((k, v)) => Err(format!("value mismatch at {k}: {v} vs {}", b[k])),
                    None => Ok(()),
                }
            }
            (NodeSet(a), NodeSet(b)) => cmp_sets(a, b),
            (PairSet(a), PairSet(b)) => cmp_sets(a, b),
            (Matching(a), Matching(b)) => cmp_sets(a, b),
            (PairDist(a), PairDist(b)) => cmp_f64_maps(a, b, tol),
            (PairScores(a), PairScores(b)) => {
                // missing pair = score 0: compare over the union of keys
                let eps = match tol {
                    Tolerance::Epsilon { eps, .. } => *eps,
                    _ => 0.0,
                };
                let keys: BTreeSet<&(i64, i64)> = a.keys().chain(b.keys()).collect();
                for k in keys {
                    let va = a.get(k).copied().unwrap_or(0.0);
                    let vb = b.get(k).copied().unwrap_or(0.0);
                    if !f64_close(va, vb, eps) {
                        return Err(format!("similarity mismatch at {k:?}: {va} vs {vb}"));
                    }
                }
                Ok(())
            }
            (HubAuth(a), HubAuth(b)) => {
                if let Some(d) = key_diff(a, b) {
                    return Err(d);
                }
                let eps = match tol {
                    Tolerance::Epsilon { eps, .. } => *eps,
                    _ => 0.0,
                };
                for (k, &(ha, aa)) in a {
                    let (hb, ab) = b[k];
                    if !f64_close(ha, hb, eps) || !f64_close(aa, ab, eps) {
                        return Err(format!(
                            "hub/auth mismatch at {k}: ({ha}, {aa}) vs ({hb}, {ab})"
                        ));
                    }
                }
                Ok(())
            }
            (Scalar(a), Scalar(b)) => {
                if a == b {
                    Ok(())
                } else {
                    Err(format!("scalar mismatch: {a} vs {b}"))
                }
            }
            _ => Err(format!(
                "result shape mismatch: {} vs {}",
                self.shape(),
                other.shape()
            )),
        }
    }

    pub fn shape(&self) -> &'static str {
        match self {
            AlgoResult::NodeF64(_) => "NodeF64",
            AlgoResult::NodeI64(_) => "NodeI64",
            AlgoResult::NodeSet(_) => "NodeSet",
            AlgoResult::PairSet(_) => "PairSet",
            AlgoResult::PairScores(_) => "PairScores",
            AlgoResult::PairDist(_) => "PairDist",
            AlgoResult::HubAuth(_) => "HubAuth",
            AlgoResult::Matching(_) => "Matching",
            AlgoResult::Scalar(_) => "Scalar",
        }
    }
}

fn cmp_sets<T: Ord + std::fmt::Debug>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> Result<(), String> {
    if let Some(x) = a.difference(b).next() {
        return Err(format!("{x:?} present on the left only"));
    }
    if let Some(x) = b.difference(a).next() {
        return Err(format!("{x:?} present on the right only"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nf(entries: &[(i64, f64)]) -> AlgoResult {
        AlgoResult::NodeF64(entries.iter().copied().collect())
    }

    #[test]
    fn exact_catches_any_difference() {
        let a = nf(&[(0, 1.0), (1, f64::INFINITY)]);
        let b = nf(&[(0, 1.0), (1, f64::INFINITY)]);
        assert!(a.compare(&b, &Tolerance::Exact).is_ok());
        let c = nf(&[(0, 1.0 + 1e-12), (1, f64::INFINITY)]);
        assert!(a.compare(&c, &Tolerance::Exact).is_err());
    }

    #[test]
    fn epsilon_allows_small_noise_and_checks_rank() {
        let tol = Tolerance::Epsilon {
            eps: 1e-6,
            rank_top: 2,
        };
        let a = nf(&[(0, 0.5), (1, 0.3), (2, 0.1)]);
        let b = nf(&[(0, 0.5 + 5e-7), (1, 0.3), (2, 0.1)]);
        assert!(a.compare(&b, &tol).is_ok());
        // large rank swap within tolerance of values is impossible; force a
        // rank inversion by swapping clearly-separated scores
        let c = nf(&[(0, 0.3), (1, 0.5), (2, 0.1)]);
        assert!(a.compare(&c, &tol).is_err());
    }

    #[test]
    fn key_set_mismatch_is_reported() {
        let a = nf(&[(0, 1.0)]);
        let b = nf(&[(0, 1.0), (7, 2.0)]);
        let err = a.compare(&b, &Tolerance::Exact).unwrap_err();
        assert!(err.contains("7"), "{err}");
    }

    #[test]
    fn pair_scores_treat_missing_as_zero() {
        let tol = Tolerance::Epsilon {
            eps: 1e-7,
            rank_top: 0,
        };
        let a = AlgoResult::PairScores([((0, 1), 0.25)].into_iter().collect());
        let b = AlgoResult::PairScores([((0, 1), 0.25), ((2, 3), 1e-9)].into_iter().collect());
        assert!(a.compare(&b, &tol).is_ok());
        let c = AlgoResult::PairScores([((0, 1), 0.2)].into_iter().collect());
        assert!(a.compare(&c, &tol).is_err());
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = nf(&[(0, 1.0)]);
        let b = AlgoResult::Scalar(3);
        assert!(a.compare(&b, &Tolerance::Exact).is_err());
    }
}
