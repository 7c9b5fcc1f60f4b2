//! MM-join and MV-join — the paper's two aggregate-joins (Section 4.1).
//!
//! Both are *compositions*: a θ-join followed by group-by & aggregation,
//! exactly as Eq. (3) and Eq. (4) define them:
//!
//! ```text
//! A ⋈⊕(⊙)_{A.T=B.F} B  =  _{A.F,B.T} G _{⊕(⊙)} ( A ⋈_{A.T=B.F} B )   (MM-join)
//! A ⋈⊕(⊙)_{A.T=C.ID} C =  _{A.F}     G _{⊕(⊙)} ( A ⋈_{A.T=C.ID} C )  (MV-join)
//! ```
//!
//! The tests additionally spell the same result out of *only* the six
//! basic operations + group-by (σ over ×, `mm_join_basic_ops`), witnessing
//! the paper's definability claim, and assert it agrees with the fused form.

use crate::error::Result;
use crate::expr::{Func, ScalarExpr};
use crate::ops::basic;
use crate::ops::groupby::group_by;
use crate::ops::join::{join, JoinKeys, JoinOrders, JoinType};
use crate::profile::{AggStrategy, JoinStrategy};
use crate::semiring::Semiring;
use crate::stats::ExecStats;
use aio_storage::Relation;

/// Which product an MV-join computes (Section 4.3: `E ⋈ V` on `T = ID`
/// computes `Eᵀ·V`; on `F = ID` it computes `E·V`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MvOrientation {
    /// Join `A.F = C.ID`, group by `A.T`: the product `Aᵀ·C`. This is the
    /// orientation PageRank uses (mass flows *along* edges to targets).
    Transposed,
    /// Join `A.T = C.ID`, group by `A.F`: the plain product `A·C`
    /// (Eq. (2)/(4)). BFS from a source uses this on the reversed view.
    Plain,
}

/// The `⊙`-then-`⊕` select item: `⊕( left_col ⊙ right_col )`.
fn times_agg(sr: &Semiring, left_col: &str, right_col: &str) -> ScalarExpr {
    let l = ScalarExpr::col(left_col);
    let r = ScalarExpr::col(right_col);
    let times = if sr.name == "bottleneck(max,min)" {
        ScalarExpr::Func(Func::Least, vec![l, r])
    } else {
        ScalarExpr::binary(sr.times, l, r)
    };
    ScalarExpr::Agg(sr.plus, Box::new(times))
}

/// MV-join `A ⋈⊕(⊙) C` over relations `A(F,T,ew)` and `C(ID,vw)`,
/// producing a vector relation `(ID, vw)`.
pub fn mv_join(
    a: &Relation,
    c: &Relation,
    sr: &Semiring,
    orientation: MvOrientation,
    join_strategy: JoinStrategy,
    agg_strategy: AggStrategy,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let a = basic::rename(a, "A");
    let c = basic::rename(c, "C");
    let (join_col, group_col) = match orientation {
        MvOrientation::Plain => ("A.T", "A.F"),
        MvOrientation::Transposed => ("A.F", "A.T"),
    };
    let keys = JoinKeys::resolve(&a, &c, &[(join_col.into(), "C.ID".into())])?;
    let joined = join(
        &a,
        &c,
        &keys,
        None,
        JoinType::Inner,
        join_strategy,
        JoinOrders::default(),
        stats,
    )?;
    group_by(
        &joined,
        &[group_col.into()],
        &[
            (ScalarExpr::col(group_col), "ID".into()),
            (times_agg(sr, "A.ew", "C.vw"), "vw".into()),
        ],
        agg_strategy,
        stats,
    )
}

/// MM-join `A ⋈⊕(⊙) B` over two matrix relations `A(F,T,ew)`, `B(F,T,ew)`,
/// joining `A.T = B.F` and producing a matrix relation `(F, T, ew)`
/// (Eq. (3)).
pub fn mm_join(
    a: &Relation,
    b: &Relation,
    sr: &Semiring,
    join_strategy: JoinStrategy,
    agg_strategy: AggStrategy,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let a = basic::rename(a, "A");
    let b = basic::rename(b, "B");
    let keys = JoinKeys::resolve(&a, &b, &[("A.T".into(), "B.F".into())])?;
    let joined = join(
        &a,
        &b,
        &keys,
        None,
        JoinType::Inner,
        join_strategy,
        JoinOrders::default(),
        stats,
    )?;
    group_by(
        &joined,
        &["A.F".into(), "B.T".into()],
        &[
            (ScalarExpr::col("A.F"), "F".into()),
            (ScalarExpr::col("B.T"), "T".into()),
            (times_agg(sr, "A.ew", "B.ew"), "ew".into()),
        ],
        agg_strategy,
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BOOLEAN, COUNTING, TROPICAL};
    use aio_storage::{edge_schema, node_schema, row, Relation, Value};

    /// MM-join expressed with only σ, ×, ρ and group-by & aggregation — the
    /// definability witness for Section 4.1's claim that the four operations
    /// "can be defined by the 6 basic relational algebra operations with
    /// group-by & aggregation".
    fn mm_join_basic_ops(a: &Relation, b: &Relation, sr: &Semiring) -> Result<Relation> {
        let a = basic::rename(a, "A");
        let b = basic::rename(b, "B");
        let prod = basic::product(&a, &b)?;
        let sel = basic::select(
            &prod,
            &ScalarExpr::eq(ScalarExpr::col("A.T"), ScalarExpr::col("B.F")),
        )?;
        let mut stats = ExecStats::new();
        group_by(
            &sel,
            &["A.F".into(), "B.T".into()],
            &[
                (ScalarExpr::col("A.F"), "F".into()),
                (ScalarExpr::col("B.T"), "T".into()),
                (times_agg(sr, "A.ew", "B.ew"), "ew".into()),
            ],
            AggStrategy::Hash,
            &mut stats,
        )
    }

    /// The 2×2 worked example of Table 8 in the appendix.
    fn matrix(vals: [[f64; 2]; 2]) -> Relation {
        let mut m = Relation::new(edge_schema());
        for (i, row_) in vals.iter().enumerate() {
            for (j, &v) in row_.iter().enumerate() {
                m.push(row![(i + 1) as i64, (j + 1) as i64, v]).unwrap();
            }
        }
        m
    }

    fn vector(vals: [f64; 2]) -> Relation {
        let mut v = Relation::new(node_schema());
        for (i, &x) in vals.iter().enumerate() {
            v.push(row![(i + 1) as i64, x]).unwrap();
        }
        v
    }

    fn get(m: &Relation, f: i64, t: i64) -> f64 {
        m.iter()
            .find(|r| r[0].as_int() == Some(f) && r[1].as_int() == Some(t))
            .unwrap()[2]
            .as_f64()
            .unwrap()
    }

    #[test]
    fn mm_join_matches_real_matrix_product() {
        let a = matrix([[1.0, 2.0], [3.0, 4.0]]);
        let b = matrix([[5.0, 6.0], [7.0, 8.0]]);
        let mut s = ExecStats::new();
        let ab = mm_join(
            &a,
            &b,
            &COUNTING,
            JoinStrategy::Hash,
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap();
        assert_eq!(get(&ab, 1, 1), 19.0);
        assert_eq!(get(&ab, 1, 2), 22.0);
        assert_eq!(get(&ab, 2, 1), 43.0);
        assert_eq!(get(&ab, 2, 2), 50.0);
        assert_eq!(s.joins, 1);
        assert_eq!(s.aggregations, 1);
    }

    #[test]
    fn mv_join_matches_matrix_vector_product() {
        let a = matrix([[1.0, 2.0], [3.0, 4.0]]);
        let c = vector([10.0, 100.0]);
        let mut s = ExecStats::new();
        let ac = mv_join(
            &a,
            &c,
            &COUNTING,
            MvOrientation::Plain,
            JoinStrategy::Hash,
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap();
        // A·C = (210, 430)
        let v1 = ac.iter().find(|r| r[0].as_int() == Some(1)).unwrap()[1].clone();
        let v2 = ac.iter().find(|r| r[0].as_int() == Some(2)).unwrap()[1].clone();
        assert_eq!(v1, Value::Float(210.0));
        assert_eq!(v2, Value::Float(430.0));
    }

    #[test]
    fn transposed_mv_join_is_a_transpose() {
        let a = matrix([[1.0, 2.0], [3.0, 4.0]]);
        let c = vector([10.0, 100.0]);
        let mut s = ExecStats::new();
        let atc = mv_join(
            &a,
            &c,
            &COUNTING,
            MvOrientation::Transposed,
            JoinStrategy::SortMerge,
            AggStrategy::Sort,
            &mut s,
        )
        .unwrap();
        // Aᵀ·C = (1*10+3*100, 2*10+4*100) = (310, 420)
        let v1 = atc.iter().find(|r| r[0].as_int() == Some(1)).unwrap()[1].clone();
        let v2 = atc.iter().find(|r| r[0].as_int() == Some(2)).unwrap()[1].clone();
        assert_eq!(v1, Value::Float(310.0));
        assert_eq!(v2, Value::Float(420.0));
    }

    #[test]
    fn tropical_mm_join_relaxes_distances() {
        // distances: A=direct hops, A² = best 2-hop distances
        let a = matrix([[f64::INFINITY, 1.0], [2.0, f64::INFINITY]]);
        let mut s = ExecStats::new();
        let aa = mm_join(
            &a,
            &a,
            &TROPICAL,
            JoinStrategy::Hash,
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap();
        assert_eq!(get(&aa, 1, 1), 3.0, "1→2→1");
        assert_eq!(get(&aa, 2, 2), 3.0, "2→1→2");
    }

    #[test]
    fn boolean_mv_join_propagates_reachability() {
        let a = matrix([[0.0, 1.0], [0.0, 0.0]]);
        let c = vector([0.0, 1.0]); // node 2 visited
        let mut s = ExecStats::new();
        let out = mv_join(
            &a,
            &c,
            &BOOLEAN,
            MvOrientation::Plain,
            JoinStrategy::Hash,
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap();
        // node 1 has edge weight 1 to visited node 2 → becomes 1
        let v1 = out.iter().find(|r| r[0].as_int() == Some(1)).unwrap()[1].clone();
        assert_eq!(v1, Value::Float(1.0));
    }

    #[test]
    fn fused_equals_basic_ops_composition() {
        let a = matrix([[1.0, 2.0], [3.0, 4.0]]);
        let b = matrix([[0.5, 0.0], [1.0, 2.0]]);
        for sr in [&COUNTING, &TROPICAL, &BOOLEAN] {
            let mut s = ExecStats::new();
            let fused = mm_join(&a, &b, sr, JoinStrategy::Hash, AggStrategy::Hash, &mut s).unwrap();
            let composed = mm_join_basic_ops(&a, &b, sr).unwrap();
            assert!(
                fused.same_rows_unordered(&composed),
                "{} disagrees",
                sr.name
            );
        }
    }

    #[test]
    fn sparse_zero_rows_absent_from_output() {
        // relation representation omits structural zeros; a target with no
        // in-edges simply does not appear (the reason PageRank's ubu keeps
        // the old value for dangling targets)
        let mut a = Relation::new(edge_schema());
        a.push(row![1, 2, 1.0]).unwrap();
        let c = vector([1.0, 1.0]);
        let mut s = ExecStats::new();
        let out = mv_join(
            &a,
            &c,
            &COUNTING,
            MvOrientation::Plain,
            JoinStrategy::Hash,
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Int(1));
    }
}
