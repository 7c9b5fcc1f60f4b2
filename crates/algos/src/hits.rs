//! HITS (Eq. 12, Fig. 6): mutual recursion between hub and authority
//! scores, emulated with a single recursive relation `H(ID, h, a)` and a
//! `computed by` chain, exactly as Section 6 prescribes.
//!
//! Per iteration: `a ← Eᵀh`, `h ← E a`, then joint 2-norm normalization
//! through a global aggregate crossed back in (`R_n` is "a relation with a
//! single tuple for the normalization purpose").

use crate::common::{self, EdgeStyle};
use aio_algebra::EngineProfile;
use aio_graph::Graph;
use aio_storage::FxHashMap;
use aio_withplus::{QueryResult, Result};

/// Fig. 6 adapted to this dialect.
pub fn sql(iters: usize) -> String {
    format!(
        "with H(ID, h, a) as (
           (select V.ID, 1.0, 1.0 from V)
           union by update ID
           (select R_ha.ID, R_ha.h / sqrt(R_n.nh), R_ha.a / sqrt(R_n.na)
            from R_ha, R_n
            computed by
              H_h(ID, h) as select H.ID, H.h from H;
              R_a(ID, a) as select E.T, sum(H_h.h * E.ew) from H_h, E
                           where H_h.ID = E.F group by E.T;
              R_h(ID, h) as select E.F, sum(R_a.a * E.ew) from R_a, E
                           where R_a.ID = E.T group by E.F;
              R_ha(ID, h, a) as select R_a.ID, R_h.h, R_a.a from R_a, R_h
                               where R_a.ID = R_h.ID;
              R_n(nh, na) as select sum(R_ha.h * R_ha.h), sum(R_ha.a * R_ha.a)
                            from R_ha;)
           maxrecursion {iters})
         select * from H"
    )
}

/// `id → (hub, authority)` map produced by [`run`].
pub type HubAuth = FxHashMap<i64, (f64, f64)>;

/// Run HITS; returns id → (hub, authority).
pub fn run(g: &Graph, profile: &EngineProfile, iters: usize) -> Result<(HubAuth, QueryResult)> {
    let mut db = common::db_for(g, profile, EdgeStyle::Raw)?;
    let out = db.execute(&sql(iters))?;
    let map = out
        .relation
        .iter()
        .filter_map(|r| Some((r[0].as_int()?, (r[1].as_f64()?, r[2].as_f64()?))))
        .collect();
    Ok((map, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_algebra::{all_profiles, oracle_like};
    use aio_graph::{generate, GraphKind};

    /// Reference HITS restricted to the nodes the SQL formulation scores
    /// (nodes appearing in R_ha: with both in- and out-flavoured scores).
    fn check(g: &Graph, profile: &EngineProfile, iters: usize) {
        let (scores, _) = run(g, profile, iters).unwrap();
        let (h_ref, a_ref) = reference_hits_sql_style(g, iters);
        for (id, (h, a)) in &scores {
            let v = *id as usize;
            assert!((h - h_ref[v]).abs() < 1e-9, "hub {id}: {h} vs {}", h_ref[v]);
            assert!(
                (a - a_ref[v]).abs() < 1e-9,
                "auth {id}: {a} vs {}",
                a_ref[v]
            );
        }
    }

    /// HITS exactly as the SQL computes it: update only nodes present in
    /// R_ha (union-by-update keeps others), normalize over R_ha.
    fn reference_hits_sql_style(g: &Graph, iters: usize) -> (Vec<f64>, Vec<f64>) {
        let n = g.node_count();
        let mut h = vec![1.0f64; n];
        let mut a = vec![1.0f64; n];
        for _ in 0..iters {
            let mut na = vec![0.0f64; n];
            let mut has_a = vec![false; n];
            for (u, v, w) in g.edges() {
                na[v as usize] += h[u as usize] * w;
                has_a[v as usize] = true;
            }
            let mut nh = vec![0.0f64; n];
            let mut has_h = vec![false; n];
            for (u, v, w) in g.edges() {
                if has_a[v as usize] {
                    nh[u as usize] += na[v as usize] * w;
                    has_h[u as usize] = true;
                }
            }
            let in_rha: Vec<bool> = (0..n).map(|v| has_a[v] && has_h[v]).collect();
            let norm_h: f64 = (0..n)
                .filter(|&v| in_rha[v])
                .map(|v| nh[v] * nh[v])
                .sum::<f64>()
                .sqrt();
            let norm_a: f64 = (0..n)
                .filter(|&v| in_rha[v])
                .map(|v| na[v] * na[v])
                .sum::<f64>()
                .sqrt();
            for v in 0..n {
                if in_rha[v] {
                    h[v] = nh[v] / norm_h;
                    a[v] = na[v] / norm_a;
                }
            }
        }
        (h, a)
    }

    #[test]
    fn matches_sql_style_reference() {
        let g = generate(GraphKind::PowerLaw, 60, 250, true, 61);
        check(&g, &oracle_like(), 10);
    }

    #[test]
    fn all_profiles_agree() {
        let g = generate(GraphKind::PowerLaw, 40, 150, true, 62);
        for p in all_profiles() {
            check(&g, &p, 8);
        }
    }

    #[test]
    fn scored_hubs_have_unit_norm() {
        let g = generate(GraphKind::PowerLaw, 50, 200, true, 63);
        let (scores, _) = run(&g, &oracle_like(), 15).unwrap();
        // nodes the chain actually scored (value differs from the seed 1.0)
        let norm: f64 = scores
            .values()
            .filter(|(h, _)| *h != 1.0)
            .map(|(h, _)| h * h)
            .sum();
        assert!((norm.sqrt() - 1.0).abs() < 1e-6, "hub norm {norm}");
    }

    #[test]
    fn hub_authority_ordering_sensible() {
        // star: center 0 → leaves; leaves are authorities, 0 is the hub
        let edges: Vec<(u32, u32, f64)> = (1..6).map(|i| (0, i, 1.0)).collect();
        let g = Graph::from_edges(6, &edges, true);
        let (scores, _) = run(&g, &oracle_like(), 5).unwrap();
        let (h0, _) = scores[&0];
        let (_, a1) = scores[&1];
        assert!(h0 > 0.9, "center is the dominant hub: {h0}");
        assert!(a1 > 0.4, "leaves share authority: {a1}");
    }
}
