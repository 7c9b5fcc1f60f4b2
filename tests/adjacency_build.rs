//! The join adjacency's builds against each other (DESIGN §17).
//!
//! `Csr::build` sorts by counting when the key span is dense and falls back
//! to sorted distinct keys otherwise; `Csr::build_sorted` always sorts. On
//! any `Int` key column — dense, duplicated, negative, empty, or sparse up
//! to the ends of `i64` — the two list the same keys with the same
//! ascending runs of row ids, together a partition of the rows, and find
//! the same rows for any probe. An `Adjacency` grown by a random sequence
//! of appends — tails, and rebuilds once a tail passes an eighth of its
//! base — lists exactly what one build over all the keys lists.

use all_in_one::storage::{Adjacency, Csr};
use proptest::prelude::*;

/// A key column of one of five shapes from raw draws.
fn keys(shape: u8, raw: &[u64]) -> Vec<i64> {
    const ENDS: [i64; 6] = [i64::MIN, i64::MAX, 0, -1, i64::MIN + 1, i64::MAX - 1];
    raw.iter()
        .map(|&r| match shape {
            // dense, every key held by several rows
            0 => (r % 50) as i64,
            // few keys, long runs
            1 => (r % 3) as i64,
            // negative, dense
            2 => -((r % 200) as i64) - 1_000,
            // sparse: the ends of the range, or anywhere in it
            3 => match r % 4 {
                0 => r as i64,
                _ => ENDS[(r >> 8) as usize % ENDS.len()],
            },
            // a dense block at the top of the range
            _ => i64::MAX - (r % 10) as i64,
        })
        .collect()
}

fn runs(csr: &Csr) -> Vec<(i64, Vec<u32>)> {
    csr.runs().map(|(k, run)| (k, run.to_vec())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn counting_sort_equals_the_sort_based_build(
        shape in 0u8..5,
        raw in proptest::collection::vec(any::<u64>(), 0..400),
        probes in proptest::collection::vec(any::<i64>(), 0..8),
    ) {
        let keys = keys(shape, &raw);
        let (built, sorted) = (Csr::build(&keys), Csr::build_sorted(&keys));
        prop_assert_eq!(built.len(), keys.len());
        let listed = runs(&built);
        prop_assert_eq!(&listed, &runs(&sorted));
        // keys strictly ascending, runs ascending, together every row once
        prop_assert!(listed.windows(2).all(|w| w[0].0 < w[1].0));
        let mut all: Vec<u32> = Vec::new();
        for (k, run) in &listed {
            prop_assert!(run.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(run.iter().all(|&i| keys[i as usize] == *k));
            all.extend(run);
        }
        all.sort_unstable();
        prop_assert!(all.iter().copied().eq(0..keys.len() as u32));
        for k in keys.iter().chain(&probes).chain(&[i64::MIN, i64::MAX, 0]) {
            prop_assert_eq!(built.run(*k), sorted.run(*k));
        }
    }

    #[test]
    fn a_base_and_its_tails_equal_one_rebuild(
        shape in 0u8..5,
        raw in proptest::collection::vec(any::<u64>(), 0..400),
        cuts in proptest::collection::vec(0usize..60, 1..12),
    ) {
        let keys = keys(shape, &raw);
        let mut end = cuts[0].min(keys.len());
        let mut adj = Adjacency::build(&keys[..end]);
        for (step, cut) in cuts[1..].iter().enumerate() {
            end = (end + cut).min(keys.len());
            let base = adj.base().clone();
            let rebuilt = adj.extend(&keys[..end]);
            let fresh = Csr::build(&keys[..end]);
            prop_assert_eq!(adj.len(), end);
            prop_assert_eq!(adj.runs(), runs(&fresh), "step {}", step);
            prop_assert_eq!(adj.distinct_keys(), fresh.runs().count());
            // a tail never passes an eighth of its base; below that the
            // base is shared, not rebuilt
            prop_assert!(adj.tail_len() * 8 <= adj.base().len());
            prop_assert_eq!(rebuilt, !std::sync::Arc::ptr_eq(&base, adj.base()));
            for &k in &keys[..end] {
                prop_assert_eq!(adj.runs_of(k).concat(), fresh.run(k));
            }
        }
    }
}
