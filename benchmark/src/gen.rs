//! Seeded input generation owned by the benchmark: a xorshift generator,
//! the weighted lattice, the insert-batch script and an input hash. The
//! same seed always yields the same inputs; the engine only ever sees the
//! generated tables and batches.

use crate::engine::Edge;

/// xorshift64* — small, fast, and identical on every host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 of the seed, so nearby seeds give unrelated streams and
        // seed 0 does not produce the all-zero state
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A `side × side` 4-neighbour lattice, both directions of every link, each
/// direction with its own integer weight in `[1, 11)`, plus one zero-weight
/// self-loop per vertex (the `(min, +)` identity Bellman-Ford needs to keep
/// a vertex's own distance in the `min`). Vertex `r * side + c`.
pub fn lattice(side: usize, seed: u64) -> Vec<Edge> {
    let mut rng = Rng::new(seed);
    let id = |r: usize, c: usize| (r * side + c) as u32;
    let mut edges = Vec::with_capacity(4 * side * (side - 1) + side * side);
    for r in 0..side {
        for c in 0..side {
            let mut link = |a: u32, b: u32| {
                edges.push((a, b, (1 + rng.below(10)) as f64));
                edges.push((b, a, (1 + rng.below(10)) as f64));
            };
            if c + 1 < side {
                link(id(r, c), id(r, c + 1));
            }
            if r + 1 < side {
                link(id(r, c), id(r + 1, c));
            }
        }
    }
    edges.extend((0..(side * side) as u32).map(|v| (v, v, 0.0)));
    edges
}

/// Drop self-loops and repeated `(from, to)` pairs, keeping first
/// occurrences in order: `E` has primary key `(F, T)`.
pub fn dedup(edges: Vec<Edge>) -> Vec<Edge> {
    let mut seen = std::collections::HashSet::with_capacity(edges.len());
    edges
        .into_iter()
        .filter(|&(u, v, _)| u != v && seen.insert((u, v)))
        .collect()
}

/// Both directions of every edge (deduplicated) plus a self-loop of weight
/// `loop_w` per vertex — the undirected view min-label flooding runs on.
pub fn symmetrize(n: usize, edges: &[Edge], loop_w: f64) -> Vec<Edge> {
    let both = edges
        .iter()
        .flat_map(|&(u, v, w)| [(u, v, w), (v, u, w)])
        .collect();
    let mut out = dedup(both);
    out.extend((0..n as u32).map(|v| (v, v, loop_w)));
    out
}

/// `count` insert-only batches of `size` undirected edges over `n`
/// vertices, none of them already present (in either direction) in
/// `existing` or in an earlier batch.
pub fn batch_script(
    n: usize,
    existing: &[Edge],
    count: usize,
    size: usize,
    seed: u64,
) -> Vec<Vec<(u32, u32)>> {
    let mut rng = Rng::new(seed ^ 0xBA7C_45C2_1B7E_0001);
    let mut taken: std::collections::HashSet<(u32, u32)> = existing
        .iter()
        .map(|&(u, v, _)| (u.min(v), u.max(v)))
        .collect();
    (0..count)
        .map(|_| {
            let mut batch = Vec::with_capacity(size);
            while batch.len() < size {
                let u = rng.below(n as u64) as u32;
                let v = rng.below(n as u64) as u32;
                if u != v && taken.insert((u.min(v), u.max(v))) {
                    batch.push((u, v));
                }
            }
            batch
        })
        .collect()
}

/// FNV-1a over the edge list (ids and weight bits): the determinism check
/// compares it between two generations from one seed.
pub fn edge_hash(edges: &[Edge]) -> u64 {
    let mut h = Fnv::new();
    for &(u, v, w) in edges {
        h.word(u as u64);
        h.word(v as u64);
        h.word(w.to_bits());
    }
    h.0
}

pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_has_every_link_both_ways_and_a_loop_per_vertex() {
        let side = 5;
        let edges = lattice(side, 53);
        let links = 2 * side * (side - 1);
        assert_eq!(edges.len(), 2 * links + side * side);
        let set: std::collections::HashSet<(u32, u32)> =
            edges.iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(set.len(), edges.len(), "no edge twice");
        for &(u, v, w) in &edges {
            assert!(set.contains(&(v, u)), "{u}->{v} lacks its reverse");
            if u == v {
                assert_eq!(w, 0.0);
            } else {
                let (r, c) = ((u as usize / side) as i64, (u as usize % side) as i64);
                let (r2, c2) = ((v as usize / side) as i64, (v as usize % side) as i64);
                assert_eq!(
                    (r - r2).abs() + (c - c2).abs(),
                    1,
                    "{u}->{v} is not a lattice link"
                );
                assert!((1.0..11.0).contains(&w) && w.fract() == 0.0);
            }
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(edge_hash(&lattice(6, 7)), edge_hash(&lattice(6, 7)));
        assert_ne!(edge_hash(&lattice(6, 7)), edge_hash(&lattice(6, 8)));
        let base = symmetrize(50, &[(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0)], 1.0);
        assert_eq!(base.len(), 4 + 50);
        let a = batch_script(50, &base, 3, 10, 9);
        assert_eq!(a, batch_script(50, &base, 3, 10, 9));
        assert_ne!(a, batch_script(50, &base, 3, 10, 10));
        // insert-only and new: no batch edge repeats a base or earlier edge
        let mut seen: std::collections::HashSet<(u32, u32)> =
            base.iter().map(|&(u, v, _)| (u.min(v), u.max(v))).collect();
        for &(u, v) in a.iter().flatten() {
            assert!(u != v && seen.insert((u.min(v), u.max(v))));
        }
    }

    #[test]
    fn dedup_keeps_first_occurrences_and_drops_loops() {
        let e = dedup(vec![(0, 1, 1.0), (1, 1, 1.0), (0, 1, 2.0), (1, 0, 1.0)]);
        assert_eq!(e, vec![(0, 1, 1.0), (1, 0, 1.0)]);
    }
}
