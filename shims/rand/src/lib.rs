//! Offline stand-in for the `rand` crate (0.9 API subset).
//!
//! The build container has no registry access, so the workspace vendors the
//! small slice of `rand` it actually uses: `StdRng::seed_from_u64`,
//! `Rng::random_range` over half-open ranges of the common numeric types,
//! and `Rng::random_bool`. The generator is xoshiro256** seeded via
//! splitmix64 — deterministic per seed, which is all the graph generators
//! and tests rely on. Stream values differ from upstream `rand`; nothing in
//! the workspace depends on the exact stream, only on determinism.

use std::ops::Range;

pub mod rngs {
    pub use crate::StdRng;
}

/// Core entropy source: everything derives from `next_u64`.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Construction from a seed (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Uniform sample from a half-open range. Panics on an empty range.
    fn random_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range)
    }

    /// Bernoulli sample: `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self.next_u64()) < p
    }

    /// Uniform `f64` in `[0, 1)`.
    fn random(&mut self) -> f64
    where
        Self: Sized,
    {
        unit_f64(self.next_u64())
    }
}

impl<R: RngCore> Rng for R {}

/// Types samplable uniformly from a `Range` (subset of `SampleUniform`).
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_range<R: RngCore>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range in random_range");
                let span = (range.end as i128 - range.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (range.start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range in random_range");
        range.start + unit_f64(rng.next_u64()) * (range.end - range.start)
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range in random_range");
        range.start + (unit_f64(rng.next_u64()) as f32) * (range.end - range.start)
    }
}

#[inline]
fn unit_f64(bits: u64) -> f64 {
    // top 53 bits → uniform in [0, 1)
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// xoshiro256** — the default deterministic generator.
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // splitmix64 expansion of the seed into the full state
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn ranges_in_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let i = r.random_range(3..17i64);
            assert!((3..17).contains(&i));
            let u = r.random_range(0..5u32);
            assert!(u < 5);
            let f = r.random_range(0.5..2.5f64);
            assert!((0.5..2.5).contains(&f));
        }
    }

    #[test]
    fn bool_probability_sane() {
        let mut r = StdRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| r.random_bool(0.7)).count();
        assert!((6_500..7_500).contains(&hits), "{hits}");
    }

    #[test]
    fn negative_int_ranges() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let v = r.random_range(-1000i64..1000);
            assert!((-1000..1000).contains(&v));
        }
    }
}
