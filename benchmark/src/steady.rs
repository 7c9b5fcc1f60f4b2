//! What keeps the timings steady on a shared two-core host.
//!
//! Two things moved every latency by 15–30 % from one run to the next when
//! this benchmark was first measured, neither of them the engine's doing:
//!
//! 1. **Heap trimming.** With glibc's defaults the heap top is returned to
//!    the kernel and faulted back in on every operation — or not, depending
//!    on which allocation happens to sit at the top. Latency jumped between
//!    flat plateaus 25–50 % apart. [`keep_heap`] switches trimming and
//!    per-allocation `mmap` off, as a long-running database process would.
//! 2. **The host's clock.** A register-only loop takes 0.58 ms or 0.75 ms
//!    for seconds at a time (turbo states, or the sibling hyperthread being
//!    busy with another tenant), and code that lives in the caches moves
//!    further. [`Clock::factor`] times a small fixed kernel — a third
//!    register arithmetic, a third dependent loads that hit the second-level
//!    cache, a third dependent loads that miss it — right next to what is
//!    measured; every reported time is divided by it. Times therefore read
//!    in *reference-clock* milliseconds: what the work takes when the kernel
//!    runs at the `*_REF_MS` durations below, its usual speed on the host the
//!    sizes were chosen on. Raw wall time = reported time × factor; a timed
//!    run prints its median factor. The kernel is the benchmark's own code
//!    and shares nothing with the engine, so an engine change cannot move it.

use std::time::Instant;

/// One probe component: dependent steps and their usual duration on the
/// reference host.
struct Part {
    steps: u32,
    ref_ms: f64,
}

/// Register-only xorshift steps.
const SPIN: Part = Part {
    steps: 400_000,
    ref_ms: 0.75,
};
/// Pointer chase inside 256 KiB (fits the second-level cache).
const NEAR: Part = Part {
    steps: 200_000,
    ref_ms: 1.15,
};
/// Pointer chase inside 4 MiB (misses the second-level cache).
const FAR: Part = Part {
    steps: 50_000,
    ref_ms: 5.2,
};
const NEAR_SLOTS: usize = 1 << 16;
const FAR_SLOTS: usize = 1 << 20;

/// Stop glibc from trimming the heap top and from serving large requests
/// by `mmap`, so freed memory is reused instead of faulted in again.
pub fn keep_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` only stores tuning values in the allocator's
        // state; it is called once, first thing in `main`, before any other
        // thread exists. A rejected value leaves the default in place.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, c_int::MAX);
            // the largest threshold glibc accepts (half a 64 MiB heap)
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

/// One random cycle through `slots` indices (Sattolo): every load depends
/// on the one before and lands on an unpredictable line.
fn cycle(slots: usize, rng: &mut crate::gen::Rng) -> Vec<u32> {
    let mut next: Vec<u32> = (0..slots as u32).collect();
    for i in (1..slots).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    next
}

fn chase(next: &[u32], part: &Part) -> f64 {
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..part.steps {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    t.elapsed().as_secs_f64() * 1e3 / part.ref_ms
}

/// The probe kernel and its working sets.
pub struct Clock {
    near: Vec<u32>,
    far: Vec<u32>,
}

impl Clock {
    pub fn new() -> Clock {
        let mut rng = crate::gen::Rng::new(0xC10C);
        Clock {
            near: cycle(NEAR_SLOTS, &mut rng),
            far: cycle(FAR_SLOTS, &mut rng),
        }
    }

    /// How slow the host runs right now: 1.0 at the reference speed, above
    /// when slower. Takes about 7 ms.
    pub fn factor(&self) -> f64 {
        let t = Instant::now();
        let mut x = 88_172_645_463_325_252u64;
        for _ in 0..SPIN.steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        let spin = t.elapsed().as_secs_f64() * 1e3 / SPIN.ref_ms;
        (spin + chase(&self.near, &NEAR) + chase(&self.far, &FAR)) / 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_is_one_cycle_through_every_slot() {
        let c = Clock::new();
        for (next, slots) in [(&c.near, NEAR_SLOTS), (&c.far, FAR_SLOTS)] {
            let (mut at, mut steps) = (0u32, 0usize);
            loop {
                at = next[at as usize];
                steps += 1;
                if at == 0 {
                    break;
                }
            }
            assert_eq!(steps, slots);
        }
    }

    #[test]
    fn factor_is_positive_and_finite() {
        keep_heap();
        let f = Clock::new().factor();
        assert!(f.is_finite() && f > 0.0, "{f}");
    }
}
