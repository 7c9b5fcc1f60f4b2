//! Morsel-driven intra-operator parallelism.
//!
//! The execution model follows Leis et al.'s morsel-driven design scaled
//! down to this engine: an operator's input rows are split into fixed
//! contiguous ranges ("morsels"), a scoped thread pool pulls morsel indices
//! from a shared atomic counter (work stealing), and each morsel writes into
//! its own output buffer. Buffers are concatenated **in morsel order**, so
//! the output is byte-identical regardless of which thread ran which morsel
//! or in what real-time order they finished — and identical to the serial
//! pipeline, which is literally the single-morsel case.
//!
//! Error handling mirrors the serial path deterministically: if several
//! morsels fail, the error of the *earliest* morsel wins (the serial loop
//! would have hit that row first).
//!
//! Everything here is `std::thread::scope` — no extra dependencies, no
//! thread pool kept alive between operators.

use crate::error::Result;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Inputs below this many rows are never split: thread spawn + merge costs
/// more than the scan.
pub const MIN_PARALLEL_ROWS: usize = 4096;

/// Minimum rows per morsel once we do split.
const MIN_MORSEL_ROWS: usize = 1024;

/// Target morsels per worker — enough slack for work stealing to even out
/// skew without drowning in per-morsel overhead.
const MORSELS_PER_WORKER: usize = 8;

/// Resolve a parallelism knob: `0` means "all available cores".
pub fn effective(par: usize) -> usize {
    if par == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        par
    }
}

/// What a parallel run actually did, for [`ExecStats`](crate::ExecStats).
#[derive(Clone, Copy, Debug)]
pub struct ParInfo {
    /// Worker threads used (1 = ran inline on the calling thread).
    pub threads: usize,
    /// Number of morsels the input was split into.
    pub morsels: u64,
}

impl ParInfo {
    /// What [`run_morsels`] over `0..len` at `par` does, without running
    /// it: for an operator that stands in for one and reports its counters.
    pub(crate) fn of(len: usize, par: usize) -> ParInfo {
        ParInfo::over(&morsel_ranges(len, par), par)
    }

    fn over(ranges: &[Range<usize>], par: usize) -> ParInfo {
        ParInfo {
            threads: par.min(ranges.len()).max(1),
            morsels: ranges.len() as u64,
        }
    }

    /// Did this run actually fan out?
    pub fn parallel(&self) -> bool {
        self.threads > 1
    }
}

/// Split `0..len` into contiguous morsel ranges. A deterministic function of
/// `(len, par)` only — never of thread timing — so per-morsel results are
/// reproducible. Returns a single range when parallelism is off or the
/// input is too small to be worth splitting.
pub(crate) fn morsel_ranges(len: usize, par: usize) -> Vec<Range<usize>> {
    if par <= 1 || len < MIN_PARALLEL_ROWS {
        // one morsel covering the whole input, i.e. the serial path
        return std::iter::once(0..len).collect();
    }
    let step = MIN_MORSEL_ROWS.max(len.div_ceil(par * MORSELS_PER_WORKER));
    let mut out = Vec::with_capacity(len.div_ceil(step));
    let mut lo = 0;
    while lo < len {
        let hi = (lo + step).min(len);
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// Run `work` over every morsel of `0..len`, on up to `par` scoped threads,
/// and return the per-morsel results **in morsel order** plus what happened.
///
/// `work` must be pure data-parallel: it sees only its row range and must
/// not depend on other morsels. With `par <= 1` (or a small input) it runs
/// inline on the calling thread — that path *is* the serial operator.
pub(crate) fn run_morsels<T, F>(len: usize, par: usize, work: F) -> Result<(Vec<T>, ParInfo)>
where
    T: Send,
    F: Fn(Range<usize>) -> Result<T> + Sync,
{
    let ranges = morsel_ranges(len, par);
    let info = ParInfo::over(&ranges, par);
    if info.threads <= 1 {
        let mut out = Vec::with_capacity(ranges.len());
        for r in ranges {
            out.push(work(r)?);
        }
        return Ok((out, info));
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T>>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..info.threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(range) = ranges.get(i) else { break };
                let res = work(range.clone());
                *slots[i].lock().expect("morsel slot poisoned") = Some(res);
            });
        }
    });

    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        let res = slot
            .into_inner()
            .expect("morsel slot poisoned")
            .expect("every morsel index was claimed by a worker");
        out.push(res?); // first error in morsel order, as the serial loop would
    }
    Ok((out, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AlgebraError;

    #[test]
    fn small_or_serial_inputs_get_one_morsel() {
        assert_eq!(morsel_ranges(10, 1), vec![0..10]);
        assert_eq!(morsel_ranges(MIN_PARALLEL_ROWS - 1, 8), vec![0..4095]);
        assert_eq!(morsel_ranges(0, 4), vec![0..0]);
    }

    #[test]
    fn ranges_tile_the_input_exactly() {
        for (len, par) in [(4096, 2), (100_000, 4), (1_000_001, 8), (5000, 16)] {
            let rs = morsel_ranges(len, par);
            assert!(rs.len() > 1, "len={len} par={par}");
            assert_eq!(rs[0].start, 0);
            assert_eq!(rs.last().unwrap().end, len);
            for w in rs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(w[0].len() >= MIN_MORSEL_ROWS.min(len));
            }
        }
    }

    #[test]
    fn results_come_back_in_morsel_order() {
        let len = 50_000;
        for par in [1, 2, 8] {
            let (bufs, info) = run_morsels(len, par, |r| Ok(r.clone())).unwrap();
            let flat: Vec<usize> = bufs.into_iter().flatten().collect();
            assert_eq!(flat, (0..len).collect::<Vec<_>>(), "par={par}");
            assert_eq!(info.parallel(), par > 1);
        }
    }

    #[test]
    fn earliest_morsel_error_wins() {
        let err = run_morsels(100_000, 8, |r| {
            if r.start >= 20_000 {
                Err(AlgebraError::Expr(format!("morsel at {}", r.start)))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        // deterministic: the first failing morsel in range order reports
        assert!(err.to_string().contains("morsel at 2"), "{err}");
    }
}
