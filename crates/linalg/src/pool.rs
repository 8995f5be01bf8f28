//! Thread-count resolution and the one row-partition path every
//! parallel kernel goes through.
//!
//! `partition_rows` splits a product's output rows into contiguous
//! chunks under [`std::thread::scope`]: chunk 0 runs on the calling
//! thread, every other chunk on a thread that lives for that one
//! product. The chunks borrow the operands and write their rows of
//! `out` in place, so nothing is copied, queued or sent back.
//!
//! Thread-count resolution, in priority order:
//!
//! 1. [`set_threads`] — programmatic override (CLI `--threads` flags call
//!    this), `0` clears the override;
//! 2. the `MALEVA_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! The resolved count controls how many row partitions a kernel splits
//! its output into, not how many cores run them: requesting 8 threads on
//! a single-core machine still produces 8 deterministic partitions,
//! which is what makes thread-count sweeps in the determinism tests
//! meaningful everywhere. Results are bit-identical for every thread
//! count because each partition owns a disjoint set of output rows and
//! per-row summation order never changes (see `kernels`).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Hard ceiling on resolved thread counts (and so on the row chunks one
/// product is split into).
pub const MAX_POOL_WORKERS: usize = 64;

/// Multiply-add count (`m * k * n` for a GEMM) above which partitioning
/// a product across threads pays for spawning them.
///
/// This is the single source of truth for the dispatch decision: every
/// backend that can go parallel asks [`parallel_worthwhile`], and
/// `kernels` re-exports the constant for backward compatibility. Below
/// the threshold the thread spawns cost more than the arithmetic saves
/// (measured in `linalg_bench`; see DESIGN.md §10).
pub const PARALLEL_WORK_THRESHOLD: usize = 4_000_000;

/// Whether a product with `work` multiply-adds should be partitioned
/// across threads. Engages exactly at [`PARALLEL_WORK_THRESHOLD`]
/// (`work >= threshold`), which the unit tests pin.
#[inline]
pub fn parallel_worthwhile(work: usize) -> bool {
    work >= PARALLEL_WORK_THRESHOLD
}

/// `0` means "no override"; anything else wins over env and hardware.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the thread count used by parallel kernels (`0` clears the
/// override and falls back to `MALEVA_THREADS` / hardware detection).
/// Values are clamped to [`MAX_POOL_WORKERS`].
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The thread count parallel kernels will partition work into right now.
///
/// Always at least 1. See the module docs for the resolution order.
pub fn effective_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced.min(MAX_POOL_WORKERS);
    }
    if let Ok(raw) = std::env::var("MALEVA_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n.min(MAX_POOL_WORKERS);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_POOL_WORKERS)
}

/// A product kernel over flat row-major slices:
/// `kernel(a, m, k, b, n, out)` computes `out (m x n) = a (m x k) * b (k x n)`
/// with `out` zeroed on entry.
pub(crate) type RowKernel<T> = fn(&[T], usize, usize, &[T], usize, &mut [T]);

/// Runs `kernel` over `threads` contiguous row chunks of `a` / `out`.
///
/// Every chunk but the last has `m.div_ceil(threads)` rows; chunk 0 runs
/// on the calling thread, the others on scoped threads that borrow `b`
/// and write their rows of `out` in place. `threads` is clamped to
/// `[1, min(m, MAX_POOL_WORKERS)]`; one chunk (or an empty `k` / `n`
/// dimension) runs `kernel` once on the caller. Since a chunk only
/// changes which rows a call sees, never the order of any row's
/// additions, the result is the same for every thread count.
///
/// # Panics
///
/// A panic in any chunk is propagated to the caller once every chunk
/// has finished.
#[allow(clippy::too_many_arguments)]
pub(crate) fn partition_rows<T: Send + Sync>(
    a: &[T],
    m: usize,
    k: usize,
    b: &[T],
    n: usize,
    threads: usize,
    out: &mut [T],
    kernel: RowKernel<T>,
) {
    let threads = threads.clamp(1, MAX_POOL_WORKERS).min(m.max(1));
    if threads <= 1 || k == 0 || n == 0 {
        kernel(a, m, k, b, n, out);
        return;
    }
    let chunk_rows = m.div_ceil(threads);
    let mut chunks = a.chunks(chunk_rows * k).zip(out.chunks_mut(chunk_rows * n));
    let (a0, out0) = chunks.next().expect("m > 0 yields a first chunk");
    std::thread::scope(|scope| {
        for (a_chunk, out_chunk) in chunks {
            scope.spawn(move || kernel(a_chunk, a_chunk.len() / k, k, b, n, out_chunk));
        }
        kernel(a0, a0.len() / k, k, b, n, out0);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panics on every chunk except the one holding row 0.
    fn panic_off_row_zero(a: &[f64], _m: usize, _k: usize, _b: &[f64], _n: usize, _o: &mut [f64]) {
        assert!(a[0] == 0.0, "deliberate test panic");
    }

    #[test]
    fn effective_threads_is_positive() {
        assert!(effective_threads() >= 1);
    }

    #[test]
    fn parallel_dispatch_engages_exactly_at_threshold() {
        // The pooled path must engage at `work >= threshold`, not one
        // element sooner or later — backends and docs both promise it.
        assert!(!parallel_worthwhile(PARALLEL_WORK_THRESHOLD - 1));
        assert!(parallel_worthwhile(PARALLEL_WORK_THRESHOLD));
        assert!(parallel_worthwhile(PARALLEL_WORK_THRESHOLD + 1));
        assert!(!parallel_worthwhile(0));
    }

    #[test]
    fn set_threads_overrides_and_clears() {
        set_threads(3);
        assert_eq!(effective_threads(), 3);
        set_threads(MAX_POOL_WORKERS + 100);
        assert_eq!(effective_threads(), MAX_POOL_WORKERS);
        set_threads(0);
        assert!(effective_threads() >= 1);
    }

    #[test]
    fn a_panicking_chunk_reaches_the_caller() {
        let a: Vec<f64> = (0..8).map(f64::from).collect();
        let mut out = vec![0.0; 8];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            partition_rows(&a, 8, 1, &[1.0], 1, 4, &mut out, panic_off_row_zero);
        }));
        assert!(caught.is_err());
    }
}
