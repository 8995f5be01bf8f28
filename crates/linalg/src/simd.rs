//! The f32 panel micro-kernels behind [`BackendKind::Simd`].
//!
//! [`BackendKind::Simd`]: crate::backend::BackendKind::Simd
//!
//! These kernels trade the crate's bit-exactness contract for raw
//! speed: operands are converted to `f32` once (an `O(mk + kn)` cost
//! against `O(mkn)` arithmetic), multiplied in fixed-width panels
//! written so LLVM autovectorizes the inner loops on the baseline
//! x86-64 / aarch64 targets (no intrinsics — the crate still forbids
//! `unsafe`), and the result is widened back to `f64`. Accuracy is
//! governed by the tolerance contract in DESIGN.md §13: within `1e-5`
//! relative error of the scalar `f64` reference for the value ranges
//! this workload produces, verified by the cross-backend differential
//! suite and the tolerance goldens.
//!
//! **Determinism still holds.** Every output element of `matmul` /
//! `matmul_tn` accumulates its products in ascending-`k` order in `f32`
//! with one rounding per step — whether the element was computed inside
//! a full [`SIMD_MR`]`x`[`SIMD_NR`] register tile, in a tail loop, or
//! on another thread's row chunk, the per-element operation sequence is
//! identical.
//! `matmul_nt` and `gemv` reduce dot products over [`DOT_LANES`]
//! partial sums combined in a fixed tree. Both schemes depend only on
//! the operand shapes, never on tiling position, batch size, or thread
//! count, so Simd results are reproducible run-to-run and thread-count
//! sweeps stay byte-identical — the contract is *tolerance vs the f64
//! reference*, not nondeterminism.
//!
//! Large `matmul` products go through the same row partition as the
//! `Pooled` backend (`pool::partition_rows`), gated by the same
//! [`pool::parallel_worthwhile`] predicate.

use crate::pool;
use crate::{kernels, LinalgError, Matrix};

/// Output rows per register tile.
pub(crate) const SIMD_MR: usize = 4;
/// Output columns per register tile (two 256-bit or four 128-bit f32
/// vectors — wide enough to fill vector ALUs, small enough to stay in
/// registers).
pub(crate) const SIMD_NR: usize = 16;
/// Independent partial sums in the dot-product kernels.
const DOT_LANES: usize = 8;

fn widen(src: &[f32]) -> Vec<f64> {
    src.iter().map(|&v| f64::from(v)).collect()
}

fn narrow(src: &[f64]) -> Vec<f32> {
    src.iter().map(|&v| v as f32).collect()
}

/// `a * b` through the f32 panel kernel, row-partitioned over scoped
/// threads when [`pool::parallel_worthwhile`] says the product is big
/// enough.
pub(crate) fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    kernels::check_matmul_dims(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    let a32 = narrow(a.as_slice());
    let b32 = narrow(b.as_slice());
    let mut out32 = vec![0.0f32; m * n];
    let threads = if pool::parallel_worthwhile(m * k * n) {
        pool::effective_threads()
    } else {
        1
    };
    pool::partition_rows(&a32, m, k, &b32, n, threads, &mut out32, panel_into);
    Ok(Matrix::from_vec(m, n, widen(&out32)).expect("simd matmul output length"))
}

/// The register-tiled f32 kernel: `out (m x n) = a (m x k) * b (k x n)`
/// over flat row-major slices, `out` assumed zeroed.
///
/// Full tiles keep an `SIMD_MR x SIMD_NR` f32 accumulator array live
/// across the `k` loop; the `&[f32; SIMD_NR]` panel borrow makes the
/// inner trip count a compile-time constant so LLVM turns it into
/// vector FMAs/mul-adds. Tails fall back to per-element ascending-`k`
/// loops, which compute the identical value (same per-element operation
/// order).
fn panel_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let mut i = 0;
    while i + SIMD_MR <= m {
        let mut j = 0;
        while j + SIMD_NR <= n {
            let mut acc = [[0.0f32; SIMD_NR]; SIMD_MR];
            for kx in 0..k {
                let b_panel: &[f32; SIMD_NR] = b[kx * n + j..kx * n + j + SIMD_NR]
                    .try_into()
                    .expect("panel width");
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = a[(i + r) * k + kx];
                    for (o, &bv) in acc_row.iter_mut().zip(b_panel.iter()) {
                        *o += av * bv;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + j + SIMD_NR].copy_from_slice(acc_row);
            }
            j += SIMD_NR;
        }
        for r in 0..SIMD_MR {
            for jt in j..n {
                out[(i + r) * n + jt] = cell(a, i + r, k, b, n, jt);
            }
        }
        i += SIMD_MR;
    }
    while i < m {
        for jt in 0..n {
            out[i * n + jt] = cell(a, i, k, b, n, jt);
        }
        i += 1;
    }
}

/// One output element, ascending-`k` f32 accumulation — the per-element
/// reference the tiled path reproduces exactly.
fn cell(a: &[f32], i: usize, k: usize, b: &[f32], n: usize, j: usize) -> f32 {
    let a_row = &a[i * k..(i + 1) * k];
    let mut acc = 0.0f32;
    for (kx, &av) in a_row.iter().enumerate() {
        acc += av * b[kx * n + j];
    }
    acc
}

/// `aᵀ * b` through the f32 panel kernel: `a` is `(r x ca)`, `b` is
/// `(r x cb)`, the result is `(ca x cb)`.
pub(crate) fn matmul_tn(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    kernels::check_tn_dims(a, b)?;
    let rows = a.rows();
    let (ca, cb) = (a.cols(), b.cols());
    let a32 = narrow(a.as_slice());
    let b32 = narrow(b.as_slice());
    let mut out32 = vec![0.0f32; ca * cb];
    let mut i = 0;
    while i + SIMD_MR <= ca {
        let mut j = 0;
        while j + SIMD_NR <= cb {
            let mut acc = [[0.0f32; SIMD_NR]; SIMD_MR];
            for kx in 0..rows {
                let b_panel: &[f32; SIMD_NR] = b32[kx * cb + j..kx * cb + j + SIMD_NR]
                    .try_into()
                    .expect("panel width");
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = a32[kx * ca + i + r];
                    for (o, &bv) in acc_row.iter_mut().zip(b_panel.iter()) {
                        *o += av * bv;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                out32[(i + r) * cb + j..(i + r) * cb + j + SIMD_NR].copy_from_slice(acc_row);
            }
            j += SIMD_NR;
        }
        for r in 0..SIMD_MR {
            for jt in j..cb {
                out32[(i + r) * cb + jt] = tn_cell(&a32, rows, ca, i + r, &b32, cb, jt);
            }
        }
        i += SIMD_MR;
    }
    while i < ca {
        for jt in 0..cb {
            out32[i * cb + jt] = tn_cell(&a32, rows, ca, i, &b32, cb, jt);
        }
        i += 1;
    }
    Ok(Matrix::from_vec(ca, cb, widen(&out32)).expect("simd tn output length"))
}

/// One `aᵀ * b` output element, ascending-`k` f32 accumulation.
fn tn_cell(a: &[f32], rows: usize, ca: usize, i: usize, b: &[f32], cb: usize, j: usize) -> f32 {
    let mut acc = 0.0f32;
    for kx in 0..rows {
        acc += a[kx * ca + i] * b[kx * cb + j];
    }
    acc
}

/// Deterministic multi-lane f32 dot product: [`DOT_LANES`] independent
/// partial sums over strided chunks (vectorizable without
/// reassociation), combined in a fixed tree, scalar tail last. The
/// reduction order is a pure function of the vector length.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; DOT_LANES];
    let mut a_chunks = a.chunks_exact(DOT_LANES);
    let mut b_chunks = b.chunks_exact(DOT_LANES);
    for (ac, bc) in (&mut a_chunks).zip(&mut b_chunks) {
        for (lane, (&av, &bv)) in lanes.iter_mut().zip(ac.iter().zip(bc.iter())) {
            *lane += av * bv;
        }
    }
    let mut tail = 0.0f32;
    for (&av, &bv) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        tail += av * bv;
    }
    let half = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    let other = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
    (half + other) + tail
}

/// `a * bᵀ` through f32 multi-lane dot products: `a` is `(ra x c)`,
/// `b` is `(rb x c)`, the result is `(ra x rb)`.
pub(crate) fn matmul_nt(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    kernels::check_nt_dims(a, b)?;
    let (ra, c) = a.shape();
    let rb = b.rows();
    let a32 = narrow(a.as_slice());
    let b32 = narrow(b.as_slice());
    let mut out32 = vec![0.0f32; ra * rb];
    for i in 0..ra {
        let a_row = &a32[i * c..(i + 1) * c];
        let o = &mut out32[i * rb..(i + 1) * rb];
        for (j, ov) in o.iter_mut().enumerate() {
            *ov = dot(a_row, &b32[j * c..(j + 1) * c]);
        }
    }
    Ok(Matrix::from_vec(ra, rb, widen(&out32)).expect("simd nt output length"))
}

/// Matrix-vector product `a * x` through f32 multi-lane dot products.
pub(crate) fn gemv(a: &Matrix, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
    kernels::check_gemv_dims(a, x)?;
    let (m, k) = a.shape();
    let a32 = narrow(a.as_slice());
    let x32 = narrow(x);
    let mut out = vec![0.0f64; m];
    for (i, o) in out.iter_mut().enumerate() {
        *o = f64::from(dot(&a32[i * k..(i + 1) * k], &x32));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed.wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (s >> 33) as f64 / (1u64 << 31) as f64;
            if u < 0.15 {
                0.0
            } else {
                u - 0.5
            }
        })
    }

    fn assert_close(x: &Matrix, y: &Matrix, what: &str) {
        assert_eq!(x.shape(), y.shape(), "{what}: shape mismatch");
        for (a, b) in x.iter().zip(y.iter()) {
            assert!(
                (a - b).abs() <= 1e-5 * (a.abs() + b.abs() + 1.0),
                "{what}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn simd_matmul_close_to_scalar_on_awkward_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (4, 16, 16),
            (5, 3, 9),
            (63, 17, 65),
            (64, 33, 48),
            (65, 31, 17),
        ] {
            let a = mat(m, k, (m * 1000 + k) as u64);
            let b = mat(k, n, (k * 1000 + n) as u64);
            let reference = kernels::matmul_scalar(&a, &b).unwrap();
            let fast = matmul(&a, &b).unwrap();
            assert_close(&reference, &fast, "simd matmul");
        }
    }

    #[test]
    fn tile_and_tail_paths_agree_per_element() {
        // The same logical row computed inside a full 4x16 tile and as a
        // 1-row tail must produce identical bits: per-element ascending-k
        // f32 accumulation does not depend on tiling position. This is
        // what keeps batched and per-row scoring bit-identical under the
        // Simd backend.
        let k = 37;
        let n = 33; // forces a column tail as well
        let batch = mat(8, k, 99);
        let b = mat(k, n, 100);
        let batched = matmul(&batch, &b).unwrap();
        for i in 0..batch.rows() {
            let row = Matrix::row_vector(batch.row(i));
            let single = matmul(&row, &b).unwrap();
            for (x, y) in batched.row(i).iter().zip(single.row(0).iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {i} differs");
            }
        }
    }

    #[test]
    fn partitioned_matches_single_thread_bitwise() {
        let a = mat(96, 40, 7);
        let b = mat(40, 24, 8);
        let a32 = narrow(a.as_slice());
        let b32 = narrow(b.as_slice());
        let mut single = vec![0.0f32; 96 * 24];
        panel_into(&a32, 96, 40, &b32, 24, &mut single);
        for threads in [2, 3, 5, 8] {
            let mut multi = vec![0.0f32; 96 * 24];
            pool::partition_rows(&a32, 96, 40, &b32, 24, threads, &mut multi, panel_into);
            for (x, y) in single.iter().zip(multi.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn dot_is_deterministic_and_accurate() {
        for len in [0, 1, 7, 8, 9, 64, 100] {
            let a: Vec<f32> = (0..len).map(|i| ((i as f32) * 0.37).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| ((i as f32) * 0.71).cos()).collect();
            let reference: f64 = a
                .iter()
                .zip(b.iter())
                .map(|(&x, &y)| f64::from(x) * f64::from(y))
                .sum();
            let got = f64::from(dot(&a, &b));
            assert!((got - reference).abs() <= 1e-5 * (reference.abs() + 1.0));
            assert_eq!(dot(&a, &b).to_bits(), dot(&a, &b).to_bits());
        }
    }

    #[test]
    fn degenerate_shapes_work() {
        let a = Matrix::zeros(0, 5);
        let b = mat(5, 3, 1);
        assert_eq!(matmul(&a, &b).unwrap().shape(), (0, 3));
        let a1 = mat(1, 1, 2);
        let b1 = mat(1, 1, 3);
        assert_eq!(matmul(&a1, &b1).unwrap().shape(), (1, 1));
        assert_eq!(gemv(&b, &[1.0, 2.0, 3.0]).unwrap().len(), 5);
    }
}
