//! Dense matrix multiply kernels (paper §IV-A).
//!
//! The paper extends "an optimized, tiled version of GPU dense matrix
//! multiply" to out-of-core execution; at the leaf, the GPU kernel uses
//! per-compute-unit local memory with a 16x16 blocking. Our real kernels:
//!
//! * [`matmul_naive`] — the textbook triple loop, the correctness oracle;
//! * [`matmul_tiled`] — the leaf kernel: packed panels under a
//!   register-blocked micro-kernel (structurally the LDS-tiled GPU kernel,
//!   with registers for the LDS), its rows of `C` split into bands over
//!   every core as the GPU kernel's work-groups spread over compute units,
//!   bit-identical to the oracle at any worker count. On x86-64 a band runs
//!   through an AVX2 build of the same code when the CPU has AVX2 (checked
//!   at run time), and through the baseline build otherwise; AVX2 widens
//!   the vectors but keeps each product one multiply and one add (no FMA),
//!   so the bits match too.
//!
//! All compute `C += A * B` so the out-of-core accumulation over k-shards
//! ("first computing partial results ... then accumulate the partial sums",
//! §IV-A) uses the same kernels.

use crate::dense::DenseMatrix;
use crate::isa::Isa;
use northup_exec::{fan_out, workers};
use std::ops::Range;

/// Leaf tile edge, matching the paper's 16x16 GPU local-memory blocking.
pub const LEAF_TILE: usize = 16;

/// `c += a * b`, naive triple loop.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matmul_naive(a: &DenseMatrix, b: &DenseMatrix, c: &mut DenseMatrix) {
    check_dims(a, b, c);
    for i in 0..a.rows {
        for kk in 0..a.cols {
            let av = a.get(i, kk);
            if av == 0.0 {
                continue;
            }
            let brow = b.row(kk);
            let crow = &mut c.data[i * b.cols..(i + 1) * b.cols];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// Micro-kernel geometry: an `MR x NR` block of `C` is held in registers
/// (four 8-lane vectors in the AVX2 build, eight 4-lane vectors in the
/// baseline x86-64 build) while one packed row panel of `A` and one packed
/// column panel of `B` stream past it.
const MR: usize = 4;
const NR: usize = 8;
/// Depth of one packed k panel: a band's packed `A` rows (16 KiB) and a
/// `KC x NR` micro-panel of `B` (8 KiB) fit in L1 together.
const KC: usize = 256;
/// Rows of `C` in one band: a few `MR` blocks.
const BAND_ROWS: usize = 4 * MR;

/// `c += a * b`: BLIS-style packed panels under a register-blocked
/// `MR x NR` micro-kernel. The accumulator block is loaded from `C`, k
/// panels are visited in ascending order and every product is one multiply
/// followed by one add, so each element of `C` receives exactly the
/// operations of [`matmul_naive`]'s loop in the same order: the result is
/// bit-identical to the plain ikj loop this replaced.
///
/// Each k panel of `B` is packed once and shared read-only; the rows of
/// `C` are cut into bands of `4 * MR` rows, each packing its own rows of
/// `A`, that the caller and one helper per spare core claim in turn. A
/// band only reorders which elements of `C` are computed when, so the
/// bits do not depend on the worker count.
///
/// `tile` does not affect the result (it never did: tiling reorders
/// independent elements, not the sum of one) and no longer affects the
/// blocking; callers pass [`LEAF_TILE`] to name the GPU kernel's blocking.
///
/// # Panics
/// Panics on dimension mismatch or `tile == 0`.
pub fn matmul_tiled(a: &DenseMatrix, b: &DenseMatrix, c: &mut DenseMatrix, tile: usize) {
    check_dims(a, b, c);
    assert!(tile > 0, "tile must be positive");
    matmul_on(Isa::host(), workers(), a, b, c);
}

/// [`matmul_tiled`] with its bands run by the `isa` build and spread over
/// at most `workers` threads.
fn matmul_on(isa: Isa, workers: usize, a: &DenseMatrix, b: &DenseMatrix, c: &mut DenseMatrix) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    if n == 0 {
        return;
    }
    let mut a_pack = vec![0.0f32; m.next_multiple_of(MR) * KC.min(k)];
    let mut b_pack = vec![0.0f32; n.next_multiple_of(NR) * KC.min(k)];

    for pc in (0..k).step_by(KC) {
        let kb = KC.min(k - pc);
        pack_b(b, pc, kb, &mut b_pack);
        let b_pack = &b_pack[..];
        let workers = if m * n * kb < crate::INLINE_BELOW {
            1
        } else {
            workers
        };
        let bands: Vec<_> = c
            .data
            .chunks_mut(BAND_ROWS * n)
            .zip(a_pack.chunks_mut(BAND_ROWS * kb))
            .enumerate()
            .collect();
        fan_out(workers, bands, |(i, (c_band, a_band))| {
            let r0 = i * BAND_ROWS;
            let rows = r0..r0 + c_band.len() / n;
            run_band(isa, a, rows, pc, kb, b_pack, c_band, a_band);
        });
    }
}

/// [`band_kernel`] through the `isa` build.
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)]
fn run_band(
    isa: Isa,
    a: &DenseMatrix,
    rows: Range<usize>,
    pc: usize,
    kb: usize,
    b_pack: &[f32],
    c_band: &mut [f32],
    a_pack: &mut [f32],
) {
    /// [`band_kernel`] compiled with AVX2; it inlines everything it calls,
    /// so the whole band runs on 8-lane vectors.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn band_kernel_avx2(
        a: &DenseMatrix,
        rows: Range<usize>,
        pc: usize,
        kb: usize,
        b_pack: &[f32],
        c_band: &mut [f32],
        a_pack: &mut [f32],
    ) {
        band_kernel(a, rows, pc, kb, b_pack, c_band, a_pack);
    }

    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: `band_kernel_avx2` needs AVX2, which
            // `is_x86_feature_detected!("avx2")` has just found on this CPU.
            unsafe { band_kernel_avx2(a, rows, pc, kb, b_pack, c_band, a_pack) }
        }
        _ => band_kernel(a, rows, pc, kb, b_pack, c_band, a_pack),
    }
}

/// `c_band += a[rows, pc..pc+kb] * b[pc..pc+kb, ..]`, where `c_band` holds
/// rows `rows` of `C`, `b_pack` is the k panel packed by [`pack_b`] and
/// `a_pack` is this band's room for its rows of `A`. Inlined, with all it
/// calls, into each build [`run_band`] picks from.
#[inline(always)]
fn band_kernel(
    a: &DenseMatrix,
    rows: Range<usize>,
    pc: usize,
    kb: usize,
    b_pack: &[f32],
    c_band: &mut [f32],
    a_pack: &mut [f32],
) {
    let n = c_band.len() / rows.len();
    pack_a(a, rows.clone(), pc, kb, a_pack);
    let rows = rows.len();
    for jr in (0..n).step_by(NR) {
        let b_panel = &b_pack[jr * kb..][..kb * NR];
        let jb = NR.min(n - jr);
        for ir in (0..rows).step_by(MR) {
            let a_panel = &a_pack[ir * kb..][..kb * MR];
            let ib = MR.min(rows - ir);
            // Load the C block; an edge block's padding lanes start
            // at zero and are never stored.
            let mut acc = [[0.0f32; NR]; MR];
            for (ii, row) in acc.iter_mut().enumerate().take(ib) {
                row[..jb].copy_from_slice(&c_band[(ir + ii) * n + jr..][..jb]);
            }
            micro_kernel(a_panel, b_panel, &mut acc);
            for (ii, row) in acc.iter().enumerate().take(ib) {
                c_band[(ir + ii) * n + jr..][..jb].copy_from_slice(&row[..jb]);
            }
        }
    }
}

/// Pack rows `pc..pc+kb` of `B` into `NR`-wide column micro-panels: panel
/// `jr / NR` is `kb` rows of `NR` contiguous values, zero-padded past the
/// last column.
fn pack_b(b: &DenseMatrix, pc: usize, kb: usize, out: &mut [f32]) {
    for jr in (0..b.cols).step_by(NR) {
        let jb = NR.min(b.cols - jr);
        let panel = &mut out[jr * kb..][..kb * NR];
        for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
            let src = &b.data[(pc + kk) * b.cols + jr..][..jb];
            dst[..jb].copy_from_slice(src);
            dst[jb..].fill(0.0);
        }
    }
}

/// Pack rows `rows` and columns `pc..pc+kb` of `A` into `MR`-tall row
/// micro-panels: panel `ir / MR` is `kb` columns of `MR` contiguous values,
/// zero-padded past the last row.
#[inline(always)]
fn pack_a(a: &DenseMatrix, rows: Range<usize>, pc: usize, kb: usize, out: &mut [f32]) {
    for ir in (0..rows.len()).step_by(MR) {
        let panel = &mut out[ir * kb..][..kb * MR];
        panel.fill(0.0);
        for ii in 0..MR.min(rows.len() - ir) {
            let src = &a.data[(rows.start + ir + ii) * a.cols + pc..][..kb];
            for (dst, &v) in panel[ii..].iter_mut().step_by(MR).zip(src) {
                *dst = v;
            }
        }
    }
}

/// `acc += a_panel * b_panel` over the panels' shared k extent: one rank-1
/// update of the register block per k, ascending.
#[inline(always)]
fn micro_kernel(a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    // A by-value copy of the block: updated through the reference it stays
    // in memory, as a local it stays in registers (4x faster).
    let mut regs = *acc;
    for (ak, bk) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        for (row, &av) in regs.iter_mut().zip(ak) {
            for (cv, &bv) in row.iter_mut().zip(bk) {
                *cv += av * bv;
            }
        }
    }
    *acc = regs;
}

fn check_dims(a: &DenseMatrix, b: &DenseMatrix, c: &DenseMatrix) {
    assert_eq!(a.cols, b.rows, "inner dimensions differ");
    assert_eq!(c.rows, a.rows, "C rows mismatch");
    assert_eq!(c.cols, b.cols, "C cols mismatch");
}

/// FLOPs of `C += A(m x k) * B(k x n)`.
pub fn gemm_flops(m: u64, n: u64, k: u64) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mats(m: usize, k: usize, n: usize) -> (DenseMatrix, DenseMatrix) {
        (DenseMatrix::random(m, k, 1), DenseMatrix::random(k, n, 2))
    }

    fn bits(m: &DenseMatrix) -> Vec<u32> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    /// The blocked ikj triple loop `matmul_tiled` was before it became the
    /// packed micro-kernel: the bit-level oracle for every `tile`.
    fn tiled_ikj(a: &DenseMatrix, b: &DenseMatrix, c: &mut DenseMatrix, tile: usize) {
        let (m, k, n) = (a.rows, a.cols, b.cols);
        for i0 in (0..m).step_by(tile) {
            for k0 in (0..k).step_by(tile) {
                for j0 in (0..n).step_by(tile) {
                    let j1 = (j0 + tile).min(n);
                    for i in i0..(i0 + tile).min(m) {
                        for kk in k0..(k0 + tile).min(k) {
                            let av = a.get(i, kk);
                            let brow = &b.data[kk * n + j0..kk * n + j1];
                            let crow = &mut c.data[i * n + j0..i * n + j1];
                            for (cv, bv) in crow.iter_mut().zip(brow) {
                                *cv += av * bv;
                            }
                        }
                    }
                }
            }
        }
    }

    /// `matmul_tiled` on a pre-loaded `C`, bit for bit against the old loop
    /// and the naive oracle.
    fn assert_bit_identical(m: usize, k: usize, n: usize, tile: usize) {
        let (a, b) = mats(m, k, n);
        let c0 = DenseMatrix::random(m, n, 3);
        let (mut got, mut old, mut naive) = (c0.clone(), c0.clone(), c0);
        matmul_tiled(&a, &b, &mut got, tile);
        tiled_ikj(&a, &b, &mut old, tile);
        matmul_naive(&a, &b, &mut naive);
        assert_eq!(bits(&got), bits(&old), "old loop ({m},{k},{n},{tile})");
        assert_eq!(bits(&got), bits(&naive), "naive ({m},{k},{n},{tile})");
    }

    /// Worker counts the split kernels are held to: one (bands run
    /// inline), two, and more workers than cores or bands.
    const WORKERS: [usize; 5] = [1, 2, 3, 4, 7];

    /// Each build of the band kernel at every worker count on a pre-loaded
    /// `C`, bit for bit against the naive oracle.
    fn assert_every_path_matches_naive(m: usize, k: usize, n: usize) {
        let (a, b) = mats(m, k, n);
        let c0 = DenseMatrix::random(m, n, 3);
        let mut naive = c0.clone();
        matmul_naive(&a, &b, &mut naive);
        for isa in crate::isa::every() {
            for workers in WORKERS {
                let mut got = c0.clone();
                matmul_on(isa, workers, &a, &b, &mut got);
                assert_eq!(
                    bits(&got),
                    bits(&naive),
                    "({m},{k},{n}) {isa:?}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn tiled_matches_naive() {
        for &(m, k, n, tile) in &[
            (5usize, 7usize, 3usize, 2usize),
            (16, 16, 16, 16),
            (33, 20, 17, 8),
        ] {
            assert_bit_identical(m, k, n, tile);
        }
    }

    #[test]
    fn tiled_is_bit_identical_off_the_panel_grid() {
        // m, n off the MR/NR grid, k off the k-panel (and k = 1), every
        // tile.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (MR + 1, 1, NR + 1),
            (MR - 1, KC + 3, NR - 1),
            (33, 77, 19),
            (5, 2 * KC + 1, 9),
            (130, 40, 67),
        ] {
            for tile in [1usize, 16, 64, 1000] {
                assert_bit_identical(m, k, n, tile);
            }
        }
    }

    proptest! {
        #[test]
        fn tiled_is_bit_identical_on_random_shapes(
            m in 1usize..40,
            k in 1usize..300,
            n in 1usize..40,
            tile in 1usize..70,
        ) {
            assert_bit_identical(m, k, n, tile);
            assert_every_path_matches_naive(m, k, n);
        }
    }

    #[test]
    fn bands_are_bit_identical_to_naive_at_any_worker_count() {
        // The leaf's shape, one off the MR/NR grid and the k panel, and
        // one whose rows fit in a single band; all above INLINE_BELOW.
        // Each runs on the portable and the AVX2 build.
        for &(m, k, n) in &[
            (256usize, 1024usize, 256usize),
            (130, 600, 200),
            (9, 600, 200),
        ] {
            assert!(m * n * KC.min(k) >= crate::INLINE_BELOW);
            assert_every_path_matches_naive(m, k, n);
        }
    }

    #[test]
    fn accumulation_over_k_shards_matches_single_call() {
        // The out-of-core schedule multiplies k-slices and accumulates;
        // verify the decomposition identity C = sum_s A[:,s] * B[s,:].
        // Ascending shards keep every element's products in k order, so
        // the identity holds bit for bit.
        let (a, b) = mats(12, 20, 9);
        let mut whole = DenseMatrix::zeros(12, 9);
        matmul_naive(&a, &b, &mut whole);

        let mut acc = DenseMatrix::zeros(12, 9);
        for s in 0..4 {
            let a_sh = a.extract_block(0, s * 5, 12, 5);
            let b_sh = b.extract_block(s * 5, 0, 5, 9);
            matmul_tiled(&a_sh, &b_sh, &mut acc, 4);
        }
        assert_eq!(bits(&whole), bits(&acc));
    }

    #[test]
    fn identity_multiplication() {
        let a = DenseMatrix::random(6, 6, 3);
        let eye = DenseMatrix::from_fn(6, 6, |r, c| if r == c { 1.0 } else { 0.0 });
        let mut c = DenseMatrix::zeros(6, 6);
        matmul_tiled(&a, &eye, &mut c, 4);
        assert_eq!(bits(&a), bits(&c));
    }

    #[test]
    fn accumulates_into_nonzero_c() {
        let (a, b) = mats(4, 4, 4);
        let mut c = DenseMatrix::from_fn(4, 4, |_, _| 1.0);
        let mut expect = DenseMatrix::from_fn(4, 4, |_, _| 1.0);
        matmul_naive(&a, &b, &mut expect);
        matmul_tiled(&a, &b, &mut c, 16);
        assert_eq!(bits(&expect), bits(&c));
    }

    #[test]
    fn gemm_flops_formula() {
        assert_eq!(gemm_flops(10, 10, 10), 2000.0);
    }

    #[test]
    fn empty_dims_are_fine() {
        let a = DenseMatrix::zeros(0, 5);
        let b = DenseMatrix::zeros(5, 3);
        let mut c = DenseMatrix::zeros(0, 3);
        matmul_tiled(&a, &b, &mut c, 8);
        assert_eq!(c.data.len(), 0);
        // k = 0 leaves C as it was.
        let mut c = DenseMatrix::random(4, 3, 9);
        let before = c.clone();
        matmul_tiled(
            &DenseMatrix::zeros(4, 0),
            &DenseMatrix::zeros(0, 3),
            &mut c,
            8,
        );
        assert_eq!(c, before);
    }
}
