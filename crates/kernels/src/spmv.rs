//! CSR-Adaptive SpMV kernels (paper §IV-C, Greathouse & Daga \[20\]).
//!
//! Each binned row block is processed by the kernel its
//! [`BlockKind`] selects:
//!
//! [`BlockKind`]: northup_sparse::BlockKind
//!
//! * **CSR-Stream** — one workgroup stages the block's entire nnz range in
//!   local memory, then rows reduce out of it. We fuse the two phases:
//!   each row accumulates its products `v * x[c]` from 0.0 in entry order,
//!   the same roundings in the same order as the staged products reduced
//!   per row (Rust does not contract to FMA). FP order matches; LDS
//!   traffic is the cost model's to charge.
//! * **CSR-Vector** — the workgroup's lanes stride one long row and combine
//!   with a tree reduction; we reproduce the lane-strided partial sums and
//!   the tree combine.
//! * **CSR-VectorL** — like Vector but partial sums accumulate across
//!   multiple workgroup-sized segments.
//!
//! The kernels read the matrix through [`CsrView`], so one implementation
//! serves a [`Csr`](northup_sparse::Csr) and a staged shard's bytes
//! ([`CsrBytes`](northup_sparse::CsrBytes)) alike. Each column is checked
//! against `x` where it is loaded: an out-of-range one is a
//! [`CsrError::ColumnOutOfRange`], not a panic.

use northup_sparse::{BlockKind, CsrError, CsrView, RowBlock};

/// Simulated workgroup width (lanes) for Vector kernels.
pub const WG_LANES: usize = 64;

/// Elements per cooperating workgroup pass of CSR-VectorL.
const LONG_SEGMENT: usize = WG_LANES * 16;

/// The first entry of `[lo, hi)` whose column has no `x` element: the
/// error path of every kernel's `x` lookup.
#[cold]
fn bad_column<M: CsrView>(m: &M, lo: usize, hi: usize, cols: usize) -> CsrError {
    m.entries(lo, hi)
        .zip(lo..)
        .find(|&((_, c), _)| c as usize >= cols)
        .map_or(CsrError::LengthMismatch, |((_, col), at)| {
            CsrError::ColumnOutOfRange { at, col }
        })
}

/// CSR-Stream, fused: each row of `block` sums its own products into
/// `y_block`, in entry order.
fn stream_block<M: CsrView>(
    m: &M,
    block: &RowBlock,
    x: &[f32],
    y_block: &mut [f32],
) -> Result<(), CsrError> {
    let mut lo = m.row_start(block.row_start);
    for (r, yr) in (block.row_start + 1..=block.row_end).zip(y_block) {
        let hi = m.row_start(r);
        let mut acc = 0.0f32;
        for (v, c) in m.entries(lo, hi) {
            let Some(&xc) = x.get(c as usize) else {
                return Err(bad_column(m, lo, hi, x.len()));
            };
            acc += v * xc;
        }
        *yr = acc;
        lo = hi;
    }
    Ok(())
}

/// One workgroup over a run of entries: entry `k` accumulates into lane
/// `k % WG_LANES` (a workgroup-wide chunk per step), then the lanes combine
/// by tree reduction. `None` when a column has no `x` element.
fn lane_sum(entries: impl Iterator<Item = (f32, u32)>, x: &[f32]) -> Option<f32> {
    let mut lanes = [0.0f32; WG_LANES];
    for (k, (v, c)) in entries.enumerate() {
        lanes[k % WG_LANES] += v * x.get(c as usize)?;
    }
    Some(tree_reduce(lanes))
}

/// CSR-Vector: one long row, lane-strided partials + tree reduction.
fn vector_row<M: CsrView>(m: &M, block: &RowBlock, x: &[f32]) -> Result<f32, CsrError> {
    debug_assert_eq!(block.row_end - block.row_start, 1);
    let (lo, hi) = (m.row_start(block.row_start), m.row_start(block.row_end));
    lane_sum(m.entries(lo, hi), x).ok_or_else(|| bad_column(m, lo, hi, x.len()))
}

/// CSR-VectorL: one very long row, segment-wise Vector passes accumulated.
fn vector_long_row<M: CsrView>(m: &M, block: &RowBlock, x: &[f32]) -> Result<f32, CsrError> {
    debug_assert_eq!(block.row_end - block.row_start, 1);
    let (lo, hi) = (m.row_start(block.row_start), m.row_start(block.row_end));
    let mut acc = 0.0f32;
    for s in (lo..hi).step_by(LONG_SEGMENT) {
        let e = (s + LONG_SEGMENT).min(hi);
        // The GPU's cross-workgroup atomic add.
        acc += lane_sum(m.entries(s, e), x).ok_or_else(|| bad_column(m, s, e, x.len()))?;
    }
    Ok(acc)
}

fn tree_reduce(mut lanes: [f32; WG_LANES]) -> f32 {
    let mut width = WG_LANES / 2;
    while width > 0 {
        let (lo, hi) = lanes.split_at_mut(width);
        for (a, b) in lo.iter_mut().zip(hi) {
            *a += *b;
        }
        width /= 2;
    }
    lanes[0]
}

/// Dispatch every row block to its kernel: the full CSR-Adaptive SpMV over
/// any [`CsrView`]. A column with no `x` element stops the pass with
/// [`CsrError::ColumnOutOfRange`]; rows of earlier blocks are written.
///
/// # Panics
/// Panics if `x.len() != m.cols()` or `y.len() != m.rows()`.
pub fn try_spmv_adaptive<M: CsrView>(
    m: &M,
    blocks: &[RowBlock],
    x: &[f32],
    y: &mut [f32],
) -> Result<(), CsrError> {
    assert_eq!(x.len(), m.cols());
    assert_eq!(y.len(), m.rows());
    for b in blocks {
        let y_block = &mut y[b.row_start..b.row_end];
        match b.kind {
            BlockKind::Stream => stream_block(m, b, x, y_block)?,
            BlockKind::Vector => y_block[0] = vector_row(m, b, x)?,
            BlockKind::VectorLong => y_block[0] = vector_long_row(m, b, x)?,
        }
    }
    Ok(())
}

/// [`try_spmv_adaptive`] over a matrix whose columns are known to be in
/// range, such as a validated [`Csr`](northup_sparse::Csr).
///
/// # Panics
/// Panics on a shape mismatch, as [`try_spmv_adaptive`] does, and on a
/// column out of range.
pub fn spmv_adaptive<M: CsrView>(m: &M, blocks: &[RowBlock], x: &[f32], y: &mut [f32]) {
    if let Err(e) = try_spmv_adaptive(m, blocks, x, y) {
        panic!("spmv_adaptive: {e}");
    }
}

/// Relative error between two vectors (inf-norm of the difference over the
/// inf-norm of the reference, guarding the zero vector).
pub fn rel_error(reference: &[f32], got: &[f32]) -> f32 {
    assert_eq!(reference.len(), got.len());
    let scale = reference
        .iter()
        .map(|v| v.abs())
        .fold(0.0f32, f32::max)
        .max(1e-20);
    reference
        .iter()
        .zip(got)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max)
        / scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use northup_sparse::{bin_rows, gen, BinningParams, Csr, CsrBytes};
    use proptest::prelude::*;

    fn check_adaptive(m: &Csr, params: BinningParams) {
        let blocks = bin_rows(m, params);
        let x: Vec<f32> = (0..m.cols)
            .map(|i| ((i % 13) as f32 - 6.0) * 0.25)
            .collect();
        let mut reference = vec![0.0f32; m.rows];
        m.spmv_reference(&x, &mut reference);
        let mut y = vec![f32::NAN; m.rows];
        spmv_adaptive(m, &blocks, &x, &mut y);
        assert!(
            rel_error(&reference, &y) < 1e-4,
            "adaptive mismatch: {}",
            rel_error(&reference, &y)
        );
    }

    /// The three kernels as they were before the slice rewrite (a fresh
    /// scratch `Vec` per Stream block, indexed loads, `k % WG_LANES` lane
    /// assignment): the bit-level oracle for `spmv_adaptive`.
    fn old_adaptive(m: &Csr, blocks: &[RowBlock], x: &[f32], y: &mut [f32]) {
        let product = |i: usize| m.vals[i] * x[m.col_idx[i] as usize];
        let old_tree = |lanes: &[f32; WG_LANES]| {
            let mut buf = *lanes;
            let mut width = WG_LANES / 2;
            while width > 0 {
                for i in 0..width {
                    buf[i] += buf[i + width];
                }
                width /= 2;
            }
            buf[0]
        };
        for b in blocks {
            let (lo, hi) = (m.row_ptr[b.row_start], m.row_ptr[b.row_end]);
            match b.kind {
                BlockKind::Stream => {
                    let scratch: Vec<f32> = (lo..hi).map(product).collect();
                    for r in b.row_start..b.row_end {
                        let mut acc = 0.0f32;
                        for v in &scratch[m.row_ptr[r] - lo..m.row_ptr[r + 1] - lo] {
                            acc += v;
                        }
                        y[r] = acc;
                    }
                }
                BlockKind::Vector => {
                    let mut lanes = [0.0f32; WG_LANES];
                    for (k, i) in (lo..hi).enumerate() {
                        lanes[k % WG_LANES] += product(i);
                    }
                    y[b.row_start] = old_tree(&lanes);
                }
                BlockKind::VectorLong => {
                    let mut acc = 0.0f32;
                    let mut s = lo;
                    while s < hi {
                        let e = (s + WG_LANES * 16).min(hi);
                        let mut lanes = [0.0f32; WG_LANES];
                        for (k, i) in (s..e).enumerate() {
                            lanes[k % WG_LANES] += product(i);
                        }
                        acc += old_tree(&lanes);
                        s = e;
                    }
                    y[b.row_start] = acc;
                }
            }
        }
    }

    /// `spmv_adaptive` against the old kernels, bit
    /// for bit, on an `x` whose magnitudes make summation order visible.
    fn assert_bit_identical(m: &Csr, params: BinningParams) -> [usize; 3] {
        let blocks = bin_rows(m, params);
        let x: Vec<f32> = (0..m.cols)
            .map(|i| (i as f32 * 0.37).sin() * (1 + i % 7) as f32)
            .collect();
        let bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut want = vec![f32::NAN; m.rows];
        old_adaptive(m, &blocks, &x, &mut want);
        let mut got = vec![f32::NAN; m.rows];
        spmv_adaptive(m, &blocks, &x, &mut got);
        assert_eq!(bits(&got), bits(&want), "{params:?}");
        northup_sparse::kind_histogram(&blocks)
    }

    #[test]
    fn adaptive_is_bit_identical_to_the_old_kernels_on_powerlaw() {
        let m = gen::powerlaw(400, 3000, 2048, 0.8, 5);
        let kinds = assert_bit_identical(
            &m,
            BinningParams {
                stream_nnz: 64,
                vector_long_nnz: 512,
            },
        );
        assert!(kinds.iter().all(|&k| k > 0), "need all kernels: {kinds:?}");
        assert_bit_identical(&m, BinningParams::default());
    }

    #[test]
    fn adaptive_is_bit_identical_around_lane_and_segment_multiples() {
        // Empty rows and rows of 64k - 1, 64k, 64k + 1 entries up to past
        // two VectorL segments, under thresholds that send the long rows to
        // Vector, to VectorL, and (defaults) mostly to Stream.
        let mut lens = vec![0usize, 1, 0, 0, 2];
        for k in [1usize, 2, 3, 15, 16, 17, 32, 33] {
            lens.extend([WG_LANES * k - 1, 0, WG_LANES * k, WG_LANES * k + 1]);
        }
        lens.push(0);
        let cols = 2200;
        let triplets: Vec<(usize, u32, f32)> = lens
            .iter()
            .enumerate()
            .flat_map(|(r, &len)| {
                (0..len).map(move |j| {
                    let c = (j * 7 + r * 13) % cols;
                    (r, c as u32, ((r * 31 + j * 17) % 29) as f32 * 0.125 - 1.5)
                })
            })
            .collect();
        let m = Csr::from_coo(lens.len(), cols, triplets);
        for (stream_nnz, vector_long_nnz) in [(60, 100_000), (60, 1000), (60, 60), (1, 1)] {
            let kinds = assert_bit_identical(
                &m,
                BinningParams {
                    stream_nnz,
                    vector_long_nnz,
                },
            );
            assert!(kinds[0] > 0, "stream blocks hold the short and empty rows");
        }
        assert_bit_identical(&m, BinningParams::default());
    }

    proptest! {
        #[test]
        fn adaptive_is_bit_identical_on_random_matrices(
            rows in 1usize..60,
            max_nnz in 1usize..1500,
            alpha in 0usize..12,
            seed in 0u64..1000,
            stream_nnz in 1usize..200,
            long_extra in 0usize..1200,
        ) {
            let m = gen::powerlaw(rows, 1500, max_nnz, alpha as f64 * 0.1, seed);
            assert_bit_identical(&m, BinningParams {
                stream_nnz,
                vector_long_nnz: stream_nnz + long_extra,
            });
        }
    }

    /// The little-endian image of rows `[start, end)` of `m` as a shard's
    /// staging reads it: `row_ptr` words not rebased, then the entries.
    fn staged(m: &Csr, start: usize, end: usize) -> [Vec<u8>; 3] {
        let (lo, hi) = (m.row_ptr[start], m.row_ptr[end]);
        [
            m.row_ptr[start..=end]
                .iter()
                .flat_map(|&p| (p as u32).to_le_bytes())
                .collect(),
            m.col_idx[lo..hi]
                .iter()
                .flat_map(|c| c.to_le_bytes())
                .collect(),
            m.vals[lo..hi]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect(),
        ]
    }

    proptest! {
        #[test]
        fn staged_bytes_bin_and_multiply_like_the_sliced_csr(
            rows in 1usize..60,
            max_nnz in 1usize..1500,
            alpha in 0usize..12,
            seed in 0u64..1000,
            stream_nnz in 1usize..200,
            long_extra in 0usize..1200,
            cut_a in 0usize..60,
            cut_b in 0usize..60,
        ) {
            let m = gen::powerlaw(rows, 1500, max_nnz, alpha as f64 * 0.1, seed);
            let (start, end) = (cut_a.min(cut_b).min(rows), cut_a.max(cut_b).min(rows));
            let params = BinningParams {
                stream_nnz,
                vector_long_nnz: stream_nnz + long_extra,
            };
            let sub = m.slice_rows(start, end);
            let [rp, ci, va] = staged(&m, start, end);
            let view = CsrBytes::new(m.cols, &rp, &ci, &va).unwrap();
            let blocks = bin_rows(&view, params);
            assert_eq!(blocks, bin_rows(&sub, params));
            let x: Vec<f32> = (0..m.cols)
                .map(|i| (i as f32 * 0.37).sin() * (1 + i % 7) as f32)
                .collect();
            let bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            let mut want = vec![f32::NAN; sub.rows];
            old_adaptive(&sub, &blocks, &x, &mut want);
            let mut from_csr = vec![f32::NAN; sub.rows];
            spmv_adaptive(&sub, &blocks, &x, &mut from_csr);
            let mut from_bytes = vec![f32::NAN; sub.rows];
            try_spmv_adaptive(&view, &blocks, &x, &mut from_bytes).unwrap();
            assert_eq!(bits(&from_csr), bits(&want));
            assert_eq!(bits(&from_bytes), bits(&want));
        }
    }

    #[test]
    fn a_column_past_x_is_a_typed_error_in_every_kernel() {
        // Rows of 3, 40 and 300 entries go to Stream, Vector and VectorL.
        let lens = [3usize, 40, 300];
        let triplets: Vec<(usize, u32, f32)> = lens
            .iter()
            .enumerate()
            .flat_map(|(r, &len)| (0..len as u32).map(move |c| (r, c, 1.0)))
            .collect();
        let m = Csr::from_coo(3, 300, triplets);
        let params = BinningParams {
            stream_nnz: 8,
            vector_long_nnz: 64,
        };
        let x = vec![1.0f32; m.cols];
        for (row, kind) in [BlockKind::Stream, BlockKind::Vector, BlockKind::VectorLong]
            .into_iter()
            .enumerate()
        {
            let [rp, mut ci, va] = staged(&m, 0, 3);
            let at = m.row_ptr[row] + lens[row] / 2;
            ci[at * 4..at * 4 + 4].copy_from_slice(&300u32.to_le_bytes());
            let view = CsrBytes::new(m.cols, &rp, &ci, &va).unwrap();
            let blocks = bin_rows(&view, params);
            assert_eq!(blocks[row].kind, kind);
            let mut y = vec![0.0f32; 3];
            assert_eq!(
                try_spmv_adaptive(&view, &blocks, &x, &mut y),
                Err(CsrError::ColumnOutOfRange { at, col: 300 }),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn adaptive_matches_reference_on_uniform() {
        check_adaptive(
            &gen::uniform_random(300, 500, 9, 1),
            BinningParams::default(),
        );
    }

    #[test]
    fn adaptive_matches_reference_on_powerlaw() {
        // Small thresholds force all three kernels to run.
        let m = gen::powerlaw(400, 3000, 2048, 0.8, 5);
        let p = BinningParams {
            stream_nnz: 64,
            vector_long_nnz: 512,
        };
        let blocks = bin_rows(&m, p);
        let kinds = northup_sparse::kind_histogram(&blocks);
        assert!(kinds.iter().all(|&k| k > 0), "need all kernels: {kinds:?}");
        check_adaptive(&m, p);
    }

    #[test]
    fn adaptive_matches_reference_on_banded_and_fem() {
        check_adaptive(&gen::banded(200, 4, 2), BinningParams::default());
        check_adaptive(&gen::laplace_2d(20, 18), BinningParams::default());
    }

    #[test]
    fn vector_kernel_handles_exact_lane_multiples() {
        let triplets: Vec<(usize, u32, f32)> = (0..(WG_LANES as u32 * 2))
            .map(|c| (0usize, c, 0.5f32))
            .collect();
        let m = Csr::from_coo(1, WG_LANES * 2, triplets);
        let b = RowBlock {
            row_start: 0,
            row_end: 1,
            nnz: WG_LANES * 2,
            kind: BlockKind::Vector,
        };
        let x = vec![2.0f32; WG_LANES * 2];
        let mut y = vec![0.0f32; 1];
        spmv_adaptive(&m, &[b], &x, &mut y);
        assert!((y[0] - WG_LANES as f32 * 2.0).abs() < 1e-3);
    }

    #[test]
    fn empty_matrix() {
        let m = Csr::from_coo(10, 10, Vec::new());
        let blocks = bin_rows(&m, BinningParams::default());
        let x = vec![1.0f32; 10];
        let mut y = vec![9.0f32; 10];
        spmv_adaptive(&m, &blocks, &x, &mut y);
        assert_eq!(y, vec![0.0f32; 10]);
    }

    #[test]
    fn rel_error_guards_zero_reference() {
        assert_eq!(rel_error(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        assert!(rel_error(&[0.0], &[1.0]) > 1.0);
    }
}
