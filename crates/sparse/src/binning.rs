//! CSR-Adaptive row binning (Greathouse & Daga, SC'14 — the paper's \[20\]).
//!
//! CSR-Adaptive "dynamically chooses kernels based on the shapes of sparse
//! matrices" (paper §IV-C). The CPU-side preprocessing walks `row_ptr` and
//! groups consecutive rows into *row blocks*, each tagged with the kernel
//! that will process it:
//!
//! * [`BlockKind::Stream`] — many short rows whose combined nnz fits in GPU
//!   local memory; processed by CSR-Stream (one workgroup streams the whole
//!   block through LDS).
//! * [`BlockKind::Vector`] — a single long row; processed by CSR-Vector
//!   (whole workgroup reduces one row).
//! * [`BlockKind::VectorLong`] — a single extremely long row; processed by
//!   CSR-VectorL (multiple workgroups cooperate via atomics).
//!
//! The paper charges this binning to the CPU in its breakdown ("CSR-Adaptive
//! uses the CPU for binning rows into different categories and spends
//! relatively more time", §V-C) — the runtime reproduces that accounting.

use crate::csr::Csr;
use crate::view::CsrView;

/// Which kernel a row block is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// CSR-Stream: a run of short rows, combined nnz <= `stream_nnz`.
    Stream,
    /// CSR-Vector: one row with `stream_nnz < nnz <= vector_long_nnz`.
    Vector,
    /// CSR-VectorL: one row with nnz > `vector_long_nnz`.
    VectorLong,
}

/// One binned row block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowBlock {
    /// First row (inclusive).
    pub row_start: usize,
    /// Last row (exclusive).
    pub row_end: usize,
    /// Stored entries covered by the block.
    pub nnz: usize,
    /// Kernel assignment.
    pub kind: BlockKind,
}

/// Binning thresholds (defaults follow the published CSR-Adaptive values:
/// LDS row-block size of 1024 nnz, VectorL cutoff around 16k nnz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinningParams {
    /// Max combined nnz of a CSR-Stream block (fits GPU local memory).
    pub stream_nnz: usize,
    /// Row nnz above which a single row goes to CSR-VectorL.
    pub vector_long_nnz: usize,
}

impl Default for BinningParams {
    fn default() -> Self {
        BinningParams {
            stream_nnz: 1024,
            vector_long_nnz: 16 * 1024,
        }
    }
}

/// Bin the rows of `m` into row blocks.
pub fn bin_rows<M: CsrView>(m: &M, params: BinningParams) -> Vec<RowBlock> {
    assert!(params.stream_nnz >= 1);
    assert!(params.vector_long_nnz >= params.stream_nnz);
    let mut blocks = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    let mut r = 0usize;
    let rows = m.rows();
    while r < rows {
        let n = m.row_start(r + 1) - m.row_start(r);
        if n > params.stream_nnz {
            // Flush any pending stream block.
            if r > start {
                blocks.push(RowBlock {
                    row_start: start,
                    row_end: r,
                    nnz: acc,
                    kind: BlockKind::Stream,
                });
            }
            blocks.push(RowBlock {
                row_start: r,
                row_end: r + 1,
                nnz: n,
                kind: if n > params.vector_long_nnz {
                    BlockKind::VectorLong
                } else {
                    BlockKind::Vector
                },
            });
            r += 1;
            start = r;
            acc = 0;
        } else if acc + n > params.stream_nnz && r > start {
            blocks.push(RowBlock {
                row_start: start,
                row_end: r,
                nnz: acc,
                kind: BlockKind::Stream,
            });
            start = r;
            acc = 0;
        } else {
            acc += n;
            r += 1;
        }
    }
    if r > start {
        blocks.push(RowBlock {
            row_start: start,
            row_end: r,
            nnz: acc,
            kind: BlockKind::Stream,
        });
    }
    blocks
}

/// Validate that `blocks` tile `m`'s rows exactly once, in order, with
/// consistent nnz counts and kind assignments.
pub fn validate_binning(m: &Csr, blocks: &[RowBlock], params: BinningParams) -> bool {
    let mut next = 0usize;
    for b in blocks {
        if b.row_start != next || b.row_end <= b.row_start {
            return false;
        }
        let nnz = m.row_ptr[b.row_end] - m.row_ptr[b.row_start];
        if nnz != b.nnz {
            return false;
        }
        match b.kind {
            BlockKind::Stream => {
                if b.nnz > params.stream_nnz && b.row_end - b.row_start > 1 {
                    return false;
                }
                // A single-row Stream block must be short.
                if b.row_end - b.row_start == 1 && b.nnz > params.stream_nnz {
                    return false;
                }
            }
            BlockKind::Vector => {
                if b.row_end - b.row_start != 1
                    || b.nnz <= params.stream_nnz
                    || b.nnz > params.vector_long_nnz
                {
                    return false;
                }
            }
            BlockKind::VectorLong => {
                if b.row_end - b.row_start != 1 || b.nnz <= params.vector_long_nnz {
                    return false;
                }
            }
        }
        next = b.row_end;
    }
    next == m.rows
}

/// Count blocks per kind (for suite reports and calibration).
pub fn kind_histogram(blocks: &[RowBlock]) -> [usize; 3] {
    let mut h = [0usize; 3];
    for b in blocks {
        match b.kind {
            BlockKind::Stream => h[0] += 1,
            BlockKind::Vector => h[1] += 1,
            BlockKind::VectorLong => h[2] += 1,
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn uniform_matrix_is_all_stream() {
        let m = gen::uniform_random(500, 1000, 8, 1);
        let p = BinningParams::default();
        let blocks = bin_rows(&m, p);
        assert!(validate_binning(&m, &blocks, p));
        let h = kind_histogram(&blocks);
        assert_eq!(h[1] + h[2], 0, "no vector blocks for uniform short rows");
        // Each stream block packs ~128 rows (1024/8).
        assert!(blocks.iter().all(|b| b.nnz <= 1024));
    }

    #[test]
    fn powerlaw_matrix_uses_vector_kernels() {
        let m = gen::powerlaw(2000, 40_000, 32_000, 0.9, 3);
        let p = BinningParams::default();
        let blocks = bin_rows(&m, p);
        assert!(validate_binning(&m, &blocks, p));
        let h = kind_histogram(&blocks);
        assert!(h[0] > 0, "has stream blocks");
        assert!(h[1] > 0, "has vector rows");
        assert!(h[2] > 0, "has vector-long rows: {h:?}");
    }

    #[test]
    fn blocks_tile_rows_exactly() {
        let m = gen::banded(333, 3, 9);
        let p = BinningParams {
            stream_nnz: 64,
            vector_long_nnz: 128,
        };
        let blocks = bin_rows(&m, p);
        assert!(validate_binning(&m, &blocks, p));
        let rows: usize = blocks.iter().map(|b| b.row_end - b.row_start).sum();
        assert_eq!(rows, 333);
        let nnz: usize = blocks.iter().map(|b| b.nnz).sum();
        assert_eq!(nnz, m.nnz());
    }

    #[test]
    fn empty_rows_pack_into_stream() {
        let m = Csr::from_coo(100, 10, Vec::new());
        let p = BinningParams::default();
        let blocks = bin_rows(&m, p);
        assert!(validate_binning(&m, &blocks, p));
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].nnz, 0);
    }

    #[test]
    fn single_long_row_matrix() {
        let triplets: Vec<(usize, u32, f32)> = (0..2000u32).map(|c| (0usize, c, 1.0f32)).collect();
        let m = Csr::from_coo(1, 2000, triplets);
        let p = BinningParams {
            stream_nnz: 128,
            vector_long_nnz: 1024,
        };
        let blocks = bin_rows(&m, p);
        assert!(validate_binning(&m, &blocks, p));
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].kind, BlockKind::VectorLong);
    }

    #[test]
    fn threshold_boundaries() {
        // Rows of exactly stream_nnz stay Stream; stream_nnz+1 becomes Vector.
        let p = BinningParams {
            stream_nnz: 4,
            vector_long_nnz: 8,
        };
        let mut triplets = Vec::new();
        for c in 0..4u32 {
            triplets.push((0usize, c, 1.0f32)); // exactly 4 -> stream
        }
        for c in 0..5u32 {
            triplets.push((1usize, c, 1.0f32)); // 5 -> vector
        }
        for c in 0..9u32 {
            triplets.push((2usize, c, 1.0f32)); // 9 -> vector-long
        }
        let m = Csr::from_coo(3, 16, triplets);
        let blocks = bin_rows(&m, p);
        assert!(validate_binning(&m, &blocks, p));
        assert_eq!(blocks[0].kind, BlockKind::Stream);
        assert_eq!(blocks[1].kind, BlockKind::Vector);
        assert_eq!(blocks[2].kind, BlockKind::VectorLong);
    }
}
