//! Row-major dense `f32` matrices with block extraction/insertion.
//!
//! The Northup matmul and HotSpot applications move rectangular sub-blocks
//! ("chunks", "shards") between tree levels; this type provides the block
//! slicing those data movements are built on.

use std::fmt;

/// A row-major dense matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DenseMatrix({}x{})", self.rows, self.cols)
    }
}

impl DenseMatrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// A deterministic pseudo-random matrix (splitmix-style hash of indices).
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        DenseMatrix::random_block(seed, 0, 0, rows, cols)
    }

    /// The `rows x cols` block at `(r0, c0)` of every [`random`](Self::random)
    /// matrix of this `seed` large enough to hold it, bit for bit: each
    /// element is a hash of its global indices, so a shard is generated on
    /// its own.
    pub fn random_block(seed: u64, r0: usize, c0: usize, rows: usize, cols: usize) -> Self {
        DenseMatrix::from_fn(rows, cols, |r, c| {
            let (r, c) = (r0 + r, c0 + c);
            let mut z = seed
                .wrapping_add((r as u64) << 32)
                .wrapping_add(c as u64)
                .wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            // Map to [-1, 1).
            (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy the block at (`r0`, `c0`) of size `h x w` into a new matrix.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn extract_block(&self, r0: usize, c0: usize, h: usize, w: usize) -> DenseMatrix {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "block out of bounds"
        );
        let mut out = DenseMatrix::zeros(h, w);
        for r in 0..h {
            let src = (r0 + r) * self.cols + c0;
            out.data[r * w..(r + 1) * w].copy_from_slice(&self.data[src..src + w]);
        }
        out
    }

    /// Write `block` into this matrix at (`r0`, `c0`).
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn insert_block(&mut self, r0: usize, c0: usize, block: &DenseMatrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "block out of bounds"
        );
        for r in 0..block.rows {
            let dst = (r0 + r) * self.cols + c0;
            self.data[dst..dst + block.cols].copy_from_slice(block.row(r));
        }
    }

    /// Max absolute elementwise difference with `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f32 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Bytes of the payload.
    pub fn bytes(&self) -> u64 {
        (self.data.len() * 4) as u64
    }

    /// A simple order-independent checksum for cross-run comparisons.
    pub fn checksum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }
}

/// Convert an `f32` slice to little-endian bytes (for buffer injection).
pub fn f32s_to_bytes(vals: &[f32]) -> Vec<u8> {
    let mut out = vec![0u8; vals.len() * 4];
    put_f32s(&mut out, vals);
    out
}

/// Write `vals` as little-endian bytes into `out`, in place: the
/// allocation-free twin of [`f32s_to_bytes`], for a buffer a runtime
/// lends to be filled.
///
/// # Panics
/// Panics if `out` is not exactly `4 * vals.len()` bytes.
pub fn put_f32s(out: &mut [u8], vals: &[f32]) {
    assert_eq!(out.len(), vals.len() * 4, "byte length not 4 per value");
    for (dst, v) in out.chunks_exact_mut(4).zip(vals) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Convert little-endian bytes back to `f32`s.
///
/// # Panics
/// Panics if the byte length is not a multiple of 4.
pub fn bytes_to_f32s(bytes: &[u8]) -> Vec<f32> {
    assert_eq!(bytes.len() % 4, 0, "byte length not a multiple of 4");
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = DenseMatrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.data, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn extract_insert_roundtrip() {
        let m = DenseMatrix::random(7, 9, 42);
        let block = m.extract_block(2, 3, 4, 5);
        assert_eq!(block.rows, 4);
        assert_eq!(block.cols, 5);
        assert_eq!(block.get(0, 0), m.get(2, 3));
        let mut copy = DenseMatrix::zeros(7, 9);
        copy.insert_block(2, 3, &block);
        assert_eq!(copy.get(5, 7), m.get(5, 7));
        assert_eq!(copy.get(0, 0), 0.0);
    }

    #[test]
    fn blocks_tile_matrix() {
        let m = DenseMatrix::random(8, 8, 7);
        let mut rebuilt = DenseMatrix::zeros(8, 8);
        for br in 0..2 {
            for bc in 0..2 {
                let b = m.extract_block(br * 4, bc * 4, 4, 4);
                rebuilt.insert_block(br * 4, bc * 4, &b);
            }
        }
        assert_eq!(rebuilt, m);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn extract_out_of_bounds_panics() {
        DenseMatrix::zeros(4, 4).extract_block(2, 2, 3, 3);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = DenseMatrix::random(10, 10, 1);
        let b = DenseMatrix::random(10, 10, 1);
        let c = DenseMatrix::random(10, 10, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.data.iter().all(|v| (-1.0..1.0).contains(v)));
        // Not degenerate.
        assert!(a.data.iter().any(|&v| v != a.data[0]));
    }

    #[test]
    fn a_random_block_is_the_block_of_the_whole_matrix() {
        let whole = DenseMatrix::random(12, 20, 7);
        for (r0, c0, h, w) in [(0, 0, 12, 20), (4, 0, 3, 20), (0, 8, 12, 4), (5, 13, 7, 7)] {
            let block = DenseMatrix::random_block(7, r0, c0, h, w);
            assert_eq!(block, whole.extract_block(r0, c0, h, w), "({r0}, {c0})");
        }
    }

    #[test]
    fn byte_conversion_roundtrips() {
        let vals = vec![1.5f32, -2.25, 0.0, f32::MIN_POSITIVE];
        assert_eq!(bytes_to_f32s(&f32s_to_bytes(&vals)), vals);
    }

    #[test]
    fn max_abs_diff() {
        let a = DenseMatrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let mut b = a.clone();
        *b.get_mut(1, 1) += 0.5;
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }
}
