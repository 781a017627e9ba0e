//! Borrowed row access to a CSR matrix, whatever holds it.
//!
//! CSR-Adaptive's binning and kernels only ever ask three things of a
//! matrix: its shape, where each row starts, and the `(value, column)`
//! entries of a run of rows. [`CsrView`] is that question. [`Csr`] answers
//! it from its own vectors; [`CsrBytes`] answers it from the little-endian
//! `row_ptr` / `col_id` / `data` byte image of a row shard exactly as it
//! was staged (§IV-C's on-storage format), so an out-of-core pass computes
//! from the bytes it moved without first copying them into a `Csr`.

use crate::csr::{Csr, CsrError};

/// Row access to a CSR matrix.
pub trait CsrView {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Number of columns.
    fn cols(&self) -> usize;
    /// Offset of row `r`'s first entry, counted from row 0's; `r == rows`
    /// gives the number of stored entries.
    fn row_start(&self, r: usize) -> usize;
    /// The `(value, column)` pairs of entries `[lo, hi)`, in order.
    fn entries(&self, lo: usize, hi: usize) -> impl Iterator<Item = (f32, u32)> + '_;
}

impl CsrView for Csr {
    #[inline]
    fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn row_start(&self, r: usize) -> usize {
        self.row_ptr[r]
    }

    #[inline]
    fn entries(&self, lo: usize, hi: usize) -> impl Iterator<Item = (f32, u32)> + '_ {
        self.vals[lo..hi]
            .iter()
            .copied()
            .zip(self.col_idx[lo..hi].iter().copied())
    }
}

/// A row shard read in place from its little-endian byte image: `u32`
/// `row_ptr` words (not rebased: the shard's first word is subtracted on
/// every load), `u32` column ids and `f32` values, each decoded where it
/// is loaded.
///
/// [`CsrBytes::new`] checks the structure in O(rows): `row_ptr` is
/// monotone and spans exactly the staged entries. Columns are left to
/// the reader (CSR-Adaptive checks each against `x` as it loads it).
#[derive(Debug, Clone, Copy)]
pub struct CsrBytes<'a> {
    cols: usize,
    base: u32,
    row_ptr: &'a [[u8; 4]],
    col_id: &'a [[u8; 4]],
    data: &'a [[u8; 4]],
}

impl<'a> CsrBytes<'a> {
    /// View the staged arrays of a shard with `cols` columns.
    pub fn new(
        cols: usize,
        row_ptr: &'a [u8],
        col_id: &'a [u8],
        data: &'a [u8],
    ) -> Result<Self, CsrError> {
        let words = |bytes: &'a [u8]| match bytes.as_chunks::<4>() {
            (words, []) => Ok(words),
            _ => Err(CsrError::LengthMismatch),
        };
        let (row_ptr, col_id, data) = (
            words(row_ptr).map_err(|_| CsrError::BadRowPtr)?,
            words(col_id)?,
            words(data)?,
        );
        let (Some(first), Some(last)) = (row_ptr.first(), row_ptr.last()) else {
            return Err(CsrError::BadRowPtr);
        };
        if let Some(row) = row_ptr
            .windows(2)
            .position(|w| u32::from_le_bytes(w[1]) < u32::from_le_bytes(w[0]))
        {
            return Err(CsrError::NonMonotoneRowPtr { row });
        }
        let (base, end) = (u32::from_le_bytes(*first), u32::from_le_bytes(*last));
        let nnz = (end - base) as usize;
        if nnz != col_id.len() || nnz != data.len() {
            return Err(CsrError::LengthMismatch);
        }
        Ok(CsrBytes {
            cols,
            base,
            row_ptr,
            col_id,
            data,
        })
    }
}

impl CsrView for CsrBytes<'_> {
    #[inline]
    fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    #[inline]
    fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn row_start(&self, r: usize) -> usize {
        (u32::from_le_bytes(self.row_ptr[r]) - self.base) as usize
    }

    #[inline]
    fn entries(&self, lo: usize, hi: usize) -> impl Iterator<Item = (f32, u32)> + '_ {
        self.data[lo..hi]
            .iter()
            .map(|&v| f32::from_le_bytes(v))
            .zip(self.col_id[lo..hi].iter().map(|&c| u32::from_le_bytes(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn le<T: Copy>(words: &[T], to: impl Fn(T) -> [u8; 4]) -> Vec<u8> {
        words.iter().flat_map(|&w| to(w)).collect()
    }

    /// The staged byte image of rows `[start, end)` of `m`.
    fn image(m: &Csr, start: usize, end: usize) -> [Vec<u8>; 3] {
        let (lo, hi) = (m.row_ptr[start], m.row_ptr[end]);
        [
            le(&m.row_ptr[start..=end], |p| (p as u32).to_le_bytes()),
            le(&m.col_idx[lo..hi], u32::to_le_bytes),
            le(&m.vals[lo..hi], f32::to_le_bytes),
        ]
    }

    #[test]
    fn a_staged_shard_reads_like_the_sliced_csr() {
        let m = gen::powerlaw(300, 200, 64, 0.8, 9);
        for (start, end) in [(0, 300), (37, 151), (299, 300), (120, 120)] {
            let [rp, ci, va] = image(&m, start, end);
            let view = CsrBytes::new(m.cols, &rp, &ci, &va).unwrap();
            let sub = m.slice_rows(start, end);
            assert_eq!((view.rows(), view.cols()), (sub.rows, sub.cols));
            for r in 0..=sub.rows {
                assert_eq!(view.row_start(r), sub.row_ptr[r]);
            }
            let got: Vec<(f32, u32)> = view.entries(0, sub.nnz()).collect();
            let want: Vec<(f32, u32)> = sub.entries(0, sub.nnz()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn malformed_images_are_typed_errors() {
        let m = gen::banded(20, 2, 4);
        let [rp, ci, va] = image(&m, 3, 11);
        let new = |rp: &[u8], ci: &[u8], va: &[u8]| CsrBytes::new(m.cols, rp, ci, va).err();
        assert_eq!(new(&[], &ci, &va), Some(CsrError::BadRowPtr));
        assert_eq!(
            new(&rp[..rp.len() - 1], &ci, &va),
            Some(CsrError::BadRowPtr)
        );
        assert_eq!(new(&rp, &ci[4..], &va), Some(CsrError::LengthMismatch));
        assert_eq!(
            new(&rp, &ci, &va[..va.len() - 2]),
            Some(CsrError::LengthMismatch)
        );
        let mut swapped = rp.clone();
        swapped[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            new(&swapped, &ci, &va),
            Some(CsrError::NonMonotoneRowPtr { row: 2 })
        );
    }
}
