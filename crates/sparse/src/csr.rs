//! Compressed Sparse Row matrices.
//!
//! The paper's §IV-C: "CSR uses three compact vectors to represent a sparse
//! matrix: `row_ptr`, `col_id` and `data`." This module provides that type
//! with validated invariants, COO construction, a reference SpMV, and the
//! row statistics the CSR-Adaptive binning and nnz-aware sharding need.

use std::fmt;

/// A CSR sparse matrix over `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// `rows + 1` offsets into `col_idx`/`vals`; `row_ptr[0] == 0`.
    pub row_ptr: Vec<usize>,
    /// Column index of each stored entry, ascending within a row.
    pub col_idx: Vec<u32>,
    /// Stored values, parallel to `col_idx`.
    pub vals: Vec<f32>,
}

/// Why a CSR failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `row_ptr` has the wrong length or does not start at zero.
    BadRowPtr,
    /// `row_ptr` decreases somewhere.
    NonMonotoneRowPtr {
        /// Row at which the decrease occurs.
        row: usize,
    },
    /// `col_idx`/`vals` length disagrees with `row_ptr[rows]`.
    LengthMismatch,
    /// A column index is out of range.
    ColumnOutOfRange {
        /// Offset of the offending entry.
        at: usize,
        /// The offending column.
        col: u32,
    },
    /// Column indices are not strictly ascending within a row.
    UnsortedRow {
        /// The offending row.
        row: usize,
    },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::BadRowPtr => write!(f, "row_ptr malformed"),
            CsrError::NonMonotoneRowPtr { row } => {
                write!(f, "row_ptr decreases at row {row}")
            }
            CsrError::LengthMismatch => write!(f, "col_idx/vals length mismatch"),
            CsrError::ColumnOutOfRange { at, col } => {
                write!(f, "column {col} out of range at offset {at}")
            }
            CsrError::UnsortedRow { row } => write!(f, "row {row} not strictly ascending"),
        }
    }
}

impl std::error::Error for CsrError {}

impl Csr {
    /// Build from COO triplets. Duplicate (row, col) entries are summed;
    /// out-of-range triplets panic.
    pub fn from_coo(rows: usize, cols: usize, mut triplets: Vec<(usize, u32, f32)>) -> Self {
        for &(r, c, _) in &triplets {
            assert!(
                r < rows && (c as usize) < cols,
                "triplet ({r},{c}) out of range"
            );
        }
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Sum duplicates.
        let mut dedup: Vec<(usize, u32, f32)> = Vec::with_capacity(triplets.len());
        for (r, c, v) in triplets {
            match dedup.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => dedup.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in &dedup {
            row_ptr[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let (col_idx, vals) = dedup.into_iter().map(|(_, c, v)| (c, v)).unzip();
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// The (columns, values) slices of row `r`.
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let (a, b) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[a..b], &self.vals[a..b])
    }

    /// Bytes this matrix occupies in the paper's on-storage format
    /// (`row_ptr` as u32 offsets + `col_id` u32 + `data` f32, per §IV-C).
    pub fn storage_bytes(&self) -> u64 {
        ((self.rows + 1) * 4 + self.nnz() * 8) as u64
    }

    /// Check all CSR invariants.
    pub fn validate(&self) -> Result<(), CsrError> {
        if self.row_ptr.len() != self.rows + 1 || self.row_ptr.first() != Some(&0) {
            return Err(CsrError::BadRowPtr);
        }
        for r in 0..self.rows {
            if self.row_ptr[r + 1] < self.row_ptr[r] {
                return Err(CsrError::NonMonotoneRowPtr { row: r });
            }
        }
        if self.col_idx.len() != self.vals.len() || self.row_ptr[self.rows] != self.vals.len() {
            return Err(CsrError::LengthMismatch);
        }
        for (at, &c) in self.col_idx.iter().enumerate() {
            if c as usize >= self.cols {
                return Err(CsrError::ColumnOutOfRange { at, col: c });
            }
        }
        for r in 0..self.rows {
            let (cols, _) = self.row(r);
            if cols.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CsrError::UnsortedRow { row: r });
            }
        }
        Ok(())
    }

    /// Reference (sequential, textbook) SpMV: `y = A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn spmv_reference(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (r, yr) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0f32;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            *yr = acc;
        }
    }

    /// Extract rows `[start, end)` as a standalone CSR with rebased
    /// `row_ptr` — this is the paper's "sub-shard" extraction: "the portion
    /// of data constituting a sub-shard is determined with row_ptr\[start\]
    /// and row_ptr\[end\]" (§IV-C).
    pub fn slice_rows(&self, start: usize, end: usize) -> Csr {
        assert!(
            start <= end && end <= self.rows,
            "bad row range {start}..{end}"
        );
        let lo = self.row_ptr[start];
        let hi = self.row_ptr[end];
        Csr {
            rows: end - start,
            cols: self.cols,
            row_ptr: self.row_ptr[start..=end].iter().map(|p| p - lo).collect(),
            col_idx: self.col_idx[lo..hi].to_vec(),
            vals: self.vals[lo..hi].to_vec(),
        }
    }

    /// Basic row-length statistics (for suite reports and binning sanity).
    pub fn row_stats(&self) -> RowStats {
        if self.rows == 0 {
            return RowStats::default();
        }
        let mut min = usize::MAX;
        let mut max = 0usize;
        for r in 0..self.rows {
            let n = self.row_nnz(r);
            min = min.min(n);
            max = max.max(n);
        }
        RowStats {
            min,
            max,
            mean: self.nnz() as f64 / self.rows as f64,
        }
    }
}

/// Row-length summary statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RowStats {
    /// Minimum stored entries in a row.
    pub min: usize,
    /// Maximum stored entries in a row.
    pub max: usize,
    /// Mean stored entries per row.
    pub mean: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        Csr::from_coo(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        )
    }

    #[test]
    fn from_coo_builds_valid_csr() {
        let m = small();
        m.validate().unwrap();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_ptr, vec![0, 2, 2, 4]);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row(2), (&[0u32, 1][..], &[3.0f32, 4.0][..]));
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let m = Csr::from_coo(1, 1, vec![(0, 0, 1.5), (0, 0, 2.5)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.vals[0], 4.0);
    }

    #[test]
    fn spmv_reference_matches_dense() {
        let m = small();
        let x = [1.0, 10.0, 100.0];
        let mut y = [0.0; 3];
        m.spmv_reference(&x, &mut y);
        assert_eq!(y, [201.0, 0.0, 43.0]);
    }

    #[test]
    fn slice_rows_rebases() {
        let m = small();
        let s = m.slice_rows(1, 3);
        s.validate().unwrap();
        assert_eq!(s.rows, 2);
        assert_eq!(s.row_ptr, vec![0, 0, 2]);
        let x = [1.0, 10.0, 100.0];
        let mut y = [0.0; 2];
        s.spmv_reference(&x, &mut y);
        assert_eq!(y, [0.0, 43.0]);
    }

    #[test]
    fn slice_full_range_is_identity() {
        let m = small();
        assert_eq!(m.slice_rows(0, 3), m);
    }

    #[test]
    fn validate_catches_bad_row_ptr() {
        let mut m = small();
        m.row_ptr[1] = 5;
        assert!(matches!(
            m.validate(),
            Err(CsrError::NonMonotoneRowPtr { row: 1 }) | Err(CsrError::LengthMismatch)
        ));
    }

    #[test]
    fn validate_catches_column_out_of_range() {
        let mut m = small();
        m.col_idx[0] = 99;
        assert!(matches!(
            m.validate(),
            Err(CsrError::ColumnOutOfRange { at: 0, col: 99 })
        ));
    }

    #[test]
    fn validate_catches_unsorted_row() {
        let mut m = small();
        m.col_idx.swap(0, 1);
        assert!(matches!(
            m.validate(),
            Err(CsrError::UnsortedRow { row: 0 })
        ));
    }

    #[test]
    fn storage_bytes_matches_csr_layout() {
        let m = small();
        assert_eq!(m.storage_bytes(), (4 * 4 + 4 * 8) as u64);
    }

    #[test]
    fn empty_matrix_is_valid() {
        let m = Csr::from_coo(5, 7, Vec::new());
        m.validate().unwrap();
        assert_eq!(m.nnz(), 0);
        let mut y = [1.0f32; 5];
        m.spmv_reference(&[0.0; 7], &mut y);
        assert_eq!(y, [0.0; 5]);
    }

    #[test]
    fn row_stats() {
        let s = small().row_stats();
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 2);
        assert!((s.mean - 4.0 / 3.0).abs() < 1e-12);
    }
}
