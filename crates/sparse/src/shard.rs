//! Row-range sharding of CSR matrices (paper §IV-C).
//!
//! A *shard* is a contiguous run of rows together with the `col_id`/`data`
//! range `row_ptr[start]..row_ptr[end]` it covers. The sharding policy is
//! [`partition_even_rows`] — "a simple strategy is to evenly divide rows".

use crate::csr::Csr;

/// One shard: a contiguous row range of a CSR matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// First row (inclusive).
    pub row_start: usize,
    /// Last row (exclusive).
    pub row_end: usize,
    /// First entry offset (`row_ptr[row_start]`).
    pub nnz_start: usize,
    /// Last entry offset (`row_ptr[row_end]`).
    pub nnz_end: usize,
}

impl Shard {
    /// Rows covered.
    pub fn rows(&self) -> usize {
        self.row_end - self.row_start
    }

    /// Stored entries covered.
    pub fn nnz(&self) -> usize {
        self.nnz_end - self.nnz_start
    }

    /// Bytes of CSR payload this shard moves between levels:
    /// the rebased `row_ptr` slice (u32 each) + `col_id` (u32) + `data` (f32).
    pub fn payload_bytes(&self) -> u64 {
        ((self.rows() + 1) * 4 + self.nnz() * 8) as u64
    }
}

fn shard_of(m: &Csr, start: usize, end: usize) -> Shard {
    Shard {
        row_start: start,
        row_end: end,
        nnz_start: m.row_ptr[start],
        nnz_end: m.row_ptr[end],
    }
}

/// Split into `k` shards of (nearly) equal row counts.
pub fn partition_even_rows(m: &Csr, k: usize) -> Vec<Shard> {
    let k = k.max(1).min(m.rows.max(1));
    let mut shards = Vec::with_capacity(k);
    let base = m.rows / k;
    let extra = m.rows % k;
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        if len == 0 {
            continue;
        }
        shards.push(shard_of(m, start, start + len));
        start += len;
    }
    shards
}

/// Check that `shards` exactly tile `m`'s rows in order.
pub fn covers_exactly(m: &Csr, shards: &[Shard]) -> bool {
    let mut next = 0usize;
    for s in shards {
        if s.row_start != next || s.row_end < s.row_start {
            return false;
        }
        if s.nnz_start != m.row_ptr[s.row_start] || s.nnz_end != m.row_ptr[s.row_end] {
            return false;
        }
        next = s.row_end;
    }
    next == m.rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn even_rows_cover() {
        let m = gen::uniform_random(100, 200, 4, 1);
        for k in [1, 3, 7, 100, 1000] {
            let shards = partition_even_rows(&m, k);
            assert!(covers_exactly(&m, &shards), "k={k}");
            assert!(shards.len() <= 100);
        }
    }

    #[test]
    fn even_rows_balanced() {
        let m = gen::uniform_random(10, 20, 2, 1);
        let shards = partition_even_rows(&m, 3);
        let sizes: Vec<usize> = shards.iter().map(Shard::rows).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn payload_matches_slice_storage() {
        let m = gen::laplace_2d(8, 8);
        for s in partition_even_rows(&m, 4) {
            let sub = m.slice_rows(s.row_start, s.row_end);
            assert_eq!(s.payload_bytes(), sub.storage_bytes());
            assert_eq!(s.nnz(), sub.nnz());
        }
    }

    #[test]
    fn empty_matrix_yields_no_shards() {
        let m = Csr::from_coo(0, 10, Vec::new());
        assert!(partition_even_rows(&m, 4).is_empty());
    }
}
