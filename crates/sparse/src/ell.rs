//! ELLPACK sparse format — the alternative layout of the paper's §VI
//! discussion ("For sparse-matrix problems, the choice of data layouts not
//! only depends on architectures but also on inputs", citing Bell &
//! Garland).
//!
//! ELL stores every row padded to the same width, column-major across rows,
//! which turns SpMV's accesses into perfectly regular, coalesced streams —
//! ideal for wide SIMD — at the cost of padding traffic. Uniform-row
//! matrices (road networks, stencils) pad almost nothing; power-law
//! matrices pad catastrophically. That trade is exactly what the §VI
//! layout-transforming `move_data` exists to exploit.

use crate::csr::Csr;
use crate::view::CsrView;

/// An ELLPACK matrix over `f32`.
///
/// Entries are stored column-of-slots-major: slot `s` of row `r` lives at
/// index `s * rows + r`, so SIMD lanes walking consecutive rows read
/// consecutive memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Ell {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Padded row width (max nnz over rows).
    pub width: usize,
    /// Column index per slot (`rows * width`); padding slots hold `u32::MAX`.
    pub col_idx: Vec<u32>,
    /// Value per slot (padding slots hold 0.0).
    pub vals: Vec<f32>,
}

/// Sentinel column index marking a padding slot.
pub const ELL_PAD: u32 = u32::MAX;

impl Ell {
    /// Convert from CSR: a [`Csr`], or a staged shard's bytes read in
    /// place ([`CsrBytes`](crate::CsrBytes)).
    pub fn from_csr(m: &impl CsrView) -> Ell {
        let rows = m.rows();
        let span = |r: usize| m.row_start(r)..m.row_start(r + 1);
        let width = (0..rows).map(|r| span(r).len()).max().unwrap_or(0);
        let mut col_idx = vec![ELL_PAD; rows * width];
        let mut vals = vec![0.0f32; rows * width];
        for r in 0..rows {
            let entries = m.entries(span(r).start, span(r).end);
            for (s, (v, c)) in entries.enumerate() {
                col_idx[s * rows + r] = c;
                vals[s * rows + r] = v;
            }
        }
        Ell {
            rows,
            cols: m.cols(),
            width,
            col_idx,
            vals,
        }
    }

    /// Convert back to CSR (dropping padding).
    pub fn to_csr(&self) -> Csr {
        let mut triplets = Vec::new();
        for r in 0..self.rows {
            for s in 0..self.width {
                let c = self.col_idx[s * self.rows + r];
                if c != ELL_PAD {
                    triplets.push((r, c, self.vals[s * self.rows + r]));
                }
            }
        }
        Csr::from_coo(self.rows, self.cols, triplets)
    }

    /// Stored slots including padding.
    pub fn slots(&self) -> usize {
        self.rows * self.width
    }

    /// Real (non-padding) entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.iter().filter(|&&c| c != ELL_PAD).count()
    }

    /// Padding overhead: slots / nnz (1.0 = no padding). Infinite for an
    /// empty matrix with nonzero width (cannot happen from `from_csr`).
    pub fn padding_ratio(&self) -> f64 {
        let nnz = self.nnz();
        if nnz == 0 {
            1.0
        } else {
            self.slots() as f64 / nnz as f64
        }
    }

    /// Bytes of the ELL payload (u32 col + f32 val per slot).
    pub fn storage_bytes(&self) -> u64 {
        (self.slots() * 8) as u64
    }

    /// Reference SpMV over the ELL layout: `y = A x`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmv(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        y.fill(0.0);
        // Slot-major sweep: regular, stride-1 reads of col_idx/vals — the
        // access pattern the format exists for.
        for s in 0..self.width {
            let base = s * self.rows;
            for (r, yr) in y.iter_mut().enumerate() {
                let c = self.col_idx[base + r];
                if c != ELL_PAD {
                    *yr += self.vals[base + r] * x[c as usize];
                }
            }
        }
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> bool {
        self.col_idx.len() == self.slots()
            && self.vals.len() == self.slots()
            && self
                .col_idx
                .iter()
                .all(|&c| c == ELL_PAD || (c as usize) < self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn roundtrip(m: &Csr) {
        let e = Ell::from_csr(m);
        assert!(e.validate());
        assert_eq!(e.nnz(), m.nnz());
        let back = e.to_csr();
        assert_eq!(&back, m, "CSR -> ELL -> CSR roundtrip");
    }

    #[test]
    fn roundtrips_across_structures() {
        roundtrip(&gen::uniform_random(60, 90, 5, 1));
        roundtrip(&gen::banded(50, 3, 2));
        roundtrip(&gen::powerlaw(80, 300, 64, 1.0, 3));
        roundtrip(&Csr::from_coo(10, 10, Vec::new()));
    }

    #[test]
    fn a_staged_shard_converts_like_its_csr() {
        let m = gen::powerlaw(80, 300, 64, 1.0, 3);
        let le =
            |words: Vec<u32>| -> Vec<u8> { words.into_iter().flat_map(u32::to_le_bytes).collect() };
        let row_ptr = le(m.row_ptr.iter().map(|&v| v as u32).collect());
        let col_id = le(m.col_idx.clone());
        let data = le(m.vals.iter().map(|v| v.to_bits()).collect());
        let view = crate::CsrBytes::new(m.cols, &row_ptr, &col_id, &data).unwrap();
        assert_eq!(Ell::from_csr(&view), Ell::from_csr(&m));
    }

    #[test]
    fn spmv_matches_csr_reference() {
        for m in [
            gen::uniform_random(100, 120, 7, 5),
            gen::powerlaw(150, 400, 96, 0.8, 9),
            gen::laplace_2d(12, 9),
        ] {
            let e = Ell::from_csr(&m);
            let x: Vec<f32> = (0..m.cols).map(|i| ((i % 7) as f32 - 3.0) * 0.5).collect();
            let mut y_csr = vec![0.0f32; m.rows];
            m.spmv_reference(&x, &mut y_csr);
            let mut y_ell = vec![0.0f32; m.rows];
            e.spmv(&x, &mut y_ell);
            let err = y_csr
                .iter()
                .zip(&y_ell)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(err < 1e-4, "err {err}");
        }
    }

    #[test]
    fn uniform_rows_pad_nothing() {
        let m = gen::uniform_random(200, 300, 8, 2);
        let e = Ell::from_csr(&m);
        assert_eq!(e.width, 8);
        assert!((e.padding_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn powerlaw_rows_pad_catastrophically() {
        let m = gen::powerlaw(500, 2000, 1024, 1.0, 7);
        let e = Ell::from_csr(&m);
        assert!(
            e.padding_ratio() > 10.0,
            "one huge row forces width {} on everyone: ratio {}",
            e.width,
            e.padding_ratio()
        );
        assert!(e.storage_bytes() > 10 * m.storage_bytes() / 2);
    }

    #[test]
    fn slot_layout_is_column_major() {
        // Row 0 = [5.0 @ col 2]; row 1 = [7.0 @ col 0, 9.0 @ col 3].
        let m = Csr::from_coo(2, 4, vec![(0, 2, 5.0), (1, 0, 7.0), (1, 3, 9.0)]);
        let e = Ell::from_csr(&m);
        assert_eq!(e.width, 2);
        // Slot 0: rows [0, 1] adjacent.
        assert_eq!(e.col_idx[0], 2);
        assert_eq!(e.col_idx[1], 0);
        // Slot 1: row 0 padded, row 1 holds col 3.
        assert_eq!(e.col_idx[2], ELL_PAD);
        assert_eq!(e.col_idx[3], 3);
        assert_eq!(e.vals[3], 9.0);
    }

    #[test]
    fn empty_matrix_has_zero_width() {
        let e = Ell::from_csr(&Csr::from_coo(5, 5, Vec::new()));
        assert_eq!(e.width, 0);
        assert_eq!(e.slots(), 0);
        assert!((e.padding_ratio() - 1.0).abs() < 1e-12);
    }
}
