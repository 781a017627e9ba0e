//! A named synthetic matrix suite standing in for the Florida (SuiteSparse)
//! collection the paper's SpMV inputs come from (§V-A, reference \[23\]).
//!
//! Each entry mimics the structural class of a well-known collection member
//! at a laptop-friendly scale; the [`crate::gen`] generators scale the same
//! shapes up to paper-scale row counts when only timing (not data) is
//! needed.

use crate::csr::Csr;
use crate::gen;

/// A named suite entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteMatrix {
    /// Banded, short regular rows — road-network-like (e.g. `roadNet-CA`).
    SynRoad,
    /// Power-law rows — web-graph-like (e.g. `wb-edu`).
    SynWeb,
    /// 5-point Laplacian — FEM/PDE-like (e.g. `ecology2`, `thermal2`).
    SynFem,
    /// Uniform random rows — generic balanced sparse.
    SynRand,
    /// Dense diagonal blocks — circuit/chemistry-like (e.g. `ASIC_680k`).
    SynCircuit,
}

impl SuiteMatrix {
    /// All suite members.
    pub const ALL: [SuiteMatrix; 5] = [
        SuiteMatrix::SynRoad,
        SuiteMatrix::SynWeb,
        SuiteMatrix::SynFem,
        SuiteMatrix::SynRand,
        SuiteMatrix::SynCircuit,
    ];

    /// Collection-style name.
    pub fn name(self) -> &'static str {
        match self {
            SuiteMatrix::SynRoad => "syn-road",
            SuiteMatrix::SynWeb => "syn-web",
            SuiteMatrix::SynFem => "syn-fem",
            SuiteMatrix::SynRand => "syn-rand",
            SuiteMatrix::SynCircuit => "syn-circuit",
        }
    }

    /// Generate at a size scale: `scale = 1` is the quick test size
    /// (thousands of rows); each increment roughly quadruples the rows.
    pub fn generate(self, scale: u32) -> Csr {
        let k = 1usize << (2 * scale.min(8)); // 4^scale
        match self {
            SuiteMatrix::SynRoad => gen::banded(2_000 * k, 2, 0xB0AD),
            SuiteMatrix::SynWeb => {
                let rows = 4_000 * k;
                gen::powerlaw(rows, rows, 4_096.min(rows), 1.0, 0x3EB)
            }
            SuiteMatrix::SynFem => {
                let side = (45.0 * (k as f64).sqrt()) as usize;
                gen::laplace_2d(side, side)
            }
            SuiteMatrix::SynRand => gen::uniform_random(1_500 * k, 1_500 * k, 16, 0x5A4D),
            SuiteMatrix::SynCircuit => gen::block_diagonal(60 * k, 24, 0xC13C),
        }
    }
}

/// Paper-scale *shape parameters* for modeled (timing-only) runs: the §IV-C
/// configuration of "16 million rows, stored in SSD/disk drive ... divided
/// into four chunks in row-dimension".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperSpmvShape {
    /// Total rows (16 Mi in the paper).
    pub rows: u64,
    /// Mean stored entries per row.
    pub mean_nnz_per_row: f64,
    /// Number of DRAM chunks ("divided into four chunks").
    pub chunks: usize,
}

impl Default for PaperSpmvShape {
    fn default() -> Self {
        PaperSpmvShape {
            rows: 16 * 1024 * 1024,
            mean_nnz_per_row: 40.0,
            chunks: 4,
        }
    }
}

impl PaperSpmvShape {
    /// Total stored entries.
    pub fn nnz(&self) -> u64 {
        (self.rows as f64 * self.mean_nnz_per_row) as u64
    }

    /// CSR bytes on storage (u32 row_ptr + u32 col_id + f32 data).
    pub fn storage_bytes(&self) -> u64 {
        (self.rows + 1) * 4 + self.nnz() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::{bin_rows, kind_histogram, BinningParams};

    #[test]
    fn all_suite_members_generate_valid_matrices() {
        for m in SuiteMatrix::ALL {
            let csr = m.generate(0);
            csr.validate()
                .unwrap_or_else(|e| panic!("{} invalid: {e}", m.name()));
            assert!(csr.nnz() > 0, "{} is empty", m.name());
        }
    }

    #[test]
    fn suite_spans_binning_behaviors() {
        let p = BinningParams::default();
        // Road: all stream. Web: some vector.
        let road = SuiteMatrix::SynRoad.generate(0);
        let h_road = kind_histogram(&bin_rows(&road, p));
        assert_eq!(h_road[1] + h_road[2], 0);

        let web = SuiteMatrix::SynWeb.generate(0);
        let h_web = kind_histogram(&bin_rows(&web, p));
        assert!(h_web[1] > 0, "web graph has long rows: {h_web:?}");
    }

    #[test]
    fn scale_grows_rows() {
        let s0 = SuiteMatrix::SynRand.generate(0);
        let s1 = SuiteMatrix::SynRand.generate(1);
        assert!(s1.rows > 3 * s0.rows);
    }

    #[test]
    fn paper_shape_matches_section_4c() {
        let shape = PaperSpmvShape::default();
        assert_eq!(shape.rows, 16 * 1024 * 1024);
        assert_eq!(shape.chunks, 4);
        // ~5.4 GB of CSR payload: too big for the 2 GB staging buffer,
        // which is why chunking is required at all.
        assert!(shape.storage_bytes() > 4 * (1 << 30));
    }
}
