//! # northup-sparse — sparse-matrix substrate for the CSR-Adaptive case study
//!
//! The paper's third application is CSR-Adaptive SpMV (§IV-C) on inputs from
//! the Florida sparse-matrix collection. This crate supplies everything that
//! application needs:
//!
//! * [`csr`] — the validated CSR type (`row_ptr`, `col_id`, `data`),
//!   reference SpMV, and row-range slicing with rebased offsets.
//! * [`gen`] — seeded synthetic generators covering the structural classes
//!   (banded, power-law, FEM grid, uniform, block-diagonal) that drive
//!   CSR-Adaptive's kernel choices.
//! * [`suite`] — named stand-ins for collection matrices plus the paper's
//!   16M-row SpMV shape for timing-only runs.
//! * [`shard`] — even-row shard partitioning (§IV-C).
//! * [`binning`] — CSR-Adaptive's CPU-side row binning into
//!   Stream / Vector / VectorL blocks (the paper's \[20\]).
//! * [`view`] — [`CsrView`], the row access binning and the kernels use,
//!   over a [`Csr`] or over a staged shard's little-endian bytes
//!   ([`CsrBytes`]).
//! * [`ell`] — the ELLPACK alternative layout for the §VI data-layout
//!   study (regular accesses vs padding traffic).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binning;
pub mod csr;
pub mod ell;
pub mod gen;
pub mod shard;
pub mod suite;
pub mod view;

pub use binning::{bin_rows, kind_histogram, validate_binning, BinningParams, BlockKind, RowBlock};
pub use csr::{Csr, CsrError, RowStats};
pub use ell::{Ell, ELL_PAD};
pub use shard::{covers_exactly, partition_even_rows, Shard};
pub use suite::{PaperSpmvShape, SuiteMatrix};
pub use view::{CsrBytes, CsrView};
