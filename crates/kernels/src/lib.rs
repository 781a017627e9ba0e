//! # northup-kernels — leaf compute kernels + device cost models
//!
//! The paper's leaf computation is OpenCL on AMD GPUs: a tiled GEMM \[17\],
//! Rodinia's HotSpot-2D \[18\], and CSR-Adaptive SpMV \[20\]. This crate
//! implements all three **for real** (results are verified against naive
//! references and across decompositions) and pairs them with first-order
//! **cost models** of the paper's devices so the runtime can charge virtual
//! time for what the OpenCL kernel would have cost:
//!
//! * [`dense`] — row-major `f32` matrices with block extract/insert.
//! * [`gemm`] — naive / packed micro-kernel `C += A·B` (§IV-A); on x86-64
//!   with AVX2 (checked at run time) its bands run an AVX2 build of the
//!   same code, bit for bit the baseline build's result.
//! * [`stencil`] — HotSpot-2D, updated a row at a time, with halo
//!   extraction and exact temporal blocking (§IV-B generalizes the packed
//!   border vectors to width > 1); a halo block steps from a matrix or
//!   straight from its staged little-endian bytes, and on x86-64 with AVX2
//!   its rows run an AVX2 build of the same update, bit for bit the
//!   baseline build's result.
//!
//! GEMM and both stencil drivers split their rows into bands that the
//! caller and the process-wide pool's helpers, one per spare core, claim
//! in turn ([`northup_exec::fan_out`]), as the paper's leaves spread over
//! a GPU's compute units. Every cell is the same expression in the same
//! order whichever thread runs its band, so the results are bit-identical
//! at any worker count; shapes below 64 Ki cell updates or multiply-adds
//! stay on the caller.
//! * [`spmv`] — CSR-Stream (fused, one pass per entry) / CSR-Vector /
//!   CSR-VectorL kernels dispatched by the CSR-Adaptive binning (§IV-C),
//!   over any `CsrView`: a `Csr` or a staged shard's bytes.
//! * [`model`] — roofline [`ProcModel`]s for the APU GPU/CPU and the
//!   W9100-class discrete GPU, the CPU binning rate, and the Fig. 11
//!   queue-count latency-hiding curve.

#![warn(missing_docs)]
// Two items may opt out: `gemm`'s band dispatch and `stencil`'s region
// dispatch, whose only `unsafe` is the call into the AVX2 build after the
// CPU has been checked for AVX2.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod dense;
pub mod gemm;
mod isa;
pub mod model;
pub mod spmv;
pub mod stencil;

pub use dense::{bytes_to_f32s, f32s_to_bytes, put_f32s, DenseMatrix};
pub use gemm::{gemm_flops, matmul_naive, matmul_tiled, LEAF_TILE};
pub use model::{binning_time, latency_hiding_efficiency, ProcModel, BINNING_ROWS_PER_SEC};
pub use spmv::{rel_error, spmv_adaptive, try_spmv_adaptive, WG_LANES};
pub use stencil::{
    extract_halo_block, multi_step_blocked, multi_step_reference, step_halo_block, step_halo_bytes,
    step_reference, HaloBlock, HotSpotParams, FLOPS_PER_CELL,
};

/// Cell updates or multiply-adds of one split below which a kernel runs
/// inline on the caller: waking a pool helper and handing it a band costs
/// more than it saves there.
const INLINE_BELOW: usize = 1 << 16;
