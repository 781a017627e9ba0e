//! # northup-apps — the paper's case-study applications on Northup
//!
//! Each §IV application comes as an in-memory baseline plus a Northup
//! out-of-core version over any chain topology preset, with Real mode
//! (real bytes: the driver folds a checksum from its result on storage and
//! names the result's buffer, which callers hold to their oracles) and
//! Modeled mode (paper-scale virtual-time runs).
//!
//! An out-of-core version is a storage layout, a load closure and a leaf
//! kernel; it never holds its whole problem on the host. The hierarchy
//! walk itself is not in this crate: the prefetching ring at the staging
//! level is [`northup::ChunkPipeline`] and the level-by-level descent and
//! ascent below it is [`northup::ChainBufs`] (a tree that forks below the staging level is a
//! typed `NotAChain` error, a leaf without the processor `NoProcessor`).
//!
//! * [`matmul`] — tiled dense matrix multiply; the §IV-A row-shard reuse
//!   is a buffer left out of `ChainBufs::push_down`'s `moves`.
//! * [`hotspot`] — HotSpot-2D with packed borders generalized to exact
//!   trapezoid temporal blocking (§IV-B).
//! * [`spmv`] — CSR-Adaptive with nnz-aware shards, per-shard CPU
//!   re-binning, and variable-sized array I/O (§IV-C).
//! * [`balance`] — the §V-E CPU+GPU work-stealing leaf (Figs. 10/11).
//! * [`adaptive`] — §III-E profile-guided task-to-processor mapping.
//! * [`subtree`] — §V-E/§VII dynamic dispatch across asymmetric subtrees.
//! * [`reduce`] — out-of-core map/reduce on the same chunk pipeline.
//! * [`layout`] — the §VI data-layout study: CSR→ELL transformation during
//!   migration, with the input-dependent crossover quantified.
//! * [`distributed`] — §VII distributed GEMM over the cluster preset, with
//!   a strong-scaling curve capped by the shared parallel file system.
//! * [`fleet`] — the federated driver: the same trace shapes replayed
//!   across N shard trees through the `northup-fleet` router, with
//!   tenant data affinity and cross-shard migration (DESIGN.md §11).
//! * [`calibration`] — every model knob, documented.
//! * [`host`] — banded input writes and checksums the drivers share, and
//!   the one comparison callers hold a run's output to an oracle with.
//! * [`report`] — run results and Fig.-6-style comparisons.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod balance;
pub mod calibration;
pub mod distributed;
pub mod fleet;
pub mod host;
pub mod hotspot;
pub mod layout;
pub mod matmul;
pub mod reduce;
pub mod report;
pub mod service;
pub mod spmv;
pub mod subtree;

pub use adaptive::{adaptive_stencil_stream, AdaptiveMapper, AdaptiveOutcome, Policy};
pub use balance::{fig11_speedup, run_balanced, BalanceConfig, BalanceRun};
pub use distributed::{gemm_cluster, scaling_curve, DistGemmConfig};
pub use fleet::{fleet_trace, AFFINITY_PCT};
pub use hotspot::{
    hotspot_apu, hotspot_in_memory, hotspot_northup, hotspot_split_leaf, optimal_gpu_fraction,
    HotspotConfig,
};
pub use layout::{format_study, spmv_with_format, FormatRow, SpmvFormat};
pub use matmul::{matmul_apu, matmul_in_memory, matmul_northup, MatmulConfig};
pub use reduce::{map_northup, reduce_northup, ReduceOp, StreamConfig};
pub use report::AppRun;
pub use service::{
    job_profile, overload_slo, overload_trace, run_service_real, run_service_slo, run_service_with,
    synthetic_trace, OverloadConfig, RealJobRun, ServiceJobKind, ServiceRealRun, TraceConfig,
    SERVICE_TENANTS,
};
pub use spmv::{spmv_apu, spmv_in_memory, spmv_northup, SpmvInput};
pub use subtree::{branches, run_batch, Branch, Dispatch, SubtreeOutcome};
