//! # northup — divide-and-conquer programming for heterogeneous memories
//! and processors
//!
//! This crate is the paper's primary contribution, reimplemented in Rust:
//!
//! * [`topology`] — the asymmetric, heterogeneous topological tree
//!   (Listing 1, Fig. 2) with the paper's query API and presets for every
//!   evaluated machine ([`presets`]).
//! * [`data`] — the unified data-management interface (Table I): opaque
//!   [`BufferHandle`]s, `alloc`/`release`, and `move_data` variants that
//!   internally dispatch to file I/O, memcpy, or device transfers based on
//!   the storage classes of the tree nodes involved (Listing 4).
//! * [`ctx`] — the recursive programming model (Listing 3):
//!   [`Runtime::root_ctx`] starts at the slowest storage; [`Ctx::spawn`] is
//!   `northup_spawn`; leaves launch kernels on their attached processors.
//! * [`runtime`] — execution modes (real bytes vs. paper-scale modeled),
//!   per-device virtual-time resources with dataflow dependencies (so
//!   compute/I-O overlap emerges as from the paper's multi-stage queues),
//!   breakdown profiling (Figs. 7/8), and work-queue statistics.
//! * [`pipeline`] — the divide-and-conquer template the applications run
//!   on: [`ChunkPipeline`] (prefetching ring at the staging level) and
//!   [`ChainBufs`] (Listing 3's push-down / pull-up through every level
//!   below it).
//! * [`fabric`] — the stage-chain IR (`ChunkChain`): one representation
//!   of a chunk's read→link→compute→link→write-back journey shared by the
//!   modeled co-simulation and real-thread execution backends, with
//!   checkpoint tokens for chunk-granular preemption.
//! * [`projection`] — the §V-D first-order faster-storage emulator (Fig. 9).
//! * [`transform`] — the §VI layout-transforming `move_data` extension.
//!
//! ## Quickstart
//!
//! ```
//! use northup::{presets, Ctx, ExecMode, ProcKind, Runtime};
//! use northup_hw::catalog;
//! use northup_sim::SimDur;
//!
//! // An APU machine: SSD root (level 0), 2 GB DRAM staging leaf (level 1).
//! let rt = Runtime::new(
//!     presets::apu_two_level(catalog::ssd_hyperx_predator()),
//!     ExecMode::Real,
//! ).unwrap();
//!
//! let root = rt.root_ctx();
//! let input = root.alloc(1024).unwrap();            // on the SSD
//! rt.write_slice(input, 0, &[1u8; 1024]).unwrap();  // preprocessing
//!
//! root.spawn(0, |leaf| {
//!     let stage = leaf.alloc(1024).unwrap();        // in DRAM
//!     rt.move_data(stage, 0, input, 0, 1024).unwrap();   // file read
//!     leaf.compute(ProcKind::Gpu, SimDur::from_millis(2),
//!                  &[stage], &[stage], "kernel").unwrap();
//!     leaf.move_up(input, 0, stage, 0, 1024).unwrap();   // file write
//! });
//!
//! let report = rt.report();
//! assert!(report.makespan() > SimDur::ZERO);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ctx;
pub mod dag;
pub mod data;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod lease;
pub mod pipeline;
pub mod plan;
pub mod presets;
pub mod projection;
pub mod queues;
pub mod runtime;
pub mod topology;
pub mod transform;

pub use ctx::Ctx;
pub use dag::{DagNode, TaskDag};
pub use data::BufferHandle;
pub use error::{NorthupError, Result};
pub use fabric::{build_chain, ChainStage, ChunkChain, ChunkWork, Fabric, FabricError, Stage};
pub use fault::{retry_backoff, FaultKind, FaultPlan, RETRY_ATTEMPTS};
pub use lease::CapacityLease;
pub use pipeline::{ChainBufs, ChunkPipeline};
pub use plan::{plan_blocks, pow2_candidates, BlockPlan, DEFAULT_HEADROOM};
pub use projection::{project_run, Projection, FIG9_SWEEP};
pub use queues::WorkQueues;
pub use runtime::{ExecMode, RunReport, Runtime, SetupCosts};
pub use topology::{Node, NodeId, ProcKind, ProcessorDesc, TopologyError, Tree, TreeBuilder};
pub use transform::{Transform, TRANSFORM_BW};

/// The executor every real thread runs on, re-exported for the crates
/// that reach it only through the runtime (`fleet` splits its rounds
/// with [`exec::fan_out`]).
pub use northup_exec as exec;
