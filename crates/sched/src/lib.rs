//! # northup-sched — multi-tenant job scheduling for Northup machines
//!
//! The Northup runtime executes *one* out-of-core job well; this crate
//! arbitrates *many*. Jobs (GEMM, HotSpot, SpMV from `northup-apps`)
//! declare per-tree-level capacity reservations — DRAM staging bytes,
//! device-memory bytes — and the [`JobScheduler`] admits them against
//! per-node budgets derived from the tree's `DeviceSpec` capacities,
//! queueing or rejecting with backpressure when the machine is
//! oversubscribed.
//!
//! * [`reserve`] — [`Reservation`] (per-node bytes a job holds while
//!   admitted) and [`NodeBudgets`] (what the scheduler may commit);
//!   bridges to `northup::CapacityLease` so `Ctx::alloc` enforces the
//!   admitted amounts.
//! * [`job`] — [`JobSpec`]/[`JobWork`] (arrival, priority, per-chunk
//!   fabric demand) and the `Queued → Admitted → Running → Done` /
//!   `Failed` / `Rejected` lifecycle.
//! * [`log`] — [`Log`], the paged append-only series the report's
//!   per-event logs are kept in.
//! * [`fabric`] — [`SimFabric`], the *modeled* backend of the shared
//!   stage-chain IR (`northup::fabric`): virtual-time resources (root
//!   storage, links, leaf processors) all admitted jobs contend on —
//!   `northup::Runtime`'s single-job model, except that root write-backs
//!   are charged at the root's read bandwidth and latency.
//! * [`real`] — [`RealFabric`], the *real* backend: the same chunk
//!   chains driven through a `Runtime` in `ExecMode::Real` on the
//!   `northup-exec` thread pool, with staging allocations metered
//!   by the job's `CapacityLease` and chunk-boundary cancellation via
//!   `northup_exec::CancelToken`.
//! * [`scheduler`] — [`JobScheduler`]: weighted fair admission across
//!   [`Priority`] classes with a starvation guard, strict-FIFO baseline,
//!   placement by work-queue depth (§V-E subtree-status checks),
//!   chunk-granular preemption with checkpointed resume, live
//!   [`NodeBudgets`] reconfiguration ([`JobScheduler::resize_budgets`]),
//!   and a deterministic event-driven co-simulation producing a
//!   [`SchedReport`] (makespan, throughput, p50/p99 latency, rejection
//!   rate, preemption latencies, and per-node capacity audit trails).
//!
//! The scheduler is also **fault-tolerant** (DESIGN.md §10): a seeded
//! [`FaultPlan`] deterministically injects transient and persistent
//! stage faults, [`retry_backoff`](northup::fault::retry_backoff)
//! retries with exponential backoff charged in virtual time, nodes that
//! keep failing are quarantined (budget zeroed, in-flight chains
//! re-routed to surviving leaves from their checkpoints, infeasible
//! queued jobs rejected), and every injection/retry/fence lands in the
//! report's `fault_log`, `quarantine_log`, and per-job [`FaultOutcome`].
//! The same plan drives
//! [`RealFabric::with_faults`] so real-thread chaos runs replay the
//! modeled fault pattern on actual storage backends.
//!
//! ## Example
//!
//! ```
//! use northup::presets;
//! use northup_hw::catalog;
//! use northup_sched::{
//!     staging_reservation, JobScheduler, JobSpec, JobState, JobWork, SchedulerConfig,
//! };
//! use northup_sim::SimDur;
//!
//! let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
//! let mut sched = JobScheduler::new(tree.clone(), SchedulerConfig::default());
//! let id = sched.submit(JobSpec::new(
//!     "gemm",
//!     staging_reservation(&tree, 512 << 20),
//!     JobWork::new(4).read(64 << 20).xfer(64 << 20).compute(SimDur::from_millis(5)),
//! ));
//! let report = sched.run().unwrap();
//! assert_eq!(report.job(id).state, JobState::Done);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calendar;
pub mod digest;
pub mod error;
pub mod fabric;
pub mod job;
pub mod log;
pub mod real;
#[cfg(test)]
mod reference;
pub mod reserve;
pub mod scheduler;
pub mod slo;

pub use calendar::CalendarQueue;
pub use digest::report_digest;
pub use error::SchedError;
pub use fabric::SimFabric;
pub use job::{JobId, JobSpec, JobState, JobWork, Priority, SloClass, TenantId};
pub use log::Log;
pub use real::RealFabric;
pub use reserve::{NodeBudgets, Reservation};
pub use scheduler::{
    staging_reservation, AdmissionEvent, AdmissionEventKind, AdmissionPolicy, CapacitySample,
    ChunkSample, FaultOutcome, FaultSample, JobOutcome, JobScheduler, QuarantineSample,
    ResizeDrain, ResizeSample, RestoreSample, SchedReport, SchedulerConfig,
};
pub use slo::{
    percentile_sorted, DegradeLevel, RejectReason, ShedOutcome, SloConfig, SloSample,
    INTERACTIVE_TARGET,
};
// Re-export the shared IR (and the failure-domain vocabulary) so
// scheduler users need not depend on `northup` directly.
pub use northup::fabric::{build_chain, ChunkChain, ChunkWork, Fabric};
pub use northup::fault::{FaultKind, FaultPlan};
