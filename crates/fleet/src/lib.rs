//! # northup-fleet — a federated shard router over N Northup trees
//!
//! One `northup-sched` instance arbitrates many jobs on *one* tree;
//! this crate federates **N** trees ("shards") behind a deterministic
//! router, the platform the ROADMAP's million-user directions stand on
//! (DESIGN.md §11).
//!
//! * [`config`] — [`FleetConfig`] (shard count, fleet seed, shard tree,
//!   per-shard scheduler knobs and fault overrides), the modeled
//!   inter-shard link (a fixed 12.5 GB/s + 5 µs) and [`FleetJob`] (a
//!   shard-agnostic spec plus its data-home shard).
//! * [`router`] — the pure scoring function: the plain sum of data
//!   locality (input→shard affinity), current shard load and the same
//!   sub-threshold fault-pressure signal fault-aware placement uses
//!   inside a shard, with a seeded splitmix64 tiebreak. Placement is
//!   gang-style all-or-nothing: a job's whole reservation fits one
//!   shard's budget vector or the router rejects it.
//! * [`fleet`] — [`Fleet`]: instantiate N independent `JobScheduler`s
//!   (each with budgets and a `FaultPlan` reseeded from the fleet
//!   seed), run each round's routed traces side by side (one worker per
//!   core, results applied in shard order), and **migrate** jobs off
//!   shards that fence a node — resuming from their chunk checkpoints
//!   (`JobSpec::resume_from`) after a modeled inter-shard transfer —
//!   over bounded re-run rounds.
//! * [`report`] — [`FleetReport`]: per-job settlements with fleet-wide
//!   chunk checksums (the exactly-once-across-migration witness),
//!   per-shard summaries, migration records, per-class p50/p99
//!   latencies, the fleet capacity invariant, and a byte-deterministic
//!   aggregate JSON encoding.
//!
//! Everything is virtual-time and seeded: same [`FleetConfig`] + same
//! trace ⇒ the same placements, faults, migrations, and report bytes.
//!
//! ## Example
//!
//! ```
//! use northup_fleet::{Fleet, FleetConfig, FleetJob};
//! use northup_sched::{staging_reservation, JobWork};
//! use northup_sim::SimDur;
//!
//! let cfg = FleetConfig::preset(4, 7);
//! let res = staging_reservation(&cfg.tree, 64 << 20);
//! let mut fleet = Fleet::new(cfg).unwrap();
//! for i in 0..32 {
//!     let work = JobWork::new(2).read(8 << 20).compute(SimDur::from_millis(1));
//!     fleet.submit(FleetJob::new(format!("j{i}"), res.clone(), work).home(i % 4));
//! }
//! let report = fleet.run().unwrap();
//! assert_eq!(report.count(northup_sched::JobState::Done), 32);
//! assert!(report.capacity_ok && report.exactly_once());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod fleet;
pub mod report;
pub mod router;

pub use config::{FleetConfig, FleetJob};
pub use error::FleetError;
pub use fleet::Fleet;
pub use report::{
    chunk_checksum, ClassLatency, FleetJobOutcome, FleetReport, MigrationRecord, ShardSummary,
};
pub use router::PRESSURE_NS;
