//! # northup-sim — deterministic virtual-time simulation substrate
//!
//! The Northup paper measures wall-clock time on real AMD hardware (APUs, a
//! FirePro W9100, a PCIe SSD and a SATA disk). This reproduction replaces
//! wall-clock measurement with a deterministic virtual-time model so that
//! every figure regenerates identically on any machine:
//!
//! * [`time`] — integer-nanosecond [`SimTime`]/[`SimDur`] and the first-order
//!   transfer cost formula.
//! * [`resource`] — FIFO bandwidth servers ([`Resource`]); compute/I-O
//!   overlap emerges from issuing dependent requests to separate resources.
//! * [`timeline`] — per-category span recording for the paper's execution
//!   breakdowns (Figs. 7 and 8).
//! * [`workers`] — a discrete-event simulation of queue-based CPU+GPU work
//!   stealing (Fig. 10 / Fig. 11).
//!
//! The real data movement and real kernels live in other crates; this crate
//! only answers "when would that have finished on the paper's hardware?".

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod resource;
pub mod time;
pub mod timeline;
pub mod workers;

pub use resource::{Resource, Served};
pub use time::{transfer_time, SimDur, SimTime};
pub use timeline::{Breakdown, Category, Span, Timeline};
pub use workers::{deal_round_robin, simulate_stealing, SimWorker, StealOutcome, WorkerStats};
