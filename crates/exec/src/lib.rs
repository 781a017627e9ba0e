//! # northup-exec — the real threads (paper §V-E substrate)
//!
//! The paper drives every leaf from per-consumer task queues and
//! balances CPU and GPU with lock-free stealing (\[24\] in the paper, the
//! Chase–Lev deque). This crate provides:
//!
//! * [`pool`] — a thread pool with one FIFO task queue; a caller waiting
//!   on a scope runs only that scope's queued tasks. The product starts
//!   one, the lazy process-wide [`shared`] pool sized by [`workers`].
//! * [`fan_out`] — the one split over that pool (kernel row bands, fleet
//!   shards, service lanes): the caller and the pool's helpers claim
//!   items in order from one cursor.
//! * [`chain`] — chunk-chain execution hooks: [`CancelToken`] and
//!   [`ThreadPool::run_chain`], the chunk-boundary cancellation
//!   discipline real-thread fabrics use for chunk-granular preemption.
//! * [`deque`](mod@deque) — a bounded Chase–Lev deque, the head/tail
//!   discipline of the paper's Fig. 10. No product code calls it; the
//!   Fig. 10 example and the benchmark's probes do.
//!
//! The virtual-time *model* of the stealing protocol (used for the
//! deterministic Fig. 11 numbers) lives in `northup_sim::workers`.

#![warn(missing_docs)]

pub mod chain;
pub mod deque;
mod fan;
pub mod pool;

pub use chain::{CancelToken, ChainRunStats};
pub use deque::{deque, Steal, Stealer, Worker};
pub use fan::fan_out;
pub use pool::{shared, workers, Scope, ThreadPool};
