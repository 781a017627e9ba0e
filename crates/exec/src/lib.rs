//! # northup-exec — lock-free work stealing (paper §V-E substrate)
//!
//! The paper implements CPU↔GPU load balancing with per-consumer work queues
//! and lock-free stealing using acquire/release atomics (\[24\] in the paper,
//! the Chase–Lev deque). This crate provides:
//!
//! * [`deque`](mod@deque) — a bounded Chase–Lev deque: one owner pushes/pops at the
//!   tail, thieves steal at the head with a CAS, exactly the head/tail
//!   discipline of the paper's Fig. 10.
//! * [`pool`] — a thread pool with one FIFO task queue; a caller waiting
//!   on a scope runs only that scope's queued tasks. One process-wide
//!   instance, started lazily and sized by [`workers`], runs every split;
//!   Real-mode service lanes run on a pool of their own.
//! * [`fan_out`] — the leaf kernels' row bands and the fleet's shards: the
//!   caller and the process-wide pool's helpers steal items in order from
//!   one deque.
//! * [`chain`] — chunk-chain execution hooks: [`CancelToken`] and
//!   [`ThreadPool::run_chain`], the chunk-boundary cancellation
//!   discipline real-thread fabrics use for chunk-granular preemption.
//!
//! The virtual-time *model* of the same stealing protocol (used for the
//! deterministic Fig. 11 numbers) lives in `northup_sim::workers`; this
//! crate is the real concurrent implementation.

#![warn(missing_docs)]

pub mod chain;
pub mod deque;
mod fan;
pub mod pool;

pub use chain::{CancelToken, ChainRunStats};
pub use deque::{deque, Steal, Stealer, Worker};
pub use fan::fan_out;
pub use pool::{workers, Scope, ThreadPool};
