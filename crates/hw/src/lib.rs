//! # northup-hw — simulated heterogeneous memory & storage devices
//!
//! The paper evaluates Northup on a machine with DRAM, a PCIe SSD, a SATA
//! disk and (for the three-level experiments) discrete-GPU device memory.
//! This crate is that machine's stand-in:
//!
//! * [`spec`] — [`DeviceSpec`]/[`LinkSpec`]: kind, interface class
//!   (file / memory / device — the paper's `storage_type`), capacity, and
//!   first-order read/write bandwidth + latency.
//! * [`catalog`] — the concrete parts from §V-A (WD5000AAKX HDD, HyperX
//!   Predator SSD, W9100 device memory, PCIe link) plus the emerging devices
//!   the discussion motivates (NVM mappable as storage *or* memory, stacked
//!   DRAM).
//! * [`backend`] — where bytes actually live: heap buffers for memory/device
//!   nodes, *real files* (positioned read/write, like the paper's Listing 4
//!   wrapper) for storage nodes, and a capacity-only phantom backend for
//!   paper-scale modeled runs.
//! * [`iotrack`] — per-device byte/op accounting, the input of the §V-D
//!   faster-storage projection (`northup::projection`).
//! * [`cache`] — the transparent SSD-over-HDD LRU block cache that §VI
//!   contrasts Northup's explicit management against.
//!
//! Performance (virtual time) is charged by `northup-sim` resources built
//! from these specs; this crate never sleeps or measures wall time.

#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod catalog;
pub mod fault;
pub mod iotrack;
pub mod spec;

pub use backend::{
    gather, BlockId, FileBackend, HeapBackend, HwError, HwResult, PhantomBackend, StorageBackend,
};
pub use cache::{CacheStats, CachedDevice};
pub use fault::{FaultOps, FaultyBackend};
pub use iotrack::{BwPoint, Dir, IoTotals, IoTracker};
pub use spec::{gb_s, gib, mb_s, DeviceKind, DeviceSpec, LinkSpec, StorageClass};
