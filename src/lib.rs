//! # northup-suite — the full Northup reproduction, one import away
//!
//! This crate re-exports the whole workspace so examples, integration
//! tests, and downstream users can depend on a single package:
//!
//! * [`core`] — the topological tree, unified data-management API, and
//!   recursive runtime (the paper's contribution, crate `northup`).
//! * [`hw`] — simulated heterogeneous devices (SSD/HDD/NVM/DRAM/HBM/GPU
//!   memory) with real-byte backends.
//! * [`sim`] — the deterministic virtual-time substrate.
//! * [`exec`] — the process-wide thread pool, `fan_out` and the Chase–Lev deque.
//! * [`sparse`] — CSR matrices, generators, sharding, CSR-Adaptive binning.
//! * [`kernels`] — GEMM / HotSpot-2D / SpMV kernels and device cost models.
//! * [`apps`] — the three paper case studies plus the work-stealing leaf.
//! * [`sched`] — the multi-tenant job scheduler: admission control over
//!   per-node capacity reservations, weighted fair queueing, and the
//!   deterministic service co-simulation.
//! * [`fleet`] — the federation layer: N shard trees behind a
//!   deterministic router with cross-shard checkpoint migration and a
//!   fleet-wide report (DESIGN.md §11).
//!
//! See `examples/quickstart.rs` for the 5-minute tour and DESIGN.md for the
//! full paper-to-code map.

pub use northup as core;
pub use northup_apps as apps;
pub use northup_exec as exec;
pub use northup_fleet as fleet;
pub use northup_hw as hw;
pub use northup_kernels as kernels;
pub use northup_sched as sched;
pub use northup_sim as sim;
pub use northup_sparse as sparse;

/// Most-used items in one import.
pub mod prelude {
    pub use northup::{
        presets, BufferHandle, Ctx, ExecMode, NodeId, NorthupError, ProcKind, ProcessorDesc,
        Result, RunReport, Runtime, Transform, Tree, TreeBuilder,
    };
    pub use northup_apps::{
        hotspot_apu, hotspot_in_memory, matmul_apu, matmul_in_memory, spmv_apu, spmv_in_memory,
        AppRun, BalanceConfig, HotspotConfig, MatmulConfig, SpmvInput,
    };
    pub use northup_fleet::{Fleet, FleetConfig, FleetJob, FleetReport};
    pub use northup_hw::{catalog, DeviceKind, DeviceSpec, StorageClass};
    pub use northup_sched::{
        AdmissionPolicy, JobScheduler, JobSpec, JobState, JobWork, Priority, Reservation,
        SchedReport, SchedulerConfig,
    };
    pub use northup_sim::{Category, SimDur, SimTime};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_quickstart_path() {
        let rt = Runtime::new(
            presets::apu_two_level(catalog::ssd_hyperx_predator()),
            ExecMode::Real,
        )
        .unwrap();
        let root = rt.root_ctx();
        let buf = root.alloc(128).unwrap();
        rt.release(buf).unwrap();
        assert_eq!(rt.tree().max_level(), 1);
    }
}
