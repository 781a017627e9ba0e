//! Calibration knobs: the per-application performance parameters of the
//! virtual-time model.
//!
//! Every number here is documented with its provenance. The device-level
//! parameters (bandwidths, peak rates) live in `northup-hw`/`northup-kernels`;
//! this module holds the *application-level* effective rates that the paper
//! reports only indirectly through its figures. EXPERIMENTS.md records how
//! the resulting series compare with the paper's.

use northup::{NorthupError, Result};
use northup_kernels::ProcModel;
use northup_sim::SimDur;

/// Resolve the cost model for a processor by its topology name; an
/// unknown name is [`NorthupError::NoCostModel`].
pub fn model_for(proc_name: &str) -> Result<ProcModel> {
    Ok(match proc_name {
        "apu-gpu" => ProcModel::apu_gpu(),
        "w9100" | "exa-gpu" | "gpu0" => ProcModel::w9100(),
        "apu-cpu" | "host-cpu" | "cpu0" => ProcModel::apu_cpu(),
        // Fig. 2's heterogeneous accelerators: a processing-in-memory unit
        // (modest FLOPS, enormous local bandwidth) and a mid-size FPGA.
        "pim" => ProcModel {
            name: "pim".into(),
            flops: 100e9,
            mem_bw: 120e9,
            launch: SimDur::from_micros(5),
        },
        "fpga0" => ProcModel {
            name: "fpga0".into(),
            flops: 600e9,
            mem_bw: 40e9,
            launch: SimDur::from_micros(50),
        },
        other => return Err(NorthupError::NoCostModel(other.into())),
    })
}

/// GEMM: staging ring depth (double buffering of B shards and C blocks —
/// the paper's multi-stage task queues, §III-C).
pub const GEMM_RING: usize = 2;

/// HotSpot: temporal blocking depth — time steps advanced per out-of-core
/// pass (= halo width). The paper tunes its blocking sizes "manually ...
/// through experimentation" (§IV-A); 64 steps/pass makes one pass's compute
/// comparable to its storage I/O on the entry SSD, which is where the
/// paper's HotSpot slowdown band (1.3x SSD, 2-2.5x disk) lives.
pub const HOTSPOT_STEPS_PER_PASS: usize = 64;

/// SpMV: GPU model for the gather-bound SpMV kernel. Random accesses to the
/// x vector achieve a small fraction of streaming bandwidth on the APU's
/// integrated GPU (the reason CSR-Adaptive's GPU share in Fig. 7 is a
/// sizeable bar despite SpMV's tiny FLOP count).
pub fn spmv_gpu_model() -> ProcModel {
    ProcModel {
        name: "apu-gpu-spmv".into(),
        flops: 250e9,
        mem_bw: 1.5e9,
        launch: SimDur::from_micros(15),
    }
}

/// SpMV on the discrete GPU: gathers hit GDDR5 with high parallelism; the
/// paper's ref. \[20\] reports ~4.5x over cuSPARSE, still far from streaming BW.
pub fn spmv_dgpu_model() -> ProcModel {
    ProcModel {
        name: "w9100-spmv".into(),
        flops: 4.2e12,
        mem_bw: 30e9,
        launch: SimDur::from_micros(20),
    }
}

/// SpMV: Northup's per-shard re-binning costs more than one monolithic
/// binning pass (shard boundaries break stream-block packing and the bins
/// must be rebuilt against rebased row offsets), expressed as a multiplier
/// on the baseline binning time. This is why "CSR-Adaptive uses the CPU for
/// binning rows ... and spends relatively more time" in the paper's
/// breakdown (§V-C).
pub const SPMV_NORTHUP_BIN_FACTOR: f64 = 1.25;

/// SpMV: effective storage-bandwidth factor for CSR-Adaptive's I/O. The
/// three CSR arrays produce variable-sized, irregularly-aligned requests
/// that reach only about half of the device's streaming bandwidth —
/// "HotSpot-2D obtains more performance benefit than CSR-Adaptive, because
/// it uses relatively regular blocks with better I/O performance as
/// compared to variable buffer sizes by CSR-Adaptive" (§V-B).
pub const SPMV_IO_EFFICIENCY: f64 = 0.5;

/// SpMV: CPU-side shard repacking rate (extract + rebase `row_ptr`,
/// `col_id`, `data` slices into the shard buffers), bytes/s.
pub const SPMV_REPACK_BW: f64 = 4e9;

/// SpMV: CSR-Adaptive's "variable buffer sizes" give worse storage I/O than
/// HotSpot's regular blocks (§V-B). Effective bandwidth factor applied by
/// issuing each shard as its three separately-sized array reads rather than
/// one regular block (the per-op latîncy and size variance do the rest).
pub const SPMV_CHUNKS: usize = 4;

/// Paper-scale problem sizes (§V-A).
pub mod paper {
    /// Dense matrices: 16k x 16k floats ("we use 16k x 16k and 32k x 32k").
    pub const GEMM_N: usize = 16 * 1024;
    /// The larger GEMM input.
    pub const GEMM_N_LARGE: usize = 32 * 1024;
    /// "A 4k x 4k blocking size is used in DRAM" (§IV-A).
    pub const GEMM_BLOCK: usize = 4 * 1024;
    /// HotSpot grid (same inputs as GEMM).
    pub const HOTSPOT_N: usize = 16 * 1024;
    /// "An 8k x 8k blocking size is used in DRAM" (§IV-B).
    pub const HOTSPOT_BLOCK: usize = 8 * 1024;
    /// "The inputs we used have 16 million rows" (§IV-C).
    pub const SPMV_ROWS: u64 = 16 * 1024 * 1024;
    /// Mean stored entries per row — road-network-class Florida matrices
    /// (e.g. road_usa has ~2.4 nnz/row), consistent with a 16M-row input
    /// that still fits the paper's storage and chunking setup.
    pub const SPMV_NNZ_PER_ROW: f64 = 2.4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_resolve_for_all_preset_processors() {
        for name in ["apu-gpu", "apu-cpu", "w9100", "host-cpu"] {
            let m = model_for(name).unwrap();
            assert!(m.flops > 0.0);
        }
    }

    #[test]
    fn unknown_processor_is_a_typed_error() {
        let err = model_for("quantum-accelerator").unwrap_err();
        assert!(
            matches!(&err, NorthupError::NoCostModel(n) if n == "quantum-accelerator"),
            "{err}"
        );
    }

    #[test]
    fn spmv_gpu_is_gather_bound() {
        assert!(spmv_gpu_model().mem_bw < ProcModel::apu_gpu().mem_bw / 5.0);
    }

    #[test]
    fn paper_sizes_match_section_5a() {
        assert_eq!(paper::GEMM_N, 16384);
        assert_eq!(paper::GEMM_BLOCK, 4096);
        assert_eq!(paper::HOTSPOT_BLOCK, 8192);
        assert_eq!(paper::SPMV_ROWS, 16 * 1024 * 1024);
    }
}
