//! Device cost models — the performance stand-in for the paper's OpenCL
//! kernels on real GPUs.
//!
//! The kernels in this crate compute real results on CPU threads; these
//! models answer "how long would that kernel have taken on the paper's
//! devices?" using a first-order roofline: `time = max(flops / rate,
//! bytes / bandwidth) + launch overhead`. Effective rates fold in the
//! achieved efficiency the paper states (e.g. the tiled GEMM "achieves more
//! than 80% of peak GPU FLOPS" on the discrete part, far less on the APU's
//! integrated GPU whose FLOPS the DRAM interface starves).
//!
//! [`latency_hiding_efficiency`] models the Fig. 11 observation that a GPU
//! needs "multiple workgroups per SIMD engine ... to fully utilize GPU
//! hardware and hide latency": throughput ramps with the number of resident
//! queues and saturates around 32.

use crate::gemm::gemm_flops;
use crate::stencil::FLOPS_PER_CELL;
use northup_sim::SimDur;

/// First-order processor model.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcModel {
    /// Name for reports.
    pub name: String,
    /// Effective FLOP/s on dense compute-bound kernels.
    pub flops: f64,
    /// Effective memory bandwidth for kernel operands, bytes/s.
    pub mem_bw: f64,
    /// Fixed per-kernel-launch overhead.
    pub launch: SimDur,
}

impl ProcModel {
    /// The integrated GPU of the paper's A10-class APU. Effective GEMM rate
    /// reflects OpenCL efficiency on an integrated part fed from shared
    /// DRAM (~250 GF/s of the 737 GF/s peak).
    pub fn apu_gpu() -> Self {
        ProcModel {
            name: "apu-gpu".into(),
            flops: 250e9,
            mem_bw: 18e9,
            launch: SimDur::from_micros(15),
        }
    }

    /// FirePro W9100-class discrete GPU (5.24 TF/s peak; the paper's tiled
    /// GEMM achieves >80% => ~4.2 TF/s effective; 260 GB/s GDDR5).
    pub fn w9100() -> Self {
        ProcModel {
            name: "w9100".into(),
            flops: 4.2e12,
            mem_bw: 260e9,
            launch: SimDur::from_micros(20),
        }
    }

    /// A10-class 4-thread CPU (the paper's HotSpot runs ~8x slower on the
    /// CPU than the integrated GPU).
    pub fn apu_cpu() -> Self {
        ProcModel {
            name: "apu-cpu".into(),
            flops: 32e9,
            mem_bw: 10e9,
            launch: SimDur::ZERO,
        }
    }

    /// Roofline time for `flops` of arithmetic over `bytes` of operands.
    pub fn roofline(&self, flops: f64, bytes: f64) -> SimDur {
        let t_flops = flops / self.flops;
        let t_mem = bytes / self.mem_bw;
        self.launch + SimDur::from_secs_f64(t_flops.max(t_mem))
    }

    /// Time for a `C += A(m x k) * B(k x n)` leaf kernel. Operand traffic is
    /// one pass over A, B and a read+write of C (LDS tiling gives the
    /// arithmetic reuse).
    pub fn gemm_time(&self, m: u64, n: u64, k: u64) -> SimDur {
        let bytes = 4.0 * (m as f64 * k as f64 + k as f64 * n as f64 + 2.0 * m as f64 * n as f64);
        self.roofline(gemm_flops(m, n, k), bytes)
    }

    /// Time for `steps` stencil steps over `cells` grid cells (read temp +
    /// power, write temp, each step).
    pub fn stencil_time(&self, cells: u64, steps: u64) -> SimDur {
        let flops = cells as f64 * steps as f64 * FLOPS_PER_CELL;
        let bytes = cells as f64 * steps as f64 * 12.0;
        self.roofline(flops, bytes)
    }

    /// Time for one SpMV pass over `rows` rows and `nnz` stored entries
    /// (CSR payload + gathered x + y write).
    pub fn spmv_time(&self, rows: u64, nnz: u64) -> SimDur {
        let flops = 2.0 * nnz as f64;
        let bytes = nnz as f64 * 12.0 + rows as f64 * 8.0;
        self.roofline(flops, bytes)
    }
}

/// CPU-side CSR-Adaptive row-binning rate (rows/s). The paper's breakdown
/// charges this to the CPU ("CSR-Adaptive uses the CPU for binning rows
/// into different categories and spends relatively more time", §V-C).
pub const BINNING_ROWS_PER_SEC: f64 = 45e6;

/// Time for binning `rows` rows on the CPU.
pub fn binning_time(rows: u64) -> SimDur {
    SimDur::from_secs_f64(rows as f64 / BINNING_ROWS_PER_SEC)
}

/// GPU throughput efficiency as a function of the number of resident work
/// queues (Fig. 11: 8/16/32 queues; 32 is best because "multiple workgroups
/// per SIMD engine is needed to fully utilize GPU hardware and hide
/// latency"). Saturating ramp `q / (q + 12)`, normalized to 1.0 at 32.
pub fn latency_hiding_efficiency(queues: usize) -> f64 {
    let q = queues.max(1) as f64;
    let raw = q / (q + 12.0);
    let at32 = 32.0 / (32.0 + 12.0);
    (raw / at32).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_is_compute_bound_on_both_gpus() {
        // At 4k x 4k, arithmetic intensity is huge; roofline must pick flops.
        let m = ProcModel::apu_gpu();
        let t = m.gemm_time(4096, 4096, 4096);
        let pure_flops = gemm_flops(4096, 4096, 4096) / m.flops;
        assert!((t.as_secs_f64() - pure_flops - m.launch.as_secs_f64()).abs() < 1e-6);
    }

    #[test]
    fn spmv_is_memory_bound() {
        let m = ProcModel::apu_gpu();
        let t = m.spmv_time(1_000_000, 40_000_000);
        let pure_mem = (40e6 * 12.0 + 1e6 * 8.0) / m.mem_bw;
        assert!((t.as_secs_f64() - pure_mem - m.launch.as_secs_f64()).abs() < 1e-6);
    }

    #[test]
    fn w9100_beats_apu_substantially_on_gemm() {
        let apu = ProcModel::apu_gpu().gemm_time(2048, 2048, 2048);
        let dgpu = ProcModel::w9100().gemm_time(2048, 2048, 2048);
        assert!(apu.as_secs_f64() > 8.0 * dgpu.as_secs_f64());
    }

    #[test]
    fn cpu_is_several_times_slower_than_apu_gpu_on_stencil() {
        // The paper quotes ~8x GPU speedup for HotSpot on the APU.
        let gpu = ProcModel::apu_gpu().stencil_time(1 << 20, 4).as_secs_f64();
        let cpu = ProcModel::apu_cpu().stencil_time(1 << 20, 4).as_secs_f64();
        let ratio = cpu / gpu;
        assert!((1.5..16.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn paper_scale_gemm_runtime_sanity() {
        // 16k x 16k GEMM on the APU: 2 * 16384^3 / 250 GF/s ~ 35 s. This is
        // the in-memory baseline magnitude that makes the paper's Fig. 6
        // slowdowns land where they do.
        let t = ProcModel::apu_gpu().gemm_time(16384, 16384, 16384);
        assert!((30.0..42.0).contains(&t.as_secs_f64()), "{t}");
    }

    #[test]
    fn binning_time_is_linear() {
        let t1 = binning_time(1_000_000).as_secs_f64();
        let t4 = binning_time(4_000_000).as_secs_f64();
        assert!((t4 / t1 - 4.0).abs() < 1e-6, "nanosecond rounding only");
    }

    #[test]
    fn latency_hiding_monotone_and_saturates_at_32() {
        let e8 = latency_hiding_efficiency(8);
        let e16 = latency_hiding_efficiency(16);
        let e32 = latency_hiding_efficiency(32);
        let e64 = latency_hiding_efficiency(64);
        assert!(e8 < e16 && e16 < e32, "{e8} {e16} {e32}");
        assert_eq!(e32, 1.0);
        assert_eq!(e64, 1.0, "capped at full throughput");
        assert!(e8 > 0.5, "8 queues still does useful work");
    }

    #[test]
    fn zero_work_costs_only_launch() {
        let m = ProcModel::w9100();
        assert_eq!(m.roofline(0.0, 0.0), m.launch);
    }
}
