//! CPU+GPU work-stealing load balancing for HotSpot (paper §V-E, Figs. 10–11).
//!
//! The out-of-core pipeline stays as in [`crate::hotspot`]: chunks stream
//! from the SSD into main memory. At the leaf, instead of one GPU kernel
//! per chunk, the chunk's rows of blocks become tasks in per-consumer
//! queues (Fig. 10): each GPU workgroup and each CPU thread owns a queue;
//! a consumer pops from its own tail and a GPU workgroup steals from the
//! head of a CPU queue when it runs dry. The simulation is the
//! deterministic DES in `northup_sim::workers`; the *real* concurrent
//! counterpart of the same protocol (Chase–Lev deques on real threads) is
//! exercised by `northup-exec` and the `load_balancing` example.
//!
//! The queue count affects GPU throughput through the latency-hiding curve
//! ("multiple workgroups per SIMD engine is needed to fully utilize GPU
//! hardware and hide latency" — 32 queues is best in the paper).

use crate::calibration::HOTSPOT_STEPS_PER_PASS;
use northup_hw::catalog;
use northup_kernels::latency_hiding_efficiency;
use northup_sim::{
    deal_round_robin, simulate_stealing, Resource, SimDur, SimTime, SimWorker, StealOutcome,
};

/// CPU thread queues that join the GPU workgroups when stealing is on.
const CPU_THREADS: usize = 4;

/// Row-block height: each leaf task processes a `BLOCK_ROWS x chunk` row
/// of blocks.
const BLOCK_ROWS: usize = 16;

/// APU-class leaf rates, cells/s: the GPU sustains ~1.5 G cells/s at full
/// occupancy on the memory-bound stencil (18 GB/s shared DRAM / 12 B per
/// cell); the [`CPU_THREADS`] together reach about a sixth of that on the
/// row-block leaf tasks (the full-application 8x GPU speedup the paper
/// quotes includes launch and staging costs the leaf tasks do not pay).
const GPU_CELLS_PER_SEC: f64 = 1.5e9;
const CPU_CELLS_PER_SEC: f64 = 0.25e9;

/// One Fig. 11 configuration. Each task advances
/// `calibration::HOTSPOT_STEPS_PER_PASS` time steps (the temporal-blocking
/// depth of the out-of-core pass), and chunks stage at the paper SSD's
/// read rate with no per-op latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceConfig {
    /// Input grid dimension in SSD (the paper's `m`).
    pub m: usize,
    /// Chunk dimension loaded into main memory (the paper's `n`).
    pub chunk: usize,
    /// Number of GPU workgroup queues (8 / 16 / 32 in the paper).
    pub gpu_queues: usize,
    /// Whether CPU threads participate and GPU workgroups steal.
    pub stealing: bool,
}

impl BalanceConfig {
    /// The paper's three input points `(m, n)` with a given queue count.
    pub fn paper_points(gpu_queues: usize, stealing: bool) -> Vec<BalanceConfig> {
        [(16_384, 2_048), (16_384, 4_096), (32_768, 4_096)]
            .into_iter()
            .map(|(m, chunk)| BalanceConfig {
                m,
                chunk,
                gpu_queues,
                stealing,
            })
            .collect()
    }

    /// Number of chunks streamed from the SSD.
    pub fn chunks(&self) -> usize {
        let per_side = self.m / self.chunk;
        per_side * per_side
    }

    /// Leaf tasks per chunk (rows of blocks).
    pub fn tasks_per_chunk(&self) -> usize {
        self.chunk / BLOCK_ROWS
    }
}

/// Result of one balanced run.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceRun {
    /// Total runtime (staging + balanced leaf compute, pipelined).
    pub makespan: SimDur,
    /// Total successful steals across all chunks.
    pub steals: u64,
}

/// Simulate the leaf of one chunk: deal the rows of blocks round-robin
/// across the consumer queues and run the stealing DES.
pub fn simulate_chunk_leaf(cfg: &BalanceConfig) -> StealOutcome {
    let eff = latency_hiding_efficiency(cfg.gpu_queues);
    let gpu_rate = GPU_CELLS_PER_SEC * eff / cfg.gpu_queues as f64;
    let cpu_rate = CPU_CELLS_PER_SEC / CPU_THREADS as f64;

    let mut workers: Vec<SimWorker> = Vec::new();
    // GPU workgroups first; CPU threads after (if participating). An idle
    // GPU workgroup steals from the head of any other queue — most
    // profitably a CPU queue, which the richest-victim rule targets because
    // slow CPU consumers drain their queues last (§V-E: "GPU workgroup may
    // steal elements pointed by the head pointer of another CPU queue").
    let total = if cfg.stealing {
        cfg.gpu_queues + CPU_THREADS
    } else {
        cfg.gpu_queues
    };
    for i in 0..cfg.gpu_queues {
        let victims: Vec<usize> = if cfg.stealing {
            (0..total).filter(|&v| v != i).collect()
        } else {
            Vec::new()
        };
        workers.push(SimWorker::new(format!("gpu-wg-{i}"), gpu_rate, victims));
    }
    if cfg.stealing {
        for i in 0..CPU_THREADS {
            workers.push(SimWorker::new(format!("cpu-{i}"), cpu_rate, Vec::new()));
        }
    }

    let task_cells = (BLOCK_ROWS * cfg.chunk * HOTSPOT_STEPS_PER_PASS) as f64;
    let tasks = vec![task_cells; cfg.tasks_per_chunk()];
    let queues = deal_round_robin(&tasks, workers.len());
    simulate_stealing(&workers, queues)
}

/// Full run: chunks stream from the SSD and their leaf phases execute in a
/// simple load/compute pipeline.
pub fn run_balanced(cfg: &BalanceConfig) -> BalanceRun {
    let leaf = simulate_chunk_leaf(cfg);
    let chunk_bytes = (cfg.chunk * cfg.chunk * 4) as u64;
    let ssd_read_bw = catalog::ssd_hyperx_predator().read_bw;
    let mut ssd = Resource::new("ssd", ssd_read_bw, SimDur::ZERO);
    let mut leaf_res = Resource::new_compute();
    let mut end = SimTime::ZERO;
    for _ in 0..cfg.chunks() {
        let load = ssd.serve_bytes(SimTime::ZERO, chunk_bytes);
        let compute = leaf_res.serve_for(load.end, leaf.makespan);
        end = end.max(compute.end);
    }
    BalanceRun {
        makespan: end.since(SimTime::ZERO),
        steals: leaf.steals * cfg.chunks() as u64,
    }
}

/// The Fig. 11 series: for one input point (one of
/// [`BalanceConfig::paper_points`]), the speedup of CPU+GPU work stealing
/// over GPU-only Northup execution at the same GPU queue count (the
/// paper's normalization; "up to 24%" improvement, 32 queues best in
/// absolute terms). `point.stealing` is ignored: both sides are run.
pub fn fig11_speedup(point: &BalanceConfig) -> f64 {
    let base = run_balanced(&BalanceConfig {
        stealing: false,
        ..*point
    });
    base.makespan.as_secs_f64() / fig11_absolute(point).as_secs_f64()
}

/// Absolute makespan of the work-stealing configuration at `point` (used
/// to show that 32 queues gives the best absolute performance).
pub fn fig11_absolute(point: &BalanceConfig) -> SimDur {
    run_balanced(&BalanceConfig {
        stealing: true,
        ..*point
    })
    .makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(q: usize, stealing: bool) -> BalanceConfig {
        BalanceConfig {
            gpu_queues: q,
            stealing,
            ..BalanceConfig::paper_points(q, stealing)[0]
        }
    }

    /// The paper input `input` at `q` GPU queues.
    fn point_at(input: &BalanceConfig, q: usize) -> BalanceConfig {
        BalanceConfig {
            gpu_queues: q,
            ..*input
        }
    }

    #[test]
    fn chunk_and_task_counts() {
        let c = point(32, true);
        assert_eq!(c.chunks(), 64); // (16384/2048)^2
        assert_eq!(c.tasks_per_chunk(), 128); // 2048/16
    }

    #[test]
    fn stealing_improves_every_queue_count() {
        for input in BalanceConfig::paper_points(8, true) {
            let (m, n) = (input.m, input.chunk);
            for q in [8usize, 16, 32] {
                let s = fig11_speedup(&point_at(&input, q));
                // Paper: improvements up to ~24%. In our deterministic
                // model the gain concentrates at low queue counts, where
                // GPU workgroups run fast relative to CPU threads and
                // stealing fires; at q=32 per-consumer rates nearly match
                // and the gain shrinks toward zero (documented deviation
                // in EXPERIMENTS.md).
                assert!((0.98..1.30).contains(&s), "({m},{n}) q={q}: got {s}");
                if q == 8 {
                    assert!(s > 1.15, "low queue counts show the big gains: {s}");
                }
            }
        }
    }

    #[test]
    fn thirty_two_queues_is_best_in_absolute_terms() {
        for input in BalanceConfig::paper_points(8, true) {
            let (m, n) = (input.m, input.chunk);
            let t8 = fig11_absolute(&point_at(&input, 8));
            let t16 = fig11_absolute(&point_at(&input, 16));
            let t32 = fig11_absolute(&point_at(&input, 32));
            assert!(t32 < t16 && t16 < t8, "({m},{n}): {t8} {t16} {t32}");
        }
    }

    #[test]
    fn steals_happen_and_every_task_runs() {
        let out = simulate_chunk_leaf(&point(8, true));
        assert_eq!(out.tasks as usize, point(8, true).tasks_per_chunk());
        assert!(out.steals > 0, "GPU workgroups steal when queues run dry");
    }

    #[test]
    fn no_stealing_means_no_steals() {
        let out = simulate_chunk_leaf(&point(32, false));
        assert_eq!(out.steals, 0);
    }

    #[test]
    fn deterministic() {
        let a = run_balanced(&point(16, true));
        let b = run_balanced(&point(16, true));
        assert_eq!(a, b);
    }

    #[test]
    fn cpu_contribution_is_bounded_by_rates() {
        // At full GPU occupancy (q=32) the speedup can't exceed
        // 1 + cpu/gpu throughput ratio (plus a small stealing-tail margin).
        let p = BalanceConfig::paper_points(32, true)[2];
        assert_eq!((p.m, p.chunk), (32_768, 4_096));
        let s = fig11_speedup(&p);
        let bound = 1.0 + CPU_CELLS_PER_SEC / GPU_CELLS_PER_SEC + 0.05;
        assert!(s < bound, "{s} vs bound {bound}");
    }
}
