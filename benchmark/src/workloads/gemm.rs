//! `gemm_ooc`: out-of-core dense matrix multiply (paper §IV-A) in Real
//! mode on the APU tree. n = 1024 in 256-blocks keeps the 4 × 4 tile
//! grid of the paper-shaped run (16 leaf GEMMs of 256×1024·1024×256, a
//! few dozen 1 MiB file operations) at 2.1 GFLOP per repetition.

use super::{
    apu_tree, report_app, report_backends, traced_app, Baseline, Check, TracedApp, Workload,
};
use crate::host::timed;
use crate::metrics::Metrics;
use crate::probes::median_secs;
use crate::trace::Tracer;
use northup::{ExecMode, Runtime};
use northup_apps::matmul::{matmul_in_memory, matmul_northup_on, MatmulConfig};
use northup_apps::AppRun;
use northup_kernels::{gemm_flops, matmul_tiled, DenseMatrix, LEAF_TILE};
use std::hint::black_box;

const N: usize = 1024;
const BLOCK: usize = 256;
const TILES: usize = (N / BLOCK) * (N / BLOCK);

pub struct Gemm {
    cfg: MatmulConfig,
    /// `matmul_in_memory` on the same inputs.
    baseline: Baseline,
}

impl Workload for Gemm {
    type Out = AppRun;
    type Traced = TracedApp;

    fn setup(seed: u64, _threads: usize) -> Self {
        let cfg = MatmulConfig {
            n: N,
            block: BLOCK,
            ring: 2,
            seed,
        };
        let (run, t) =
            timed(|| matmul_in_memory(&cfg, ExecMode::Real).expect("in-memory baseline"));
        let baseline = Baseline {
            reference: run.checksum.expect("Real mode yields a checksum"),
            wall_s: t,
        };
        Gemm { cfg, baseline }
    }

    fn units(&self) -> f64 {
        gemm_flops(N as u64, N as u64, N as u64) / 1e9
    }

    fn rep(&self) -> AppRun {
        let rt = Runtime::new(apu_tree(), ExecMode::Real).expect("runtime");
        matmul_northup_on(&rt, &self.cfg).expect("out-of-core matmul")
    }

    fn check(&mut self, run: AppRun) -> Check {
        self.baseline.check(run.checksum, 1e-3)
    }

    fn corrupt_reference(&mut self) {
        self.baseline.corrupt();
    }

    fn traced_rep(&self, tr: &mut Tracer) -> TracedApp {
        traced_app(tr, "matmul_northup_on", apu_tree(), |rt| {
            matmul_northup_on(rt, &self.cfg).expect("out-of-core matmul")
        })
    }

    fn report(
        &mut self,
        tr: &mut Tracer,
        m: &mut Metrics,
        traced: TracedApp,
        wall_s: f64,
        untraced_wall_s: f64,
    ) -> Check {
        let hw_busy_s = report_backends(tr, m, &traced.file, &traced.heap);

        // The leaf kernel on the workload's tile: 256×1024 · 1024×256.
        let a = DenseMatrix::random(BLOCK, N, self.cfg.seed);
        let b = DenseMatrix::random(N, BLOCK, self.cfg.seed + 1);
        let tile_s = median_secs(|| {
            let mut c = DenseMatrix::zeros(BLOCK, BLOCK);
            matmul_tiled(&a, &b, &mut c, LEAF_TILE);
            black_box(&c);
        });
        let tile_flops = gemm_flops(BLOCK as u64, BLOCK as u64, N as u64);
        let kernel_s = TILES as f64 * tile_s;
        tr.tally(
            "kernels",
            "matmul_tiled (probe x tiles)",
            TILES as u64,
            (kernel_s * 1e9) as u64,
            0,
        );
        m.set("kernels.gemm_gflops", tile_flops / tile_s / 1e9);
        m.set("kernels.gemm_busy_share", kernel_s / wall_s);
        // Computed from shapes: one tile reads A and B shards and writes C.
        let tile_bytes = ((BLOCK * N + N * BLOCK + BLOCK * BLOCK) * 4) as f64;
        m.set("kernels.gemm_ops_per_byte", tile_flops / tile_bytes);

        report_app(
            m,
            untraced_wall_s,
            &traced.run,
            wall_s,
            hw_busy_s + kernel_s,
            &self.baseline,
        );
        self.baseline.check(traced.run.checksum, 1e-3)
    }
}
