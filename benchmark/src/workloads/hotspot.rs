//! `hotspot_ooc`: out-of-core HotSpot-2D (paper §IV-B) in Real mode on
//! the APU tree. A 2048² grid in 512-blocks with 8-step temporal
//! blocking, two passes: the 4 × 4 tile grid of the paper-shaped run,
//! every tile loaded and stored as ~2 KB strided file runs.

use super::{
    apu_tree, report_app, report_backends, traced_app, Baseline, Check, TracedApp, Workload,
};
use crate::host::timed;
use crate::metrics::Metrics;
use crate::probes::median_secs;
use crate::trace::Tracer;
use northup::{ExecMode, Runtime};
use northup_apps::hotspot::{hotspot_in_memory, hotspot_northup_on, HotspotConfig};
use northup_apps::AppRun;
use northup_kernels::{
    extract_halo_block, step_halo_block, DenseMatrix, HotSpotParams, FLOPS_PER_CELL,
};
use std::hint::black_box;

const N: usize = 2048;
const BLOCK: usize = 512;
const STEPS_PER_PASS: usize = 8;
const PASSES: usize = 2;
const TILE_RUNS: usize = (N / BLOCK) * (N / BLOCK) * PASSES;

pub struct Hotspot {
    cfg: HotspotConfig,
    /// `hotspot_in_memory` on the same inputs.
    baseline: Baseline,
}

impl Workload for Hotspot {
    type Out = AppRun;
    type Traced = TracedApp;

    fn setup(seed: u64, _threads: usize) -> Self {
        let cfg = HotspotConfig {
            n: N,
            block: BLOCK,
            steps_per_pass: STEPS_PER_PASS,
            passes: PASSES,
            ring: 2,
            seed,
        };
        let (run, t) =
            timed(|| hotspot_in_memory(&cfg, ExecMode::Real).expect("in-memory baseline"));
        let baseline = Baseline {
            reference: run.checksum.expect("Real mode yields a checksum"),
            wall_s: t,
        };
        Hotspot { cfg, baseline }
    }

    fn units(&self) -> f64 {
        (N * N * STEPS_PER_PASS * PASSES) as f64 / 1e6
    }

    fn rep(&self) -> AppRun {
        let rt = Runtime::new(apu_tree(), ExecMode::Real).expect("runtime");
        hotspot_northup_on(&rt, &self.cfg).expect("out-of-core hotspot")
    }

    fn check(&mut self, run: AppRun) -> Check {
        self.baseline.check(run.checksum, 1e-3)
    }

    fn corrupt_reference(&mut self) {
        self.baseline.corrupt();
    }

    fn traced_rep(&self, tr: &mut Tracer) -> TracedApp {
        traced_app(tr, "hotspot_northup_on", apu_tree(), |rt| {
            hotspot_northup_on(rt, &self.cfg).expect("out-of-core hotspot")
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

        // The leaf kernel on an interior tile: a 512-block with an 8-cell
        // halo on every side (edge tiles carry less halo, so this is the
        // costliest tile shape).
        let side = BLOCK + 2 * STEPS_PER_PASS;
        let temp = DenseMatrix::random(side, side, self.cfg.seed);
        let power = DenseMatrix::random(side, side, self.cfg.seed + 1);
        let h = STEPS_PER_PASS;
        let block = extract_halo_block(&temp, &power, h, h, BLOCK, BLOCK, h);
        let prm = HotSpotParams::default();
        let tile_s = median_secs(|| {
            black_box(step_halo_block(&block, STEPS_PER_PASS, &prm));
        });
        let kernel_s = TILE_RUNS as f64 * tile_s;
        tr.tally(
            "kernels",
            "step_halo_block (probe x tiles)",
            TILE_RUNS as u64,
            (kernel_s * 1e9) as u64,
            0,
        );
        let cell_steps = (BLOCK * BLOCK * STEPS_PER_PASS) as f64;
        m.set("kernels.stencil_mcells_per_s", cell_steps / tile_s / 1e6);
        m.set("kernels.stencil_busy_share", kernel_s / wall_s);
        // Computed from shapes: a tile run reads the temperature and power
        // halo regions and writes the core.
        let tile_bytes = ((2 * side * side + BLOCK * BLOCK) * 4) as f64;
        m.set(
            "kernels.stencil_ops_per_byte",
            cell_steps * FLOPS_PER_CELL / tile_bytes,
        );

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
