//! `spmv_ooc`: power iteration over an out-of-core power-law matrix
//! (paper §IV-C) on the APU tree with CSR-Adaptive's degraded storage.
//! 250k rows / ~4.2M stored entries, 8 iterations: every iteration
//! re-streams the four row shards, re-bins them on the CPU and runs the
//! adaptive kernels.

use super::{report_app, report_backends, timed_runtime, Baseline, Check, Workload};
use crate::host::timed;
use crate::metrics::Metrics;
use crate::probes::median_secs;
use crate::trace::Tracer;
use northup::{presets, Tree};
use northup_apps::spmv::{power_iteration_northup, spmv_northup_on, spmv_storage, SpmvInput};
use northup_apps::AppRun;
use northup_hw::catalog;
use northup_kernels::spmv_adaptive;
use northup_sparse::{bin_rows, gen, partition_even_rows, BinningParams, Csr};
use std::hint::black_box;

const ROWS: usize = 250_000;
const MAX_ROW_NNZ: usize = 4096;
const ALPHA: f64 = 0.5;
const ITERATIONS: usize = 8;
/// Row shards per pass (`northup_apps::calibration::SPMV_CHUNKS`).
const SHARDS: usize = 4;

fn tree() -> Tree {
    presets::apu_two_level(spmv_storage(catalog::ssd_hyperx_predator()))
}

/// Host power iteration with the reference SpMV: the same start vector,
/// Rayleigh quotient and normalisation as the out-of-core version.
fn host_power_iteration(m: &Csr, iterations: usize) -> f64 {
    let mut x = vec![1.0f32 / (m.rows as f32).sqrt(); m.rows];
    let mut y = vec![0.0f32; m.rows];
    let mut eigenvalue = 0.0;
    for _ in 0..iterations {
        m.spmv_reference(&x, &mut y);
        eigenvalue = x
            .iter()
            .zip(&y)
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum();
        let norm = y.iter().map(|&v| f64::from(v).powi(2)).sum::<f64>().sqrt();
        for (x, &y) in x.iter_mut().zip(&y) {
            *x = (f64::from(y) / norm.max(1e-30)) as f32;
        }
    }
    eigenvalue
}

pub struct Spmv {
    matrix: Csr,
    /// The host power iteration's eigenvalue estimate and wall time.
    baseline: Baseline,
}

impl Workload for Spmv {
    type Out = (f64, AppRun);
    type Traced = (f64, AppRun);

    fn setup(seed: u64, _threads: usize) -> Self {
        let matrix = gen::powerlaw(ROWS, ROWS, MAX_ROW_NNZ, ALPHA, seed);
        let (reference, t) = timed(|| host_power_iteration(&matrix, ITERATIONS));
        let baseline = Baseline {
            reference,
            wall_s: t,
        };
        Spmv { matrix, baseline }
    }

    fn units(&self) -> f64 {
        (self.matrix.nnz() * ITERATIONS) as f64 / 1e6
    }

    fn rep(&self) -> (f64, AppRun) {
        power_iteration_northup(&self.matrix, ITERATIONS, tree())
            .expect("out-of-core power iteration")
    }

    fn check(&mut self, (eigenvalue, _): (f64, AppRun)) -> Check {
        self.baseline.check(Some(eigenvalue), 1e-4)
    }

    fn corrupt_reference(&mut self) {
        self.baseline.corrupt();
    }

    fn traced_rep(&self, tr: &mut Tracer) -> (f64, AppRun) {
        let root = tr.begin("power_iteration_northup", "apps");
        let out = self.rep();
        tr.end(root);
        out
    }

    fn report(
        &mut self,
        tr: &mut Tracer,
        m: &mut Metrics,
        (eigenvalue, run): (f64, AppRun),
        wall_s: f64,
        untraced_wall_s: f64,
    ) -> Check {
        // `power_iteration_northup` builds its own runtime, so the
        // backends are timed on one `spmv_northup_on` pass over the same
        // matrix instead: a single iteration's storage traffic.
        let span = tr.begin("spmv_northup_on (one pass, timed backends)", "apps");
        let (rt, file, heap) = timed_runtime(tree());
        spmv_northup_on(&rt, &SpmvInput::Matrix(self.matrix.clone()))
            .expect("out-of-core spmv pass");
        drop(rt);
        tr.end(span);
        report_backends(tr, m, &file, &heap);

        // Per shard, as the iteration does it: slice, re-bin, run the
        // adaptive kernels against the full x.
        let x = vec![1.0f32 / (ROWS as f32).sqrt(); ROWS];
        let (shards, t) = timed(|| partition_even_rows(&self.matrix, SHARDS));
        m.set("sparse.partition_s", t);
        let (mut bin_s, mut kernel_s) = (0.0, 0.0);
        for shard in &shards {
            let sub = self
                .matrix
                .slice_rows(shard.row_start, shard.row_start + shard.rows());
            bin_s += median_secs(|| {
                black_box(bin_rows(&sub, BinningParams::default()));
            });
            let blocks = bin_rows(&sub, BinningParams::default());
            let mut y = vec![0.0f32; sub.rows];
            kernel_s += median_secs(|| {
                spmv_adaptive(&sub, &blocks, &x, &mut y);
                black_box(&y);
            });
        }
        let nnz = self.matrix.nnz() as f64;
        let (bin_total_s, kernel_total_s) =
            (bin_s * ITERATIONS as f64, kernel_s * ITERATIONS as f64);
        let calls = SHARDS * ITERATIONS;
        tr.tally(
            "sparse",
            "bin_rows (probe x shards x iterations)",
            calls as u64,
            (bin_total_s * 1e9) as u64,
            0,
        );
        tr.tally(
            "kernels",
            "spmv_adaptive (probe x shards x iterations)",
            calls as u64,
            (kernel_total_s * 1e9) as u64,
            0,
        );
        m.set("sparse.bin_mrows_per_s", ROWS as f64 / bin_s / 1e6);
        m.set("kernels.spmv_mnnz_per_s", nnz / kernel_s / 1e6);
        m.set("kernels.spmv_busy_share", kernel_total_s / wall_s);
        // Computed from shapes: per stored entry a column id, a value and
        // a gathered x element; per row a row pointer and a y element.
        m.set(
            "kernels.spmv_ops_per_byte",
            2.0 * nnz / (12.0 * nnz + 8.0 * ROWS as f64),
        );

        // Storage time inside the power iteration cannot be seen from
        // outside it, so it stays in the remainder `apps.self_s`.
        report_app(
            m,
            untraced_wall_s,
            &run,
            wall_s,
            bin_total_s + kernel_total_s,
            &self.baseline,
        );
        self.baseline.check(Some(eigenvalue), 1e-4)
    }
}
