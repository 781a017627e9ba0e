//! The §VI data-layout study: transform chunks between formats as they
//! migrate across memory levels.
//!
//! "One can imagine when data migrates across memory levels, chunks can be
//! transformed and stored in different formats ... For sparse-matrix
//! problems, the choice of data layouts not only depends on architectures
//! but also on inputs."
//!
//! [`spmv_with_format`] runs the out-of-core SpMV either straight over CSR
//! (gather-bound kernel) or with a per-shard **CSR→ELL transformation
//! during the downward migration**: the CPU repacks the staged arrays into
//! ELLPACK (charged like a layout-transforming `move_data`), and the leaf
//! kernel then streams perfectly regular slots at several times the
//! gather-bound bandwidth — but pays for every padding slot. Uniform-row
//! inputs win big; power-law inputs lose big. [`format_study`] quantifies
//! the crossover.

use crate::calibration::spmv_gpu_model;
use crate::host::{read_matrix, Grid};
use crate::report::AppRun;
use crate::spmv::{spmv_x, staged_spmv, with_staged_csr};
use northup::{ExecMode, NorthupError, ProcKind, Result, Runtime, TRANSFORM_BW};
use northup_kernels::{f32s_to_bytes, ProcModel};
use northup_sim::SimDur;
use northup_sparse::{partition_even_rows, Csr, CsrError, CsrView, Ell};

/// Little-endian byte image of `words`, written a word at a time into one
/// allocation (the `u32` twin of [`f32s_to_bytes`]).
fn u32s_to_bytes(words: impl ExactSizeIterator<Item = u32>) -> Vec<u8> {
    let mut out = vec![0u8; words.len() * 4];
    for (dst, w) in out.chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// Leaf layout for the out-of-core SpMV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpmvFormat {
    /// Keep CSR end to end (gather-bound kernel).
    Csr,
    /// Transform each shard to ELLPACK during the downward migration
    /// (regular-stream kernel, padding traffic).
    EllOnMigrate,
}

/// GPU model for the ELL kernel: the regular slot streams reach a few times
/// the gather-bound effective bandwidth of the CSR kernel on the APU's
/// integrated GPU (coalesced loads vs dependent gathers).
pub fn ell_gpu_model() -> ProcModel {
    ProcModel {
        name: "apu-gpu-ell".into(),
        flops: 250e9,
        mem_bw: 6e9,
        launch: SimDur::from_micros(15),
    }
}

/// Run the out-of-core SpMV (4 shards, computed at the staging level of
/// the caller's APU tree) with the chosen leaf format. In Real mode each
/// shard computes from the bytes it staged, by the `x` staged beside it:
/// a CSR shard runs CSR-Adaptive over them in place, an ELL shard the ELL
/// kernel over the ELL built from them. `y` is the run's output.
pub fn spmv_with_format(rt: &Runtime, m: &Csr, format: SpmvFormat) -> Result<AppRun> {
    if m.rows != m.cols {
        return Err(NorthupError::Invalid(format!(
            "the format study needs a square matrix, got {}x{}",
            m.rows, m.cols
        )));
    }
    let mode = rt.mode();
    let rows = m.rows as u64;
    let nnz = m.nnz() as u64;

    let root = rt.tree().root();
    // Preprocessed chunked layout: each shard's `row_ptr` words, column
    // ids and values stored contiguously, shard after shard, so each shard
    // costs (rows_i + 1) * 4 + nnz_i * 8.
    let chunks = crate::calibration::SPMV_CHUNKS as u64;
    let payload_file = rt.alloc((rows + chunks) * 4 + nnz * 8, root)?;
    let x_file = rt.alloc(rows * 4, root)?;
    let y_file = rt.alloc(rows * 4, root)?;

    let shards = partition_even_rows(m, crate::calibration::SPMV_CHUNKS);
    if mode == ExecMode::Real {
        rt.write_slice(x_file, 0, &f32s_to_bytes(&spmv_x(m.cols)))?;
        let mut off = 0;
        for s in &shards {
            let entries = s.nnz_start..s.nnz_end;
            let row_ptr = &m.row_ptr[s.row_start..=s.row_end];
            for part in [
                u32s_to_bytes(row_ptr.iter().map(|&v| v as u32)),
                u32s_to_bytes(m.col_idx[entries.clone()].iter().copied()),
                f32s_to_bytes(&m.vals[entries]),
            ] {
                rt.write_slice(payload_file, off, &part)?;
                off += part.len() as u64;
            }
        }
    }

    let stage = rt.tree().staging_level()?;
    let x_stage = rt.alloc(rows * 4, stage)?;
    rt.move_data(x_stage, 0, x_file, 0, rows * 4)?;
    // The kernels multiply by the x staged here, decoded from it once.
    let x = match mode {
        ExecMode::Real => read_matrix(rt, x_stage, 0, 1, m.cols)?.data,
        ExecMode::Modeled => Vec::new(),
    };

    let cpu = ProcKind::Cpu;
    let gpu_csr = spmv_gpu_model();
    let gpu_ell = ell_gpu_model();

    let mut payload_off = 0u64;
    for (i, s) in shards.iter().enumerate() {
        let sub = m.slice_rows(s.row_start, s.row_end);
        let csr_bytes = s.payload_bytes();
        let shard_buf = rt.alloc(csr_bytes, stage)?;
        rt.move_data(shard_buf, 0, payload_file, payload_off, csr_bytes)?;
        payload_off += csr_bytes;
        // The staged shard's three arrays, where they lie in `shard_buf`.
        let (rp, ci) = ((sub.rows as u64 + 1) * 4, sub.nnz() as u64 * 4);
        let ranges = [
            (shard_buf, 0, rp),
            (shard_buf, rp, ci),
            (shard_buf, rp + ci, ci),
        ];

        let y_s = rt.alloc((sub.rows * 4) as u64, stage)?;
        match format {
            SpmvFormat::Csr => {
                let dur = gpu_csr.spmv_time(sub.rows as u64, sub.nnz() as u64);
                rt.charge_compute(
                    stage,
                    ProcKind::Gpu,
                    dur,
                    &[shard_buf, x_stage],
                    &[y_s],
                    &format!("spmv-csr shard {i}"),
                )?;
                if mode == ExecMode::Real {
                    let mut yv = vec![0.0f32; sub.rows];
                    staged_spmv(rt, ranges, &x, &mut yv)?;
                    rt.write_slice(y_s, 0, &f32s_to_bytes(&yv))?;
                }
            }
            SpmvFormat::EllOnMigrate => {
                // The layout-transforming migration: CPU converts the staged
                // CSR arrays into a per-shard ELL buffer (cost = a permute
                // pass over input + output bytes, like move_data_transform).
                // The charges take the host shard's shape, so a Modeled
                // run books what a Real one does.
                let ell = Ell::from_csr(&sub);
                let ell_bytes = ell.storage_bytes().max(8);
                let ell_buf = rt.alloc(ell_bytes, stage)?;
                let t_dur = SimDur::from_secs_f64((csr_bytes + ell_bytes) as f64 / TRANSFORM_BW);
                rt.charge_compute(
                    stage,
                    cpu,
                    t_dur,
                    &[shard_buf],
                    &[ell_buf],
                    &format!("csr->ell shard {i}"),
                )?;
                // Leaf kernel: regular streams over every slot (padding
                // included) at the streaming-effective bandwidth.
                let traffic = ell.slots() as f64 * 12.0 + sub.rows as f64 * 8.0;
                let dur = gpu_ell.roofline(2.0 * ell.nnz() as f64, traffic);
                rt.charge_compute(
                    stage,
                    ProcKind::Gpu,
                    dur,
                    &[ell_buf, x_stage],
                    &[y_s],
                    &format!("spmv-ell shard {i}"),
                )?;
                if mode == ExecMode::Real {
                    let mut yv = vec![0.0f32; sub.rows];
                    with_staged_csr(rt, ranges, x.len(), |view| {
                        // The ELL kernel panics on a column past `x`.
                        let nnz = view.row_start(view.rows());
                        let past_x = view
                            .entries(0, nnz)
                            .enumerate()
                            .find(|(_, (_, c))| *c as usize >= x.len());
                        if let Some((at, (_, col))) = past_x {
                            return Err(CsrError::ColumnOutOfRange { at, col });
                        }
                        Ell::from_csr(view).spmv(&x, &mut yv);
                        Ok(())
                    })?;
                    rt.write_slice(y_s, 0, &f32s_to_bytes(&yv))?;
                }
                rt.release(ell_buf)?;
            }
        }
        rt.move_data(
            y_file,
            (s.row_start * 4) as u64,
            y_s,
            0,
            (sub.rows * 4) as u64,
        )?;
        rt.release(y_s)?;
        rt.release(shard_buf)?;
    }

    let name = format!("spmv-layout/{format:?}");
    AppRun::of(rt, name, y_file, Grid::row_major(m.rows, 1))
}

/// One row of the format study.
#[derive(Debug, Clone)]
pub struct FormatRow {
    /// Input label.
    pub input: String,
    /// Global padding ratio of the ELL form.
    pub padding: f64,
    /// CSR makespan.
    pub csr: SimDur,
    /// ELL-on-migrate makespan.
    pub ell: SimDur,
}

impl FormatRow {
    /// True when transforming to ELL during migration paid off.
    pub fn ell_wins(&self) -> bool {
        self.ell < self.csr
    }
}

/// Run the study over named inputs on the APU + SSD tree (Modeled mode —
/// shapes only need sizes).
pub fn format_study(inputs: &[(&str, Csr)]) -> Result<Vec<FormatRow>> {
    let run = |m: &Csr, format| {
        let storage = northup_hw::catalog::ssd_hyperx_predator();
        let rt = Runtime::new(northup::presets::apu_two_level(storage), ExecMode::Modeled)?;
        spmv_with_format(&rt, m, format)
    };
    inputs
        .iter()
        .map(|(name, m)| {
            let csr = run(m, SpmvFormat::Csr)?;
            let ell = run(m, SpmvFormat::EllOnMigrate)?;
            Ok(FormatRow {
                input: name.to_string(),
                padding: Ell::from_csr(m).padding_ratio(),
                csr: csr.makespan(),
                ell: ell.makespan(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{compare, Tolerance};
    use northup_hw::catalog;
    use northup_sparse::gen;

    fn apu(mode: ExecMode) -> Runtime {
        let tree = northup::presets::apu_two_level(catalog::ssd_hyperx_predator());
        Runtime::new(tree, mode).unwrap()
    }

    #[test]
    fn both_formats_verify() {
        let m = gen::uniform_random(400, 400, 12, 3);
        let mut oracle = vec![0.0f32; m.rows];
        m.spmv_reference(&spmv_x(m.cols), &mut oracle);
        for f in [SpmvFormat::Csr, SpmvFormat::EllOnMigrate] {
            let rt = apu(ExecMode::Real);
            let run = spmv_with_format(&rt, &m, f).unwrap();
            let grid = Grid::row_major(m.rows, 1);
            let checked = compare(
                &rt,
                run.output.unwrap(),
                grid,
                &oracle,
                Tolerance::Rel(1e-4),
            );
            assert!(checked.is_ok(), "{f:?}: {checked:?}");
        }
    }

    /// Every charge is the same in both modes, so the Modeled study reads
    /// the makespans a Real run would.
    #[test]
    fn timing_is_mode_independent() {
        let m = gen::powerlaw(300, 300, 64, 0.9, 4);
        for f in [SpmvFormat::Csr, SpmvFormat::EllOnMigrate] {
            let real = spmv_with_format(&apu(ExecMode::Real), &m, f).unwrap();
            let modeled = spmv_with_format(&apu(ExecMode::Modeled), &m, f).unwrap();
            assert_eq!(real.report.breakdown, modeled.report.breakdown, "{f:?}");
        }
    }

    #[test]
    fn ell_wins_on_uniform_rows_and_loses_on_powerlaw() {
        // The §VI claim, quantified: the right layout depends on the input.
        let rows = format_study(&[
            ("uniform", gen::uniform_random(3000, 3000, 16, 1)),
            ("powerlaw", gen::powerlaw(3000, 3000, 2048, 0.9, 2)),
        ])
        .unwrap();
        let uniform = &rows[0];
        let powerlaw = &rows[1];
        assert!(uniform.padding < 1.05);
        assert!(powerlaw.padding > 5.0);
        assert!(
            uniform.ell_wins(),
            "regular rows: ELL should win ({} vs {})",
            uniform.ell,
            uniform.csr
        );
        assert!(
            !powerlaw.ell_wins(),
            "padded rows: CSR should win ({} vs {})",
            powerlaw.ell,
            powerlaw.csr
        );
    }

    #[test]
    fn transform_cost_is_charged_to_the_cpu() {
        let m = gen::banded(1000, 4, 7);
        let run = spmv_with_format(&apu(ExecMode::Real), &m, SpmvFormat::EllOnMigrate).unwrap();
        let cpu = run.report.breakdown.get(northup_sim::Category::CpuCompute);
        assert!(cpu > SimDur::ZERO, "migration transform on the CPU");
    }
}
