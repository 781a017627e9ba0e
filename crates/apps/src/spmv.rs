//! Out-of-core CSR-Adaptive SpMV on Northup (paper §IV-C, Fig. 5).
//!
//! The CSR arrays (`row_ptr`, `col_id`, `data`) live on storage; the matrix
//! is divided in the row dimension into shards ("the matrix is divided into
//! four chunks in row-dimension to load into DRAM"). Per shard the runtime
//!
//! 1. loads the three array slices (three variable-sized file reads — the
//!    "variable buffer sizes" that give CSR-Adaptive worse I/O than
//!    HotSpot's regular blocks, §V-B),
//! 2. repacks + re-bins the rows on the CPU (the binning work the paper's
//!    breakdown charges to the CPU, §V-C),
//! 3. runs the adaptive kernels on the GPU, and
//! 4. writes the result segment of `b` back to storage.
//!
//! Steps 2 and 3 run, for real, on the bytes step 1 staged: the runtime
//! lends the shard's three arrays in one loan ([`Runtime::with_bytes`]),
//! and binning and the kernels read them in place through
//! [`CsrBytes`], rebasing `row_ptr` and decoding each entry as they load
//! it. Malformed staged bytes — a non-monotone `row_ptr`, a `row_ptr`
//! span that disagrees with the staged entries, a column past `x` — are
//! [`NorthupError::Invalid`]. The host [`Csr`] only writes the storage
//! files, each array through one reused byte band of at most 4 MiB (and
//! is the callers' oracle). Leaf results are encoded straight into the
//! leaf buffer ([`Runtime::fill`]).
//!
//! The dense vector `x` is staged once and stays resident ("one requirement
//! for SpMV is the fastest memory has to be big enough to hold the
//! vector").
//!
//! [`power_iteration_northup`] re-streams the shards every iteration
//! through one staging set it owns for the whole run, sized for the
//! largest shard; its `y` lives only in staging.

use crate::calibration::{
    model_for, spmv_dgpu_model, spmv_gpu_model, SPMV_CHUNKS, SPMV_IO_EFFICIENCY,
    SPMV_NORTHUP_BIN_FACTOR, SPMV_REPACK_BW,
};
use crate::host::{read_matrix, write_rows, Grid};
use crate::report::AppRun;
use northup::{
    BufferHandle, ChainBufs, ExecMode, NodeId, NorthupError, ProcKind, Result, Runtime, Tree,
};
use northup_kernels::{binning_time, f32s_to_bytes, put_f32s, spmv_adaptive, try_spmv_adaptive};
use northup_sim::SimDur;
use northup_sparse::{
    bin_rows, partition_even_rows, BinningParams, Csr, CsrBytes, CsrError, PaperSpmvShape,
};

/// The SpMV input: a real matrix (Real mode) or paper-scale shape
/// parameters (Modeled mode).
#[derive(Debug, Clone)]
pub enum SpmvInput {
    /// A concrete CSR matrix (Real mode).
    Matrix(Csr),
    /// Shape-only description for paper-scale modeled runs.
    Shape(PaperSpmvShape),
}

impl SpmvInput {
    /// Paper-scale input (§IV-C: 16M rows, 4 chunks).
    pub fn paper() -> Self {
        SpmvInput::Shape(PaperSpmvShape {
            rows: crate::calibration::paper::SPMV_ROWS,
            mean_nnz_per_row: crate::calibration::paper::SPMV_NNZ_PER_ROW,
            chunks: SPMV_CHUNKS,
        })
    }

    /// Rows of the matrix.
    pub fn rows(&self) -> u64 {
        match self {
            SpmvInput::Matrix(m) => m.rows as u64,
            SpmvInput::Shape(s) => s.rows,
        }
    }

    /// Stored entries.
    pub fn nnz(&self) -> u64 {
        match self {
            SpmvInput::Matrix(m) => m.nnz() as u64,
            SpmvInput::Shape(s) => s.nnz(),
        }
    }
}

/// Per-shard geometry in rows and stored entries.
#[derive(Debug, Clone, Copy)]
struct ShardGeom {
    row_start: u64,
    rows: u64,
    nnz_start: u64,
    nnz: u64,
}

impl ShardGeom {
    /// Bytes of the shard's per-level buffer set: its `row_ptr`, `col_id`
    /// and `data` slices and its `y` segment.
    fn sizes(&self) -> [u64; 4] {
        [
            (self.rows + 1) * 4,
            self.nnz * 4,
            self.nnz * 4,
            self.rows * 4,
        ]
    }
}

/// Even-row shards of a concrete matrix.
fn matrix_shards(m: &Csr) -> Vec<ShardGeom> {
    partition_even_rows(m, SPMV_CHUNKS)
        .into_iter()
        .map(|s| ShardGeom {
            row_start: s.row_start as u64,
            rows: s.rows() as u64,
            nnz_start: s.nnz_start as u64,
            nnz: s.nnz() as u64,
        })
        .collect()
}

fn shard_geometry(input: &SpmvInput) -> Vec<ShardGeom> {
    match input {
        SpmvInput::Matrix(m) => matrix_shards(m),
        SpmvInput::Shape(s) => {
            let k = s.chunks as u64;
            (0..k)
                .map(|i| {
                    let row_start = s.rows * i / k;
                    let row_end = s.rows * (i + 1) / k;
                    let nnz_start = s.nnz() * i / k;
                    let nnz_end = s.nnz() * (i + 1) / k;
                    ShardGeom {
                        row_start,
                        rows: row_end - row_start,
                        nnz_start,
                        nnz: nnz_end - nnz_start,
                    }
                })
                .collect()
        }
    }
}

/// The dense `x` every Real-mode SpMV driver multiplies by, `cols` long:
/// each entry a function of its index alone.
pub fn spmv_x(cols: usize) -> Vec<f32> {
    (0..cols).map(|i| ((i % 11) as f32 - 5.0) * 0.3).collect()
}

fn gpu_spmv_model(name: &str) -> northup_kernels::ProcModel {
    if name.starts_with("apu") {
        spmv_gpu_model()
    } else {
        spmv_dgpu_model()
    }
}

/// Preprocessing: write `m`'s arrays into the `[row_ptr, col_id, data]`
/// storage files (uncharged, like the paper's one-time reorganization),
/// each through [`write_rows`]'s one reused band as a one-column matrix.
/// A `u32` word passes through it as the `f32` of the same bits.
fn write_csr(rt: &Runtime, files: [BufferHandle; 3], m: &Csr) -> Result<()> {
    write_rows(rt, files[0], m.rows + 1, 1, |r, _| {
        f32::from_bits(m.row_ptr[r] as u32)
    })?;
    write_rows(rt, files[1], m.nnz(), 1, |i, _| {
        f32::from_bits(m.col_idx[i])
    })?;
    write_rows(rt, files[2], m.nnz(), 1, |i, _| m.vals[i])
}

/// Allocate a `[row_ptr, col_id, data, y]` buffer set of `sizes` at
/// `stage` (Listing 3's `setup_buffer`). The caller releases the handles.
fn alloc_set(rt: &Runtime, stage: NodeId, sizes: [u64; 4]) -> Result<[BufferHandle; 4]> {
    Ok([
        rt.alloc(sizes[0], stage)?,
        rt.alloc(sizes[1], stage)?,
        rt.alloc(sizes[2], stage)?,
        rt.alloc(sizes[3], stage)?,
    ])
}

/// Read shard `g`'s three arrays from the storage `files` into the first
/// three buffers of `bufs`, each from offset 0: three variable-sized
/// reads.
fn read_shard(
    rt: &Runtime,
    bufs: &[BufferHandle; 4],
    files: [BufferHandle; 3],
    g: &ShardGeom,
) -> Result<()> {
    let [rp, ci, va, _] = g.sizes();
    rt.move_data(bufs[0], 0, files[0], g.row_start * 4, rp)?;
    rt.move_data(bufs[1], 0, files[1], g.nnz_start * 4, ci)?;
    rt.move_data(bufs[2], 0, files[2], g.nnz_start * 4, va)?;
    Ok(())
}

/// Run `kernel` on a staged shard read where it lies: its `row_ptr`,
/// `col_id` and `data` (`ranges`) are lent in one loan and viewed as a
/// `cols`-column [`CsrBytes`]. A malformed shard is
/// [`NorthupError::Invalid`].
pub(crate) fn with_staged_csr(
    rt: &Runtime,
    ranges: [(BufferHandle, u64, u64); 3],
    cols: usize,
    mut kernel: impl FnMut(&CsrBytes<'_>) -> std::result::Result<(), CsrError>,
) -> Result<()> {
    let mut out = Ok(());
    rt.with_bytes(&ranges, |parts| {
        out = match *parts {
            [row_ptr, col_id, data] => {
                CsrBytes::new(cols, row_ptr, col_id, data).and_then(|view| kernel(&view))
            }
            _ => Err(CsrError::BadRowPtr),
        };
    })?;
    out.map_err(|e| NorthupError::Invalid(format!("staged CSR shard: {e}")))
}

/// Bin and run CSR-Adaptive on a staged shard (`ranges`, as for
/// [`with_staged_csr`]): `y = A x` for the shard's rows.
pub(crate) fn staged_spmv(
    rt: &Runtime,
    ranges: [(BufferHandle, u64, u64); 3],
    x: &[f32],
    y: &mut [f32],
) -> Result<()> {
    with_staged_csr(rt, ranges, x.len(), |view| {
        try_spmv_adaptive(view, &bin_rows(view, BinningParams::default()), x, y)
    })
}

/// In-memory CSR-Adaptive baseline: matrix resident in DRAM, one binning
/// pass on the CPU, adaptive kernels on the GPU.
pub fn spmv_in_memory(input: &SpmvInput, mode: ExecMode) -> Result<AppRun> {
    let tree = northup::presets::in_memory();
    let rt = Runtime::new(tree, mode)?;
    let root = rt.root_ctx();
    let rows = input.rows();
    let nnz = input.nnz();
    let payload = (rows + 1) * 4 + nnz * 8;
    let mat = root.alloc(payload)?;
    let x = root.alloc(rows * 4)?;
    let y = root.alloc(rows * 4)?;

    let cpu = rt.proc_at(root.node(), ProcKind::Cpu)?;
    let gpu = rt.proc_at(root.node(), ProcKind::Gpu)?;
    model_for(&cpu.name)?; // CPU model resolvable (binning_time is global)

    root.compute(ProcKind::Cpu, binning_time(rows), &[mat], &[mat], "binning")?;
    let dur = gpu_spmv_model(&gpu.name).spmv_time(rows, nnz);
    root.compute(ProcKind::Gpu, dur, &[mat, x], &[y], "csr-adaptive")?;

    let mut checksum = None;
    if let (ExecMode::Real, SpmvInput::Matrix(m)) = (mode, input) {
        let blocks = bin_rows(m, BinningParams::default());
        let mut yv = vec![0.0f32; m.rows];
        spmv_adaptive(m, &blocks, &spmv_x(m.cols), &mut yv);
        rt.write_slice(y, 0, &f32s_to_bytes(&yv))?;
        checksum = Some(yv.iter().map(|&v| v as f64).sum());
    }

    Ok(AppRun {
        name: "spmv/in-memory".into(),
        report: rt.report(),
        checksum,
        output: None,
    })
}

/// Out-of-core Northup CSR-Adaptive over a chain topology.
pub fn spmv_northup(input: &SpmvInput, tree: Tree, mode: ExecMode) -> Result<AppRun> {
    let rt = Runtime::new(tree, mode)?;
    spmv_northup_on(&rt, input)
}

/// Like [`spmv_northup`], on a caller-provided runtime.
pub fn spmv_northup_on(rt: &Runtime, input: &SpmvInput) -> Result<AppRun> {
    let mode = rt.mode();
    let rows = input.rows();
    let nnz = input.nnz();
    let geoms = shard_geometry(input);

    let root = rt.tree().root();
    // Storage layout: row_ptr | col_id | data | x | y as separate regions.
    let csr_files = [
        rt.alloc((rows + 1) * 4, root)?,
        rt.alloc(nnz * 4, root)?,
        rt.alloc(nnz * 4, root)?,
    ];
    let x_file = rt.alloc(rows * 4, root)?;
    let y_file = rt.alloc(rows * 4, root)?;

    // Preprocessing: write the real matrix (Real mode only).
    if let (ExecMode::Real, SpmvInput::Matrix(m)) = (mode, input) {
        write_csr(rt, csr_files, m)?;
        rt.write_slice(x_file, 0, &f32s_to_bytes(&spmv_x(m.cols)))?;
    }

    let stage_node = rt.tree().staging_level()?;
    // The x vector stays resident at the staging level, and (deeper chain
    // for discrete-GPU trees) moves on to the leaf once.
    let x_stage = rt.alloc(rows * 4, stage_node)?;
    rt.move_data(x_stage, 0, x_file, 0, rows * 4)?;
    let x_deep = ChainBufs::new(rt, stage_node, &[rows * 4])?;
    let x_leaf = x_deep.push_down(&[x_stage], &[(0, rows * 4)])?[0];
    let leaf_node = x_deep.leaf();
    // The kernels multiply by the x the leaf holds, decoded from it once.
    let x = match (mode, input) {
        (ExecMode::Real, SpmvInput::Matrix(m)) => read_matrix(rt, x_leaf, 0, 1, m.cols)?.data,
        _ => Vec::new(),
    };
    let cpu_node = stage_node; // CPU is at the staging DRAM in both presets
    let gpu_model = gpu_spmv_model(&rt.proc_at(leaf_node, ProcKind::Gpu)?.name);

    // Unlike matmul/hotspot, shards are NOT prefetched ahead of the current
    // shard's processing: a sub-shard's extent is data-dependent ("the
    // portion of data constituting a sub-shard is determined with
    // row_ptr[start] and row_ptr[end]", §IV-C), so the runtime cannot size
    // and issue the next shard's variable-length reads until the current
    // pass has examined row_ptr. This is exactly why CSR-Adaptive gets
    // less I/O overlap than HotSpot's regular blocks in the paper (§V-B).
    for (ci_idx, g) in geoms.iter().enumerate() {
        let staged = alloc_set(rt, stage_node, g.sizes())?;
        read_shard(rt, &staged, csr_files, g)?;
        let [rp_s, ci_s, va_s, y_s] = staged;
        let [rp, ci, va, y] = g.sizes();

        // CPU: repack (rebase offsets) + per-shard re-binning.
        let repack = SimDur::from_secs_f64((rp + ci + va) as f64 / SPMV_REPACK_BW);
        rt.charge_compute(
            cpu_node,
            ProcKind::Cpu,
            repack,
            &[rp_s, ci_s, va_s],
            &[rp_s, ci_s, va_s],
            &format!("repack shard {ci_idx}"),
        )?;
        let bin = binning_time(g.rows) * SPMV_NORTHUP_BIN_FACTOR;
        rt.charge_compute(
            cpu_node,
            ProcKind::Cpu,
            bin,
            &[rp_s],
            &[rp_s],
            &format!("bin shard {ci_idx}"),
        )?;

        // Move shard down the deeper chain (device transfers on 3-level).
        let deep = ChainBufs::new(rt, stage_node, &[rp, ci, va, y])?;
        let leaf = deep.push_down(&staged, &[(0, rp), (1, ci), (2, va)])?;

        // GPU: adaptive kernels over the shard.
        let dur = gpu_model.spmv_time(g.rows, g.nnz);
        rt.charge_compute(
            leaf_node,
            ProcKind::Gpu,
            dur,
            &[leaf[0], leaf[1], leaf[2], x_leaf],
            &[leaf[3]],
            &format!("spmv shard {ci_idx}"),
        )?;

        // Real kernel execution, on the bytes the GPU charge reads.
        if let (ExecMode::Real, SpmvInput::Matrix(_)) = (mode, input) {
            let mut yv = vec![0.0f32; g.rows as usize];
            let ranges = [(leaf[0], 0, rp), (leaf[1], 0, ci), (leaf[2], 0, va)];
            staged_spmv(rt, ranges, &x, &mut yv)?;
            rt.fill(leaf[3], 0, y, |out| put_f32s(out, &yv))?;
        }

        // Result segment back up the chain and out to storage.
        if let Some(top) = deep.pull_up(3, y)? {
            rt.move_data(y_s, 0, top, 0, y)?;
        }
        rt.move_data(y_file, g.row_start * 4, y_s, 0, y)?;

        deep.release()?;
        for h in staged {
            rt.release(h)?;
        }
    }

    let grid = Grid::row_major(rows as usize, 1);
    AppRun::of(rt, "spmv/northup", y_file, grid)
}

/// Power iteration on an out-of-core matrix: repeated `y = A x` passes with
/// host-side normalization between them (the dominant-eigenvalue workload
/// that motivates out-of-core SpMV — each iteration re-streams the matrix,
/// §VI's low-reuse case). Returns the dominant eigenvalue estimate and the
/// run. Real mode only (needs the actual matrix).
///
/// The run stages into memory it owns: one `[row_ptr, col_id, data, y]`
/// set sized for the largest shard, allocated once and released after
/// the last iteration. Every shard is read into it from offset 0 and lent
/// at its own lengths only, so no byte a larger shard left behind reaches
/// the kernel. `y` lives only in staging: each shard's kernel result goes
/// through one reused host vector into the staged `y` segment and on to
/// `y_stage`, and `x·y` and `‖y‖²` fold shard by shard in row order.
/// Normalization reads `y_stage` in one loan into the host's `x` and
/// encodes that into `x_stage` in place. The kernels multiply by the
/// host's `x`: it is the staged vector's source, not a shortcut past it.
///
/// Reusing one set serialises a shard's reads behind the previous
/// shard's kernel, as CSR gets no prefetch anyway (see
/// [`spmv_northup_on`]).
pub fn power_iteration_northup(
    m: &Csr,
    iterations: usize,
    tree: northup::Tree,
) -> Result<(f64, AppRun)> {
    if m.rows != m.cols {
        return Err(NorthupError::Invalid(format!(
            "power iteration needs a square matrix, got {}x{}",
            m.rows, m.cols
        )));
    }
    let rt = Runtime::new(tree, ExecMode::Real)?;
    let rows = m.rows as u64;
    let geoms = matrix_shards(m);

    let root = rt.tree().root();
    let csr_files = [
        rt.alloc((rows + 1) * 4, root)?,
        rt.alloc(m.nnz() as u64 * 4, root)?,
        rt.alloc(m.nnz() as u64 * 4, root)?,
    ];
    write_csr(&rt, csr_files, m)?;

    let stage_node = rt.tree().staging_level()?;
    let cpu_node = stage_node;
    // Power iteration computes at the staging level itself (an APU leaf).
    let gpu_model = gpu_spmv_model(&rt.proc_at(stage_node, ProcKind::Gpu)?.name);

    // The one staging set: each buffer as large as the largest shard's.
    let largest = geoms.iter().fold([0u64; 4], |set, g| {
        let sizes = g.sizes();
        std::array::from_fn(|k| set[k].max(sizes[k]))
    });
    let staged = alloc_set(&rt, stage_node, largest)?;
    let [rp_s, ci_s, va_s, y_s] = staged;
    let mut y = vec![0.0f32; (largest[3] / 4) as usize];

    // x stays resident at the staging level across iterations; y is
    // produced there and becomes the next x after normalization.
    let x_stage = rt.alloc(rows * 4, stage_node)?;
    let y_stage = rt.alloc(rows * 4, stage_node)?;
    let mut x_host = vec![1.0f32 / (m.rows as f32).sqrt(); m.rows];
    rt.fill(x_stage, 0, rows * 4, |out| put_f32s(out, &x_host))?;

    let mut eigenvalue = 0.0f64;
    for it in 0..iterations {
        // `x·y` and `‖y‖²`, one accumulator each, folded in row order from
        // `-0.0` (where `Sum` starts): a whole-vector sum's bits.
        let (mut dot, mut norm_sq) = (-0.0f64, -0.0f64);
        for (idx, g) in geoms.iter().enumerate() {
            read_shard(&rt, &staged, csr_files, g)?;
            let bin = binning_time(g.rows);
            rt.charge_compute(cpu_node, ProcKind::Cpu, bin, &[rp_s], &[rp_s], "bin")?;
            let dur = gpu_model.spmv_time(g.rows, g.nnz);
            rt.charge_compute(
                stage_node,
                ProcKind::Gpu,
                dur,
                &[rp_s, ci_s, va_s, x_stage],
                &[y_s],
                &format!("spmv it{it} shard{idx}"),
            )?;
            let [rp, ci, va, yb] = g.sizes();
            let yv = &mut y[..g.rows as usize];
            let ranges = [(rp_s, 0, rp), (ci_s, 0, ci), (va_s, 0, va)];
            staged_spmv(&rt, ranges, &x_host, yv)?;
            rt.fill(y_s, 0, yb, |out| put_f32s(out, yv))?;
            rt.move_data(y_stage, g.row_start * 4, y_s, 0, yb)?;
            let xv = &x_host[g.row_start as usize..][..yv.len()];
            for (&a, &b) in xv.iter().zip(yv.iter()) {
                dot += a as f64 * b as f64;
                norm_sq += (b as f64).powi(2);
            }
        }
        // Rayleigh quotient and normalization on the CPU.
        eigenvalue = dot;
        let norm = norm_sq.sqrt().max(1e-30);
        let norm_dur = SimDur::from_secs_f64(rows as f64 * 4.0 / SPMV_REPACK_BW);
        rt.charge_compute(
            cpu_node,
            ProcKind::Cpu,
            norm_dur,
            &[y_stage],
            &[x_stage],
            "normalize",
        )?;
        rt.with_bytes(&[(y_stage, 0, rows * 4)], |parts| {
            let [ys] = parts else { return };
            for (x, w) in x_host.iter_mut().zip(ys.chunks_exact(4)) {
                let y = f32::from_le_bytes([w[0], w[1], w[2], w[3]]);
                *x = (y as f64 / norm) as f32;
            }
        })?;
        rt.fill(x_stage, 0, rows * 4, |out| put_f32s(out, &x_host))?;
    }
    for h in staged {
        rt.release(h)?;
    }

    Ok((
        eigenvalue,
        AppRun {
            name: "spmv/power-iteration".into(),
            report: rt.report(),
            checksum: Some(eigenvalue),
            output: None,
        },
    ))
}

/// Degrade a storage device to CSR-Adaptive's effective bandwidth (see
/// [`SPMV_IO_EFFICIENCY`]).
pub fn spmv_storage(storage: northup_hw::DeviceSpec) -> northup_hw::DeviceSpec {
    storage.scaled_bandwidth(SPMV_IO_EFFICIENCY)
}

/// Run the Northup SpMV over the 2-level APU preset. The storage spec is
/// degraded by [`SPMV_IO_EFFICIENCY`] to model the variable-buffer I/O.
pub fn spmv_apu(
    input: &SpmvInput,
    storage: northup_hw::DeviceSpec,
    mode: ExecMode,
) -> Result<AppRun> {
    spmv_northup(
        input,
        northup::presets::apu_two_level(spmv_storage(storage)),
        mode,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{compare, Tolerance};
    use northup_hw::catalog;
    use northup_kernels::rel_error;
    use northup_sparse::gen;

    fn small_matrix() -> Csr {
        gen::powerlaw(600, 600, 128, 0.9, 42)
    }

    /// `m x` by the reference SpMV.
    fn oracle(m: &Csr) -> Vec<f32> {
        let mut y = vec![0.0f32; m.rows];
        m.spmv_reference(&spmv_x(m.cols), &mut y);
        y
    }

    /// Run `m` out of core on a Real runtime over `tree` and hold its `y`
    /// to the reference SpMV, to within 1e-4 relative.
    fn assert_matches_reference(tree: Tree, m: Csr) {
        let rt = Runtime::new(tree, ExecMode::Real).unwrap();
        let want = oracle(&m);
        let run = spmv_northup_on(&rt, &SpmvInput::Matrix(m)).unwrap();
        let grid = Grid::row_major(want.len(), 1);
        compare(&rt, run.output.unwrap(), grid, &want, Tolerance::Rel(1e-4)).unwrap();
    }

    #[test]
    fn northup_small_matches_reference() {
        let storage = spmv_storage(catalog::ssd_hyperx_predator());
        let tree = northup::presets::apu_two_level(storage);
        assert_matches_reference(tree, small_matrix());
    }

    #[test]
    fn northup_three_level_matches_reference() {
        let tree = northup::presets::discrete_gpu_three_level(catalog::hdd_wd5000());
        assert_matches_reference(tree, gen::banded(500, 3, 7));
    }

    /// The baseline's `y` is CSR-Adaptive's: that is within 1e-4 of the
    /// reference, and the baseline's checksum is its sum, bit for bit.
    #[test]
    fn in_memory_baseline_verifies() {
        let m = small_matrix();
        let mut y = vec![0.0f32; m.rows];
        spmv_adaptive(
            &m,
            &bin_rows(&m, BinningParams::default()),
            &spmv_x(m.cols),
            &mut y,
        );
        assert!(rel_error(&oracle(&m), &y) < 1e-4);
        let run = spmv_in_memory(&SpmvInput::Matrix(m), ExecMode::Real).unwrap();
        let sum: f64 = y.iter().map(|&v| v as f64).sum();
        assert_eq!(run.checksum.unwrap().to_bits(), sum.to_bits());
    }

    #[test]
    fn small_run_checksums_are_pinned_bit_for_bit() {
        // Captured before CSR-Adaptive went allocation-free: sharding cuts
        // between rows, never inside one, so the out-of-core run shares the
        // in-memory checksum, and a kernel rewrite must not move a bit.
        const CHECKSUM_BITS: u64 = 0x4045_dbc3_571e_0000;
        let input = SpmvInput::Matrix(small_matrix());
        for run in [
            spmv_apu(&input, catalog::ssd_hyperx_predator(), ExecMode::Real).unwrap(),
            spmv_in_memory(&input, ExecMode::Real).unwrap(),
        ] {
            let bits = run.checksum.unwrap().to_bits();
            assert_eq!(bits, CHECKSUM_BITS, "{}: {bits:#018x}", run.name);
        }
    }

    #[test]
    fn paper_scale_slowdowns_have_the_right_ordering() {
        let input = SpmvInput::paper();
        let base = spmv_in_memory(&input, ExecMode::Modeled).unwrap();
        let ssd = spmv_apu(&input, catalog::ssd_hyperx_predator(), ExecMode::Modeled).unwrap();
        let hdd = spmv_apu(&input, catalog::hdd_wd5000(), ExecMode::Modeled).unwrap();
        let s_ssd = ssd.slowdown_vs(&base);
        let s_hdd = hdd.slowdown_vs(&base);
        assert!(s_ssd > 1.3, "spmv pays overheads on ssd: {s_ssd}");
        assert!(s_hdd > s_ssd, "disk worse than ssd");
    }

    #[test]
    fn power_iteration_finds_the_dominant_eigenvalue() {
        // A diagonally dominant symmetric matrix: diag(i+1) on 64x64 plus a
        // weak band; dominant eigenvalue is close to the largest diagonal.
        let n = 64usize;
        let mut triplets: Vec<(usize, u32, f32)> = Vec::new();
        for i in 0..n {
            triplets.push((i, i as u32, (i + 1) as f32));
            if i + 1 < n {
                triplets.push((i, (i + 1) as u32, 0.1));
                triplets.push((i + 1, i as u32, 0.1));
            }
        }
        let m = Csr::from_coo(n, n, triplets);
        let tree = northup::presets::apu_two_level(catalog::ssd_hyperx_predator());
        let (lambda, run) = power_iteration_northup(&m, 60, tree).unwrap();
        assert!(
            (lambda - 64.0).abs() < 0.5,
            "dominant eigenvalue ~64, got {lambda}"
        );
        // Sixty iterations feed every rounding of the kernel back into x:
        // the estimate is pinned to the bits captured before its rewrite.
        assert_eq!(lambda.to_bits(), 0x404f_edaa_ae0a_09ae, "{lambda}");
        // Each iteration re-streams the matrix: I/O grows with iterations.
        let io = run
            .report
            .io
            .iter()
            .find(|(name, _)| name == "hyperx-predator")
            .map(|(_, t)| t.read_ops)
            .unwrap();
        assert!(io >= 60 * 4 * 3, "re-streamed every iteration: {io} ops");
    }

    /// One staging set serves every shard, so a shard that lent more than
    /// its own lengths would hand the kernel the tail a larger shard left
    /// behind. Here the largest shard comes second, with over 4x the
    /// first's entries and over 2x those of each shard after it; the
    /// estimate is pinned to the bits captured when every shard had
    /// buffers of its own.
    #[test]
    fn power_iteration_over_uneven_shards_is_pinned_bit_for_bit() {
        let m = gen::powerlaw(400, 400, 256, 1.1, 9);
        let nnz: Vec<usize> = partition_even_rows(&m, SPMV_CHUNKS)
            .iter()
            .map(|s| s.nnz())
            .collect();
        assert_eq!(nnz, [169, 747, 244, 337]);
        let tree = northup::presets::apu_two_level(catalog::ssd_hyperx_predator());
        let (lambda, _) = power_iteration_northup(&m, 12, tree).unwrap();
        assert_eq!(lambda.to_bits(), 0x3fe0_c5e1_1fe4_a404, "{lambda}");
    }

    /// `staged_spmv` over a shard staged from raw `row_ptr` words,
    /// `(column, value)` entries and a 4-column `x`.
    fn spmv_staged_words(row_ptr: &[u32], entries: &[(u32, f32)]) -> Result<Vec<f32>> {
        let rt = Runtime::new(
            northup::presets::apu_two_level(catalog::ssd_hyperx_predator()),
            ExecMode::Real,
        )?;
        let stage = rt.tree().staging_level()?;
        let images = [
            row_ptr
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect::<Vec<u8>>(),
            entries.iter().flat_map(|e| e.0.to_le_bytes()).collect(),
            entries.iter().flat_map(|e| e.1.to_le_bytes()).collect(),
        ];
        let staged = |image: &Vec<u8>| -> Result<BufferHandle> {
            let h = rt.alloc(image.len() as u64, stage)?;
            rt.write_slice(h, 0, image)?;
            Ok(h)
        };
        let bufs = [
            staged(&images[0])?,
            staged(&images[1])?,
            staged(&images[2])?,
        ];
        let ranges = std::array::from_fn(|k| (bufs[k], 0, images[k].len() as u64));
        let mut y = vec![f32::NAN; row_ptr.len().saturating_sub(1)];
        staged_spmv(&rt, ranges, &[1.0, 2.0, 3.0, 4.0], &mut y)?;
        Ok(y)
    }

    #[test]
    fn a_staged_shard_is_read_with_its_row_ptr_rebased() {
        let entries = [(0, 1.0), (3, 1.0), (1, 0.5), (2, 2.0)];
        assert_eq!(
            spmv_staged_words(&[7, 9, 9, 11], &entries).unwrap(),
            [5.0, 0.0, 7.0]
        );
    }

    #[test]
    fn a_non_monotone_staged_row_ptr_is_invalid() {
        let entries = [(0, 1.0), (3, 1.0), (1, 0.5), (2, 2.0)];
        assert!(matches!(
            spmv_staged_words(&[7, 10, 9, 11], &entries),
            Err(NorthupError::Invalid(why)) if why.contains("decreases at row 1")
        ));
    }

    #[test]
    fn a_staged_row_ptr_span_unlike_the_staged_entries_is_invalid() {
        let entries = [(0, 1.0), (3, 1.0), (1, 0.5)];
        assert!(matches!(
            spmv_staged_words(&[7, 9, 9, 11], &entries),
            Err(NorthupError::Invalid(why)) if why.contains("length mismatch")
        ));
    }

    #[test]
    fn a_staged_column_past_x_is_invalid() {
        let entries = [(0, 1.0), (3, 1.0), (4, 0.5), (2, 2.0)];
        assert!(matches!(
            spmv_staged_words(&[7, 9, 9, 11], &entries),
            Err(NorthupError::Invalid(why)) if why.contains("column 4 out of range at offset 2")
        ));
    }

    #[test]
    fn x_vector_stays_resident() {
        // Only one read of the x region regardless of chunk count.
        let input = SpmvInput::Matrix(small_matrix());
        let run = spmv_apu(&input, catalog::ssd_hyperx_predator(), ExecMode::Real).unwrap();
        let ssd_io = run
            .report
            .io
            .iter()
            .find(|(n, _)| n == "hyperx-predator")
            .map(|(_, t)| *t)
            .unwrap();
        // 3 reads per shard x 4 shards + 1 x read = 13 read ops.
        assert_eq!(ssd_io.read_ops, 13, "{ssd_io:?}");
        assert_eq!(ssd_io.write_ops, 4, "one y segment write per shard");
    }
}
