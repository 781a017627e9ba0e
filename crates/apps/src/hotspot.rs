//! Out-of-core HotSpot-2D thermal simulation on Northup (paper §IV-B, Fig. 4).
//!
//! The grid lives on storage; each pass processes `block x block` tiles.
//! A tile is loaded *with its borders* — the paper packs the non-contiguous
//! east/west borders into compact vectors; we generalize the border width to
//! the temporal-blocking depth `steps_per_pass` and move the whole halo
//! rectangle with a strided transfer (one charged op; one read per row).
//! The leaf kernel advances `steps_per_pass` time steps per load (trapezoid
//! temporal blocking, exact — see `northup_kernels::stencil`) straight from
//! the staged bytes the runtime lends: each of the kernel's row bands
//! decodes its own window of the tile once, and no host copy of the tile
//! is made first. Then the core region is written back to the output file
//! row by row; the file backend holds rows shorter than a page, so a row
//! of tiles lands as one contiguous band. Input and output files
//! ping-pong across passes. The inputs are written a band at a time, each
//! cell encoded straight into one reused byte buffer on the pool.

use crate::calibration::{model_for, HOTSPOT_STEPS_PER_PASS};
use crate::host::{write_rows, Grid};
use crate::report::AppRun;
use northup::{
    BufferHandle, ChainBufs, ChunkPipeline, ExecMode, NorthupError, ProcKind, Result, Runtime, Tree,
};
use northup_kernels::{
    f32s_to_bytes, multi_step_reference, put_f32s, step_halo_bytes, DenseMatrix, HotSpotParams,
    ProcModel,
};
use std::ops::Range;

/// Configuration of one HotSpot scenario.
#[derive(Debug, Clone)]
pub struct HotspotConfig {
    /// Grid dimension (square).
    pub n: usize,
    /// DRAM blocking (the paper's 8k x 8k).
    pub block: usize,
    /// Time steps advanced per out-of-core pass (= halo width).
    pub steps_per_pass: usize,
    /// Number of out-of-core passes.
    pub passes: usize,
    /// Staging ring depth.
    pub ring: usize,
    /// Input seed.
    pub seed: u64,
}

impl HotspotConfig {
    /// Paper-scale 16k grid, 8k blocking (§IV-B / §V-A).
    pub fn paper() -> Self {
        HotspotConfig {
            n: crate::calibration::paper::HOTSPOT_N,
            block: crate::calibration::paper::HOTSPOT_BLOCK,
            steps_per_pass: HOTSPOT_STEPS_PER_PASS,
            passes: 1,
            ring: 2,
            seed: 3,
        }
    }

    /// Laptop-scale grid for Real-mode verification.
    pub fn small() -> Self {
        HotspotConfig {
            n: 48,
            block: 16,
            steps_per_pass: 3,
            passes: 2,
            ring: 2,
            seed: 3,
        }
    }

    /// Total simulated time steps.
    pub fn total_steps(&self) -> usize {
        self.steps_per_pass * self.passes
    }

    fn tiles(&self) -> Result<usize> {
        if self.block == 0 || !self.n.is_multiple_of(self.block) {
            return Err(NorthupError::Invalid(format!(
                "block {} must divide n {}",
                self.block, self.n
            )));
        }
        Ok(self.n / self.block)
    }

    /// Rows `rows` of the initial temperature grid. A cell is a function
    /// of its indices and the seed alone, so a band is generated on its
    /// own, with the bits it has in the whole grid.
    pub fn temperature(&self, rows: Range<usize>) -> DenseMatrix {
        DenseMatrix::from_fn(rows.len(), self.n, |r, c| {
            self.temperature_at(rows.start + r, c)
        })
    }

    /// Rows `rows` of the power grid (a function of the indices alone).
    pub fn power(&self, rows: Range<usize>) -> DenseMatrix {
        DenseMatrix::from_fn(rows.len(), self.n, |r, c| power_at(rows.start + r, c))
    }

    /// Cell `(r, c)` of the initial temperature grid.
    fn temperature_at(&self, r: usize, c: usize) -> f32 {
        80.0 + ((r.wrapping_mul(31) ^ c.wrapping_mul(17) ^ self.seed as usize) % 23) as f32
    }

    /// Write the temperature grid into `temp` and the power grid into
    /// `power`, a band of rows at a time, one file after the other.
    fn write_inputs(&self, rt: &Runtime, temp: BufferHandle, power: BufferHandle) -> Result<()> {
        write_rows(rt, temp, self.n, self.n, |r, c| self.temperature_at(r, c))?;
        write_rows(rt, power, self.n, self.n, power_at)
    }
}

/// Cell `(r, c)` of the power grid.
fn power_at(r: usize, c: usize) -> f32 {
    ((r + c) % 5) as f32 * 0.2
}

/// In-memory baseline: grid resident, one GPU timeline for all steps.
pub fn hotspot_in_memory(cfg: &HotspotConfig, mode: ExecMode) -> Result<AppRun> {
    let tree = northup::presets::in_memory();
    let rt = Runtime::new(tree, mode)?;
    let root = rt.root_ctx();
    let n2 = (cfg.n * cfg.n) as u64;
    let temp = root.alloc(n2 * 4)?;
    let power = root.alloc(n2 * 4)?;
    let out = root.alloc(n2 * 4)?;

    let gpu = rt.proc_at(root.node(), ProcKind::Gpu)?;
    let dur = model_for(&gpu.name)?.stencil_time(n2, cfg.total_steps() as u64);
    root.compute(ProcKind::Gpu, dur, &[temp, power], &[out], "hotspot full")?;

    let mut checksum = None;
    if mode == ExecMode::Real {
        let (tm, pm) = (cfg.temperature(0..cfg.n), cfg.power(0..cfg.n));
        rt.write_slice(temp, 0, &f32s_to_bytes(&tm.data))?;
        rt.write_slice(power, 0, &f32s_to_bytes(&pm.data))?;
        let prm = HotSpotParams::default();
        let result = multi_step_reference(&tm, &pm, cfg.total_steps(), &prm);
        rt.write_slice(out, 0, &f32s_to_bytes(&result.data))?;
        checksum = Some(result.checksum());
    }

    Ok(AppRun {
        name: "hotspot/in-memory".into(),
        report: rt.report(),
        checksum,
        output: None,
    })
}

/// Out-of-core Northup HotSpot over a chain topology.
pub fn hotspot_northup(cfg: &HotspotConfig, tree: Tree, mode: ExecMode) -> Result<AppRun> {
    let rt = Runtime::new(tree, mode)?;
    hotspot_northup_on(&rt, cfg)
}

/// Like [`hotspot_northup`], on a caller-provided runtime.
pub fn hotspot_northup_on(rt: &Runtime, cfg: &HotspotConfig) -> Result<AppRun> {
    let mode = rt.mode();
    let n = cfg.n;
    let halo = cfg.steps_per_pass;
    let tiles = cfg.tiles()?;
    let row_bytes = (n * 4) as u64;

    let root = rt.tree().root();
    let n2b = (n * n * 4) as u64;
    // Ping-pong temperature files + the power file.
    // analyze:allow(lease-discipline): by contract the grids and the staging ring stay allocated on the caller's runtime (it inspects the trace afterwards) and go when the caller drops it; one run per runtime
    let t_files = [rt.alloc(n2b, root)?, rt.alloc(n2b, root)?];
    let p_file = rt.alloc(n2b, root)?;
    if mode == ExecMode::Real {
        cfg.write_inputs(rt, t_files[0], p_file)?;
    }

    let stage_node = rt.tree().staging_level()?;
    let max_region = ((cfg.block + 2 * halo) * (cfg.block + 2 * halo) * 4) as u64;
    let core_bytes = (cfg.block * cfg.block * 4) as u64;
    // One ring slot = (temperature region, power region, output core).
    let sizes = [max_region, max_region, core_bytes];
    let pipe = ChunkPipeline::new(rt, stage_node, cfg.ring, &sizes)?;
    // Deeper chain for discrete-GPU / exascale trees: the halo region moves
    // on to the leaf and the core result comes back through the staging
    // level (one buffer set per level; the PCIe link pipelines fine).
    let deep = ChainBufs::new(rt, stage_node, &sizes)?;
    let leaf_node = deep.leaf();
    let gpu_model = model_for(&rt.proc_at(leaf_node, ProcKind::Gpu)?.name)?;

    // Geometry of one tile's clipped halo rectangle.
    let geom = |bi: usize, bj: usize| {
        let (r0, c0) = (bi * cfg.block, bj * cfg.block);
        let north = halo.min(r0);
        let west = halo.min(c0);
        let south = halo.min(n - (r0 + cfg.block));
        let east = halo.min(n - (c0 + cfg.block));
        let rr0 = r0 - north;
        let cc0 = c0 - west;
        let hh = cfg.block + north + south;
        let ww = cfg.block + west + east;
        ((r0, c0), [north, south, west, east], (rr0, cc0), (hh, ww))
    };

    let tile_ids: Vec<usize> = (0..tiles * tiles).collect();
    for pass in 0..cfg.passes {
        let input = t_files[pass % 2];
        let output = t_files[(pass + 1) % 2];
        // One pipeline run per pass: the next pass reads this pass's output
        // file, so prefetch must not cross the pass boundary.
        pipe.run(
            &tile_ids,
            |&t, bufs| {
                let (_, _, (rr0, cc0), (hh, ww)) = geom(t / tiles, t % tiles);
                let region_row = (ww * 4) as u64;
                let src_off = (rr0 * n + cc0) as u64 * 4;
                for (dst, file) in [(bufs[0], input), (bufs[1], p_file)] {
                    rt.move_data_strided(
                        dst, 0, region_row, file, src_off, row_bytes, region_row, hh as u64,
                    )?;
                }
                Ok(())
            },
            |&t, bufs| {
                let (bi, bj) = (t / tiles, t % tiles);
                let ((r0, c0), [north, south, west, east], _, (hh, ww)) = geom(bi, bj);

                // Push the region down the deeper chain (if any).
                let region_bytes = (hh * ww * 4) as u64;
                let leaf = deep.push_down(bufs, &[(0, region_bytes), (1, region_bytes)])?;

                // Leaf kernel: steps_per_pass trapezoid steps.
                let dur = gpu_model.stencil_time((hh * ww) as u64, cfg.steps_per_pass as u64);
                rt.charge_compute(
                    leaf_node,
                    ProcKind::Gpu,
                    dur,
                    &[leaf[0], leaf[1]],
                    &[leaf[2]],
                    &format!("hotspot tile ({bi},{bj}) pass {pass}"),
                )?;

                if mode == ExecMode::Real {
                    let halo = [north, south, west, east];
                    let core_size = (cfg.block, cfg.block);
                    let ranges = [(leaf[0], 0, region_bytes), (leaf[1], 0, region_bytes)];
                    let core = step_staged(rt, ranges, halo, core_size, cfg.steps_per_pass)?;
                    rt.fill(leaf[2], 0, core.bytes(), |out| put_f32s(out, &core.data))?;
                }

                // Pull the core back up the chain into the staging buffer.
                if let Some(top) = deep.pull_up(2, core_bytes)? {
                    rt.move_data(bufs[2], 0, top, 0, core_bytes)?;
                }

                // Write the core back to the output file.
                let dst_off = (r0 * n + c0) as u64 * 4;
                rt.move_data_strided(
                    output,
                    dst_off,
                    row_bytes,
                    bufs[2],
                    0,
                    (cfg.block * 4) as u64,
                    (cfg.block * 4) as u64,
                    cfg.block as u64,
                )?;
                Ok(())
            },
        )?;
    }

    let result = t_files[cfg.passes % 2];
    AppRun::of(rt, "hotspot/northup", result, Grid::row_major(n, n))
}

/// Advance a staged halo block `steps` time steps straight from the bytes
/// the runtime lends: `ranges` are its temperature and power regions, one
/// node, `halo` and `core_size` its shape. Returns the core.
fn step_staged(
    rt: &Runtime,
    ranges: [(BufferHandle, u64, u64); 2],
    halo: [usize; 4],
    core_size: (usize, usize),
    steps: usize,
) -> Result<DenseMatrix> {
    let prm = HotSpotParams::default();
    let mut core = None;
    rt.with_bytes(&ranges, |parts| {
        if let [temp, power] = parts {
            core = Some(step_halo_bytes(temp, power, halo, core_size, steps, &prm));
        }
    })?;
    core.ok_or_else(|| NorthupError::Invalid("a staged halo block was not lent".into()))
}

/// Fraction of each chunk's rows to place on the GPU when splitting a leaf
/// across both APU devices (§III-E: "work can be spread across devices in a
/// data-parallel fashion"). The optimum equals the GPU's share of combined
/// throughput.
pub fn optimal_gpu_fraction() -> f64 {
    let gpu = ProcModel::apu_gpu();
    let cpu = ProcModel::apu_cpu();
    // Memory-bound stencil: throughput ~ mem_bw.
    gpu.mem_bw / (gpu.mem_bw + cpu.mem_bw)
}

/// Out-of-core HotSpot with each chunk's rows split between the APU's GPU
/// and CPU (`gpu_fraction` of the rows to the GPU), on a caller's runtime
/// over an APU tree. Both devices compute concurrently in virtual time
/// (separate processor resources); Real mode executes both halves. Every
/// buffer but the result goes back to `rt` once the report is taken.
pub fn hotspot_split_leaf(rt: &Runtime, cfg: &HotspotConfig, gpu_fraction: f64) -> Result<AppRun> {
    if !(0.0..=1.0).contains(&gpu_fraction) {
        return Err(NorthupError::Invalid(format!(
            "gpu_fraction {gpu_fraction} must lie in [0, 1]"
        )));
    }
    let bands = cfg.tiles()?;
    let mode = rt.mode();
    let n = cfg.n;
    let halo = cfg.steps_per_pass;

    let root = rt.tree().root();
    let n2b = (n * n * 4) as u64;
    let t_files = [rt.alloc(n2b, root)?, rt.alloc(n2b, root)?];
    let p_file = rt.alloc(n2b, root)?;
    if mode == ExecMode::Real {
        cfg.write_inputs(rt, t_files[0], p_file)?;
    }

    let stage_node = rt.tree().staging_level()?;
    let gpu_model = ProcModel::apu_gpu();
    let cpu_model = ProcModel::apu_cpu();

    // One chunk = a horizontal band of the grid (simplest split geometry);
    // the band is loaded with its halo, then its rows are divided between
    // the devices, each computing a trapezoid over its own sub-band (the
    // split line behaves like an internal halo boundary, so each side needs
    // `halo` extra rows from the other — both read the same staged block).
    let gpu_rows = ((cfg.block as f64 * gpu_fraction).round() as usize).min(cfg.block);
    let cpu_rows = cfg.block - gpu_rows;
    let max_region = ((cfg.block + 2 * halo) * n * 4) as u64;
    let in_stage = [
        rt.alloc(max_region, stage_node)?,
        rt.alloc(max_region, stage_node)?,
    ];
    let pw_stage = [
        rt.alloc(max_region, stage_node)?,
        rt.alloc(max_region, stage_node)?,
    ];
    // Each device writes its own half of the band: sharing one output
    // buffer would serialize the devices on a write-after-write hazard.
    let alloc_out = |rows: usize| rt.alloc((rows.max(1) * n * 4) as u64, stage_node);
    let out_gpu = [alloc_out(gpu_rows)?, alloc_out(gpu_rows)?];
    let out_cpu = [alloc_out(cpu_rows)?, alloc_out(cpu_rows)?];

    for pass in 0..cfg.passes {
        let input = t_files[pass % 2];
        let output = t_files[(pass + 1) % 2];
        for b in 0..bands {
            let r = b % 2;
            let r0 = b * cfg.block;
            let north = halo.min(r0);
            let south = halo.min(n - (r0 + cfg.block));
            let rr0 = r0 - north;
            let hh = cfg.block + north + south;
            let region = (hh * n * 4) as u64;
            rt.move_data(in_stage[r], 0, input, (rr0 * n * 4) as u64, region)?;
            rt.move_data(pw_stage[r], 0, p_file, (rr0 * n * 4) as u64, region)?;

            // Device split: top `gpu_rows` of the band to the GPU, rest
            // CPU, concurrently (separate output buffers, shared inputs).
            let cells = |rows: usize| (rows * n) as u64;
            if gpu_rows > 0 {
                let dur =
                    gpu_model.stencil_time(cells(gpu_rows + 2 * halo), cfg.steps_per_pass as u64);
                rt.charge_compute(
                    stage_node,
                    ProcKind::Gpu,
                    dur,
                    &[in_stage[r], pw_stage[r]],
                    &[out_gpu[r]],
                    &format!("band {b} gpu part"),
                )?;
            }
            if cpu_rows > 0 {
                let dur =
                    cpu_model.stencil_time(cells(cpu_rows + 2 * halo), cfg.steps_per_pass as u64);
                rt.charge_compute(
                    stage_node,
                    ProcKind::Cpu,
                    dur,
                    &[in_stage[r], pw_stage[r]],
                    &[out_cpu[r]],
                    &format!("band {b} cpu part"),
                )?;
            }

            if mode == ExecMode::Real {
                // Real compute: both device halves produced from the same
                // staged halo block via the exact trapezoid kernel.
                for (dev_r0, dev_rows, buf) in [
                    (0usize, gpu_rows, out_gpu[r]),
                    (gpu_rows, cpu_rows, out_cpu[r]),
                ] {
                    if dev_rows == 0 {
                        continue;
                    }
                    // Sub-band with its own clipped halo inside the staged block.
                    let abs0 = r0 + dev_r0; // global first row of this part
                    let top = halo.min(abs0);
                    let bot = halo.min(n - (abs0 + dev_rows));
                    let at = (((abs0 - top) - rr0) * n * 4) as u64;
                    let len = ((dev_rows + top + bot) * n * 4) as u64;
                    let ranges = [(in_stage[r], at, len), (pw_stage[r], at, len)];
                    let halo = [top, bot, 0, 0];
                    let core = step_staged(rt, ranges, halo, (dev_rows, n), cfg.steps_per_pass)?;
                    rt.fill(buf, 0, core.bytes(), |out| put_f32s(out, &core.data))?;
                }
            }

            if gpu_rows > 0 {
                rt.move_data(
                    output,
                    (r0 * n * 4) as u64,
                    out_gpu[r],
                    0,
                    (gpu_rows * n * 4) as u64,
                )?;
            }
            if cpu_rows > 0 {
                rt.move_data(
                    output,
                    ((r0 + gpu_rows) * n * 4) as u64,
                    out_cpu[r],
                    0,
                    (cpu_rows * n * 4) as u64,
                )?;
            }
        }
    }

    let result = t_files[cfg.passes % 2];
    let name = format!("hotspot/split-{gpu_fraction:.2}");
    let run = AppRun::of(rt, name, result, Grid::row_major(n, n))?;
    let scratch = [t_files[(cfg.passes + 1) % 2], p_file];
    for h in scratch.into_iter().chain(in_stage).chain(pw_stage) {
        rt.release(h)?;
    }
    for h in out_gpu.into_iter().chain(out_cpu) {
        rt.release(h)?;
    }
    Ok(run)
}

/// Run the Northup HotSpot over the 2-level APU preset.
pub fn hotspot_apu(
    cfg: &HotspotConfig,
    storage: northup_hw::DeviceSpec,
    mode: ExecMode,
) -> Result<AppRun> {
    hotspot_northup(cfg, northup::presets::apu_two_level(storage), mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{compare, Tolerance};
    use northup_hw::{catalog, DeviceSpec};

    /// A Real runtime over the APU tree on `storage`.
    fn apu(storage: DeviceSpec) -> Runtime {
        Runtime::new(northup::presets::apu_two_level(storage), ExecMode::Real).unwrap()
    }

    /// Hold a Real run's final grid to `total_steps` of the in-memory
    /// reference, to within 1e-3 per cell.
    fn assert_matches_reference(rt: &Runtime, cfg: &HotspotConfig, run: &AppRun) {
        let (temp, power) = (cfg.temperature(0..cfg.n), cfg.power(0..cfg.n));
        let prm = HotSpotParams::default();
        let oracle = multi_step_reference(&temp, &power, cfg.total_steps(), &prm);
        let grid = Grid::row_major(cfg.n, cfg.n);
        let output = run.output.expect("a Real run names its result");
        compare(rt, output, grid, &oracle.data, Tolerance::Abs(1e-3)).unwrap();
    }

    #[test]
    fn northup_small_matches_reference() {
        let cfg = HotspotConfig::small();
        let rt = apu(catalog::ssd_hyperx_predator());
        let run = hotspot_northup_on(&rt, &cfg).unwrap();
        assert_matches_reference(&rt, &cfg, &run);
    }

    #[test]
    fn multiple_passes_stay_exact() {
        let cfg = HotspotConfig {
            passes: 3,
            ..HotspotConfig::small()
        };
        let rt = apu(catalog::hdd_wd5000());
        let run = hotspot_northup_on(&rt, &cfg).unwrap();
        assert_matches_reference(&rt, &cfg, &run);
    }

    #[test]
    fn input_bands_are_the_whole_grids_rows() {
        let cfg = HotspotConfig::small();
        let (temp, power) = (cfg.temperature(0..cfg.n), cfg.power(0..cfg.n));
        for (r0, h) in [(0, 1), (5, 17), (47, 1)] {
            let rows = r0..r0 + h;
            assert_eq!(
                cfg.temperature(rows.clone()),
                temp.extract_block(r0, 0, h, cfg.n)
            );
            assert_eq!(cfg.power(rows), power.extract_block(r0, 0, h, cfg.n));
        }
        // The files the input writer lands are the whole grids' bytes: on
        // the 48² grid (one band) and on a 1100² grid, whose 4 400 B rows
        // fill one 4 MiB band and part of a second.
        for n in [48, 1100] {
            let cfg = HotspotConfig {
                n,
                ..HotspotConfig::small()
            };
            let rt = apu(catalog::ssd_hyperx_predator());
            let bytes = (n * n * 4) as u64;
            let root = rt.tree().root();
            let (t, p) = (
                rt.alloc(bytes, root).unwrap(),
                rt.alloc(bytes, root).unwrap(),
            );
            cfg.write_inputs(&rt, t, p).unwrap();
            for (h, want) in [(t, cfg.temperature(0..n)), (p, cfg.power(0..n))] {
                let mut got = vec![0u8; bytes as usize];
                rt.read_slice(h, 0, &mut got).unwrap();
                assert!(got == f32s_to_bytes(&want.data), "{n}²");
            }
        }
    }

    #[test]
    fn single_tile_grid_works() {
        let cfg = HotspotConfig {
            n: 16,
            block: 16,
            steps_per_pass: 5,
            passes: 2,
            ring: 2,
            seed: 1,
        };
        let rt = apu(catalog::ssd_hyperx_predator());
        let run = hotspot_northup_on(&rt, &cfg).unwrap();
        assert_matches_reference(&rt, &cfg, &run);
    }

    /// A block that does not divide n, or a GPU share outside [0, 1], is a
    /// typed error, refused before anything is allocated.
    #[test]
    fn hostile_blocking_on_a_caller_runtime_is_an_error() {
        let cfg = HotspotConfig {
            n: 48,
            block: 20,
            ..HotspotConfig::small()
        };
        let rt = apu(catalog::ssd_hyperx_predator());
        let run = hotspot_northup_on(&rt, &cfg);
        assert!(matches!(run, Err(NorthupError::Invalid(_))), "{run:?}");
        let run = hotspot_split_leaf(&rt, &cfg, 0.5);
        assert!(matches!(run, Err(NorthupError::Invalid(_))), "{run:?}");
        let run = hotspot_split_leaf(&rt, &HotspotConfig::small(), 1.5);
        assert!(matches!(run, Err(NorthupError::Invalid(_))), "{run:?}");
    }

    #[test]
    fn northup_three_level_matches_reference() {
        let cfg = HotspotConfig::small();
        let tree = northup::presets::discrete_gpu_three_level(catalog::hdd_wd5000());
        let rt = Runtime::new(tree, ExecMode::Real).unwrap();
        let run = hotspot_northup_on(&rt, &cfg).unwrap();
        assert_matches_reference(&rt, &cfg, &run);
    }

    #[test]
    fn northup_checksum_matches_in_memory() {
        let cfg = HotspotConfig::small();
        let a = hotspot_in_memory(&cfg, ExecMode::Real).unwrap();
        let b = hotspot_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Real).unwrap();
        let (ca, cb) = (a.checksum.unwrap(), b.checksum.unwrap());
        assert!((ca - cb).abs() <= 1e-5 * ca.abs(), "{ca} vs {cb}");
    }

    #[test]
    fn small_run_checksums_are_pinned_bit_for_bit() {
        // Captured before the stencil went row-wise: temporal blocking is
        // exact, so every decomposition of the small grid shares the
        // in-memory checksum, and a kernel rewrite must not move a bit.
        const CHECKSUM_BITS: u64 = 0x4108_c7db_3170_0000;
        let cfg = HotspotConfig::small();
        let ssd = catalog::ssd_hyperx_predator;
        let three = northup::presets::discrete_gpu_three_level(catalog::hdd_wd5000());
        let mut runs = vec![
            hotspot_apu(&cfg, ssd(), ExecMode::Real).unwrap(),
            hotspot_northup(&cfg, three, ExecMode::Real).unwrap(),
            hotspot_in_memory(&cfg, ExecMode::Real).unwrap(),
        ];
        for f in [0.0, 0.3, 0.7, 1.0] {
            runs.push(hotspot_split_leaf(&apu(ssd()), &cfg, f).unwrap());
        }
        for run in runs {
            let bits = run.checksum.unwrap().to_bits();
            assert_eq!(bits, CHECKSUM_BITS, "{}: {bits:#018x}", run.name);
        }
    }

    /// Core rows shorter than a page reach the file as whole bands: on a
    /// 256² grid in 64-blocks (256 B rows), each pass's 1 024 row writes
    /// land as one write syscall, so the run makes the two input writes
    /// and one per pass. Counted from the OS's per-thread tally, where it
    /// keeps one.
    #[test]
    fn sub_page_core_rows_land_as_one_write_per_pass() {
        const CHECKSUM_BITS: u64 = 0x4155_d4bd_e685_8000;
        let syscw = || {
            let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
            let line = io.lines().find_map(|l| l.strip_prefix("syscw:"))?;
            line.trim().parse::<u64>().ok()
        };
        let cfg = HotspotConfig {
            n: 256,
            block: 64,
            steps_per_pass: 4,
            passes: 2,
            ring: 2,
            seed: 1,
        };
        let tree = northup::presets::apu_two_level(catalog::ssd_hyperx_predator());
        let rt = Runtime::new(tree, ExecMode::Real).unwrap();
        let before = syscw();
        let run = hotspot_northup_on(&rt, &cfg).unwrap();
        let after = syscw();
        assert_matches_reference(&rt, &cfg, &run);
        let bits = run.checksum.unwrap().to_bits();
        assert_eq!(bits, CHECKSUM_BITS, "{bits:#018x}");
        if let (Some(before), Some(after)) = (before, after) {
            assert_eq!(after - before, 2 + cfg.passes as u64);
        }
    }

    #[test]
    fn paper_scale_slowdown_bands() {
        let cfg = HotspotConfig::paper();
        let base = hotspot_in_memory(&cfg, ExecMode::Modeled).unwrap();
        let ssd = hotspot_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Modeled).unwrap();
        let hdd = hotspot_apu(&cfg, catalog::hdd_wd5000(), ExecMode::Modeled).unwrap();
        let s_ssd = ssd.slowdown_vs(&base);
        let s_hdd = hdd.slowdown_vs(&base);
        // Paper: ~1.3x on SSD, 2-2.5x on disk.
        assert!((1.0..1.8).contains(&s_ssd), "hotspot ssd {s_ssd}");
        assert!((1.6..3.2).contains(&s_hdd), "hotspot hdd {s_hdd}");
        assert!(s_hdd > s_ssd);
    }

    #[test]
    fn split_leaf_is_exact_for_any_fraction() {
        let cfg = HotspotConfig {
            n: 48,
            block: 16,
            steps_per_pass: 3,
            passes: 2,
            ring: 2,
            seed: 3,
        };
        for f in [0.0, 0.3, 0.7, 1.0] {
            let rt = apu(catalog::ssd_hyperx_predator());
            let run = hotspot_split_leaf(&rt, &cfg, f).unwrap();
            assert_matches_reference(&rt, &cfg, &run);
        }
    }

    #[test]
    fn optimal_split_beats_gpu_only() {
        // SIII-E: spreading work across both APU devices beats GPU-only.
        // 4k bands keep the double-buffered full-width regions within the
        // 2 GB staging budget.
        let cfg = HotspotConfig {
            block: 4 * 1024,
            ..HotspotConfig::paper()
        };
        let f = optimal_gpu_fraction();
        assert!((0.5..1.0).contains(&f), "GPU does most of the work: {f}");
        let modeled = || {
            let tree = northup::presets::apu_two_level(catalog::ssd_hyperx_predator());
            Runtime::new(tree, ExecMode::Modeled).unwrap()
        };
        let gpu_only = hotspot_split_leaf(&modeled(), &cfg, 1.0).unwrap();
        let split = hotspot_split_leaf(&modeled(), &cfg, f).unwrap();
        let speedup = gpu_only.makespan().as_secs_f64() / split.makespan().as_secs_f64();
        assert!(
            speedup > 1.05,
            "split at {f:.2} should beat gpu-only: {speedup:.3}"
        );
        // And a terrible split (mostly CPU) is worse than gpu-only.
        let bad = hotspot_split_leaf(&modeled(), &cfg, 0.1).unwrap();
        assert!(bad.makespan() > gpu_only.makespan());
    }

    #[test]
    fn timing_is_mode_independent() {
        let cfg = HotspotConfig::small();
        let real = hotspot_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Real).unwrap();
        let modeled = hotspot_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Modeled).unwrap();
        assert_eq!(real.makespan(), modeled.makespan());
    }
}
