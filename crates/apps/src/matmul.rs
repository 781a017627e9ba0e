//! Out-of-core dense matrix multiply on Northup (paper §IV-A, Fig. 3).
//!
//! `C = A x B`, all `n x n` f32. The root storage holds the matrices in the
//! preprocessed chunked layout the paper describes ("a one-time overhead of
//! preprocessing the original file and reorganizing it ... for chunking"):
//! `A` row-major (row shards contiguous), `B` column-shard-major, `C`
//! block-major.
//!
//! Each root-level step loads a row shard of `A` and a column shard of `B`
//! into the staging DRAM and computes one `block x block` result tile. The
//! paper's reuse optimization is applied: "row shard m ... can stay in the
//! l+1 level and the program just iteratively loads column shards". Column
//! shards and result tiles use a ring of staging buffers, so loads pipeline
//! behind compute (§III-C multi-stage queues). Below the DRAM level (a
//! discrete-GPU or exascale chain) whole shards move level to level with
//! the same A-reuse.

use crate::calibration::{model_for, GEMM_RING};
use crate::host::{read_matrix, Grid};
use crate::report::AppRun;
use northup::{
    BufferHandle, ChainBufs, ChunkPipeline, ExecMode, NorthupError, ProcKind, Result, Runtime, Tree,
};
use northup_kernels::{f32s_to_bytes, matmul_tiled, put_f32s, DenseMatrix, LEAF_TILE};

/// Configuration of one matmul scenario.
#[derive(Debug, Clone)]
pub struct MatmulConfig {
    /// Matrix dimension (square).
    pub n: usize,
    /// DRAM blocking (the paper's 4k x 4k).
    pub block: usize,
    /// Staging ring depth for B shards / C tiles.
    pub ring: usize,
    /// RNG seed for input data (Real mode).
    pub seed: u64,
}

impl MatmulConfig {
    /// Paper-scale 16k x 16k input with 4k blocking (§V-A).
    pub fn paper() -> Self {
        MatmulConfig {
            n: crate::calibration::paper::GEMM_N,
            block: crate::calibration::paper::GEMM_BLOCK,
            ring: GEMM_RING,
            seed: 1,
        }
    }

    /// Plan the blocking automatically from the tree's capacities
    /// (paper §III-B: "by examining the capacity and usage, a program can
    /// decide the blocking size"). On the paper's APU tree at 16k this
    /// reproduces the hand-tuned 4k x 4k blocking.
    pub fn auto(tree: &Tree, n: usize, seed: u64) -> Result<Self> {
        if !n.is_power_of_two() {
            return Err(NorthupError::Invalid(format!(
                "auto planning expects a power-of-two n, got {n}"
            )));
        }
        let ring = GEMM_RING;
        let plan = northup::plan_blocks(
            tree,
            &northup::pow2_candidates(16, n),
            northup::DEFAULT_HEADROOM,
            staging_footprint(n, ring),
        )?;
        Ok(MatmulConfig {
            n,
            block: plan.staging_block().min(n),
            ring,
            seed,
        })
    }

    /// Laptop-scale input for Real-mode verification.
    pub fn small() -> Self {
        MatmulConfig {
            n: 64,
            block: 16,
            ring: 2,
            seed: 7,
        }
    }

    fn nb(&self) -> Result<usize> {
        if self.block == 0 || !self.n.is_multiple_of(self.block) {
            return Err(NorthupError::Invalid(format!(
                "block {} must divide n {}",
                self.block, self.n
            )));
        }
        Ok(self.n / self.block)
    }

    fn elem_bytes(&self) -> u64 {
        4
    }
}

/// The in-memory baseline: the whole working set resident in DRAM, one GPU
/// kernel (the paper's baseline "assumes all the data is already loaded
/// into memory").
pub fn matmul_in_memory(cfg: &MatmulConfig, mode: ExecMode) -> Result<AppRun> {
    let tree = northup::presets::in_memory();
    let rt = Runtime::new(tree, mode)?;
    let root = rt.root_ctx();
    let n = cfg.n as u64;
    let bytes = n * n * cfg.elem_bytes();
    let a = root.alloc(bytes)?;
    let b = root.alloc(bytes)?;
    let c = root.alloc(bytes)?;

    let gpu = rt.proc_at(root.node(), ProcKind::Gpu)?;
    let dur = model_for(&gpu.name)?.gemm_time(n, n, n);
    root.compute(ProcKind::Gpu, dur, &[a, b], &[c], "gemm full")?;

    let mut checksum = None;
    if mode == ExecMode::Real {
        let am = DenseMatrix::random(cfg.n, cfg.n, cfg.seed);
        let bm = DenseMatrix::random(cfg.n, cfg.n, cfg.seed + 1);
        rt.write_slice(a, 0, &f32s_to_bytes(&am.data))?;
        rt.write_slice(b, 0, &f32s_to_bytes(&bm.data))?;
        let mut cm = DenseMatrix::zeros(cfg.n, cfg.n);
        matmul_tiled(&am, &bm, &mut cm, LEAF_TILE);
        rt.write_slice(c, 0, &f32s_to_bytes(&cm.data))?;
        checksum = Some(cm.checksum());
    }

    Ok(AppRun {
        name: "matmul/in-memory".into(),
        report: rt.report(),
        checksum,
        output: None,
    })
}

/// Per-level staging working set of the schedule in this module, as a
/// footprint function for the §III-B auto-planner: the resident A row
/// shard (double-buffered for prefetch) plus `ring` (B shard, C tile)
/// pairs at the staging level; one (A, B, C) shard set at deeper levels.
pub fn staging_footprint(n: usize, ring: usize) -> impl Fn(usize, usize) -> u64 {
    move |level, b| {
        let (b, n, ring) = (b as u64, n as u64, ring as u64);
        if level == 0 {
            2 * b * n * 4 + ring * (n * b + b * b) * 4
        } else {
            (b * n + n * b + b * b) * 4
        }
    }
}

/// Preprocessing (uncharged, as in the paper): `A` (of `seed`) row-major,
/// one `block x n` row shard after the other, then `B` (of `seed + 1`)
/// column-shard-major, one `n x block` column shard after the other. Each
/// shard is generated on its own ([`DenseMatrix::random_block`]), so the
/// files hold [`DenseMatrix::random`]'s bits and no whole matrix is ever in
/// memory.
pub(crate) fn write_inputs(
    rt: &Runtime,
    seed: u64,
    (n, block): (usize, usize),
    a_file: BufferHandle,
    b_file: BufferHandle,
) -> Result<()> {
    let shard = (block * n * 4) as u64;
    for i in 0..n / block {
        let a = DenseMatrix::random_block(seed, i * block, 0, block, n);
        rt.write_slice(a_file, i as u64 * shard, &f32s_to_bytes(&a.data))?;
    }
    for j in 0..n / block {
        let b = DenseMatrix::random_block(seed + 1, 0, j * block, n, block);
        rt.write_slice(b_file, j as u64 * shard, &f32s_to_bytes(&b.data))?;
    }
    Ok(())
}

/// One `(block x n) x (n x block)` tile on the GPU at the bottom of `deep`:
/// the `staged = [A, B, C]` shards go down the chain (A only when `a_new` —
/// the §IV-A reuse keeps a row shard resident at every level), the leaf
/// kernel runs, and the C tile climbs back to the level just below the
/// staging node (`None` when the staged C buffer is the leaf's own).
pub(crate) fn gemm_tile(
    rt: &Runtime,
    deep: &ChainBufs,
    staged: &[BufferHandle; 3],
    a_new: bool,
    (block, n): (usize, usize),
    label: &str,
) -> Result<Option<BufferHandle>> {
    let shard = (block * n * 4) as u64;
    let moves = [(0, shard), (1, shard)];
    let leaf = deep.push_down(staged, &moves[usize::from(!a_new)..])?;

    let gpu = rt.proc_at(deep.leaf(), ProcKind::Gpu)?;
    let dur = model_for(&gpu.name)?.gemm_time(block as u64, block as u64, n as u64);
    rt.charge_compute(
        deep.leaf(),
        ProcKind::Gpu,
        dur,
        &[leaf[0], leaf[1]],
        &[leaf[2]],
        label,
    )?;

    // Real kernel execution on the leaf's bytes.
    if rt.is_real() {
        let am = read_matrix(rt, leaf[0], 0, block, n)?;
        let bm = read_matrix(rt, leaf[1], 0, n, block)?;
        let mut cm = DenseMatrix::zeros(block, block);
        matmul_tiled(&am, &bm, &mut cm, LEAF_TILE);
        rt.fill(leaf[2], 0, cm.bytes(), |out| put_f32s(out, &cm.data))?;
    }
    deep.pull_up(2, (block * block * 4) as u64)
}

/// Out-of-core Northup matmul over a chain topology (storage root ->
/// staging DRAM [-> device memory ...] -> GPU leaf).
pub fn matmul_northup(cfg: &MatmulConfig, tree: Tree, mode: ExecMode) -> Result<AppRun> {
    let rt = Runtime::new(tree, mode)?;
    matmul_northup_on(&rt, cfg)
}

/// Like [`matmul_northup`], on a caller-provided runtime (so callers can
/// enable DAG tracing or inspect the runtime afterwards).
pub fn matmul_northup_on(rt: &Runtime, cfg: &MatmulConfig) -> Result<AppRun> {
    let es = cfg.elem_bytes();
    let n = cfg.n as u64;
    let block = cfg.block as u64;
    let nb = cfg.nb()? as u64;
    let shard_a = block * n * es; // row shard: block x n
    let shard_b = n * block * es; // col shard: n x block (row-major k x block)
    let tile_c = block * block * es;

    let root_ctx = rt.root_ctx();
    let root = root_ctx.node();
    let file_bytes = n * n * es;
    // analyze:allow(lease-discipline): by contract the matrices and the staging ring stay allocated on the caller's runtime (it inspects the DAG and trace afterwards) and go when the caller drops it; one run per runtime
    let a_file = rt.alloc(file_bytes, root)?;
    let b_file = rt.alloc(file_bytes, root)?;
    let c_file = rt.alloc(file_bytes, root)?;

    if rt.is_real() {
        write_inputs(rt, cfg.seed, (cfg.n, cfg.block), a_file, b_file)?;
    }

    // Staging level (first child of the root): the A row shard is double-
    // buffered for prefetch, B shards and C tiles ride the pipeline's ring.
    let stage_node = rt.tree().staging_level()?;
    let a_ring = [
        rt.alloc(shard_a, stage_node)?,
        rt.alloc(shard_a, stage_node)?,
    ];
    let pipe = ChunkPipeline::new(rt, stage_node, cfg.ring, &[shard_b, tile_c])?;
    // Deeper chain (discrete GPU / exascale): whole-shard staging per level.
    let deep = ChainBufs::new(rt, stage_node, &[shard_a, shard_b, tile_c])?;

    // Tiles in row-shard-major order through the pipeline.
    let stage_ctx = rt.ctx_at(stage_node);
    let tiles: Vec<u64> = (0..nb * nb).collect();
    pipe.run(
        &tiles,
        |&t, bufs| {
            let (i, j) = (t / nb, t % nb);
            if j == 0 {
                // New row shard of A — the §IV-A reuse optimization keeps it
                // staged for the whole row of tiles.
                root_ctx.spawn(0, |_| {}); // work-queue bookkeeping
                rt.move_data(a_ring[(i % 2) as usize], 0, a_file, i * shard_a, shard_a)?;
            }
            rt.move_data(bufs[0], 0, b_file, j * shard_b, shard_b)?;
            Ok(())
        },
        |&t, bufs| {
            let (i, j) = (t / nb, t % nb);
            let staged = [a_ring[(i % 2) as usize], bufs[0], bufs[1]];
            let label = format!("gemm tile ({i},{j})");
            let dims = (cfg.block, cfg.n);
            // The result tile comes back up the chain, then out to storage.
            if let Some(top) = gemm_tile(rt, &deep, &staged, j == 0, dims, &label)? {
                rt.move_data(bufs[1], 0, top, 0, tile_c)?;
            }
            stage_ctx.move_up(c_file, (i * nb + j) * tile_c, bufs[1], 0, tile_c)?;
            Ok(())
        },
    )?;

    let grid = Grid::block_major(cfg.n, cfg.block);
    AppRun::of(rt, "matmul/northup", c_file, grid)
}

/// Run the Northup matmul over the 2-level APU preset with a given storage.
pub fn matmul_apu(
    cfg: &MatmulConfig,
    storage: northup_hw::DeviceSpec,
    mode: ExecMode,
) -> Result<AppRun> {
    matmul_northup(cfg, northup::presets::apu_two_level(storage), mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{compare, Tolerance};
    use northup_hw::catalog;
    use northup_kernels::matmul_naive;

    /// Hold a Real run's C to the naive `A x B`, to within `1e-3 * n`.
    fn assert_matches_naive(rt: &Runtime, cfg: &MatmulConfig, run: &AppRun) {
        let a = DenseMatrix::random(cfg.n, cfg.n, cfg.seed);
        let b = DenseMatrix::random(cfg.n, cfg.n, cfg.seed + 1);
        let mut oracle = DenseMatrix::zeros(cfg.n, cfg.n);
        matmul_naive(&a, &b, &mut oracle);
        let grid = Grid::block_major(cfg.n, cfg.block);
        let tol = Tolerance::Abs(1e-3 * cfg.n as f32);
        let output = run.output.expect("a Real run names its result");
        compare(rt, output, grid, &oracle.data, tol).unwrap();
    }

    #[test]
    fn northup_small_matches_reference_on_apu() {
        let cfg = MatmulConfig::small();
        let tree = northup::presets::apu_two_level(catalog::ssd_hyperx_predator());
        let rt = Runtime::new(tree, ExecMode::Real).unwrap();
        let run = matmul_northup_on(&rt, &cfg).unwrap();
        assert_matches_naive(&rt, &cfg, &run);
    }

    #[test]
    fn northup_small_matches_reference_on_three_levels() {
        let cfg = MatmulConfig::small();
        let tree = northup::presets::discrete_gpu_three_level(catalog::hdd_wd5000());
        let rt = Runtime::new(tree, ExecMode::Real).unwrap();
        let run = matmul_northup_on(&rt, &cfg).unwrap();
        assert_matches_naive(&rt, &cfg, &run);
    }

    #[test]
    fn northup_matches_in_memory_checksum() {
        let cfg = MatmulConfig::small();
        let a = matmul_in_memory(&cfg, ExecMode::Real).unwrap();
        let b = matmul_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Real).unwrap();
        let (ca, cb) = (a.checksum.unwrap(), b.checksum.unwrap());
        assert!(
            (ca - cb).abs() <= 1e-6 * ca.abs().max(1.0),
            "checksums {ca} vs {cb}"
        );
    }

    #[test]
    fn small_run_checksums_are_pinned_bit_for_bit() {
        // Captured before the leaf kernel became the packed micro-kernel:
        // the Northup schedule and the in-memory baseline feed every C
        // element its products in ascending k, so they share one checksum,
        // and a kernel rewrite must not move a bit of it.
        const CHECKSUM_BITS: u64 = 0x4021_06bb_1160_0000;
        let cfg = MatmulConfig::small();
        let tree = || northup::presets::apu_two_level(catalog::ssd_hyperx_predator());
        for run in [
            matmul_northup(&cfg, tree(), ExecMode::Real).unwrap(),
            matmul_in_memory(&cfg, ExecMode::Real).unwrap(),
        ] {
            let bits = run.checksum.unwrap().to_bits();
            assert_eq!(bits, CHECKSUM_BITS, "{}: {bits:#018x}", run.name);
        }
    }

    #[test]
    fn paper_scale_modeled_runs_without_real_memory() {
        let cfg = MatmulConfig::paper();
        let base = matmul_in_memory(&cfg, ExecMode::Modeled).unwrap();
        let ssd = matmul_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Modeled).unwrap();
        let slowdown = ssd.slowdown_vs(&base);
        // Compute-bound GEMM hides its I/O: a few percent at most (paper: 5%).
        assert!(
            (1.0..1.25).contains(&slowdown),
            "gemm ssd slowdown {slowdown}"
        );
    }

    #[test]
    fn disk_is_slower_than_ssd_but_still_mostly_hidden() {
        let cfg = MatmulConfig::paper();
        let base = matmul_in_memory(&cfg, ExecMode::Modeled).unwrap();
        let ssd = matmul_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Modeled).unwrap();
        let hdd = matmul_apu(&cfg, catalog::hdd_wd5000(), ExecMode::Modeled).unwrap();
        let s_ssd = ssd.slowdown_vs(&base);
        let s_hdd = hdd.slowdown_vs(&base);
        assert!(s_hdd > s_ssd);
        assert!(s_hdd < 2.0, "matmul disk overhead mostly hidden: {s_hdd}");
    }

    #[test]
    fn modeled_and_real_have_identical_timing() {
        // The virtual timeline must not depend on whether bytes moved.
        let cfg = MatmulConfig::small();
        let real = matmul_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Real).unwrap();
        let modeled = matmul_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Modeled).unwrap();
        assert_eq!(real.makespan(), modeled.makespan());
    }

    #[test]
    fn auto_blocking_reproduces_the_paper_choice() {
        let tree = northup::presets::apu_two_level(catalog::ssd_hyperx_predator());
        let cfg = MatmulConfig::auto(&tree, 16 * 1024, 1).unwrap();
        assert_eq!(cfg.block, 4 * 1024, "the paper's manual 4k blocking");
        // And at a small scale the planned config runs and verifies.
        let cfg = MatmulConfig::auto(&tree, 64, 1).unwrap();
        let rt = Runtime::new(tree, ExecMode::Real).unwrap();
        let run = matmul_northup_on(&rt, &cfg).unwrap();
        assert_matches_naive(&rt, &cfg, &run);
    }

    #[test]
    fn indivisible_block_is_rejected() {
        let cfg = MatmulConfig {
            n: 100,
            block: 48,
            ring: 2,
            seed: 0,
        };
        let run = matmul_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Real);
        assert!(matches!(run, Err(NorthupError::Invalid(_))), "{run:?}");
    }

    /// A block that does not divide n, and a non-power-of-two n for the
    /// planner, are typed errors, refused before anything is allocated on
    /// the caller's runtime.
    #[test]
    fn hostile_blocking_on_a_caller_runtime_is_an_error() {
        let cfg = MatmulConfig {
            n: 64,
            block: 24,
            ..MatmulConfig::small()
        };
        let tree = northup::presets::apu_two_level(catalog::ssd_hyperx_predator());
        let rt = Runtime::new(tree, ExecMode::Real).unwrap();
        let run = matmul_northup_on(&rt, &cfg);
        assert!(matches!(run, Err(NorthupError::Invalid(_))), "{run:?}");
        let run = MatmulConfig::auto(rt.tree(), 48, 1);
        assert!(matches!(run, Err(NorthupError::Invalid(_))), "{run:?}");
    }
}
