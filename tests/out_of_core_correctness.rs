//! Cross-crate correctness: every application's out-of-core Northup
//! execution must produce exactly the same result as its in-memory
//! reference, for arbitrary shapes, blockings, storage devices and
//! topologies. These are the end-to-end guarantees behind the paper's
//! portability claim.

use northup_suite::apps::host::{compare, Grid, Tolerance};
use northup_suite::apps::hotspot::hotspot_northup_on;
use northup_suite::apps::matmul::matmul_northup_on;
use northup_suite::apps::spmv::{spmv_northup_on, spmv_storage, spmv_x};
use northup_suite::kernels::{matmul_naive, multi_step_reference, DenseMatrix, HotSpotParams};
use northup_suite::prelude::*;
use northup_suite::sparse::{gen, Csr};
use proptest::prelude::*;

/// The out-of-core GEMM on a Real runtime over `tree`, its C held to the
/// naive `A x B` within `1e-3 * n`.
fn matmul_check(tree: Tree, cfg: &MatmulConfig) -> Result<()> {
    let rt = Runtime::new(tree, ExecMode::Real)?;
    let run = matmul_northup_on(&rt, cfg)?;
    let a = DenseMatrix::random(cfg.n, cfg.n, cfg.seed);
    let b = DenseMatrix::random(cfg.n, cfg.n, cfg.seed + 1);
    let mut oracle = DenseMatrix::zeros(cfg.n, cfg.n);
    matmul_naive(&a, &b, &mut oracle);
    let grid = Grid::block_major(cfg.n, cfg.block);
    let tol = Tolerance::Abs(1e-3 * cfg.n as f32);
    compare(
        &rt,
        run.output.expect("Real output"),
        grid,
        &oracle.data,
        tol,
    )
}

/// The out-of-core HotSpot on a Real runtime over `tree`, its final grid
/// held to `total_steps` of the in-memory reference within 1e-3.
fn hotspot_check(tree: Tree, cfg: &HotspotConfig) -> Result<()> {
    let rt = Runtime::new(tree, ExecMode::Real)?;
    let run = hotspot_northup_on(&rt, cfg)?;
    let (temp, power) = (cfg.temperature(0..cfg.n), cfg.power(0..cfg.n));
    let prm = HotSpotParams::default();
    let oracle = multi_step_reference(&temp, &power, cfg.total_steps(), &prm);
    let grid = Grid::row_major(cfg.n, cfg.n);
    let tol = Tolerance::Abs(1e-3);
    compare(
        &rt,
        run.output.expect("Real output"),
        grid,
        &oracle.data,
        tol,
    )
}

/// The out-of-core SpMV of `m` on a Real runtime over `tree`, its `y` held
/// to the reference SpMV within 1e-4 relative.
fn spmv_check(tree: Tree, m: Csr) -> Result<()> {
    let rt = Runtime::new(tree, ExecMode::Real)?;
    let mut oracle = vec![0.0f32; m.rows];
    m.spmv_reference(&spmv_x(m.cols), &mut oracle);
    let run = spmv_northup_on(&rt, &SpmvInput::Matrix(m))?;
    let grid = Grid::row_major(oracle.len(), 1);
    compare(
        &rt,
        run.output.expect("Real output"),
        grid,
        &oracle,
        Tolerance::Rel(1e-4),
    )
}

fn storages() -> Vec<DeviceSpec> {
    vec![
        catalog::ssd_hyperx_predator(),
        catalog::hdd_wd5000(),
        catalog::nvm_optane_like(),
        catalog::nvm_as_memory(), // memory-class root: memcpy dispatch path
    ]
}

use northup_suite::hw::catalog;

#[test]
fn matmul_verifies_on_every_storage_class() {
    let cfg = MatmulConfig {
        n: 48,
        block: 16,
        ring: 2,
        seed: 3,
    };
    for storage in storages() {
        let name = storage.name.clone();
        let checked = matmul_check(presets::apu_two_level(storage), &cfg);
        assert!(checked.is_ok(), "matmul on {name}: {checked:?}");
    }
}

#[test]
fn hotspot_verifies_on_every_storage_class() {
    let cfg = HotspotConfig {
        n: 32,
        block: 16,
        steps_per_pass: 2,
        passes: 2,
        ring: 2,
        seed: 3,
    };
    for storage in storages() {
        let name = storage.name.clone();
        let checked = hotspot_check(presets::apu_two_level(storage), &cfg);
        assert!(checked.is_ok(), "hotspot on {name}: {checked:?}");
    }
}

#[test]
fn spmv_verifies_on_every_storage_class() {
    let m = gen::powerlaw(300, 300, 64, 0.8, 17);
    for storage in storages() {
        let name = storage.name.clone();
        let tree = presets::apu_two_level(spmv_storage(storage));
        let checked = spmv_check(tree, m.clone());
        assert!(checked.is_ok(), "spmv on {name}: {checked:?}");
    }
}

#[test]
fn all_apps_verify_on_the_exascale_chain() {
    // Four software-managed levels: NVM -> DRAM -> HBM -> GPU memory.
    let cfg = MatmulConfig {
        n: 32,
        block: 16,
        ring: 2,
        seed: 9,
    };
    matmul_check(presets::exascale_node(), &cfg).unwrap();

    let hcfg = HotspotConfig {
        n: 32,
        block: 16,
        steps_per_pass: 3,
        passes: 2,
        ring: 2,
        seed: 1,
    };
    hotspot_check(presets::exascale_node(), &hcfg).unwrap();

    spmv_check(presets::exascale_node(), gen::banded(200, 2, 5)).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matmul_exact_for_arbitrary_divisible_shapes(
        blocks in 1usize..5,
        block in prop::sample::select(vec![8usize, 16, 24]),
        seed in 0u64..1000,
    ) {
        let cfg = MatmulConfig { n: blocks * block, block, ring: 2, seed };
        let checked = matmul_check(presets::apu_two_level(catalog::ssd_hyperx_predator()), &cfg);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    #[test]
    fn hotspot_exact_for_arbitrary_blocking_and_depth(
        tiles in 1usize..4,
        block in prop::sample::select(vec![8usize, 16]),
        steps in 1usize..5,
        passes in 1usize..4,
        seed in 0u64..1000,
    ) {
        let cfg = HotspotConfig {
            n: tiles * block,
            block,
            steps_per_pass: steps,
            passes,
            ring: 2,
            seed,
        };
        let checked = hotspot_check(presets::apu_two_level(catalog::ssd_hyperx_predator()), &cfg);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    #[test]
    fn spmv_exact_for_arbitrary_matrices(
        rows in 20usize..400,
        nnz_per_row in 1usize..12,
        seed in 0u64..1000,
    ) {
        let m = gen::uniform_random(rows, rows.max(nnz_per_row + 1), nnz_per_row, seed);
        let tree = presets::apu_two_level(spmv_storage(catalog::hdd_wd5000()));
        let checked = spmv_check(tree, m);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    #[test]
    fn northup_checksums_match_in_memory(seed in 0u64..1000) {
        let cfg = MatmulConfig { n: 32, block: 16, ring: 2, seed };
        let a = matmul_in_memory(&cfg, ExecMode::Real).unwrap();
        let b = matmul_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Real).unwrap();
        let (ca, cb) = (a.checksum.unwrap(), b.checksum.unwrap());
        prop_assert!((ca - cb).abs() <= 1e-6 * ca.abs().max(1.0));
    }
}
