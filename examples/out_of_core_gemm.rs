//! Out-of-core dense matrix multiply (paper §IV-A) across three machines.
//!
//! Runs the same Northup GEMM — unchanged application code — over the
//! 2-level APU tree, the 3-level discrete-GPU tree, and the 4-level
//! exascale-node tree, demonstrating the paper's portability claim: "once
//! the code is written, it should work across heterogeneous architectures."
//!
//! ```text
//! cargo run --example out_of_core_gemm            # small, verified
//! cargo run --release --example out_of_core_gemm -- --paper   # 16k modeled
//! ```

use northup_suite::apps::host::{compare, Grid, Tolerance};
use northup_suite::apps::matmul::matmul_northup_on;
use northup_suite::kernels::{matmul_naive, DenseMatrix};
use northup_suite::prelude::*;

fn main() -> Result<()> {
    let paper_scale = std::env::args().any(|a| a == "--paper");
    let (cfg, mode) = if paper_scale {
        (MatmulConfig::paper(), ExecMode::Modeled)
    } else {
        (
            MatmulConfig {
                n: 128,
                block: 32,
                ring: 2,
                seed: 11,
            },
            ExecMode::Real,
        )
    };
    println!(
        "GEMM {}x{} (block {}, {:?} mode)",
        cfg.n,
        cfg.n,
        cfg.block,
        if paper_scale { "Modeled" } else { "Real" }
    );

    let baseline = matmul_in_memory(&cfg, mode)?;
    println!("{}", baseline.summary());
    // Each out-of-core run below is held to the oracle before it prints.
    let real = if mode == ExecMode::Real {
        "  [verified]"
    } else {
        ""
    };

    let machines: Vec<(&str, Tree)> = vec![
        (
            "APU + SSD (2 levels)",
            presets::apu_two_level(catalog::ssd_hyperx_predator()),
        ),
        (
            "APU + HDD (2 levels)",
            presets::apu_two_level(catalog::hdd_wd5000()),
        ),
        (
            "discrete GPU + SSD (3 levels)",
            presets::discrete_gpu_three_level(catalog::ssd_hyperx_predator()),
        ),
        ("exascale node (4 levels)", presets::exascale_node()),
    ];

    // The naive A x B every machine's C is held to (Real mode only).
    let oracle = (mode == ExecMode::Real).then(|| {
        let a = DenseMatrix::random(cfg.n, cfg.n, cfg.seed);
        let b = DenseMatrix::random(cfg.n, cfg.n, cfg.seed + 1);
        let mut c = DenseMatrix::zeros(cfg.n, cfg.n);
        matmul_naive(&a, &b, &mut c);
        c
    });
    for (name, tree) in machines {
        let levels = tree.max_level() + 1;
        let rt = Runtime::new(tree, mode)?;
        let run = matmul_northup_on(&rt, &cfg)?;
        if let (Some(oracle), Some(output)) = (&oracle, run.output) {
            // C is stored block-major, one block x block tile after another.
            let grid = Grid::block_major(cfg.n, cfg.block);
            let tol = Tolerance::Abs(1e-3 * cfg.n as f32);
            let checked = compare(&rt, output, grid, &oracle.data, tol);
            assert!(checked.is_ok(), "result mismatch on {name}: {checked:?}");
        }
        println!(
            "{}{real}  [{name}, {levels} levels]  slowdown vs in-memory: {:.3}",
            run.summary(),
            run.slowdown_vs(&baseline)
        );
    }
    println!("same application code ran on every topology — only the tree changed");
    Ok(())
}
