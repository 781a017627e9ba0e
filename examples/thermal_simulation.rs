//! HotSpot-2D thermal simulation, out of core (paper §IV-B).
//!
//! Simulates heat diffusion on a chip floorplan whose temperature grid
//! lives on storage. Demonstrates the exact trapezoid temporal blocking:
//! each out-of-core pass advances many time steps per loaded block, and the
//! result still matches the cell-by-cell reference (checked here, against
//! the run's output on storage).
//!
//! ```text
//! cargo run --example thermal_simulation
//! cargo run --release --example thermal_simulation -- --paper
//! ```

use northup_suite::apps::host::{compare, Grid, Tolerance};
use northup_suite::apps::hotspot::hotspot_northup_on;
use northup_suite::kernels::{multi_step_reference, HotSpotParams};
use northup_suite::prelude::*;
use northup_suite::sim::Category;

fn main() -> Result<()> {
    let paper_scale = std::env::args().any(|a| a == "--paper");
    let (cfg, mode) = if paper_scale {
        (HotspotConfig::paper(), ExecMode::Modeled)
    } else {
        (
            HotspotConfig {
                n: 96,
                block: 32,
                steps_per_pass: 4,
                passes: 3,
                ring: 2,
                seed: 5,
            },
            ExecMode::Real,
        )
    };
    println!(
        "HotSpot-2D {}x{} grid, {} steps/pass x {} passes (block {})",
        cfg.n, cfg.n, cfg.steps_per_pass, cfg.passes, cfg.block
    );

    let baseline = hotspot_in_memory(&cfg, mode)?;
    println!("{}", baseline.summary());
    // Each out-of-core run below is held to the oracle before it prints.
    let real = if mode == ExecMode::Real {
        "  [verified]"
    } else {
        ""
    };

    // The cell-by-cell reference, all steps at once (Real mode only).
    let oracle = (mode == ExecMode::Real).then(|| {
        let (temp, power) = (cfg.temperature(0..cfg.n), cfg.power(0..cfg.n));
        multi_step_reference(&temp, &power, cfg.total_steps(), &HotSpotParams::default())
    });
    for (name, storage) in [
        ("ssd", catalog::ssd_hyperx_predator()),
        ("hdd", catalog::hdd_wd5000()),
        ("nvm", catalog::nvm_optane_like()),
    ] {
        let rt = Runtime::new(presets::apu_two_level(storage), mode)?;
        let run = hotspot_northup_on(&rt, &cfg)?;
        if let (Some(oracle), Some(output)) = (&oracle, run.output) {
            let grid = Grid::row_major(cfg.n, cfg.n);
            let checked = compare(&rt, output, grid, &oracle.data, Tolerance::Abs(1e-3));
            assert!(
                checked.is_ok(),
                "temporal blocking must be exact on {name}: {checked:?}"
            );
        }
        println!(
            "{}{real}  [{name}] slowdown {:.3}",
            run.summary(),
            run.slowdown_vs(&baseline)
        );
    }

    // The memory-intensive stencil is the showcase for faster storage
    // (paper §V-D): show the I/O share shrinking across devices.
    let ssd = hotspot_apu(&cfg, catalog::ssd_hyperx_predator(), mode)?;
    let hdd = hotspot_apu(&cfg, catalog::hdd_wd5000(), mode)?;
    println!(
        "I/O share of busy time: hdd {:.0}% -> ssd {:.0}%  (GPU share {:.0}% -> {:.0}%)",
        100.0 * hdd.share(Category::FileIo),
        100.0 * ssd.share(Category::FileIo),
        100.0 * hdd.share(Category::GpuCompute),
        100.0 * ssd.share(Category::GpuCompute),
    );
    Ok(())
}
