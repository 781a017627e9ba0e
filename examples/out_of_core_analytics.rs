//! Out-of-core analytics: map/reduce over an array bigger than memory,
//! written with the generic chunk pipeline — the "variety of problems"
//! claim (§IV) in ~20 lines of application logic per operator.
//!
//! ```text
//! cargo run --example out_of_core_analytics             # small, verified
//! cargo run --release --example out_of_core_analytics -- --paper
//! ```

use northup_suite::apps::host::{compare, Grid, Tolerance};
use northup_suite::apps::reduce::{map_northup, reduce_northup, ReduceOp, StreamConfig};
use northup_suite::prelude::*;
use northup_suite::sim::Category;

/// The suffix of a line whose result was checked against the host.
fn verified(checked: bool) -> &'static str {
    assert!(checked, "out-of-core result differs from the host's");
    "  [verified]"
}

fn main() -> Result<()> {
    let paper = std::env::args().any(|a| a == "--paper");
    let (cfg, mode) = if paper {
        (StreamConfig::paper(), ExecMode::Modeled)
    } else {
        (StreamConfig::small(), ExecMode::Real)
    };
    println!(
        "array: {} elements ({:.2} GiB) in chunks of {}",
        cfg.elements,
        cfg.elements as f64 * 4.0 / (1u64 << 30) as f64,
        cfg.chunk
    );

    let tree = || presets::apu_two_level(catalog::ssd_hyperx_predator());
    // The input on the host, to check against (Real mode only).
    let host = (mode == ExecMode::Real).then(|| cfg.input(0..cfg.elements));
    let near = |value: f64, oracle: f64| (value - oracle).abs() <= 1e-9 * oracle.abs().max(1.0);

    let (sum, run) = reduce_northup(&cfg, ReduceOp::Sum, tree(), mode)?;
    println!(
        "sum  = {sum:>14.3}  {}  io share {:.0}%{}",
        run.makespan(),
        100.0 * run.share(Category::FileIo),
        host.as_ref().map_or("", |x| {
            verified(near(sum, x.iter().map(|&v| v as f64).sum()))
        })
    );

    let (max, run) = reduce_northup(&cfg, ReduceOp::Max, tree(), mode)?;
    println!(
        "max  = {max:>14.3}  {}{}",
        run.makespan(),
        host.as_ref().map_or("", |x| {
            let oracle = x
                .iter()
                .map(|&v| v as f64)
                .fold(f64::NEG_INFINITY, f64::max);
            verified(near(max, oracle))
        })
    );

    let (a, b) = (2.0, 1.0);
    let rt = Runtime::new(tree(), mode)?;
    let run = map_northup(&rt, &cfg, a, b)?;
    let checked = match (&host, run.output) {
        (Some(x), Some(y)) => {
            let oracle: Vec<f32> = x.iter().map(|&v| a * v + b).collect();
            let grid = Grid::row_major(x.len(), 1);
            verified(compare(&rt, y, grid, &oracle, Tolerance::Abs(1e-5)).is_ok())
        }
        _ => "",
    };
    println!(
        "y = 2x + 1 written back: {}  (read {} + wrote {} bytes){checked}",
        run.makespan(),
        cfg.elements * 4,
        cfg.elements * 4,
    );

    println!("\npure streams cannot hide their I/O — compare with the GEMM example,");
    println!("where the same pipeline hides a disk behind compute (paper Fig. 6).");
    Ok(())
}
