//! Distributed Northup (§VII future work): GEMM strong scaling across a
//! cluster, and earliest-finish batch dispatch over heterogeneous nodes.
//!
//! ```text
//! cargo run --release --example cluster_scaling
//! ```

use northup_suite::apps::distributed::{gemm_cluster, scaling_curve, DistGemmConfig};
use northup_suite::apps::host::{compare, Grid, Tolerance};
use northup_suite::apps::subtree::{run_batch, Dispatch};
use northup_suite::kernels::{matmul_naive, DenseMatrix};
use northup_suite::prelude::*;

fn main() -> Result<()> {
    // Correctness first: the distributed schedule is exact, its C (row-
    // major) within 1e-3 * n of the naive A x B.
    let cfg = DistGemmConfig::small();
    let rt = Runtime::new(presets::cluster(3, 0), ExecMode::Real)?;
    let run = gemm_cluster(&rt, &cfg)?;
    let a = DenseMatrix::random(cfg.n, cfg.n, cfg.seed);
    let b = DenseMatrix::random(cfg.n, cfg.n, cfg.seed + 1);
    let mut oracle = DenseMatrix::zeros(cfg.n, cfg.n);
    matmul_naive(&a, &b, &mut oracle);
    if let Some(output) = run.output {
        let grid = Grid::row_major(cfg.n, cfg.n);
        let tol = Tolerance::Abs(1e-3 * cfg.n as f32);
        compare(&rt, output, grid, &oracle.data, tol)?;
    }
    println!("distributed GEMM verified on 3 nodes (real bytes, PFS + InfiniBand + NVM chains)\n");

    // Strong scaling at paper scale (16k x 16k, 4k blocking, W9100 nodes).
    println!("strong scaling, 16k GEMM:");
    println!("{:>6} {:>12} {:>9}", "nodes", "makespan", "speedup");
    let curve = scaling_curve(16 * 1024, 4 * 1024, &[1, 2, 4, 8])?;
    let t1 = curve[0].1;
    for (nodes, t) in &curve {
        println!("{:>6} {:>11.2}s {:>8.2}x", nodes, t, t1 / t);
    }
    println!("(sublinear: every node re-reads B from the shared parallel file system)\n");

    // Heterogeneous batch dispatch across a mixed cluster.
    let tree = presets::cluster(2, 2);
    let rr = run_batch(tree.clone(), 64, 512, 256, Dispatch::RoundRobin)?;
    let ef = run_batch(tree, 64, 512, 256, Dispatch::EarliestFinish)?;
    println!(
        "mixed cluster batch (2 GPU + 2 CPU nodes): round-robin {} vs earliest-finish {} ({:.2}x)",
        rr.run.makespan(),
        ef.run.makespan(),
        rr.run.makespan().as_secs_f64() / ef.run.makespan().as_secs_f64()
    );
    println!("per-leaf jobs (earliest finish): {:?}", ef.per_leaf);
    Ok(())
}
