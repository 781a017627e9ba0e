//! The §III-C dependency-graph unfolding, end to end: trace a real
//! out-of-core run, check the graph's structure, and quantify the
//! parallelism headroom a DAG scheduler would have over the paper's
//! in-order queues.

use northup_suite::apps::host::{compare, Grid, Tolerance};
use northup_suite::apps::matmul::matmul_northup_on;
use northup_suite::apps::spmv::spmv_northup_on;
use northup_suite::kernels::{matmul_naive, DenseMatrix};
use northup_suite::prelude::*;
use northup_suite::sparse::gen;

#[test]
fn traced_matmul_produces_a_consistent_dag() {
    let cfg = MatmulConfig {
        n: 64,
        block: 16,
        ring: 2,
        seed: 1,
    };
    let rt = Runtime::new(
        presets::apu_two_level(catalog::ssd_hyperx_predator()),
        ExecMode::Real,
    )
    .unwrap();
    rt.enable_dag();
    let run = matmul_northup_on(&rt, &cfg).unwrap();
    let a = DenseMatrix::random(cfg.n, cfg.n, cfg.seed);
    let b = DenseMatrix::random(cfg.n, cfg.n, cfg.seed + 1);
    let mut oracle = DenseMatrix::zeros(cfg.n, cfg.n);
    matmul_naive(&a, &b, &mut oracle);
    let grid = Grid::block_major(cfg.n, cfg.block);
    let tol = Tolerance::Abs(1e-3 * cfg.n as f32);
    compare(&rt, run.output.unwrap(), grid, &oracle.data, tol).unwrap();

    let dag = rt.task_dag();
    assert!(!dag.is_empty());
    // Edges are forward-only (ids are a topological order).
    assert!(dag.edges.iter().all(|&(a, b)| a < b));
    // Every compute node depends on at least one load.
    let hist = dag.category_histogram();
    assert!(hist["gpu"] >= 16, "one kernel per tile: {hist:?}");
    assert!(hist["memcpy"] > 0, "data movements recorded");

    // The critical path can't exceed the FIFO makespan, and the DAG must
    // expose real parallelism (loads of different tiles are independent).
    let (cp, path) = dag.critical_path();
    assert!(cp <= run.makespan());
    assert!(!path.is_empty());
    assert!(
        dag.parallelism() > 1.2,
        "pipeline exposes parallelism: {}",
        dag.parallelism()
    );
    // Headroom >= 1 by definition; for the compute-bound GEMM the FIFO
    // schedule is already near-optimal, so headroom should be modest.
    let headroom = dag.headroom(run.makespan());
    assert!((1.0..3.0).contains(&headroom), "headroom {headroom}");
}

#[test]
fn dag_headroom_quantifies_the_papers_future_work_claim() {
    // The paper: unfolding to a dependency graph can "exploit more
    // parallelism". Measure it: the CSR pipeline (serial per-shard chains)
    // has more headroom than the deeply pipelined GEMM.
    let gemm_rt = Runtime::new(
        presets::apu_two_level(catalog::ssd_hyperx_predator()),
        ExecMode::Modeled,
    )
    .unwrap();
    gemm_rt.enable_dag();
    let gemm = matmul_northup_on(&gemm_rt, &MatmulConfig::paper()).unwrap();
    let gemm_headroom = gemm_rt.task_dag().headroom(gemm.makespan());

    let spmv_rt = Runtime::new(
        presets::apu_two_level(northup_suite::apps::spmv::spmv_storage(
            catalog::ssd_hyperx_predator(),
        )),
        ExecMode::Modeled,
    )
    .unwrap();
    spmv_rt.enable_dag();
    let spmv = spmv_northup_on(&spmv_rt, &SpmvInput::paper()).unwrap();
    let spmv_headroom = spmv_rt.task_dag().headroom(spmv.makespan());

    assert!(
        spmv_headroom > gemm_headroom,
        "serial CSR chains leave more on the table: spmv {spmv_headroom:.3} vs gemm {gemm_headroom:.3}"
    );
}

#[test]
fn dag_dot_export_renders_a_real_run() {
    let rt = Runtime::new(
        presets::apu_two_level(catalog::ssd_hyperx_predator()),
        ExecMode::Real,
    )
    .unwrap();
    rt.enable_dag();
    let input = SpmvInput::Matrix(gen::banded(100, 2, 3));
    spmv_northup_on(&rt, &input).unwrap();
    let dot = rt.task_dag().render_dot();
    assert!(dot.starts_with("digraph tasks"));
    assert!(dot.contains("->"));
}

#[test]
fn dag_recording_is_opt_in() {
    let rt = Runtime::new(
        presets::apu_two_level(catalog::ssd_hyperx_predator()),
        ExecMode::Real,
    )
    .unwrap();
    let a = rt.alloc(16, NodeId(0)).unwrap();
    rt.release(a).unwrap();
    assert!(rt.task_dag().is_empty(), "no recording unless enabled");
}
