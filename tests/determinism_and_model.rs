//! Determinism and timing-model invariants: the whole point of the
//! virtual-time substrate is that every figure regenerates bit-identically,
//! that timing is independent of whether real bytes moved, and that the
//! pipelined model obeys basic scheduling bounds.

use northup_suite::apps::matmul::matmul_northup;
use northup_suite::prelude::*;
use northup_suite::sim::Category;
use proptest::prelude::*;

#[test]
fn repeated_runs_are_bit_identical() {
    let cfg = MatmulConfig::paper();
    let a = matmul_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Modeled).unwrap();
    let b = matmul_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Modeled).unwrap();
    assert_eq!(a.makespan(), b.makespan());
    assert_eq!(a.report.breakdown, b.report.breakdown);
}

#[test]
fn timing_is_independent_of_execution_mode() {
    // Real mode moves bytes and runs kernels; Modeled mode does neither.
    // The virtual timeline must be identical.
    let cfg = HotspotConfig {
        n: 32,
        block: 16,
        steps_per_pass: 2,
        passes: 2,
        ring: 2,
        seed: 1,
    };
    let real = hotspot_apu(&cfg, catalog::hdd_wd5000(), ExecMode::Real).unwrap();
    let modeled = hotspot_apu(&cfg, catalog::hdd_wd5000(), ExecMode::Modeled).unwrap();
    assert_eq!(real.report.breakdown, modeled.report.breakdown);
}

#[test]
fn faster_storage_never_slows_a_run() {
    let cfg = MatmulConfig {
        n: 64,
        block: 16,
        ring: 2,
        seed: 2,
    };
    let mut last = f64::INFINITY;
    for (r, w) in [(125u64, 120u64), (1400, 600), (3500, 2100)] {
        let storage = if r == 125 {
            catalog::hdd_wd5000()
        } else {
            catalog::ssd_with_bandwidth(r, w)
        };
        let run = matmul_apu(&cfg, storage, ExecMode::Modeled).unwrap();
        let t = run.makespan().as_secs_f64();
        assert!(t <= last + 1e-12, "({r},{w}): {t} > {last}");
        last = t;
    }
}

#[test]
fn out_of_core_never_beats_in_memory() {
    for storage in [
        catalog::ssd_with_bandwidth(10_000, 10_000),
        catalog::hdd_wd5000(),
    ] {
        let cfg = HotspotConfig::paper();
        let base = hotspot_in_memory(&cfg, ExecMode::Modeled).unwrap();
        let run = hotspot_apu(&cfg, storage, ExecMode::Modeled).unwrap();
        assert!(run.slowdown_vs(&base) >= 1.0 - 1e-9);
    }
}

#[test]
fn pipelining_hides_io_behind_compute_for_gemm() {
    // The paper's core matmul observation: overlapped execution makes the
    // makespan far smaller than the serial sum of compute and I/O.
    let run = matmul_apu(
        &MatmulConfig::paper(),
        catalog::ssd_hyperx_predator(),
        ExecMode::Modeled,
    )
    .unwrap();
    let b = &run.report.breakdown;
    let serial_sum = b.total_busy();
    let makespan = b.makespan;
    assert!(
        makespan.as_secs_f64() < 0.92 * serial_sum.as_secs_f64(),
        "no overlap: makespan {makespan} vs serial {serial_sum}"
    );
    // And compute dominates the makespan (I/O hidden).
    assert!(b.get(Category::GpuCompute).as_secs_f64() > 0.9 * makespan.as_secs_f64());
}

#[test]
fn chrome_trace_exports_a_full_run() {
    let run_rt = Runtime::new(
        presets::apu_two_level(catalog::ssd_hyperx_predator()),
        ExecMode::Modeled,
    )
    .unwrap();
    northup_suite::apps::matmul::matmul_northup_on(&run_rt, &MatmulConfig::paper()).unwrap();
    let trace = run_rt.chrome_trace();
    assert!(trace.starts_with('[') && trace.ends_with(']'));
    assert!(trace.contains("\"cat\":\"gpu\""));
    assert!(trace.contains("\"cat\":\"io\""));
    // Valid enough to be written next to bench output.
    assert!(trace.matches("\"ph\":\"X\"").count() > 30);
}

#[test]
fn work_queue_statistics_count_every_chunk() {
    let cfg = MatmulConfig {
        n: 64,
        block: 16,
        ring: 2,
        seed: 0,
    };
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    let rt = Runtime::new(tree, ExecMode::Modeled).unwrap();
    drop(rt); // matmul builds its own runtime; use the report instead
    let run = matmul_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Modeled).unwrap();
    // 4x4 tile grid => 4 row-shard tasks spawned through the root.
    assert!(run.report.breakdown.spans > 0);
}

/// Paper-scale Modeled makespans, to the nanosecond, on every chain preset.
/// `figures_output.txt` rounds to milliseconds and never runs the exascale
/// tree; this table is what fails if an edit reorders a single transfer.
#[test]
fn paper_scale_makespans_are_pinned_to_the_nanosecond() {
    use northup_suite::apps::distributed::{gemm_cluster, DistGemmConfig};
    use northup_suite::apps::hotspot::hotspot_northup;
    use northup_suite::apps::spmv::spmv_northup;

    let ssd = catalog::ssd_hyperx_predator;
    let trees = || {
        [
            presets::apu_two_level(ssd()),
            presets::discrete_gpu_three_level(ssd()),
            presets::exascale_node(),
        ]
    };
    type App = fn(Tree) -> Result<AppRun>;
    let apps: [(&str, App, [u64; 3]); 3] = [
        (
            "matmul",
            |t| matmul_northup(&MatmulConfig::paper(), t, ExecMode::Modeled),
            [35_680_989_425, 5_673_980_092, 3_302_610_218],
        ),
        (
            "hotspot",
            |t| hotspot_northup(&HotspotConfig::paper(), t, ExecMode::Modeled),
            [12_470_899_063, 3_349_047_676, 1_611_111_758],
        ),
        (
            "spmv",
            |t| spmv_northup(&SpmvInput::paper(), t, ExecMode::Modeled),
            [1_415_288_123, 1_062_635_503, 850_982_574],
        ),
    ];
    for (name, app, pinned) in apps {
        for (tree, ns) in trees().into_iter().zip(pinned) {
            let levels = tree.max_level();
            let run = app(tree).unwrap();
            assert_eq!(run.makespan().0, ns, "{name} on the {levels}-level tree");
        }
    }

    for (k, ns) in [(1, 8_475_635_992), (3, 4_490_827_754)] {
        let rt = Runtime::new(presets::cluster(k, 0), ExecMode::Modeled).unwrap();
        let run = gemm_cluster(&rt, &DistGemmConfig::paper()).unwrap();
        assert_eq!(run.makespan().0, ns, "gemm_cluster on {k} nodes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Across arbitrary configurations, Modeled and Real timing agree and
    /// the breakdown is deterministic.
    #[test]
    fn mode_independence_holds_generally(
        blocks in 1usize..4,
        seed in 0u64..100,
    ) {
        let cfg = MatmulConfig { n: blocks * 16, block: 16, ring: 2, seed };
        let tree = presets::discrete_gpu_three_level(catalog::hdd_wd5000());
        let real = matmul_northup(&cfg, tree.clone(), ExecMode::Real).unwrap();
        let modeled = matmul_northup(&cfg, tree, ExecMode::Modeled).unwrap();
        prop_assert_eq!(real.report.breakdown, modeled.report.breakdown);
    }

    /// The makespan is monotone in the temporal-blocking depth's compute
    /// (more steps per pass => more total work => no faster).
    #[test]
    fn hotspot_makespan_monotone_in_steps(steps in 1usize..6) {
        let mk = |s: usize| {
            let cfg = HotspotConfig {
                n: 64, block: 32, steps_per_pass: s, passes: 1, ring: 2, seed: 0,
            };
            hotspot_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Modeled)
                .unwrap()
                .makespan()
        };
        prop_assert!(mk(steps + 1) >= mk(steps));
    }
}
