//! # northup-bench — regeneration of every figure in the paper's evaluation
//!
//! One function per figure, all running the paper-scale **Modeled** runs
//! (deterministic virtual time; see DESIGN.md §5 for the calibration).
//! The `figures` binary prints each series and `tests/figures_golden.rs`
//! compares its output with the committed `figures_output.txt`;
//! wall-clock numbers come from `benchmark/` only.
//!
//! | paper | function | what it shows |
//! |---|---|---|
//! | Fig. 6 | [`fig6`] | in-memory vs SSD vs HDD normalized runtime |
//! | Fig. 7 | [`fig7`] | APU 2-level execution breakdown |
//! | Fig. 8 | [`fig8`] | discrete-GPU 3-level breakdown |
//! | Fig. 9 | [`fig9`] | faster-storage projection sweep |
//! | Fig. 11 | [`fig11`] | CPU+GPU work-stealing speedups |
//! | headline | [`headline`] | abstract's "average 17% slower than in-memory" |
//! | §III-C/§IV-B/§II/§VI | [`ablation_ring_depth`], [`ablation_temporal_blocking`], [`ablation_nvm_mapping`], [`ablation_layout_transform`] | design-choice ablations |
//! | service | [`service_scenario`] | multi-tenant offered-load sweep |
//! | slo | [`slo_study`] | open-loop overload sweep through the SLO controller |
//! | chaos | [`chaos_accounting`] | fault accounting of the two seeded chaos scenarios |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use northup::{presets, ExecMode, NorthupError, RunReport, Runtime, Transform};
use northup_apps::calibration::paper::GEMM_N_LARGE;
use northup_apps::{
    fig11_speedup, hotspot_apu, hotspot_in_memory, matmul_apu, matmul_in_memory, spmv_apu,
    spmv_in_memory, AppRun, BalanceConfig, HotspotConfig, MatmulConfig, SpmvInput,
};
use northup_apps::{
    overload_slo, overload_trace, run_service_slo, run_service_with, synthetic_trace,
    OverloadConfig, TraceConfig,
};
use northup_hw::{catalog, DeviceSpec};
use northup_sched::{
    AdmissionPolicy, FaultPlan, JobScheduler, JobSpec, JobState, JobWork, NodeBudgets, Priority,
    Reservation, ResizeDrain, SchedReport, SchedulerConfig, SloConfig,
};
use northup_sim::{Category, SimDur, SimTime};

/// The three evaluated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Dense matrix multiply (§IV-A).
    Matmul,
    /// HotSpot-2D stencil (§IV-B).
    Hotspot,
    /// CSR-Adaptive SpMV (§IV-C).
    Spmv,
}

impl App {
    /// All apps in figure order.
    pub const ALL: [App; 3] = [App::Matmul, App::Hotspot, App::Spmv];

    /// Label used in figure rows.
    pub fn label(self) -> &'static str {
        match self {
            App::Matmul => "dense-matmul",
            App::Hotspot => "hotspot-2d",
            App::Spmv => "csr-adaptive",
        }
    }
}

/// Run an app's in-memory baseline at paper scale.
pub fn run_in_memory(app: App) -> Result<AppRun, NorthupError> {
    match app {
        App::Matmul => matmul_in_memory(&MatmulConfig::paper(), ExecMode::Modeled),
        App::Hotspot => hotspot_in_memory(&HotspotConfig::paper(), ExecMode::Modeled),
        App::Spmv => spmv_in_memory(&SpmvInput::paper(), ExecMode::Modeled),
    }
}

/// Run an app's Northup out-of-core version on the 2-level APU tree with a
/// given storage device.
pub fn run_northup_apu(app: App, storage: DeviceSpec) -> Result<AppRun, NorthupError> {
    match app {
        App::Matmul => matmul_apu(&MatmulConfig::paper(), storage, ExecMode::Modeled),
        App::Hotspot => hotspot_apu(&HotspotConfig::paper(), storage, ExecMode::Modeled),
        App::Spmv => spmv_apu(&SpmvInput::paper(), storage, ExecMode::Modeled),
    }
}

/// Run an app on the 3-level discrete-GPU tree.
pub fn run_northup_discrete(app: App, storage: DeviceSpec) -> Result<AppRun, NorthupError> {
    let tree = presets::discrete_gpu_three_level(storage.clone());
    match app {
        App::Matmul => {
            northup_apps::matmul::matmul_northup(&MatmulConfig::paper(), tree, ExecMode::Modeled)
        }
        App::Hotspot => {
            northup_apps::hotspot::hotspot_northup(&HotspotConfig::paper(), tree, ExecMode::Modeled)
        }
        App::Spmv => {
            let tree = presets::discrete_gpu_three_level(northup_apps::spmv::spmv_storage(storage));
            northup_apps::spmv::spmv_northup(&SpmvInput::paper(), tree, ExecMode::Modeled)
        }
    }
}

// ---------------------------------------------------------------------------
// Fig. 6
// ---------------------------------------------------------------------------

/// One Fig. 6 row.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Application.
    pub app: App,
    /// In-memory baseline makespan (normalization denominator).
    pub in_memory: SimDur,
    /// Northup + SSD normalized runtime.
    pub ssd: f64,
    /// Northup + HDD normalized runtime.
    pub hdd: f64,
}

/// Regenerate Fig. 6: normalized runtime of in-memory vs Northup-SSD vs
/// Northup-HDD on the APU.
pub fn fig6() -> Result<Vec<Fig6Row>, NorthupError> {
    App::ALL
        .iter()
        .map(|&app| {
            let base = run_in_memory(app)?;
            let ssd = run_northup_apu(app, catalog::ssd_hyperx_predator())?;
            let hdd = run_northup_apu(app, catalog::hdd_wd5000())?;
            Ok(Fig6Row {
                app,
                in_memory: base.makespan(),
                ssd: ssd.slowdown_vs(&base),
                hdd: hdd.slowdown_vs(&base),
            })
        })
        .collect()
}

/// Fig. 6 companion at the paper's larger 32k x 32k input (§V-A quotes
/// both sizes). SpMV has a single paper-scale shape, so this covers the
/// two dense apps.
pub fn fig6_large() -> Result<Vec<Fig6Row>, NorthupError> {
    let mut rows = Vec::new();
    {
        // At 32k the paper's 4k blocking no longer fits the staging ring;
        // the SIII-B auto-planner picks the right one (2k).
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let cfg = MatmulConfig::auto(&tree, GEMM_N_LARGE, 1)?;
        let base = matmul_in_memory(&cfg, ExecMode::Modeled)?;
        let ssd = matmul_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Modeled)?;
        let hdd = matmul_apu(&cfg, catalog::hdd_wd5000(), ExecMode::Modeled)?;
        rows.push(Fig6Row {
            app: App::Matmul,
            in_memory: base.makespan(),
            ssd: ssd.slowdown_vs(&base),
            hdd: hdd.slowdown_vs(&base),
        });
    }
    {
        let cfg = HotspotConfig {
            n: 32 * 1024,
            ..HotspotConfig::paper()
        };
        let base = hotspot_in_memory(&cfg, ExecMode::Modeled)?;
        let ssd = hotspot_apu(&cfg, catalog::ssd_hyperx_predator(), ExecMode::Modeled)?;
        let hdd = hotspot_apu(&cfg, catalog::hdd_wd5000(), ExecMode::Modeled)?;
        rows.push(Fig6Row {
            app: App::Hotspot,
            in_memory: base.makespan(),
            ssd: ssd.slowdown_vs(&base),
            hdd: hdd.slowdown_vs(&base),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Figs. 7 and 8
// ---------------------------------------------------------------------------

/// One breakdown row (Figs. 7/8 bars): shares of summed busy time.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Application.
    pub app: App,
    /// Storage device label.
    pub storage: String,
    /// CPU compute share.
    pub cpu: f64,
    /// GPU compute share.
    pub gpu: f64,
    /// Buffer setup share.
    pub setup: f64,
    /// File I/O + memcpy share.
    pub io: f64,
    /// Host<->device transfer share (the paper's "OpenCL transfers").
    pub xfer: f64,
    /// Makespan of the run.
    pub makespan: SimDur,
}

fn breakdown_row(app: App, storage: &str, report: &RunReport) -> BreakdownRow {
    let b = &report.breakdown;
    BreakdownRow {
        app,
        storage: storage.to_string(),
        cpu: b.share(Category::CpuCompute),
        gpu: b.share(Category::GpuCompute),
        setup: b.share(Category::BufferSetup),
        io: b.share(Category::FileIo) + b.share(Category::MemCopy),
        xfer: b.share(Category::DeviceTransfer),
        makespan: b.makespan,
    }
}

/// Regenerate Fig. 7: execution breakdown on the 2-level APU tree with HDD
/// and SSD storages.
pub fn fig7() -> Result<Vec<BreakdownRow>, NorthupError> {
    let mut rows = Vec::new();
    for &app in &App::ALL {
        let hdd = run_northup_apu(app, catalog::hdd_wd5000())?;
        rows.push(breakdown_row(app, "hdd", &hdd.report));
    }
    for &app in &App::ALL {
        let ssd = run_northup_apu(app, catalog::ssd_hyperx_predator())?;
        rows.push(breakdown_row(app, "ssd", &ssd.report));
    }
    Ok(rows)
}

/// Regenerate Fig. 8: breakdown on the 3-level discrete-GPU tree
/// (GPU device memory, main memory, disk drive).
pub fn fig8() -> Result<Vec<BreakdownRow>, NorthupError> {
    App::ALL
        .iter()
        .map(|&app| {
            let run = run_northup_discrete(app, catalog::hdd_wd5000())?;
            Ok(breakdown_row(app, "hdd(3-level)", &run.report))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 9
// ---------------------------------------------------------------------------

/// One point of the Fig. 9 sweep for one app.
#[derive(Debug, Clone)]
pub struct Fig9Point {
    /// (read, write) MB/s of the projected SSD.
    pub bw: (u64, u64),
    /// I/O time normalized to the 1400/600 base case (re-run model).
    pub io_norm: f64,
    /// Overall runtime normalized to the base case (re-run model).
    pub overall_norm: f64,
    /// Overall normalized, via the paper's first-order projection instead
    /// of a re-run (cross-check column).
    pub overall_first_order: f64,
}

/// Fig. 9 series for one app.
#[derive(Debug, Clone)]
pub struct Fig9Series {
    /// Application.
    pub app: App,
    /// Sweep points, slowest first.
    pub points: Vec<Fig9Point>,
    /// The in-memory Δ reference, normalized to the base case.
    pub in_memory_norm: f64,
}

/// Regenerate Fig. 9: I/O and overall performance with faster storage,
/// normalized to the entry SSD, with the in-memory Δ points.
pub fn fig9() -> Result<Vec<Fig9Series>, NorthupError> {
    App::ALL
        .iter()
        .map(|&app| {
            let base = run_northup_apu(app, catalog::ssd_with_bandwidth(1400, 600))?;
            let base_io = base.report.breakdown.get(Category::FileIo);
            let base_overall = base.makespan();
            let base_device = "ssd-1400-600".to_string();
            let mut points = Vec::new();
            for &(r, w) in &northup::FIG9_SWEEP {
                let run = run_northup_apu(app, catalog::ssd_with_bandwidth(r, w))?;
                let io = run.report.breakdown.get(Category::FileIo);
                // The first-order replay must use the *effective* bandwidth
                // the app sees (CSR-Adaptive's variable buffers degrade it).
                let mut point = northup_hw::BwPoint::from_mb_s(r, w);
                if app == App::Spmv {
                    point.read_bw *= northup_apps::calibration::SPMV_IO_EFFICIENCY;
                    point.write_bw *= northup_apps::calibration::SPMV_IO_EFFICIENCY;
                }
                let fo = northup::project_run(&base.report, &base_device, point);
                points.push(Fig9Point {
                    bw: (r, w),
                    io_norm: io.as_secs_f64() / base_io.as_secs_f64().max(1e-12),
                    overall_norm: run.makespan().as_secs_f64() / base_overall.as_secs_f64(),
                    overall_first_order: fo.overall.as_secs_f64() / base_overall.as_secs_f64(),
                });
            }
            let in_mem = run_in_memory(app)?;
            Ok(Fig9Series {
                app,
                points,
                in_memory_norm: in_mem.makespan().as_secs_f64() / base_overall.as_secs_f64(),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 11
// ---------------------------------------------------------------------------

/// One Fig. 11 bar.
#[derive(Debug, Clone)]
pub struct Fig11Bar {
    /// Input point (m, n): grid dim on SSD, chunk dim in DRAM.
    pub input: (usize, usize),
    /// GPU queue count.
    pub queues: usize,
    /// Speedup of CPU+GPU stealing over GPU-only at the same queue count.
    pub speedup: f64,
    /// Absolute makespan of the stealing configuration.
    pub absolute: SimDur,
}

/// Regenerate Fig. 11: work-stealing speedups for the three input points
/// and 8/16/32 GPU queues.
pub fn fig11() -> Vec<Fig11Bar> {
    let mut bars = Vec::new();
    for input in BalanceConfig::paper_points(8, true) {
        for q in [8usize, 16, 32] {
            let point = BalanceConfig {
                gpu_queues: q,
                ..input
            };
            bars.push(Fig11Bar {
                input: (input.m, input.chunk),
                queues: q,
                speedup: fig11_speedup(&point),
                absolute: northup_apps::balance::fig11_absolute(&point),
            });
        }
    }
    bars
}

// ---------------------------------------------------------------------------
// Discussion study: explicit management vs transparent caching (§VI)
// ---------------------------------------------------------------------------

/// Result of the §VI caching study.
#[derive(Debug, Clone)]
pub struct CachingStudy {
    /// One streaming pass over `stream_mb`: (transparent cache, Northup
    /// explicit HDD, cache hit rate).
    pub streaming: (SimDur, SimDur, f64),
    /// `passes` passes over a `reuse_mb` working set that fits the cache:
    /// (transparent cache, Northup explicit with an SSD level, hit rate).
    pub reuse: (SimDur, SimDur, f64),
}

/// Compare the §VI baseline — an SSD acting as a transparent LRU cache over
/// the HDD — against Northup's explicitly managed hierarchy, on a streaming
/// workload (no reuse) and a high-reuse workload.
pub fn caching_study() -> Result<CachingStudy, NorthupError> {
    use northup_hw::CachedDevice;
    use northup_sim::SimTime;

    let block = 1u64 << 20;
    let cache_bytes = 256u64 << 20;

    // --- Streaming: one pass over 1 GiB, no reuse. ---
    let stream_mb = 1024u64;
    let mut cached = CachedDevice::new(
        catalog::ssd_hyperx_predator(),
        catalog::hdd_wd5000(),
        block,
        cache_bytes,
    );
    let mut t = SimTime::ZERO;
    for mb in 0..stream_mb {
        t = cached.read(t, mb << 20, 1 << 20).end;
    }
    let cached_stream = t.since(SimTime::ZERO);
    let stream_hit_rate = cached.stats().hit_rate();

    // Northup explicit: stream straight off the HDD into DRAM, pipelined.
    let rt = Runtime::new(
        presets::apu_two_level(catalog::hdd_wd5000()),
        ExecMode::Modeled,
    )?;
    let file = rt.alloc(stream_mb << 20, rt.tree().root())?;
    let stage = [
        rt.alloc(1 << 20, northup::NodeId(1))?,
        rt.alloc(1 << 20, northup::NodeId(1))?,
    ];
    for mb in 0..stream_mb {
        rt.move_data(stage[(mb % 2) as usize], 0, file, mb << 20, 1 << 20)?;
    }
    let explicit_stream = rt.makespan();

    // --- Reuse: 8 passes over 128 MiB (fits the cache). ---
    let reuse_mb = 128u64;
    let passes = 8u64;
    let mut cached = CachedDevice::new(
        catalog::ssd_hyperx_predator(),
        catalog::hdd_wd5000(),
        block,
        cache_bytes,
    );
    let mut t = SimTime::ZERO;
    for _ in 0..passes {
        for mb in 0..reuse_mb {
            t = cached.read(t, mb << 20, 1 << 20).end;
        }
    }
    let cached_reuse = t.since(SimTime::ZERO);
    let reuse_hit_rate = cached.stats().hit_rate();

    // Northup explicit with an SSD level: HDD -> SSD once, then every pass
    // streams from the SSD (Northup *knows* the working set is reused, so
    // it pins it one level up — no per-block fills, no tag checks).
    let mut b = northup::TreeBuilder::new(catalog::hdd_wd5000());
    let ssd = b.add_child(
        northup::NodeId(0),
        catalog::ssd_hyperx_predator(),
        catalog::dram_dma_link(),
    );
    let dram = b.add_child(ssd, catalog::dram_staging_2gb(), catalog::dram_dma_link());
    b.attach_processor(
        dram,
        northup::ProcessorDesc::new(northup::ProcKind::Gpu, "apu-gpu"),
    );
    let rt = Runtime::new(b.build(), ExecMode::Modeled)?;
    let file = rt.alloc(reuse_mb << 20, rt.tree().root())?;
    let pinned = rt.alloc(reuse_mb << 20, ssd)?;
    rt.move_data(pinned, 0, file, 0, reuse_mb << 20)?;
    let stage = [rt.alloc(1 << 20, dram)?, rt.alloc(1 << 20, dram)?];
    for p in 0..passes {
        for mb in 0..reuse_mb {
            rt.move_data(
                stage[((p * reuse_mb + mb) % 2) as usize],
                0,
                pinned,
                mb << 20,
                1 << 20,
            )?;
        }
    }
    let explicit_reuse = rt.makespan();

    Ok(CachingStudy {
        streaming: (cached_stream, explicit_stream, stream_hit_rate),
        reuse: (cached_reuse, explicit_reuse, reuse_hit_rate),
    })
}

// ---------------------------------------------------------------------------
// Ablations of the design choices DESIGN.md calls out
// ---------------------------------------------------------------------------

/// §III-C staging ring depth: GEMM-on-HDD makespan at ring 2, 3 and 4.
/// Double buffering already hides everything that can be hidden, so the
/// deeper rings buy nothing.
pub fn ablation_ring_depth() -> Result<Vec<(usize, SimDur)>, NorthupError> {
    [2usize, 3, 4]
        .iter()
        .map(|&ring| {
            let cfg = MatmulConfig {
                ring,
                ..MatmulConfig::paper()
            };
            let run = matmul_apu(&cfg, catalog::hdd_wd5000(), ExecMode::Modeled)?;
            Ok((ring, run.makespan()))
        })
        .collect()
}

/// §IV-B temporal-blocking depth: HotSpot-on-HDD slowdown vs in-memory at
/// 8/16/32/64 steps per pass with the total simulated steps held at 64.
/// Deeper blocking amortizes each pass's I/O over more compute.
pub fn ablation_temporal_blocking() -> Result<Vec<(usize, f64)>, NorthupError> {
    [8usize, 16, 32, 64]
        .iter()
        .map(|&steps| {
            let cfg = HotspotConfig {
                steps_per_pass: steps,
                passes: 64 / steps,
                ..HotspotConfig::paper()
            };
            let base = hotspot_in_memory(&cfg, ExecMode::Modeled)?;
            let run = hotspot_apu(&cfg, catalog::hdd_wd5000(), ExecMode::Modeled)?;
            Ok((steps, run.slowdown_vs(&base)))
        })
        .collect()
}

/// §II remapping: the same NVM part as the storage root vs as a memory
/// level, paper-scale GEMM makespan of each.
pub fn ablation_nvm_mapping() -> Result<Vec<(&'static str, SimDur)>, NorthupError> {
    [
        (
            "as-storage",
            presets::apu_two_level(catalog::nvm_optane_like()),
        ),
        ("as-memory", presets::apu_with_nvm_memory()),
    ]
    .into_iter()
    .map(|(name, tree)| {
        let run =
            northup_apps::matmul::matmul_northup(&MatmulConfig::paper(), tree, ExecMode::Modeled)?;
        Ok((name, run.makespan()))
    })
    .collect()
}

/// §VI layout-transforming `move_data`: a 64 MiB 4096 x 4096 f32 matrix
/// moved SSD -> DRAM as raw bytes vs with an inline transpose (which
/// charges the permute pass but saves the consumer's strided access).
pub fn ablation_layout_transform() -> Result<Vec<(&'static str, SimDur)>, NorthupError> {
    let (rows, cols, elem) = (4096usize, 4096usize, 4usize);
    let bytes = (rows * cols * elem) as u64;
    [
        ("plain", None),
        ("transpose", Some(Transform::RowToCol { rows, cols, elem })),
    ]
    .into_iter()
    .map(|(name, transform)| {
        let rt = Runtime::new(
            presets::apu_two_level(catalog::ssd_hyperx_predator()),
            ExecMode::Modeled,
        )?;
        let src = rt.alloc(bytes, northup::NodeId(0))?;
        let dst = rt.alloc(bytes, northup::NodeId(1))?;
        match transform {
            Some(t) => rt.move_data_transform(dst, src, t)?,
            None => rt.move_data(dst, 0, src, 0, bytes)?,
        };
        Ok((name, rt.makespan()))
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Headline
// ---------------------------------------------------------------------------

/// The abstract's headline: per-app gap between Northup (fast SSD) and
/// in-memory processing, and their average (paper: 5%, 15%, 30% -> ~17%).
#[derive(Debug, Clone)]
pub struct Headline {
    /// Per-app (label, gap) where gap = slowdown - 1.
    pub gaps: Vec<(String, f64)>,
    /// Mean gap.
    pub average: f64,
}

/// Compute the headline number at the fast end of the Fig. 9 sweep
/// (3500/2100 MB/s), where the paper's 5/15/30% gaps are quoted (§V-D).
pub fn headline() -> Result<Headline, NorthupError> {
    let mut gaps = Vec::new();
    for &app in &App::ALL {
        let base = run_in_memory(app)?;
        let fast = run_northup_apu(app, catalog::ssd_with_bandwidth(3500, 2100))?;
        gaps.push((app.label().to_string(), fast.slowdown_vs(&base) - 1.0));
    }
    let average = gaps.iter().map(|(_, g)| g).sum::<f64>() / gaps.len() as f64;
    Ok(Headline { gaps, average })
}

// ---------------------------------------------------------------------------
// Multi-tenant service scenario (northup-sched)
// ---------------------------------------------------------------------------

/// One offered-load point of the multi-tenant service scenario: the same
/// mixed GEMM/HotSpot/SpMV arrival trace replayed under weighted-fair
/// admission and under the strict-FIFO baseline.
#[derive(Debug, Clone)]
pub struct ServiceRow {
    /// Mean virtual inter-arrival gap (µs); smaller ⇒ higher offered load.
    pub mean_gap_us: u64,
    /// Completed jobs per virtual second, weighted-fair admission.
    pub fair_throughput: f64,
    /// Completed jobs per virtual second, strict-FIFO serialization.
    pub fifo_throughput: f64,
    /// Median arrival→finish latency (s), weighted-fair.
    pub p50_latency_s: f64,
    /// 99th-percentile arrival→finish latency (s), weighted-fair.
    pub p99_latency_s: f64,
    /// Rejected / submitted, weighted-fair (backpressure at high load).
    pub rejection_rate: f64,
    /// Chunk-boundary evictions with preemption enabled (weighted-fair).
    pub preemptions: usize,
    /// Mean eviction-request → eviction-effect delay (s) with preemption
    /// enabled — how long a victim's in-flight chunk kept its capacity.
    pub preempt_latency_s: f64,
    /// Completed jobs per virtual second through a mid-trace budget
    /// shrink-and-restore (`resize_budgets`, drain = `Preempt`).
    pub resize_throughput: f64,
    /// Completed jobs per virtual second under the seeded chaos plan
    /// (deterministic transient device faults + retry/backoff).
    pub chaos_throughput: f64,
    /// Stage faults the chaos plan injected across the trace.
    pub chaos_faults: usize,
    /// Bounded-backoff retries the scheduler performed recovering them.
    pub chaos_retries: u64,
    /// Virtual time spent in retry backoff (s).
    pub chaos_backoff_s: f64,
    /// Jobs that hit at least one fault and still completed.
    pub chaos_recovered: usize,
    /// Jobs the chaos run failed outright (retry budget exhausted).
    pub chaos_failed: usize,
}

/// Sweep offered load for a 32-job mixed trace on the two-level APU:
/// throughput (jobs/s), p50/p99 virtual-time latency, and rejection rate
/// vs. the arrival gap, with the strict-FIFO baseline alongside, plus the
/// preemption-enabled run (eviction count and latency) and a live-resize
/// run that halves every budget for the middle of the trace.
pub fn service_scenario() -> Vec<ServiceRow> {
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    [500u64, 2_000, 8_000, 32_000]
        .iter()
        .map(|&gap| {
            let cfg = TraceConfig {
                mean_gap_us: gap,
                ..TraceConfig::default()
            };
            let replay = |policy| {
                let sched = SchedulerConfig {
                    policy,
                    ..SchedulerConfig::default()
                };
                run_service_with(&tree, synthetic_trace(&tree, &cfg), sched)
            };
            let fair = replay(AdmissionPolicy::WeightedFair).expect("weighted-fair service run");
            let fifo = replay(AdmissionPolicy::Fifo).expect("fifo service run");
            // Preemption and live resize only matter when the staging
            // level is contended, so those two series run the same mix at
            // paper scale (scale = 1): hotspot holds ~1/4 of DRAM and
            // arrivals overlap, so interactive bursts actually evict.
            let contended = TraceConfig {
                scale: 1,
                ..cfg.clone()
            };
            let preempt = run_service_with(
                &tree,
                synthetic_trace(&tree, &contended),
                SchedulerConfig {
                    preempt: true,
                    ..SchedulerConfig::default()
                },
            )
            .expect("preemption service run");
            // Live reconfiguration: lose half of every memory level for
            // the middle half of the trace span, evicting as needed.
            let resized = {
                let mut sched = JobScheduler::new(
                    tree.clone(),
                    SchedulerConfig {
                        preempt: true,
                        resize_drain: ResizeDrain::Preempt,
                        ..SchedulerConfig::default()
                    },
                );
                for spec in synthetic_trace(&tree, &contended) {
                    sched.submit(spec);
                }
                let full = NodeBudgets::from_tree(&tree, 1.0);
                let span_s = contended.jobs as f64 * gap as f64 * 1e-6;
                sched.resize_budgets(SimTime::from_secs_f64(span_s * 0.25), full.scaled(0.5));
                sched.resize_budgets(SimTime::from_secs_f64(span_s * 0.75), full);
                sched.run().expect("resize service run")
            };
            // Chaos: the same trace under a seeded transient-fault plan
            // (~3% per stage booking); retries and backoff are charged in
            // virtual time, so fault tolerance shows up as a throughput
            // delta against the fault-free fair run.
            let chaos = run_service_with(
                &tree,
                synthetic_trace(&tree, &cfg),
                SchedulerConfig {
                    fault_plan: Some(FaultPlan::new(29).transient_rate(2_000)),
                    ..SchedulerConfig::default()
                },
            )
            .expect("chaos service run");
            ServiceRow {
                mean_gap_us: gap,
                fair_throughput: fair.throughput,
                fifo_throughput: fifo.throughput,
                p50_latency_s: fair.p50_latency.as_secs_f64(),
                p99_latency_s: fair.p99_latency.as_secs_f64(),
                rejection_rate: fair.rejection_rate,
                preemptions: preempt.total_preemptions(),
                preempt_latency_s: preempt.mean_preemption_latency().as_secs_f64(),
                resize_throughput: resized.throughput,
                chaos_throughput: chaos.throughput,
                chaos_faults: chaos.fault_log.len(),
                chaos_retries: chaos.total_retries(),
                chaos_backoff_s: chaos.total_backoff().as_secs_f64(),
                chaos_recovered: chaos.jobs_recovered(),
                chaos_failed: chaos.count(JobState::Failed),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// SLO overload study and seeded chaos scenarios (northup-sched)
// ---------------------------------------------------------------------------

/// One run of the open-loop overload study (`figures -- slo`).
#[derive(Debug, Clone)]
pub struct SloRun {
    /// `on` (SLO controller), `off` (the uncontrolled witness) or `auto`
    /// (controller with budget autoscaling up to 400 %).
    pub control: &'static str,
    /// Offered load as a percentage of estimated capacity.
    pub load_pct: u32,
    /// The scheduler's report for the run.
    pub report: SchedReport,
}

impl SloRun {
    /// Sheds that hit the guaranteed (Interactive) class.
    pub fn sheds_interactive(&self) -> usize {
        let sheds = self.report.shed_log.iter();
        sheds.filter(|s| s.class == Priority::Interactive).count()
    }

    /// Highest controller tier any control tick reached (0 without one).
    pub fn max_tier(&self) -> u8 {
        let tiers = self.report.slo_log.iter().map(|s| s.tier);
        tiers.max().unwrap_or(0)
    }

    /// Budget scale at the last control tick (100 ⇒ never grown).
    pub fn scale_pct(&self) -> u32 {
        self.report.slo_log.last().map_or(100, |s| s.scale_pct)
    }
}

/// Jobs in each [`slo_study`] trace.
pub const SLO_JOBS: usize = 320;

/// The fixed-seed overload study (DESIGN.md §15): the same 320-job
/// open-loop trace at 1×/1.5×/2× estimated capacity through the SLO
/// feedback controller, then at 2× without it (the regression witness)
/// and at 2× with autoscaling. Rows come back in that order.
pub fn slo_study() -> [SloRun; 5] {
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    let run = |control, load_pct, slo| {
        let cfg = OverloadConfig {
            jobs: SLO_JOBS,
            seed: 11,
            load_pct,
            ..OverloadConfig::default()
        };
        SloRun {
            control,
            load_pct,
            report: run_service_slo(&tree, overload_trace(&tree, &cfg), slo)
                .expect("overload service run"),
        }
    };
    [
        run("on", 100, Some(overload_slo())),
        run("on", 150, Some(overload_slo())),
        run("on", 200, Some(overload_slo())),
        run("off", 200, None),
        run("auto", 200, Some(SloConfig { autoscale: true })),
    ]
}

/// Fault accounting for one seeded chaos scenario (a `figures -- chaos`
/// row; see DESIGN.md §10).
#[derive(Debug, Clone)]
pub struct ChaosSummary {
    /// Scenario name (`transient-recovery` / `persistent-quarantine`).
    pub scenario: &'static str,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that reached `Done`.
    pub done: usize,
    /// Jobs that reached `Failed`.
    pub failed: usize,
    /// Jobs rejected at admission (infeasible after quarantine).
    pub rejected: usize,
    /// Stage faults injected (transient + persistent).
    pub faults: usize,
    /// Bounded-backoff retries performed.
    pub retries: u64,
    /// Virtual time spent backing off (s).
    pub backoff_s: f64,
    /// Fault-driven chain re-routes onto surviving leaves.
    pub reroutes: u64,
    /// Jobs that observed at least one fault and still finished `Done`.
    pub recovered: usize,
    /// Nodes fenced by quarantine (raw ids).
    pub quarantined: Vec<usize>,
    /// Trace makespan in virtual seconds.
    pub makespan_s: f64,
}

/// The two fixed-seed chaos scenarios:
///
/// 1. **transient-recovery** — a transient-only plan over the two-level
///    APU; every job must recover to `Done` through retry/backoff alone.
/// 2. **persistent-quarantine** — a persistent plan scoped to the Fig. 2
///    DRAM leaf; the node must be fenced and the whole trace must still
///    complete on the surviving subtrees.
pub fn chaos_accounting() -> [ChaosSummary; 2] {
    let job = |name: String, chunks: u32| {
        JobSpec::new(
            name,
            Reservation::new(),
            JobWork::new(chunks)
                .read(16 << 20)
                .xfer(16 << 20)
                .compute(SimDur::from_millis(1))
                .write(4 << 20),
        )
    };
    let transient = {
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let mut sched = JobScheduler::new(
            tree,
            SchedulerConfig {
                fault_plan: Some(FaultPlan::new(42).transient_rate(3_000)),
                ..SchedulerConfig::default()
            },
        );
        for i in 0..12 {
            sched.submit(job(format!("t{i}"), 4));
        }
        sched.run().expect("transient chaos run")
    };
    let persistent = {
        let tree = presets::asymmetric_fig2();
        let mut sched = JobScheduler::new(
            tree,
            SchedulerConfig {
                fault_plan: Some(
                    FaultPlan::new(7)
                        .persistent_rate(65_536)
                        .on_nodes([northup::NodeId(1)]),
                ),
                quarantine_after: 2,
                ..SchedulerConfig::default()
            },
        );
        for i in 0..8 {
            sched.submit(job(format!("p{i}"), 3));
        }
        sched.run().expect("persistent chaos run")
    };
    let summarize = |scenario, r: SchedReport| ChaosSummary {
        scenario,
        jobs: r.jobs.len(),
        done: r.count(JobState::Done),
        failed: r.count(JobState::Failed),
        rejected: r.count(JobState::Rejected),
        faults: r.fault_log.len(),
        retries: r.total_retries(),
        backoff_s: r.total_backoff().as_secs_f64(),
        reroutes: r.jobs.iter().map(|j| u64::from(j.fault.reroutes)).sum(),
        recovered: r.jobs_recovered(),
        quarantined: r.quarantined_nodes().iter().map(|n| n.0).collect(),
        makespan_s: r.makespan.as_secs_f64(),
    };
    [
        summarize("transient-recovery", transient),
        summarize("persistent-quarantine", persistent),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shape_holds() {
        let rows = fig6().unwrap();
        assert_eq!(rows.len(), 3);
        let m = &rows[0];
        let h = &rows[1];
        let s = &rows[2];
        // GEMM least slowed; CSR most slowed on SSD; HDD >= SSD everywhere.
        assert!(m.ssd < h.ssd && h.ssd < s.ssd, "{rows:?}");
        for r in &rows {
            assert!(r.hdd >= r.ssd * 0.999, "{r:?}");
            assert!(r.ssd >= 1.0);
        }
        // GEMM hides I/O nearly completely.
        assert!(m.ssd < 1.15, "{}", m.ssd);
    }

    #[test]
    fn fig6_large_preserves_the_shape() {
        let rows = fig6_large().unwrap();
        assert_eq!(rows.len(), 2);
        // The 32k GEMM is even more compute-bound than 16k: I/O still hides.
        assert!(rows[0].ssd < 1.1, "{rows:?}");
        assert!(rows[1].hdd > rows[1].ssd);
    }

    #[test]
    fn fig7_shares_sum_to_one() {
        for row in fig7().unwrap() {
            let sum = row.cpu + row.gpu + row.setup + row.io + row.xfer;
            assert!((sum - 1.0).abs() < 1e-9, "{row:?}");
        }
    }

    #[test]
    fn fig7_gpu_share_rises_with_ssd() {
        let rows = fig7().unwrap();
        for &app in &App::ALL {
            let hdd = rows
                .iter()
                .find(|r| r.app == app && r.storage == "hdd")
                .unwrap();
            let ssd = rows
                .iter()
                .find(|r| r.app == app && r.storage == "ssd")
                .unwrap();
            assert!(
                ssd.gpu > hdd.gpu,
                "{}: gpu share {} -> {}",
                app.label(),
                hdd.gpu,
                ssd.gpu
            );
        }
        // The CSR runs charge visible CPU (row binning) time.
        for r in rows.iter().filter(|r| r.app == App::Spmv) {
            assert!(r.cpu > 0.01, "{r:?}");
        }
    }

    #[test]
    fn fig8_transfer_burden_ordered_like_paper() {
        // Paper: OpenCL transfers 7% / 12% / 33% for matmul / hotspot / csr —
        // the transfer burden grows from matmul to csr. On our disk-backed
        // 3-level tree the file I/O dominates the absolute shares, so the
        // robust paper shape is the transfer time *relative to GPU compute*
        // (bytes moved per unit of useful work), which must increase
        // strictly from matmul to hotspot to csr.
        let rows = fig8().unwrap();
        let ratio: Vec<f64> = rows.iter().map(|r| r.xfer / r.gpu.max(1e-12)).collect();
        assert!(ratio[0] < ratio[1], "{ratio:?}");
        assert!(ratio[1] < ratio[2], "{ratio:?}");
        assert!(rows.iter().all(|r| r.xfer > 0.0));
    }

    #[test]
    fn fig9_monotone_and_bounded_by_in_memory() {
        for series in fig9().unwrap() {
            for w in series.points.windows(2) {
                assert!(w[1].io_norm <= w[0].io_norm + 1e-9, "{series:?}");
                assert!(w[1].overall_norm <= w[0].overall_norm + 1e-9);
                assert!(w[1].overall_first_order <= w[0].overall_first_order + 1e-9);
            }
            assert!(
                (series.points[0].overall_norm - 1.0).abs() < 1e-9,
                "base point is the normalization"
            );
            // In-memory is the performance upper bound (paper §V-D).
            let fastest = series.points.last().unwrap();
            assert!(series.in_memory_norm <= fastest.overall_norm + 1e-9);
        }
    }

    #[test]
    fn fig11_has_nine_bars_and_32_is_best_absolute() {
        let bars = fig11();
        assert_eq!(bars.len(), 9);
        for input in [(16_384usize, 2_048usize), (16_384, 4_096), (32_768, 4_096)] {
            let abs: Vec<SimDur> = bars
                .iter()
                .filter(|b| b.input == input)
                .map(|b| b.absolute)
                .collect();
            assert!(abs[2] < abs[1] && abs[1] < abs[0], "{input:?}: {abs:?}");
        }
    }

    #[test]
    fn caching_study_matches_the_papers_argument() {
        let study = caching_study().unwrap();
        // Streaming (no reuse): the transparent cache pays fill overhead
        // for nothing — Northup's explicit streaming is faster.
        let (cached, explicit, hit) = study.streaming;
        assert_eq!(hit, 0.0, "streaming never reuses a block");
        assert!(
            explicit < cached,
            "explicit {explicit} should beat cache {cached} on streaming"
        );
        // High reuse: both approaches serve from the SSD after the cold
        // pass; explicit management is at least as fast (no per-block
        // fill+re-read overhead).
        let (cached, explicit, hit) = study.reuse;
        assert!(hit > 0.8, "reuse workload mostly hits: {hit}");
        assert!(
            explicit <= cached,
            "explicit {explicit} should match/beat cache {cached} on reuse"
        );
    }

    #[test]
    fn temporal_blocking_slowdown_is_non_increasing() {
        // Constant 64 total steps: deeper blocking only amortizes I/O.
        let series = ablation_temporal_blocking().unwrap();
        let steps: Vec<usize> = series.iter().map(|&(s, _)| s).collect();
        assert_eq!(steps, [8, 16, 32, 64]);
        for w in series.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "{series:?}");
        }
    }

    #[test]
    fn ring_depths_are_makespan_identical_on_hdd() {
        let series = ablation_ring_depth().unwrap();
        let rings: Vec<usize> = series.iter().map(|&(r, _)| r).collect();
        assert_eq!(rings, [2, 3, 4]);
        assert!(series.iter().all(|&(_, m)| m == series[0].1), "{series:?}");
    }

    #[test]
    fn nvm_and_transform_ablations_keep_their_direction() {
        // Compute-bound GEMM: the mapping is an interface choice, <1% apart.
        let nvm = ablation_nvm_mapping().unwrap();
        let ratio = nvm[1].1.as_secs_f64() / nvm[0].1.as_secs_f64();
        assert!((0.99..=1.01).contains(&ratio), "{nvm:?}");
        // The inline transpose charges a permute pass on top of the move.
        let moves = ablation_layout_transform().unwrap();
        assert!(moves[1].1 > moves[0].1, "{moves:?}");
    }

    #[test]
    fn service_scenario_fair_beats_fifo_somewhere() {
        let rows = service_scenario();
        assert_eq!(rows.len(), 4);
        // Acceptance: concurrent admission of non-conflicting jobs yields
        // higher aggregate throughput than strict FIFO serialization.
        assert!(
            rows.iter().any(|r| r.fair_throughput > r.fifo_throughput),
            "{rows:?}"
        );
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.rejection_rate));
            assert!(r.p99_latency_s >= r.p50_latency_s);
            assert!(r.resize_throughput > 0.0, "{r:?}");
            assert!(r.preempt_latency_s >= 0.0);
            assert!(r.chaos_throughput > 0.0, "{r:?}");
            assert!(r.chaos_backoff_s >= 0.0);
        }
        // The chaos series must actually inject and recover somewhere.
        assert!(
            rows.iter()
                .any(|r| r.chaos_faults > 0 && r.chaos_recovered > 0),
            "chaos series never faulted: {rows:?}"
        );
        // At the highest offered load the contended trace must actually
        // exercise chunk-boundary eviction.
        assert!(
            rows.iter().any(|r| r.preemptions > 0),
            "no load point preempted: {rows:?}"
        );
    }

    #[test]
    fn headline_average_is_moderate() {
        let h = headline().unwrap();
        assert_eq!(h.gaps.len(), 3);
        // Paper: 17% average. Our model should land within a loose band.
        assert!((0.02..0.60).contains(&h.average), "{h:?}");
    }

    /// The overload gate (DESIGN.md §15): one assertion per acceptance
    /// criterion, so a failure names the criterion.
    #[test]
    fn slo_controller_holds_the_target_at_twice_capacity() {
        use northup_sched::{RejectReason, INTERACTIVE_TARGET};
        let [at_capacity, _, overload, off, auto] = &slo_study();
        assert_eq!((overload.control, overload.load_pct), ("on", 200));
        let target = INTERACTIVE_TARGET;
        let p99i = |r: &SloRun| r.report.class_p99(Priority::Interactive);

        assert!(
            p99i(overload) <= target,
            "controller failed to hold the SLO at 2x: p99i {:?} > {target:?}",
            p99i(overload)
        );
        assert!(
            p99i(off) > target,
            "witness run did not breach at 2x: p99i {:?} <= {target:?}",
            p99i(off)
        );
        assert!(!overload.report.shed_log.is_empty(), "no shedding at 2x");
        assert_eq!(
            overload.sheds_interactive(),
            0,
            "the guaranteed class was shed"
        );
        assert!(
            overload.report.degraded_jobs() > 0,
            "brownout never engaged at 2x"
        );
        assert!(
            at_capacity.report.shed_log.is_empty(),
            "false-positive shedding at 1x capacity"
        );
        assert!(
            auto.report.capacity_needed_pct > 100,
            "autoscale projection reported no extra capacity needed"
        );
        assert!(
            auto.scale_pct() > 100 && auto.max_tier() == 4,
            "autoscale never grew the budgets (tier 4 unreached)"
        );
        for run in [overload, off, auto] {
            let (name, r) = (run.control, &run.report);
            let settled =
                [JobState::Done, JobState::Failed, JobState::Rejected].map(|state| r.count(state));
            assert!(
                r.all_terminal() && settled.iter().sum::<usize>() == SLO_JOBS,
                "{name}: {settled:?} of {SLO_JOBS} arrivals settled"
            );
            let by_reason: usize = RejectReason::ALL.iter().map(|&x| r.rejected_for(x)).sum();
            assert_eq!(
                by_reason,
                r.count(JobState::Rejected),
                "{name}: typed reasons do not partition the rejections"
            );
        }
    }

    /// The chaos gate (DESIGN.md §10). Bit-identical replay of faulted
    /// runs is `fault_props::chaos_replays_bit_identically`.
    #[test]
    fn chaos_scenarios_recover_and_quarantine() {
        let rows = chaos_accounting();
        let [transient, persistent] = &rows;
        for r in &rows {
            assert!(r.faults > 0, "{}: plan injected nothing", r.scenario);
        }
        assert_eq!(transient.done, transient.jobs, "full transient recovery");
        assert!(transient.recovered > 0, "recovery went through a fault");
        assert_eq!(persistent.quarantined, [1], "the faulty leaf is fenced");
        assert_eq!(
            (persistent.jobs, persistent.done),
            (8, 8),
            "free jobs must finish on the survivors"
        );
    }
}
