//! The seven workloads. Each is one end-to-end call into the product at a
//! fixed input size, with inputs made from the seed, a reference result
//! made in set-up, a check of every repetition's output, and a traced
//! variant that measures the layers the workload passes through.

use crate::metrics::Metrics;
use crate::timed_backend::{BackendStats, TimedBackend};
use crate::trace::Tracer;
use northup::runtime::SetupCosts;
use northup::{presets, ExecMode, Runtime, Tree};
use northup_apps::AppRun;
use northup_hw::{catalog, FileBackend, HeapBackend, StorageBackend, StorageClass};
use std::sync::Arc;

pub mod fleet_replay;
pub mod gemm;
pub mod hotspot;
pub mod sched_overload;
pub mod sched_replay;
pub mod service_real;
pub mod spmv;

/// Outcome of checking one repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Check {
    /// Operations attempted: jobs submitted, or result checks made.
    pub attempted: u64,
    /// Operations that did not end as the workload's contract says.
    pub failed: u64,
    /// Operations that succeeded: jobs `Done`, or result checks passed.
    /// Less than `attempted - failed` only where the workload refuses
    /// work by design (`sched_overload`).
    pub done: u64,
}

impl Check {
    /// `attempted` operations of which `failed` failed and the rest succeeded.
    pub fn of(attempted: u64, failed: u64) -> Check {
        Check {
            attempted,
            failed,
            done: attempted - failed,
        }
    }

    pub fn add(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.done += other.done;
    }
}

pub trait Workload: Sized {
    /// What one repetition returns, kept until it has been checked.
    type Out;
    /// What one traced repetition returns: its output and the times and
    /// counters its spans do not carry.
    type Traced;

    /// Generate the inputs from `seed`, build tree/runtime/pool, compute
    /// the reference result. Everything here is `setup_s`.
    fn setup(seed: u64, threads: usize) -> Self;

    /// Work units one repetition completes (the unit of `units_per_s`).
    fn units(&self) -> f64;

    /// One repetition: the workload's end-to-end call, nothing else.
    fn rep(&self) -> Self::Out;

    /// Check a repetition's output against the reference (not timed).
    fn check(&mut self, out: Self::Out) -> Check;

    /// Spoil the reference so that `check` must fail (`--corrupt-reference`).
    fn corrupt_reference(&mut self);

    /// One repetition with a span around each call into a layer. The
    /// harness alternates these with untraced repetitions; the difference
    /// of the two medians is `trace.overhead_pct`.
    fn traced_rep(&self, tr: &mut Tracer) -> Self::Traced;

    /// Turn the last traced repetition (wall time `wall_s`, spans in
    /// `tr`) into per-layer metrics, probe the layers it uses and check
    /// its output. `untraced_wall_s` is the median wall time of the
    /// untraced repetitions it alternated with.
    fn report(
        &mut self,
        tr: &mut Tracer,
        m: &mut Metrics,
        traced: Self::Traced,
        wall_s: f64,
        untraced_wall_s: f64,
    ) -> Check;
}

/// The paper's two-level APU machine: SSD root, 2 GB DRAM staging leaf.
pub fn apu_tree() -> Tree {
    presets::apu_two_level(catalog::ssd_hyperx_predator())
}

/// `a` equals `b` within `rel` of `b`'s magnitude.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * b.abs().max(f64::MIN_POSITIVE)
}

/// A Real-mode runtime whose backends are timed: the file-class root on
/// one set of counters, every memory-class node on the other.
pub fn timed_runtime(tree: Tree) -> (Runtime, Arc<BackendStats>, Arc<BackendStats>) {
    let file = Arc::new(BackendStats::default());
    let heap = Arc::new(BackendStats::default());
    let rt = Runtime::with_custom_backends(tree, ExecMode::Real, SetupCosts::default(), &|node| {
        let spec = &node.mem;
        let timed: Box<dyn StorageBackend> = match spec.class {
            StorageClass::File => Box::new(TimedBackend::new(
                FileBackend::new(&spec.name, spec.capacity).expect("scratch directory is writable"),
                Arc::clone(&file),
            )),
            _ => Box::new(TimedBackend::new(
                HeapBackend::new(&spec.name, spec.capacity),
                Arc::clone(&heap),
            )),
        };
        Some(timed)
    })
    .expect("runtime over timed backends");
    (rt, file, heap)
}

/// Turn the backends' counters into `hw.*` metrics and trace tallies;
/// returns the seconds both backends were busy.
pub fn report_backends(
    tr: &mut Tracer,
    m: &mut Metrics,
    file: &BackendStats,
    heap: &BackendStats,
) -> f64 {
    let mut busy = 0.0;
    for (label, stats) in [("file", file), ("heap", heap)] {
        for (op, s) in [
            ("alloc", &stats.alloc),
            ("release", &stats.release),
            ("read", &stats.read),
            ("write", &stats.write),
        ] {
            let (count, ns, bytes) = s.get();
            tr.tally("hw", &format!("{label}.{op}"), count, ns, bytes);
        }
        let (ops, busy_s, bytes) = stats.totals();
        m.set(&format!("hw.{label}_busy_s"), busy_s);
        m.set(&format!("hw.{label}_ops"), ops as f64);
        m.set(&format!("hw.{label}_bytes"), bytes as f64);
        busy += busy_s;
    }
    busy
}

/// The reference side of an app workload: the in-memory baseline's
/// result (a checksum or an eigenvalue) and how long it took.
pub struct Baseline {
    pub reference: f64,
    pub wall_s: f64,
}

impl Baseline {
    /// One result check: `got` within `rel` of the reference.
    pub fn check(&self, got: Option<f64>, rel: f64) -> Check {
        Check::of(
            1,
            u64::from(!got.is_some_and(|g| close(g, self.reference, rel))),
        )
    }

    pub fn corrupt(&mut self) {
        self.reference = self.reference * 1.5 + 1.0;
    }
}

/// What the traced repetition of an app workload returns.
pub struct TracedApp {
    pub run: AppRun,
    pub file: Arc<BackendStats>,
    pub heap: Arc<BackendStats>,
}

/// The traced repetition of an app workload: `app` on a runtime over
/// `tree` whose backends are timed, under one span named `name`.
pub fn traced_app(
    tr: &mut Tracer,
    name: &str,
    tree: Tree,
    app: impl FnOnce(&Runtime) -> AppRun,
) -> TracedApp {
    let root = tr.begin(name, "apps");
    let s = tr.begin("Runtime::with_custom_backends", "core");
    let (rt, file, heap) = timed_runtime(tree);
    tr.end(s);
    let run = app(&rt);
    drop(rt);
    tr.end(root);
    TracedApp { run, file, heap }
}

/// The rows every app workload reports once its layers are accounted
/// for: what is left of `wall_s`, the model's makespan, the in-memory
/// baseline, and the storage and data-API probes.
pub fn report_app(
    m: &mut Metrics,
    untraced_wall_s: f64,
    run: &AppRun,
    wall_s: f64,
    accounted_s: f64,
    baseline: &Baseline,
) {
    m.set("apps.self_s", wall_s - accounted_s);
    m.set("core.modeled_makespan_s", run.makespan().as_secs_f64());
    m.set("apps.inmem_wall_s", baseline.wall_s);
    m.set("apps.ooc_slowdown", untraced_wall_s / baseline.wall_s);
    crate::probes::hw(m);
    crate::probes::core(m);
}
