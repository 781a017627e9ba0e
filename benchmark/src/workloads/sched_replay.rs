//! `sched_replay`: the event engine alone. A 300k-job mixed trace on one
//! fleet-shard tree with the `sched_engine` gate's clean configuration —
//! arrivals and stage completions only, nothing rejected — at a size
//! where the cost per event has left the 100k-job plateau.
//!
//! Also home of the engine tracing shared with `sched_overload`.

use super::{Check, Workload};
use crate::host::timed;
use crate::metrics::Metrics;
use crate::probes;
use crate::trace::Tracer;
use crate::ALLOC;
use northup::{presets, Tree};
use northup_apps::service::{synthetic_trace, TraceConfig};
use northup_sched::{report_digest, JobScheduler, JobSpec, JobState, SchedReport, SchedulerConfig};

const JOBS: usize = 300_000;
const PLATEAU_JOBS: usize = 100_000;
const MEAN_GAP_US: u64 = 7_000;
const SCALE: u64 = 32;

fn engine_cfg() -> SchedulerConfig {
    SchedulerConfig {
        max_queue: 8192,
        ..SchedulerConfig::default()
    }
}

fn trace_cfg(jobs: usize, seed: u64) -> TraceConfig {
    TraceConfig {
        jobs,
        seed,
        mean_gap_us: MEAN_GAP_US,
        scale: SCALE,
    }
}

/// A scheduler with every job of `trace` submitted.
fn loaded(tree: &Tree, trace: Vec<JobSpec>, cfg: SchedulerConfig) -> JobScheduler {
    let mut sched = JobScheduler::new(tree.clone(), cfg);
    for spec in trace {
        sched.submit(spec);
    }
    sched
}

/// Order-sensitive fold of what the seed decides about each job. The
/// report repeats these fields per job, so a repetition's regenerated
/// inputs can be compared with set-up's without touching the timed path.
pub fn fingerprint(jobs: impl Iterator<Item = (u64, u32, u8)>) -> u64 {
    jobs.fold(
        0xcbf2_9ce4_8422_2325,
        |h, (arrival_ns, tenant, priority)| {
            (h ^ arrival_ns ^ (u64::from(tenant) << 48) ^ (u64::from(priority) << 56))
                .wrapping_mul(0x0000_0100_0000_01b3)
        },
    )
}

fn trace_fingerprint(trace: &[JobSpec]) -> u64 {
    fingerprint(
        trace
            .iter()
            .map(|s| (s.arrival.0, s.tenant.0, s.priority as u8)),
    )
}

fn report_fingerprint(report: &SchedReport) -> u64 {
    fingerprint(
        report
            .jobs
            .iter()
            .map(|j| (j.arrival.0, j.tenant.0, j.priority as u8)),
    )
}

/// One engine run with a span around each public call and the counting
/// allocator read across `run()`.
pub struct EngineRun {
    pub report: SchedReport,
    pub digest: u64,
    jobs: usize,
    submit_s: f64,
    run_s: f64,
    digest_s: f64,
    span_s: f64,
    run_allocs: u64,
    run_alloc_bytes: u64,
}

pub fn traced_engine(
    tr: &mut Tracer,
    tree: &Tree,
    trace: Vec<JobSpec>,
    cfg: SchedulerConfig,
) -> EngineRun {
    let jobs = trace.len();
    let s = tr.begin("JobScheduler::new", "sched");
    let mut sched = JobScheduler::new(tree.clone(), cfg);
    let new_s = tr.end(s);
    let s = tr.begin("JobScheduler::submit (all jobs)", "sched");
    for spec in trace {
        sched.submit(spec);
    }
    let submit_s = tr.end(s);
    let before = ALLOC.snapshot();
    let s = tr.begin("JobScheduler::run", "sched");
    let report = sched.run().expect("replay");
    let run_s = tr.end(s);
    let after = ALLOC.snapshot();
    let s = tr.begin("report_digest", "sched");
    let digest = report_digest(&report);
    let digest_s = tr.end(s);
    EngineRun {
        report,
        digest,
        jobs,
        submit_s,
        run_s,
        digest_s,
        span_s: new_s + submit_s + run_s,
        run_allocs: after.allocs - before.allocs,
        run_alloc_bytes: after.bytes - before.bytes,
    }
}

/// A traced repetition of an engine workload: the run, the heap its
/// returned report holds, and the seconds spent generating the trace.
pub struct EngineTraced {
    pub run: EngineRun,
    pub report_bytes: usize,
    pub gen_s: f64,
}

impl EngineTraced {
    /// Set the `sched.*` rows every engine workload reports, print the
    /// schedule's digest and hand back the run. `wall_s` is the wall
    /// time of the repetition.
    pub fn report_metrics(self, m: &mut Metrics, wall_s: f64) -> EngineRun {
        let EngineTraced {
            run,
            report_bytes,
            gen_s,
        } = self;
        let (jobs, events) = (run.jobs as f64, run.report.events as f64);
        m.set("apps.trace_gen_ns_per_job", gen_s * 1e9 / jobs);
        m.set("sched.submit_ns_per_job", run.submit_s * 1e9 / jobs);
        m.set("sched.run_ns_per_event", run.run_s * 1e9 / events);
        m.set("sched.events", events);
        m.set("sched.events_per_s", events / run.run_s);
        m.set("sched.digest_ns_per_job", run.digest_s * 1e9 / jobs);
        m.set("sched.allocs_per_job", run.run_allocs as f64 / jobs);
        m.set(
            "sched.alloc_bytes_per_job",
            run.run_alloc_bytes as f64 / jobs,
        );
        m.set("sched.report_mb", report_bytes as f64 / 1e6);
        m.set("sched.span_share", run.span_s / wall_s);
        println!("# digest {:016x}", run.digest);
        run
    }
}

/// What an engine workload holds its repetitions against: the trace the
/// seed generates and the schedule the first repetition produced.
pub struct Expected {
    /// Fingerprint of the trace the seed generates.
    pub inputs: u64,
    /// Schedule digest of the first repetition; every later one must match.
    pub digest: Option<u64>,
}

impl Expected {
    pub fn of(trace: &[JobSpec]) -> Self {
        Expected {
            inputs: trace_fingerprint(trace),
            digest: None,
        }
    }

    /// The repetition replayed the seed's trace to the end and scheduled
    /// it exactly as the first one did.
    pub fn matches(&mut self, report: &SchedReport, digest: u64) -> bool {
        report_fingerprint(report) == self.inputs
            && report.all_terminal()
            && *self.digest.get_or_insert(digest) == digest
    }
}

pub struct SchedReplay {
    tree: Tree,
    seed: u64,
    expected: Expected,
}

impl SchedReplay {
    fn check_report(&mut self, report: &SchedReport, digest: u64) -> Check {
        let not_done = JOBS - report.count(JobState::Done);
        let failed = if self.expected.matches(report, digest) {
            not_done
        } else {
            JOBS
        };
        Check::of(JOBS as u64, failed as u64)
    }
}

impl Workload for SchedReplay {
    type Out = SchedReport;
    type Traced = EngineTraced;

    fn setup(seed: u64, _threads: usize) -> Self {
        let tree = presets::fleet_shard();
        let expected = Expected::of(&synthetic_trace(&tree, &trace_cfg(JOBS, seed)));
        SchedReplay {
            tree,
            seed,
            expected,
        }
    }

    fn units(&self) -> f64 {
        JOBS as f64
    }

    fn rep(&self) -> SchedReport {
        let trace = synthetic_trace(&self.tree, &trace_cfg(JOBS, self.seed));
        loaded(&self.tree, trace, engine_cfg())
            .run()
            .expect("replay")
    }

    fn check(&mut self, report: SchedReport) -> Check {
        let digest = report_digest(&report);
        self.check_report(&report, digest)
    }

    fn corrupt_reference(&mut self) {
        self.expected.inputs ^= 1;
    }

    fn traced_rep(&self, tr: &mut Tracer) -> EngineTraced {
        let root = tr.begin("sched_replay repetition", "harness");
        let live = ALLOC.snapshot().live;
        let s = tr.begin("synthetic_trace", "apps");
        let trace = synthetic_trace(&self.tree, &trace_cfg(JOBS, self.seed));
        let gen_s = tr.end(s);
        let run = traced_engine(tr, &self.tree, trace, engine_cfg());
        let report_bytes = ALLOC.snapshot().live.saturating_sub(live);
        tr.end(root);
        EngineTraced {
            run,
            report_bytes,
            gen_s,
        }
    }

    fn report(
        &mut self,
        _tr: &mut Tracer,
        m: &mut Metrics,
        traced: EngineTraced,
        wall_s: f64,
        _untraced_wall_s: f64,
    ) -> Check {
        let run = traced.report_metrics(m, wall_s);
        let (tree, seed) = (self.tree.clone(), self.seed);

        // The same configuration on the plateau: the cost per event there
        // is the base the workload's own cost is compared with.
        let plateau_trace = synthetic_trace(&tree, &trace_cfg(PLATEAU_JOBS, seed));
        let sched = loaded(&tree, plateau_trace, engine_cfg());
        let (plateau, t) = timed(|| sched.run().expect("plateau replay"));
        let plateau_ns = t * 1e9 / plateau.events as f64;
        drop(plateau);
        m.set("sched.run_ns_per_event_100k", plateau_ns);
        m.set(
            "sched.scale_penalty",
            m.get("sched.run_ns_per_event").expect("set above") / plateau_ns,
        );
        probes::calendar(m, MEAN_GAP_US);
        probes::sim(m);
        self.check_report(&run.report, run.digest)
    }
}
