//! `service_real`: the end-to-end path. A 96-job mixed trace is replayed
//! in virtual time and every admitted job's chunk chain is then executed
//! for real — one `RealFabric` arena per job, leased staging allocs,
//! `run_chain_with_retry` driving chunks whose checksum kernel fans out
//! over the pool with `par_for`.

use super::{apu_tree, Check, Workload};
use crate::metrics::Metrics;
use crate::probes;
use crate::trace::Tracer;
use northup::Tree;
use northup_apps::service::{
    run_service_real, run_service_with, synthetic_trace, ServiceRealRun, TraceConfig,
};
use northup_exec::{CancelToken, ThreadPool};
use northup_sched::{build_chain, AdmissionPolicy, Fabric, JobState, RealFabric, SchedulerConfig};
use northup_sim::SimTime;
use std::sync::Arc;
use std::time::Duration;

const JOBS: usize = 96;
const SCALE: u64 = 16;
const MEAN_GAP_US: u64 = 2_000;

/// Per job that ran chunks: `(job id, chunks run, checksum)`.
type Executed = Vec<(u64, u32, u64)>;

fn executed(run: &ServiceRealRun) -> Executed {
    run.jobs
        .iter()
        .map(|j| (j.id.0, j.chunks_run, j.checksum))
        .collect()
}

/// What the re-driven repetition executed, how many jobs the model left
/// unfinished, and the seconds its pieces took.
pub struct RealTraced {
    executed: Executed,
    not_done: usize,
    gen_s: f64,
    replay_s: f64,
    arena_s: f64,
    chunk_s: f64,
    chunks: u64,
}

pub struct ServiceReal {
    tree: Tree,
    trace_cfg: TraceConfig,
    threads: usize,
    /// What a single-threaded run executed: thread count must not change
    /// which chunks run or what they read.
    reference: Executed,
}

impl ServiceReal {
    fn check_executed(&self, got: &Executed, not_done: usize) -> Check {
        let mismatched = if got.len() == self.reference.len() {
            got.iter()
                .zip(&self.reference)
                .filter(|(a, b)| a != b)
                .count()
        } else {
            JOBS
        };
        Check::of(JOBS as u64, (not_done + mismatched).min(JOBS) as u64)
    }
}

impl Workload for ServiceReal {
    type Out = ServiceRealRun;
    type Traced = RealTraced;

    fn setup(seed: u64, threads: usize) -> Self {
        let tree = apu_tree();
        let trace_cfg = TraceConfig {
            jobs: JOBS,
            seed,
            mean_gap_us: MEAN_GAP_US,
            scale: SCALE,
        };
        let single = run_service_real(
            &tree,
            synthetic_trace(&tree, &trace_cfg),
            AdmissionPolicy::WeightedFair,
            1,
        )
        .expect("single-threaded reference run");
        ServiceReal {
            reference: executed(&single),
            tree,
            trace_cfg,
            threads,
        }
    }

    fn units(&self) -> f64 {
        JOBS as f64
    }

    fn rep(&self) -> ServiceRealRun {
        let trace = synthetic_trace(&self.tree, &self.trace_cfg);
        run_service_real(
            &self.tree,
            trace,
            AdmissionPolicy::WeightedFair,
            self.threads,
        )
        .expect("real service run")
    }

    fn check(&mut self, run: ServiceRealRun) -> Check {
        // Real execution must follow the model chunk for chunk.
        let diverged = run
            .jobs
            .iter()
            .filter(|j| j.chunks_run != run.report.job(j.id).chunks_done)
            .count();
        let not_done = JOBS - run.report.count(JobState::Done);
        self.check_executed(&executed(&run), not_done + diverged)
    }

    fn corrupt_reference(&mut self) {
        if let Some(first) = self.reference.first_mut() {
            first.2 ^= 1;
        }
    }

    /// Re-drives the public pieces `run_service_real` is made of, a span
    /// around each; `report` checks that they execute what it executes.
    fn traced_rep(&self, tr: &mut Tracer) -> RealTraced {
        let (tree, threads, trace_cfg) = (&self.tree, self.threads, &self.trace_cfg);
        let root = tr.begin("run_service_real (re-driven)", "apps");
        let s = tr.begin("synthetic_trace", "apps");
        let trace = synthetic_trace(tree, trace_cfg);
        let specs = trace.clone();
        let gen_s = tr.end(s);

        let s = tr.begin("run_service_with (model replay)", "sched");
        let cfg = SchedulerConfig {
            policy: AdmissionPolicy::WeightedFair,
            ..SchedulerConfig::default()
        };
        let report = run_service_with(tree, trace, cfg).expect("model replay");
        let replay_s = tr.end(s);

        let s = tr.begin("ThreadPool::new", "exec");
        let pool = Arc::new(ThreadPool::new(threads));
        tr.end(s);

        let (mut arena_s, mut chunk_s, mut chunks) = (0.0, 0.0, 0u64);
        let mut got = Executed::new();
        for (outcome, spec) in report.jobs.iter().zip(&specs) {
            let Some(leaf) = outcome.leaf else { continue };
            if outcome.chunks_done == 0 {
                continue;
            }
            let chain = build_chain(tree, leaf, spec.work.chunk_work(), spec.work.chunks);
            let per_chunk = spec
                .work
                .read_bytes
                .max(spec.work.xfer_bytes)
                .max(spec.work.write_bytes)
                .max(4 << 10);
            let s = tr.begin("RealFabric::new", "sched");
            let mut fab = RealFabric::new(tree, Arc::clone(&pool), per_chunk * 2).expect("arena");
            if let Some(lease) = outcome.lease() {
                fab.install_lease(lease);
            }
            arena_s += tr.end(s);

            let s = tr.begin("run_chain_with_retry", "exec");
            let token = CancelToken::new();
            let mut t = SimTime::ZERO;
            let stats = pool.run_chain_with_retry(
                0,
                outcome.chunks_done,
                &token,
                1,
                |_, _| Duration::ZERO,
                |i| {
                    let c = tr.begin("Fabric::run_chunk", "sched");
                    let ran = fab.run_chunk(&chain, i, t);
                    chunk_s += tr.end(c);
                    chunks += 1;
                    ran.map(|end| t = end).is_ok()
                },
            );
            tr.end(s);
            got.push((outcome.id.0, stats.completed, fab.checksum()));
            let s = tr.begin("RealFabric drop", "sched");
            drop(fab);
            arena_s += tr.end(s);
        }
        tr.end(root);
        RealTraced {
            executed: got,
            not_done: JOBS - report.count(JobState::Done),
            gen_s,
            replay_s,
            arena_s,
            chunk_s,
            chunks,
        }
    }

    fn report(
        &mut self,
        _tr: &mut Tracer,
        m: &mut Metrics,
        traced: RealTraced,
        _wall_s: f64,
        _untraced_wall_s: f64,
    ) -> Check {
        m.set(
            "apps.trace_gen_ns_per_job",
            traced.gen_s * 1e9 / JOBS as f64,
        );
        m.set("sched.real_model_replay_s", traced.replay_s);
        m.set("sched.real_arena_build_s", traced.arena_s);
        m.set("sched.real_chunk_s", traced.chunk_s);
        m.set("sched.real_chunks", traced.chunks as f64);

        probes::exec(m, self.threads);
        probes::hw(m);
        probes::core(m);
        self.check_executed(&traced.executed, traced.not_done)
    }
}
