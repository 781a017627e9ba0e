//! `sched_overload`: the engine's policy paths. A 75k-job open-loop trace
//! arrives at three times the APU tree's capacity and the SLO controller
//! defends the Interactive p99 — control ticks, percentile sampling,
//! queue caps, sheds and typed rejections. About two thirds of the jobs
//! are refused or shed *by design*; the rest is `done_ratio`, and
//! a job counts as failed only when the controller breaks its contract
//! (a Guaranteed-class job shed, a job left unsettled).
//!
//! Three times, not the `slo_report` gate's two: at 2x the controller
//! sits on a tipping point and the share of jobs it completes swings
//! between 46 % and 59 % from seed to seed, which no timing survives;
//! at 3x (as at 1.5x) the event count varies by under half a percent.

use super::sched_replay::{traced_engine, EngineTraced, Expected};
use super::{apu_tree, Check, Workload};
use crate::metrics::Metrics;
use crate::probes;
use crate::trace::Tracer;
use crate::ALLOC;
use northup::Tree;
use northup_apps::service::{overload_slo, overload_trace, run_service_slo, OverloadConfig};
use northup_sched::{
    report_digest, AdmissionPolicy, JobState, SchedReport, SchedulerConfig, SloClass,
};

const JOBS: usize = 75_000;

fn trace_cfg(seed: u64) -> OverloadConfig {
    OverloadConfig {
        jobs: JOBS,
        seed,
        load_pct: 300,
        scale: 32,
        concurrency: 3,
    }
}

pub struct SchedOverload {
    tree: Tree,
    seed: u64,
    expected: Expected,
}

impl SchedOverload {
    fn check_report(&mut self, report: &SchedReport, digest: u64) -> Check {
        let guaranteed_shed = report
            .shed_log
            .iter()
            .filter(|s| !SloClass::for_priority(s.class).sheddable())
            .count();
        if !self.expected.matches(report, digest) {
            return Check::of(JOBS as u64, JOBS as u64);
        }
        Check {
            attempted: JOBS as u64,
            failed: guaranteed_shed as u64,
            done: report.count(JobState::Done) as u64,
        }
    }
}

impl Workload for SchedOverload {
    type Out = SchedReport;
    type Traced = EngineTraced;

    fn setup(seed: u64, _threads: usize) -> Self {
        let tree = apu_tree();
        let expected = Expected::of(&overload_trace(&tree, &trace_cfg(seed)));
        SchedOverload {
            tree,
            seed,
            expected,
        }
    }

    fn units(&self) -> f64 {
        JOBS as f64
    }

    fn rep(&self) -> SchedReport {
        let trace = overload_trace(&self.tree, &trace_cfg(self.seed));
        run_service_slo(&self.tree, trace, Some(overload_slo())).expect("controlled replay")
    }

    fn check(&mut self, report: SchedReport) -> Check {
        let digest = report_digest(&report);
        self.check_report(&report, digest)
    }

    fn corrupt_reference(&mut self) {
        self.expected.inputs ^= 1;
    }

    /// Re-drives `run_service_slo` as the scheduler calls it is made of;
    /// the digest check ties the two together.
    fn traced_rep(&self, tr: &mut Tracer) -> EngineTraced {
        let root = tr.begin("sched_overload repetition", "harness");
        let live = ALLOC.snapshot().live;
        let s = tr.begin("overload_trace", "apps");
        let trace = overload_trace(&self.tree, &trace_cfg(self.seed));
        let gen_s = tr.end(s);
        let cfg = SchedulerConfig {
            policy: AdmissionPolicy::WeightedFair,
            preempt: false,
            slo: Some(overload_slo()),
            ..SchedulerConfig::default()
        };
        let run = traced_engine(tr, &self.tree, trace, cfg);
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
        probes::sim(m);
        self.check_report(&run.report, run.digest)
    }
}
