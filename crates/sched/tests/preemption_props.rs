//! Property tests for chunk-granular preemption and live budget
//! reconfiguration:
//!
//! (a) every chunk executes exactly once — across any number of
//!     evict/resume cycles, a job's chunk log is a duplicate-free prefix
//!     `0..chunks_done`, and `Done` jobs complete every declared chunk;
//! (b) committed bytes never exceed the budget *envelope* — the largest
//!     budget in force up to that instant (a drain-mode shrink lets
//!     admitted jobs finish but never grows the commitment);
//! (c) the schedule stays bit-identical with preemption and resizes
//!     both enabled;
//! (d) preemptions conserve capacity accounting: each `Preempted`
//!     admission-log event pairs with a preceding `Admitted` for the
//!     same job, and evicted jobs are re-admitted or rejected, never
//!     lost.

use northup::presets;
use northup_hw::catalog;
use northup_sched::{
    AdmissionEventKind, JobScheduler, JobSpec, JobState, JobWork, NodeBudgets, Priority,
    Reservation, ResizeDrain, SchedReport, SchedulerConfig, TenantId,
};
use northup_sim::{SimDur, SimTime};
use proptest::prelude::*;

/// (dram fraction, chunks, priority index, arrival µs, tenant).
type JobTuple = (f64, u32, usize, u64, u32);
/// (resize µs, budget factor).
type ResizeTuple = (u64, f64);

fn job_strategy() -> impl Strategy<Value = JobTuple> {
    (0.05f64..0.95, 0u32..6, 0usize..3, 0u64..5_000, 0u32..3)
}

fn resize_strategy() -> impl Strategy<Value = ResizeTuple> {
    (0u64..50_000, 0.3f64..1.0)
}

struct Scenario {
    report: SchedReport,
    chunks_declared: Vec<u32>,
}

fn build(trace: &[JobTuple], resizes: &[ResizeTuple], drain: ResizeDrain) -> Scenario {
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    let dram = tree.children(tree.root())[0];
    let budget = tree.node(dram).mem.capacity;
    let full = NodeBudgets::from_tree(&tree, 1.0);
    let mut sched = JobScheduler::new(
        tree,
        SchedulerConfig {
            preempt: true,
            resize_drain: drain,
            ..SchedulerConfig::default()
        },
    );
    let mut chunks_declared = Vec::new();
    for (i, &(frac, chunks, prio, arrival_us, tenant)) in trace.iter().enumerate() {
        chunks_declared.push(chunks);
        sched.submit(
            JobSpec::new(
                format!("p{i}"),
                Reservation::new().with(dram, (budget as f64 * frac) as u64),
                JobWork::new(chunks)
                    .read(8 << 20)
                    .xfer(8 << 20)
                    .compute(SimDur::from_micros(500)),
            )
            .priority(Priority::ALL[prio])
            .tenant(TenantId(tenant))
            .arrival(SimTime::from_secs_f64(arrival_us as f64 * 1e-6)),
        );
    }
    for &(at_us, factor) in resizes {
        sched.resize_budgets(
            SimTime::from_secs_f64(at_us as f64 * 1e-6),
            full.scaled(factor),
        );
    }
    Scenario {
        report: sched.run().unwrap(),
        chunks_declared,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_chunk_executes_exactly_once(
        trace in prop::collection::vec(job_strategy(), 0..12),
        resizes in prop::collection::vec(resize_strategy(), 0..3),
    ) {
        let sc = build(&trace, &resizes, ResizeDrain::Preempt);
        prop_assert!(sc.report.all_terminal());
        for (i, j) in sc.report.jobs.iter().enumerate() {
            let mut seen: Vec<u32> = sc.report.chunk_log.iter()
                .filter(|c| c.job == j.id)
                .map(|c| c.index)
                .collect();
            seen.sort_unstable();
            // A duplicate-free prefix 0..chunks_done, whatever mixture of
            // evictions and resumes the job went through.
            let expect: Vec<u32> = (0..j.chunks_done).collect();
            prop_assert_eq!(
                &seen, &expect,
                "job {} (state {:?}, {} preemptions) chunk log mismatch",
                j.name, j.state, j.preemptions
            );
            if j.state == JobState::Done {
                prop_assert_eq!(j.chunks_done, sc.chunks_declared[i]);
            }
        }
    }

    #[test]
    fn committed_never_exceeds_the_budget_envelope(
        trace in prop::collection::vec(job_strategy(), 0..12),
        resizes in prop::collection::vec(resize_strategy(), 0..3),
        preempt_drain in any::<bool>(),
    ) {
        let drain = if preempt_drain { ResizeDrain::Preempt } else { ResizeDrain::Drain };
        let sc = build(&trace, &resizes, drain);
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        for s in sc.report.capacity_trace() {
            // The envelope at s.at: the largest budget in force at any
            // instant up to s.at (initial budgets = full capacity).
            let mut envelope = tree.node(s.node).mem.capacity;
            let shrunk = sc.report.resize_log.iter()
                .filter(|r| r.at <= s.at)
                .map(|r| r.budgets[s.node.0])
                .max();
            if let Some(m) = shrunk {
                envelope = envelope.max(m);
            }
            prop_assert!(
                s.committed <= envelope,
                "node {:?} committed {} > envelope {} at {:?}",
                s.node, s.committed, envelope, s.at
            );
        }
    }

    #[test]
    fn schedule_is_bit_identical_with_all_features_on(
        trace in prop::collection::vec(job_strategy(), 0..10),
        resizes in prop::collection::vec(resize_strategy(), 0..2),
    ) {
        let s1 = build(&trace, &resizes, ResizeDrain::Preempt);
        let s2 = build(&trace, &resizes, ResizeDrain::Preempt);
        prop_assert!(s1.report.admission_order().eq(s2.report.admission_order()));
        prop_assert_eq!(s1.report.makespan, s2.report.makespan);
        prop_assert_eq!(&s1.report.chunk_log, &s2.report.chunk_log);
        prop_assert!(s1.report.capacity_trace().eq(s2.report.capacity_trace()));
        for (a, b) in s1.report.jobs.iter().zip(s2.report.jobs.iter()) {
            prop_assert_eq!(a.state, b.state);
            prop_assert_eq!(a.finished_at, b.finished_at);
            prop_assert_eq!(a.preemptions, b.preemptions);
        }
    }

    #[test]
    fn preemptions_conserve_admission_accounting(
        trace in prop::collection::vec(job_strategy(), 0..12),
    ) {
        let sc = build(&trace, &[], ResizeDrain::Drain);
        prop_assert!(sc.report.all_terminal());
        for j in &sc.report.jobs {
            let admits = sc.report.admission_log.iter()
                .filter(|e| e.job == j.id && e.kind == AdmissionEventKind::Admitted)
                .count();
            let preempts = sc.report.admission_log.iter()
                .filter(|e| e.job == j.id && e.kind == AdmissionEventKind::Preempted)
                .count();
            let releases = sc.report.admission_log.iter()
                .filter(|e| e.job == j.id && e.kind == AdmissionEventKind::Released)
                .count();
            prop_assert_eq!(preempts, j.preemptions as usize);
            // Every admission ends in exactly one eviction or release,
            // and nothing is released that was never admitted.
            prop_assert_eq!(admits, preempts + releases);
            prop_assert!(releases <= 1);
            // An evicted-then-rejected job keeps its partial progress.
            if j.state == JobState::Done || j.preemptions > 0 {
                prop_assert!(admits >= 1);
            }
        }
    }
}
