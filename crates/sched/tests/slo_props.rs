//! Property tests for the SLO overload controller:
//!
//! (a) shedding never touches the guaranteed class — no Interactive job
//!     is ever evicted or declined by the controller,
//! (b) degraded (browned-out) runs never violate the capacity envelope:
//!     brownout shrinks chunk work, never reservations, so every
//!     committed-bytes invariant still holds,
//! (c) control decisions are bit-identical across double runs — the
//!     controller is a pure function of virtual time and seeded state,
//! (d) every arrival is accounted for: terminal states partition the
//!     trace and the typed rejection reasons partition the rejections,
//!     with the shed log matching the shed-reason count exactly.

use northup::presets;
use northup_hw::catalog;
use northup_sched::{
    AdmissionPolicy, JobScheduler, JobSpec, JobState, JobWork, Priority, RejectReason, Reservation,
    SchedReport, SchedulerConfig, SloConfig,
};
use northup_sim::{SimDur, SimTime};
use proptest::prelude::*;

/// (dram fraction, chunks, priority index, arrival µs before [`SLOW`]).
type JobTuple = (f64, u32, usize, u64);

fn job_strategy() -> impl Strategy<Value = JobTuple> {
    (0.05f64..0.95, 0u32..6, 0usize..3, 0u64..30_000)
}

/// Work and arrivals are stretched this many times, so that small
/// generated traces push the controller's fixed 70 ms Interactive
/// target through every tier.
const SLOW: u64 = 20;

/// The controller's one setting, autoscale.
type SloTuple = bool;

fn slo_strategy() -> impl Strategy<Value = SloTuple> {
    any::<bool>()
}

fn slo_config(&autoscale: &SloTuple) -> SloConfig {
    SloConfig { autoscale }
}

fn build(trace: &[JobTuple], slo: Option<SloConfig>, preempt: bool) -> SchedReport {
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    let dram = tree.children(tree.root())[0];
    let budget = tree.node(dram).mem.capacity;
    let mut sched = JobScheduler::new(
        tree,
        SchedulerConfig {
            policy: AdmissionPolicy::WeightedFair,
            max_queue: 6,
            preempt,
            slo,
            ..SchedulerConfig::default()
        },
    );
    for (i, &(frac, chunks, prio, arrival_us)) in trace.iter().enumerate() {
        sched.submit(
            JobSpec::new(
                format!("s{i}"),
                Reservation::new().with(dram, (budget as f64 * frac) as u64),
                JobWork::new(chunks)
                    .read(SLOW * (8 << 20))
                    .xfer(SLOW * (8 << 20))
                    .compute(SimDur::from_micros(SLOW * 500)),
            )
            .priority(Priority::ALL[prio])
            .arrival(SimTime(SLOW * arrival_us * 1_000)),
        );
    }
    sched.run().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shedding_never_touches_the_guaranteed_class(
        trace in prop::collection::vec(job_strategy(), 0..14),
        slo in slo_strategy(),
    ) {
        let report = build(&trace, Some(slo_config(&slo)), false);
        for shed in &report.shed_log {
            prop_assert_ne!(shed.class, Priority::Interactive);
        }
        for out in &report.jobs {
            if out.priority == Priority::Interactive {
                prop_assert!(
                    out.reject_reason != Some(RejectReason::Shed),
                    "{} carries a shed reason", out.name
                );
            }
        }
    }

    #[test]
    fn degraded_runs_never_violate_the_capacity_envelope(
        trace in prop::collection::vec(job_strategy(), 0..14),
        slo in slo_strategy(),
        preempt in any::<bool>(),
    ) {
        let report = build(&trace, Some(slo_config(&slo)), preempt);
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let dram = tree.children(tree.root())[0];
        let budget = tree.node(dram).mem.capacity;
        // Autoscale may legitimately raise budgets; the envelope is the
        // scaled ceiling (4× the budget), never more.
        let ceiling = budget.saturating_mul(4);
        let scaled = report.slo_log.iter().any(|s| s.scale_pct > 100);
        for s in report.capacity_trace() {
            let cap = if scaled { ceiling } else { budget };
            prop_assert!(
                s.committed <= cap,
                "node {:?} committed {} > envelope {}",
                s.node, s.committed, cap
            );
        }
        for (node, peak) in report.max_committed_pairs() {
            let base = tree.node(node).mem.capacity;
            let cap = if scaled { base.saturating_mul(4) } else { base };
            prop_assert!(peak <= cap);
        }
    }

    #[test]
    fn control_decisions_are_bit_identical_across_runs(
        trace in prop::collection::vec(job_strategy(), 0..14),
        slo in slo_strategy(),
        preempt in any::<bool>(),
    ) {
        let a = build(&trace, Some(slo_config(&slo)), preempt);
        let b = build(&trace, Some(slo_config(&slo)), preempt);
        prop_assert_eq!(format!("{:?}", a.slo_log), format!("{:?}", b.slo_log));
        prop_assert_eq!(format!("{:?}", a.shed_log), format!("{:?}", b.shed_log));
        prop_assert!(a.admission_order().eq(b.admission_order()));
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.capacity_needed_pct, b.capacity_needed_pct);
    }

    #[test]
    fn every_arrival_is_accounted_for(
        trace in prop::collection::vec(job_strategy(), 0..14),
        slo in slo_strategy(),
    ) {
        let report = build(&trace, Some(slo_config(&slo)), false);
        prop_assert!(report.all_terminal());
        let settled = report.count(JobState::Done)
            + report.count(JobState::Failed)
            + report.count(JobState::Rejected);
        prop_assert_eq!(settled, trace.len(), "terminal states partition the trace");
        let by_reason: usize = RejectReason::ALL
            .iter()
            .map(|&r| report.rejected_for(r))
            .sum();
        prop_assert_eq!(
            by_reason,
            report.count(JobState::Rejected),
            "typed reasons partition the rejections"
        );
        // The shed log records exactly the jobs rejected as `Shed`.
        prop_assert_eq!(report.shed_log.len(), report.rejected_for(RejectReason::Shed));
    }
}
