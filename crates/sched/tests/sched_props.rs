//! Property tests for the scheduler invariants:
//!
//! (a) admitted reservations never exceed any node's budget at any
//!     virtual instant,
//! (b) every submitted job reaches a terminal state,
//! (c) the schedule is deterministic — the same trace produces the same
//!     admission order and makespan.

use northup::presets;
use northup_hw::catalog;
use northup_sched::{
    AdmissionPolicy, JobScheduler, JobSpec, JobWork, Priority, Reservation, SchedReport,
    SchedulerConfig,
};
use northup_sim::{SimDur, SimTime};
use proptest::prelude::*;

/// (dram fraction, chunks, priority index, arrival µs).
type JobTuple = (f64, u32, usize, u64);

fn job_strategy() -> impl Strategy<Value = JobTuple> {
    (0.05f64..0.95, 0u32..5, 0usize..3, 0u64..5_000)
}

fn build(trace: &[JobTuple], policy: AdmissionPolicy, max_queue: usize) -> SchedReport {
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    let dram = tree.children(tree.root())[0];
    let budget = tree.node(dram).mem.capacity;
    let mut sched = JobScheduler::new(
        tree,
        SchedulerConfig {
            policy,
            max_queue,
            ..SchedulerConfig::default()
        },
    );
    for (i, &(frac, chunks, prio, arrival_us)) in trace.iter().enumerate() {
        let spec = JobSpec::new(
            format!("p{i}"),
            Reservation::new().with(dram, (budget as f64 * frac) as u64),
            JobWork::new(chunks)
                .read(8 << 20)
                .xfer(8 << 20)
                .compute(SimDur::from_micros(500)),
        )
        .priority(Priority::ALL[prio])
        .arrival(SimTime::from_secs_f64(arrival_us as f64 * 1e-6));
        sched.submit(spec);
    }
    sched.run().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn committed_never_exceeds_budget(
        trace in prop::collection::vec(job_strategy(), 0..14),
        fifo in any::<bool>(),
    ) {
        let policy = if fifo { AdmissionPolicy::Fifo } else { AdmissionPolicy::WeightedFair };
        let report = build(&trace, policy, 8);
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let dram = tree.children(tree.root())[0];
        let budget = tree.node(dram).mem.capacity;
        for s in report.capacity_trace() {
            prop_assert!(
                s.committed <= budget,
                "node {:?} committed {} > budget {}",
                s.node, s.committed, budget
            );
        }
        for (node, peak) in report.max_committed_pairs() {
            prop_assert!(peak <= tree.node(node).mem.capacity);
        }
    }

    #[test]
    fn every_job_reaches_a_terminal_state(
        trace in prop::collection::vec(job_strategy(), 0..14),
    ) {
        let report = build(&trace, AdmissionPolicy::WeightedFair, 6);
        prop_assert!(report.all_terminal());
        for j in &report.jobs {
            prop_assert!(j.finished_at.is_some(), "{} has no finish time", j.name);
        }
    }

    #[test]
    fn same_trace_is_bit_identical(
        trace in prop::collection::vec(job_strategy(), 0..12),
    ) {
        let r1 = build(&trace, AdmissionPolicy::WeightedFair, 8);
        let r2 = build(&trace, AdmissionPolicy::WeightedFair, 8);
        prop_assert!(r1.admission_order().eq(r2.admission_order()));
        prop_assert_eq!(r1.makespan, r2.makespan);
        prop_assert!(r1.capacity_trace().eq(r2.capacity_trace()));
        for (a, b) in r1.jobs.iter().zip(r2.jobs.iter()) {
            prop_assert_eq!(a.state, b.state);
            prop_assert_eq!(a.finished_at, b.finished_at);
        }
    }
}
