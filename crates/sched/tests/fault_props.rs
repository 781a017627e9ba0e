//! Property tests for the fault-tolerance layer: random seeded fault
//! plans (transient + persistent rates, scoped or global, random
//! quarantine thresholds) driven over random job traces on the
//! multi-leaf Fig. 2 machine. Whatever the plan injects:
//!
//! (a) every job reaches a terminal state — retries are bounded, every
//!     persistent fault advances a node toward quarantine or a job toward
//!     its fault cap, and a fenced root fails the trace gracefully;
//! (b) no chunk ever executes twice — a job's chunk log stays a
//!     duplicate-free prefix `0..chunks_done` across any number of
//!     retries, fault evictions, and re-routed chains;
//! (c) the budget envelope holds under quarantine — committed bytes
//!     never exceed the node's capacity, and after a node is fenced its
//!     committed bytes never grow again;
//! (d) chaos replays bit-identically — same trace + same plan ⇒ the
//!     same report, fault log, and per-job fault accounting;
//! (e) admission accounting balances — every `Admitted` event pairs with
//!     exactly one `Released`, `Preempted`, or `FaultEvicted`.

use northup::presets;
use northup_sched::{
    AdmissionEventKind, FaultPlan, JobScheduler, JobSpec, JobState, JobWork, Priority, Reservation,
    SchedReport, SchedulerConfig, TenantId,
};
use northup_sim::{SimDur, SimTime};
use proptest::prelude::*;

/// (reserve fraction, chunks, priority index, arrival µs, tenant).
type JobTuple = (f64, u32, usize, u64, u32);
/// (seed, transient /64k, persistent /64k, quarantine_after, scoped).
type PlanTuple = (u64, u32, u32, u32, bool);

fn job_strategy() -> impl Strategy<Value = JobTuple> {
    (0.0f64..0.9, 0u32..6, 0usize..3, 0u64..5_000, 0u32..3)
}

fn plan_strategy() -> impl Strategy<Value = PlanTuple> {
    (
        any::<u64>(),
        0u32..12_000,
        0u32..2_000,
        1u32..4,
        any::<bool>(),
    )
}

fn make_plan(p: &PlanTuple) -> FaultPlan {
    let &(seed, transient, persistent, _, scoped) = p;
    let mut plan = FaultPlan::new(seed)
        .transient_rate(transient)
        .persistent_rate(persistent);
    if scoped {
        // Fence-able subtree: the NVM hop and its GPU leaf (Fig. 2).
        plan = plan.on_nodes([northup::NodeId(2), northup::NodeId(5)]);
    }
    plan
}

fn build(trace: &[JobTuple], p: &PlanTuple) -> SchedReport {
    let tree = presets::asymmetric_fig2();
    // Reserve on the shared staging level of subtree 3 so quarantine of
    // that node makes reservations infeasible for some scenarios.
    let reserve_node = northup::NodeId(3);
    let budget = tree.node(reserve_node).mem.capacity;
    let mut sched = JobScheduler::new(
        tree,
        SchedulerConfig {
            fault_plan: Some(make_plan(p)),
            quarantine_after: p.3,
            ..SchedulerConfig::default()
        },
    );
    for (i, &(frac, chunks, prio, arrival_us, tenant)) in trace.iter().enumerate() {
        let reservation = if frac < 0.1 {
            Reservation::new()
        } else {
            Reservation::new().with(reserve_node, (budget as f64 * frac) as u64)
        };
        sched.submit(
            JobSpec::new(
                format!("f{i}"),
                reservation,
                JobWork::new(chunks)
                    .read(8 << 20)
                    .xfer(8 << 20)
                    .compute(SimDur::from_micros(500))
                    .write(2 << 20),
            )
            .priority(Priority::ALL[prio])
            .tenant(TenantId(tenant))
            .arrival(SimTime::from_secs_f64(arrival_us as f64 * 1e-6)),
        );
    }
    sched.run().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_job_terminates_under_any_fault_plan(
        trace in prop::collection::vec(job_strategy(), 0..12),
        plan in plan_strategy(),
    ) {
        let report = build(&trace, &plan);
        prop_assert!(report.all_terminal());
        prop_assert_eq!(report.jobs.len(), trace.len());
        // Fault accounting is internally consistent.
        for j in &report.jobs {
            let logged = report.fault_log.iter()
                .filter(|f| f.job == j.id)
                .count() as u64;
            prop_assert_eq!(
                u64::from(j.fault.transient + j.fault.persistent), logged,
                "job {} fault counters disagree with the log", j.name
            );
            prop_assert!(u64::from(j.fault.retries) <= u64::from(j.fault.transient));
            if j.fault.retries > 0 {
                prop_assert!(j.fault.backoff > SimDur::ZERO);
            }
        }
    }

    #[test]
    fn no_chunk_executes_twice_under_faults(
        trace in prop::collection::vec(job_strategy(), 0..12),
        plan in plan_strategy(),
    ) {
        let report = build(&trace, &plan);
        for (i, j) in report.jobs.iter().enumerate() {
            let mut seen: Vec<u32> = report.chunk_log.iter()
                .filter(|c| c.job == j.id)
                .map(|c| c.index)
                .collect();
            seen.sort_unstable();
            let expect: Vec<u32> = (0..j.chunks_done).collect();
            prop_assert_eq!(
                &seen, &expect,
                "job {} ({:?}, {} reroutes): duplicate or missing chunk",
                &j.name, j.state, j.fault.reroutes
            );
            if j.state == JobState::Done {
                prop_assert_eq!(j.chunks_done, trace[i].1);
            }
        }
    }

    #[test]
    fn quarantine_respects_the_budget_envelope(
        trace in prop::collection::vec(job_strategy(), 0..12),
        plan in plan_strategy(),
    ) {
        let report = build(&trace, &plan);
        let tree = presets::asymmetric_fig2();
        for s in report.capacity_trace() {
            prop_assert!(
                s.committed <= tree.node(s.node).mem.capacity,
                "node {:?} over capacity at {:?}", s.node, s.at
            );
        }
        // Once a node is fenced nothing new commits on it: its committed
        // series is non-increasing from the quarantine instant on.
        for q in &report.quarantine_log {
            let mut last = None;
            for s in report.capacity_trace()
                .filter(|s| s.node == q.node && s.at >= q.at)
            {
                if let Some(prev) = last {
                    prop_assert!(
                        s.committed <= prev,
                        "commit on fenced node {:?} grew at {:?}", q.node, s.at
                    );
                }
                last = Some(s.committed);
            }
        }
    }

    #[test]
    fn chaos_replays_bit_identically(
        trace in prop::collection::vec(job_strategy(), 0..10),
        plan in plan_strategy(),
    ) {
        let r1 = build(&trace, &plan);
        let r2 = build(&trace, &plan);
        prop_assert!(r1.admission_order().eq(r2.admission_order()));
        prop_assert_eq!(r1.makespan, r2.makespan);
        prop_assert_eq!(&r1.chunk_log, &r2.chunk_log);
        prop_assert_eq!(&r1.fault_log, &r2.fault_log);
        prop_assert_eq!(&r1.quarantine_log, &r2.quarantine_log);
        prop_assert!(r1.capacity_trace().eq(r2.capacity_trace()));
        for (a, b) in r1.jobs.iter().zip(r2.jobs.iter()) {
            prop_assert_eq!(a.state, b.state);
            prop_assert_eq!(a.finished_at, b.finished_at);
            prop_assert_eq!(&a.fault, &b.fault);
        }
    }

    #[test]
    fn fault_evictions_conserve_admission_accounting(
        trace in prop::collection::vec(job_strategy(), 0..12),
        plan in plan_strategy(),
    ) {
        let report = build(&trace, &plan);
        for j in &report.jobs {
            let count = |k: AdmissionEventKind| report.admission_log.iter()
                .filter(|e| e.job == j.id && e.kind == k)
                .count();
            let admits = count(AdmissionEventKind::Admitted);
            let releases = count(AdmissionEventKind::Released);
            let preempts = count(AdmissionEventKind::Preempted);
            let fault_evicts = count(AdmissionEventKind::FaultEvicted);
            prop_assert_eq!(
                admits, releases + preempts + fault_evicts,
                "job {} ({:?}): {} admits vs {} releases + {} preempts + {} fault evicts",
                &j.name, j.state, admits, releases, preempts, fault_evicts
            );
            prop_assert!(releases <= 1);
        }
    }
}
