//! CI event-engine gate: replay seeded single-scheduler traces through
//! the calendar-queue engine, pin the schedules against the digests the
//! pre-rewrite `BinaryHeap` engine produced, and replay a 10^6-job trace
//! twice for determinism at scale. Engine events/s is `benchmark/`'s
//! `sched_replay` workload; nothing here reads a clock.
//!
//! ```text
//! cargo run --release -p northup-bench --bin sched_engine
//! cargo run --release -p northup-bench --bin sched_engine -- --capture
//! ```
//!
//! Exit code is non-zero when the acceptance criteria fail:
//!
//! * schedule digests at 32/1k/100k-job scale (plus a 1k chaos profile
//!   exercising retry, probation, quota, resize, and preemption events)
//!   must equal the **pre-rewrite** engine's digests, pinned below —
//!   the engine rewrite must not move a single event;
//! * the 10^6-job trace must finish at least 90% of its jobs, and two
//!   same-seed runs of it must produce identical digests.
//!
//! `--capture` prints the digests without comparing (used once, against
//! the old engine, to pin the constants).

use northup::{FaultPlan, Tree};
use northup_apps::{synthetic_trace, TraceConfig};
use northup_sched::{
    report_digest, JobScheduler, JobState, NodeBudgets, Probation, SchedReport, SchedulerConfig,
    TenantQuota,
};
use northup_sim::SimTime;

const SEED: u64 = 2026_0807;
/// Mean inter-arrival gap (µs of virtual time) keeping one fleet-shard
/// scheduler near saturation: low enough that classes queue and contend,
/// high enough that the queue drains and ~every job completes.
const MEAN_GAP_US: u64 = 7_000;
const PERF_JOBS: usize = 1_000_000;

/// Schedule digests of the pre-rewrite `BinaryHeap` engine (captured
/// with `--capture` at the commit introducing this gate, before the
/// calendar-queue engine replaced it). The rewrite contract is that
/// these never change.
const EXPECT_CLEAN: [(usize, u64); 3] = [
    (32, 0x5888_a823_8b27_8f64),
    (1_000, 0x3d7e_9686_2fc1_8207),
    (100_000, 0x7a1b_3a70_5162_4de3),
];
const EXPECT_CHAOS: (usize, u64) = (1_000, 0x96ef_3603_8234_e5c4);

fn tree() -> Tree {
    northup::presets::fleet_shard()
}

fn trace_cfg(jobs: usize) -> TraceConfig {
    TraceConfig {
        jobs,
        seed: SEED,
        mean_gap_us: MEAN_GAP_US,
        scale: 32,
    }
}

fn clean_cfg() -> SchedulerConfig {
    SchedulerConfig {
        max_queue: 8192,
        ..SchedulerConfig::default()
    }
}

/// The chaos profile: every optional event source switched on, so the
/// digest pins retry (EV_RETRY), probation probes (EV_PROBE), quota
/// wakes (EV_QUOTA), a live resize (EV_RESIZE), and preemption paths on
/// the calendar queue — not just arrivals and stage completions.
fn chaos_cfg() -> SchedulerConfig {
    SchedulerConfig {
        max_queue: 8192,
        preempt: true,
        tenant_quota: Some(TenantQuota::new(48e9, 24e9)),
        fault_plan: Some(FaultPlan::new(SEED).transient_rate(400).persistent_rate(24)),
        quarantine_after: 3,
        probation: Some(Probation::default()),
        ..SchedulerConfig::default()
    }
}

fn run(jobs: usize, cfg: SchedulerConfig, resize: bool) -> SchedReport {
    let tree = tree();
    let trace = synthetic_trace(&tree, &trace_cfg(jobs));
    let mut sched = JobScheduler::new(tree.clone(), cfg);
    for spec in trace {
        sched.submit(spec);
    }
    if resize {
        // One mid-trace shrink-and-recover so EV_RESIZE is on the queue.
        let full = NodeBudgets::from_tree(&tree, 1.0);
        sched.resize_budgets(SimTime::from_secs_f64(0.5), full.scaled(0.6));
        sched.resize_budgets(SimTime::from_secs_f64(1.5), full);
    }
    sched.run().unwrap_or_else(|e| {
        eprintln!("sched_engine: run failed: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let capture = std::env::args().nth(1).as_deref() == Some("--capture");

    let mut failures = Vec::new();

    println!("== sched engine gate: seed {SEED}, gap {MEAN_GAP_US} µs ==");
    let mut digests = Vec::new();
    for (jobs, expect) in EXPECT_CLEAN {
        let r = run(jobs, clean_cfg(), false);
        let d = report_digest(&r);
        digests.push((format!("clean_{jobs}"), d));
        println!(
            "  clean {jobs:>7} jobs: digest {d:016x}  events {:>9}  done {:>7}  {}",
            r.events,
            r.count(JobState::Done),
            if capture {
                "captured".to_string()
            } else if d == expect {
                "ok".to_string()
            } else {
                format!("DRIFT (pinned {expect:016x})")
            },
        );
        if !capture && d != expect {
            failures.push(format!(
                "schedule digest drift at {jobs}-job scale: {d:016x} != pinned {expect:016x}"
            ));
        }
    }
    {
        let (jobs, expect) = EXPECT_CHAOS;
        let r = run(jobs, chaos_cfg(), true);
        let d = report_digest(&r);
        digests.push((format!("chaos_{jobs}"), d));
        println!(
            "  chaos {jobs:>7} jobs: digest {d:016x}  events {:>9}  faults {:>5}  {}",
            r.events,
            r.fault_log.len(),
            if capture {
                "captured".to_string()
            } else if d == expect {
                "ok".to_string()
            } else {
                format!("DRIFT (pinned {expect:016x})")
            },
        );
        if r.fault_log.is_empty() {
            failures.push("chaos profile injected nothing".to_string());
        }
        if !capture && d != expect {
            failures.push(format!(
                "chaos digest drift at {jobs}-job scale: {d:016x} != pinned {expect:016x}"
            ));
        }
    }
    if capture {
        println!("-- capture mode: pin these in sched_engine.rs --");
        for (name, d) in &digests {
            println!("  {name}: 0x{d:016x}");
        }
        return;
    }

    // The 10^6-job run, then its replay for determinism at scale.
    let report = run(PERF_JOBS, clean_cfg(), false);
    let digest = report_digest(&report);
    println!("{}", report.summary());
    println!("{} events  digest {digest:016x}", report.events);
    let done = report.count(JobState::Done);
    if done * 10 < PERF_JOBS * 9 {
        failures.push(format!(
            "only {done}/{PERF_JOBS} jobs done — the trace no longer saturates sensibly"
        ));
    }

    let replay = run(PERF_JOBS, clean_cfg(), false);
    if report_digest(&replay) != digest {
        failures.push("10^6-job replay diverged between same-seed runs".to_string());
    }

    if failures.is_empty() {
        println!("sched engine gate: OK");
    } else {
        for f in &failures {
            eprintln!("sched engine gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}
