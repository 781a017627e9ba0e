//! Schedule digests of the event engine, pinned (DESIGN.md §12).
//!
//! Two families, both `synthetic_trace{mean_gap_us: 7000, scale: 32}`
//! on `presets::fleet_shard()` with `max_queue: 8192`:
//!
//! * seed 20260807 — captured from the `BinaryHeap` engine before the
//!   calendar queue replaced it, at 32/1k/100k jobs plus a 1k-job chaos
//!   profile with every optional event source on; then a 10^6-job trace
//!   replayed twice for determinism at scale.
//! * seed 20260927 — the benchmark harness's `sched_replay` workload at
//!   the populations where the engine's containers change shape,
//!   captured on the scan-and-shift work queues and the fixed 4096-bucket
//!   ring before either was replaced. The 300k-job run is the one whose
//!   calendar pile outgrows a fixed ring mid-trace, so it guards the
//!   refill path.
//! * seed 20260927, `overload_trace` at 300 % load on the APU tree under
//!   `overload_slo()` — the harness's `sched_overload` workload at its
//!   75k jobs and at 5k, captured before the SLO controller's p99 stopped
//!   sorting its window. These are the only rows that run the controller.
//!
//! Whatever container the engine pops from must reproduce every digest
//! bit for bit. Nothing here reads a clock; engine speed is
//! `benchmark/`'s `sched_replay`.

use northup_suite::apps::service::{
    overload_slo, overload_trace, run_service_slo, synthetic_trace, OverloadConfig, TraceConfig,
};
use northup_suite::prelude::*;
use northup_suite::sched::{report_digest, FaultPlan, NodeBudgets, SchedReport};

const HEAP_ENGINE_SEED: u64 = 2026_0807;
const SCHED_REPLAY_SEED: u64 = 20_260_927;

fn clean() -> SchedulerConfig {
    SchedulerConfig {
        max_queue: 8192,
        ..SchedulerConfig::default()
    }
}

/// Every optional event source switched on, so the digest pins retry,
/// probation probes and preemption on the calendar queue — not just
/// arrivals and stage completions.
fn chaos() -> SchedulerConfig {
    SchedulerConfig {
        preempt: true,
        fault_plan: Some(
            FaultPlan::new(HEAP_ENGINE_SEED)
                .transient_rate(400)
                .persistent_rate(24),
        ),
        quarantine_after: 3,
        probation: true,
        ..clean()
    }
}

/// Replay `jobs` seeded arrivals under `cfg`; `resize` adds one
/// mid-trace shrink-and-recover so a live resize is on the queue too.
fn replay(seed: u64, jobs: usize, cfg: SchedulerConfig, resize: bool) -> SchedReport {
    let tree = presets::fleet_shard();
    let trace = synthetic_trace(
        &tree,
        &TraceConfig {
            jobs,
            seed,
            mean_gap_us: 7_000,
            scale: 32,
        },
    );
    let mut sched = JobScheduler::new(tree.clone(), cfg);
    for spec in trace {
        sched.submit(spec);
    }
    if resize {
        let full = NodeBudgets::from_tree(&tree, 1.0);
        sched.resize_budgets(SimTime::from_secs_f64(0.5), full.scaled(0.6));
        sched.resize_budgets(SimTime::from_secs_f64(1.5), full);
    }
    sched.run().expect("clean replay")
}

fn heap_engine_digest(jobs: usize) -> u64 {
    report_digest(&replay(HEAP_ENGINE_SEED, jobs, clean(), false))
}

fn sched_replay_digest(jobs: usize) -> u64 {
    let report = replay(SCHED_REPLAY_SEED, jobs, clean(), false);
    assert_eq!(report.count(JobState::Done), jobs, "nothing is rejected");
    report_digest(&report)
}

#[test]
fn heap_engine_32_digest_is_pinned() {
    assert_eq!(heap_engine_digest(32), 0x5888_a823_8b27_8f64);
}

#[test]
fn heap_engine_1k_digest_is_pinned() {
    assert_eq!(heap_engine_digest(1_000), 0x3d7e_9686_2fc1_8207);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "100k-job replay: run in release")]
fn heap_engine_100k_digest_is_pinned() {
    assert_eq!(heap_engine_digest(100_000), 0x7a1b_3a70_5162_4de3);
}

#[test]
fn heap_engine_chaos_1k_digest_is_pinned() {
    let report = replay(HEAP_ENGINE_SEED, 1_000, chaos(), true);
    assert!(
        !report.fault_log.is_empty(),
        "chaos profile injected nothing"
    );
    assert_eq!(report_digest(&report), 0x96ef_3603_8234_e5c4);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "two 10^6-job replays: run in release")]
fn million_job_replay_is_deterministic() {
    const JOBS: usize = 1_000_000;
    let first = {
        let report = replay(HEAP_ENGINE_SEED, JOBS, clean(), false);
        let done = report.count(JobState::Done);
        assert!(
            done * 10 >= JOBS * 9,
            "only {done}/{JOBS} jobs done — the trace no longer saturates sensibly"
        );
        report_digest(&report)
    };
    let second = report_digest(&replay(HEAP_ENGINE_SEED, JOBS, clean(), false));
    assert_eq!(first, second, "same-seed replays diverged");
}

#[test]
fn replay_50k_digest_is_pinned() {
    assert_eq!(sched_replay_digest(50_000), 0x65b0_8acb_1d70_0413);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "100k-job replay: run in release")]
fn replay_100k_digest_is_pinned() {
    assert_eq!(sched_replay_digest(100_000), 0x02e5_275c_bcef_a7e1);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "200k-job replay: run in release")]
fn replay_200k_digest_is_pinned() {
    assert_eq!(sched_replay_digest(200_000), 0xaeff_d115_0431_02a5);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "300k-job replay: run in release")]
fn replay_300k_digest_is_pinned() {
    assert_eq!(sched_replay_digest(300_000), 0x81d1_25d5_ab2e_c6a5);
}

/// Replay the harness's `sched_overload` configuration at `jobs` jobs.
fn overload_digest(jobs: usize) -> u64 {
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    let trace = overload_trace(
        &tree,
        &OverloadConfig {
            jobs,
            seed: SCHED_REPLAY_SEED,
            load_pct: 300,
            scale: 32,
            concurrency: 3,
        },
    );
    let report = run_service_slo(&tree, trace, Some(overload_slo())).expect("controlled replay");
    assert!(!report.shed_log.is_empty(), "the controller never shed");
    report_digest(&report)
}

#[test]
fn overload_5k_digest_is_pinned() {
    assert_eq!(overload_digest(5_000), 0x20fc_85fc_2197_0293);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "75k-job overload replay: run in release")]
fn overload_75k_digest_is_pinned() {
    assert_eq!(overload_digest(75_000), 0x0481_d8c2_1385_b4dc);
}
