//! Schedule digests of the event engine at the populations where its
//! containers change shape (DESIGN.md §12).
//!
//! The configuration is the benchmark harness's `sched_replay` workload
//! (`synthetic_trace{mean_gap_us: 7000, scale: 32}` on
//! `presets::fleet_shard()`, `max_queue: 8192`, seed 20260927). The
//! digests were captured on the scan-and-shift work queues and the fixed
//! 4096-bucket calendar ring, before either was replaced; whatever
//! container the engine pops from must reproduce them bit for bit. The
//! 300k-job run is the one whose calendar pile outgrows a fixed ring
//! mid-trace, so it is the test that guards the refill path.

use northup_suite::apps::service::{synthetic_trace, TraceConfig};
use northup_suite::prelude::*;
use northup_suite::sched::report_digest;

fn replay_digest(jobs: usize) -> u64 {
    let tree = presets::fleet_shard();
    let trace = synthetic_trace(
        &tree,
        &TraceConfig {
            jobs,
            seed: 20_260_927,
            mean_gap_us: 7_000,
            scale: 32,
        },
    );
    let mut sched = JobScheduler::new(
        tree,
        SchedulerConfig {
            max_queue: 8192,
            ..SchedulerConfig::default()
        },
    );
    for spec in trace {
        sched.submit(spec);
    }
    let report = sched.run().expect("clean replay");
    assert_eq!(report.count(JobState::Done), jobs, "nothing is rejected");
    report_digest(&report)
}

#[test]
fn replay_50k_digest_is_pinned() {
    assert_eq!(replay_digest(50_000), 0x65b0_8acb_1d70_0413);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "100k-job replay: run in release")]
fn replay_100k_digest_is_pinned() {
    assert_eq!(replay_digest(100_000), 0x02e5_275c_bcef_a7e1);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "200k-job replay: run in release")]
fn replay_200k_digest_is_pinned() {
    assert_eq!(replay_digest(200_000), 0xaeff_d115_0431_02a5);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "300k-job replay: run in release")]
fn replay_300k_digest_is_pinned() {
    assert_eq!(replay_digest(300_000), 0x81d1_25d5_ab2e_c6a5);
}
