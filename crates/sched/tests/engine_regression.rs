//! Fixed-seed schedule bit-identity regression (ISSUE 7 satellite).
//!
//! The digests below were captured against the pre-rewrite
//! `BinaryHeap` engine and pinned; the calendar-queue engine must
//! reproduce every one bit-for-bit. Unlike the root package's
//! `tests/engine_scale_digests.rs` this uses its own local trace
//! generator (no dependency on `northup-apps`), so a change to the
//! service trace cannot mask an event-order drift in the engine.

use northup::{presets, FaultPlan};
use northup_hw::catalog;
use northup_sched::{
    report_digest, JobScheduler, JobSpec, JobWork, NodeBudgets, Priority, Reservation,
    SchedulerConfig, TenantId,
};
use northup_sim::{SimDur, SimTime};

/// Digests of the pre-rewrite engine (printed once by running these
/// tests against it, then pinned).
const CLEAN_32: u64 = 0xe6f0_0cb9_98d4_ab9b;
const CLEAN_10K: u64 = 0xe1be_a4e5_641f_0002;
const CHAOS_2K: u64 = 0x7950_f6c6_376f_c9c2;

/// splitmix64: the same tiny deterministic generator the digest mixer
/// uses, so the trace is stable across platforms and rand versions.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn run(jobs: usize, cfg: SchedulerConfig, chaos: bool) -> u64 {
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    let dram = tree.children(tree.root())[0];
    let budget = tree.node(dram).mem.capacity;
    let mut sched = JobScheduler::new(tree.clone(), cfg);
    let mut s = 0x6b8b_4567_3272_5b02u64 ^ jobs as u64;
    let mut arrival_us = 0u64;
    for i in 0..jobs {
        arrival_us += mix(&mut s) % 700;
        let frac = 0.05 + (mix(&mut s) % 900) as f64 / 1000.0;
        let chunks = (mix(&mut s) % 5) as u32;
        let prio = Priority::ALL[(mix(&mut s) % 3) as usize];
        let mut spec = JobSpec::new(
            format!("r{i}"),
            Reservation::new().with(dram, (budget as f64 * frac) as u64),
            JobWork::new(chunks)
                .read(8 << 20)
                .xfer(8 << 20)
                .compute(SimDur::from_micros(200 + mix(&mut s) % 600)),
        )
        .priority(prio)
        .arrival(SimTime::from_secs_f64(arrival_us as f64 * 1e-6));
        if chaos {
            spec = spec.tenant(TenantId((i % 3) as u32));
        }
        sched.submit(spec);
    }
    if chaos {
        let full = NodeBudgets::from_tree(&tree, 1.0);
        sched.resize_budgets(SimTime::from_secs_f64(0.1), full.scaled(0.7));
        sched.resize_budgets(SimTime::from_secs_f64(0.4), full);
    }
    report_digest(&sched.run().unwrap())
}

fn clean_cfg() -> SchedulerConfig {
    SchedulerConfig {
        max_queue: 512,
        ..SchedulerConfig::default()
    }
}

fn chaos_cfg() -> SchedulerConfig {
    SchedulerConfig {
        max_queue: 512,
        preempt: true,
        fault_plan: Some(FaultPlan::new(7).transient_rate(300).persistent_rate(20)),
        quarantine_after: 3,
        probation: true,
        ..SchedulerConfig::default()
    }
}

#[test]
fn schedule_bits_identical_32_jobs() {
    assert_eq!(
        run(32, clean_cfg(), false),
        CLEAN_32,
        "32-job schedule digest drifted from the pre-rewrite engine"
    );
}

#[test]
fn schedule_bits_identical_10k_jobs() {
    assert_eq!(
        run(10_000, clean_cfg(), false),
        CLEAN_10K,
        "10k-job schedule digest drifted from the pre-rewrite engine"
    );
}

#[test]
fn schedule_bits_identical_chaos_2k_jobs() {
    assert_eq!(
        run(2_000, chaos_cfg(), true),
        CHAOS_2K,
        "2k-job chaos schedule digest drifted from the pre-rewrite engine"
    );
}
