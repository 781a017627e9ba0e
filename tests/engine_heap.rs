//! Heap held and allocations made by the event engine, pinned per job
//! (DESIGN.md §12).
//!
//! A binary of its own, because it installs a counting
//! `#[global_allocator]` (the counters of `benchmark/src/alloc.rs`,
//! copied: the harness is a separate package). The counters are
//! process-wide, so the two tests take one lock and never overlap. Each
//! reads exact counts that need no stopwatch.
//!
//! `replay_heap_per_job_is_pinned` replays the benchmark's `sched_replay`
//! configuration at 50 000 jobs — the `replay_50k_digest_is_pinned` run
//! of `engine_scale_digests.rs` — and reads two byte counts:
//!
//! * **peak** — the highest live heap between the first `submit` and the
//!   return of `run()`, the trace being consumed included;
//! * **report** — what the returned [`SchedReport`] still holds once the
//!   scheduler and its run state are gone.
//!
//! Measured on this configuration, in bytes (debug == release):
//!
//! | | parent (PR 22) | PR 24 |
//! |---|---|---|
//! | peak | 51 810 516 (1036 B/job) | 29 019 476 (580 B/job) |
//! | report | 46 046 296 (921 B/job) | 20 202 480 (404 B/job) |
//!
//! The parent's peak was a job table grown by doubling in `submit`
//! beside the caller's trace, kept whole behind `report.jobs`; a B-tree
//! leaf per one-entry reservation; two series stored that are functions
//! of a third; and logs at up to twice their length. Work queues that
//! count pending tasks per node instead of keeping a B-tree of tagged
//! tasks, and a job record without its task id, took the peak to
//! 28 001 789 (560 B/job); the report did not move. A radix-heap event
//! queue, whose drained buckets keep at most 1024 events where the
//! calendar's pile and ring kept their capacity, took it to 25 839 955
//! (516 B/job).
//!
//! `overload_run_allocations_are_pinned` replays the benchmark's
//! `sched_overload` configuration at 10 000 jobs (3 196 control ticks)
//! and counts the allocations `run()` makes — the benchmark's
//! `sched.allocs_per_job`. Measured (debug == release): 27 564 when each
//! tick copied and sorted every class window (three allocations a tick),
//! 17 987 since the controller keeps each window's largest samples,
//! 17 982 once placement stopped allocating work-queue nodes.

use northup_suite::apps::service::{
    overload_slo, overload_trace, synthetic_trace, OverloadConfig, TraceConfig,
};
use northup_suite::prelude::*;
use northup_suite::sched::report_digest;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `System` plus live and peak-live byte counters and an allocation
/// count (a growing `realloc` counts as one). The counters publish no
/// other data, so every access is `Relaxed`.
struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicUsize,
}

impl CountingAlloc {
    fn grew(&self, by: usize) {
        let live = self.live.fetch_add(by, Relaxed) + by;
        self.peak.fetch_max(live, Relaxed);
        self.allocs.fetch_add(1, Relaxed);
    }

    fn allocs(&self) -> usize {
        self.allocs.load(Relaxed)
    }

    fn live(&self) -> usize {
        self.live.load(Relaxed)
    }

    /// Highest `live` since the last call, which restarts the measurement
    /// from the bytes live now.
    fn take_peak(&self) -> usize {
        self.peak.swap(self.live(), Relaxed)
    }
}

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters are
// only touched after `System` reports success and never influence the
// pointers returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, forwarded as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator for `layout`, which
        // means by `System` for the same layout.
        unsafe { System.dealloc(ptr, layout) };
        self.live.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from this allocator, hence from
        // `System`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                self.grew(new_size - layout.size());
            } else {
                self.live.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
    allocs: AtomicUsize::new(0),
};

/// Held by each test for its whole run, so neither reads the other's
/// allocations.
fn counters() -> MutexGuard<'static, ()> {
    static COUNTERS: Mutex<()> = Mutex::new(());
    COUNTERS.lock().unwrap_or_else(PoisonError::into_inner)
}

const JOBS: usize = 50_000;

#[test]
fn replay_heap_per_job_is_pinned() {
    let _counters = counters();
    let tree = presets::fleet_shard();
    let base = ALLOC.live();
    let trace = synthetic_trace(
        &tree,
        &TraceConfig {
            jobs: JOBS,
            seed: 20_260_927,
            mean_gap_us: 7_000,
            scale: 32,
        },
    );
    ALLOC.take_peak();
    let mut sched = JobScheduler::new(
        tree.clone(),
        SchedulerConfig {
            max_queue: 8192,
            ..SchedulerConfig::default()
        },
    );
    for spec in trace {
        sched.submit(spec);
    }
    let report = sched.run().expect("clean replay");
    let peak = ALLOC.take_peak() - base;
    let held = ALLOC.live() - base;
    assert_eq!(report_digest(&report), 0x65b0_8acb_1d70_0413);
    // What the parent commit measured, and what this engine does.
    const PARENT: (usize, usize) = (51_810_516, 46_046_296);
    const PINNED: (usize, usize) = (25_839_955, 20_202_480);
    for (what, now, pinned, parent) in [
        ("peak of submit + run", peak, PINNED.0, PARENT.0),
        ("held by the report", held, PINNED.1, PARENT.1),
    ] {
        let per_job = now / JOBS;
        println!("{what}: {now} B ({per_job} B/job)"); // `-- --nocapture` to re-base
        assert!(
            now * 100 <= pinned * 102,
            "{what}: {now} B ({per_job} B/job), pinned at {pinned} B + 2 %"
        );
        assert!(
            now * 100 <= parent * 60,
            "{what}: {now} B ({per_job} B/job) is not 40 % under the parent's {parent} B"
        );
    }
}

const OVERLOAD_JOBS: usize = 10_000;

#[test]
fn overload_run_allocations_are_pinned() {
    let _counters = counters();
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    let trace = overload_trace(
        &tree,
        &OverloadConfig {
            jobs: OVERLOAD_JOBS,
            seed: 20_260_927,
            load_pct: 300,
            scale: 32,
            concurrency: 3,
        },
    );
    let mut sched = JobScheduler::new(
        tree.clone(),
        SchedulerConfig {
            policy: AdmissionPolicy::WeightedFair,
            preempt: false,
            slo: Some(overload_slo()),
            ..SchedulerConfig::default()
        },
    );
    for spec in trace {
        sched.submit(spec);
    }
    let before = ALLOC.allocs();
    let report = sched.run().expect("controlled replay");
    let allocs = ALLOC.allocs() - before;
    let ticks = report.slo_log.len();
    // What the parent commit counted, and what this engine does.
    const PARENT: usize = 27_564;
    const PINNED: usize = 17_982;
    println!("run(): {allocs} allocations over {ticks} control ticks"); // `-- --nocapture` to re-base
    assert!(
        allocs * 100 <= PINNED * 101,
        "run() made {allocs} allocations, pinned at {PINNED} + 1 %"
    );
    assert!(
        allocs + 2 * ticks <= PARENT,
        "run() made {allocs} allocations over {ticks} control ticks: \
         not two per tick under the parent's {PARENT}"
    );
}
