//! Heap held and allocations made by the event engine, pinned per job
//! (DESIGN.md §12), the allocations of a kernel's loan of staged bytes
//! (none), and the peak heap of an out-of-core app run (a band, not the
//! problem).
//!
//! A binary of its own, because it installs a counting
//! `#[global_allocator]` (the counters of `benchmark/src/alloc.rs`,
//! copied: the harness is a separate package). The counters are
//! process-wide, so the tests take one lock and never overlap. Each
//! reads counts that need no stopwatch.
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

use northup_suite::apps::hotspot::hotspot_northup_on;
use northup_suite::apps::matmul::matmul_northup_on;
use northup_suite::apps::service::{
    overload_slo, overload_trace, synthetic_trace, OverloadConfig, TraceConfig,
};
use northup_suite::apps::spmv::power_iteration_northup;
use northup_suite::prelude::*;
use northup_suite::sched::report_digest;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `System` plus live and peak-live byte counters and an allocation
/// count (a growing `realloc` counts as one), process-wide and for the
/// allocating thread. The counters publish no other data, so every
/// access is `Relaxed`.
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
        THREAD_ALLOCS.with(|n| n.set(n.get() + 1));
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

thread_local! {
    /// Allocations this thread made: a count the test harness's own
    /// threads cannot add to. Const-initialised with no destructor, so
    /// the allocator may touch it.
    static THREAD_ALLOCS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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

/// A kernel's loan of up to four ranges of a heap node — out-of-core
/// SpMV lends a shard's `row_ptr`, `col_id` and `data` at once —
/// allocates nothing: ranges and slices are gathered on the stack and
/// the node lends its blocks in place. A strided move's heap-source rows
/// take the same one-range path.
#[test]
fn a_heap_loan_of_up_to_four_ranges_allocates_nothing() {
    let _counters = counters();
    let rt = Runtime::new(
        presets::apu_two_level(catalog::ssd_hyperx_predator()),
        ExecMode::Real,
    )
    .unwrap();
    let stage = rt.tree().staging_level().unwrap();
    let h = [rt.alloc(64, stage).unwrap(), rt.alloc(32, stage).unwrap()];
    let loans: [&[(BufferHandle, u64, u64)]; 3] = [
        &[(h[0], 0, 64)],
        &[(h[0], 8, 8), (h[1], 0, 32), (h[0], 0, 0)],
        &[(h[0], 0, 1), (h[1], 1, 2), (h[0], 2, 3), (h[1], 3, 4)],
    ];
    for ranges in loans {
        let mut lent = 0;
        let before = THREAD_ALLOCS.with(|n| n.get());
        rt.with_bytes(ranges, |parts| {
            lent = parts.iter().map(|p| p.len() as u64).sum()
        })
        .unwrap();
        assert_eq!(THREAD_ALLOCS.with(|n| n.get()), before, "{ranges:?}");
        assert_eq!(lent, ranges.iter().map(|r| r.2).sum::<u64>());
    }
}

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

/// Bytes a staging ring of `ring` slots of `sizes` holds.
fn ring_bytes(ring: u64, sizes: &[u64]) -> u64 {
    ring * sizes.iter().sum::<u64>()
}

/// An out-of-core run holds its staging ring and a band, never its
/// problem: peak live heap during one Real `hotspot_northup_on` (2048²
/// grid in 512-blocks, one step a pass, two passes: three 16 MiB grids on
/// storage), one Real `matmul_northup_on` (1024², 256-blocks: the
/// `gemm_ooc` problem, three 4 MiB matrices on storage) and one
/// `power_iteration_northup` (two iterations over a 20 000² matrix of 160
/// entries a row: two 12.8 MB CSR arrays on storage) is bounded by the
/// sum of
///
/// * **the staging ring** — HotSpot: two slots of two 514² halo regions
///   and a 512² core (6 324 288 B); GEMM: the double-buffered 1 MiB A row
///   shard and two slots of a 1 MiB B shard and a 256 KiB C tile
///   (4 718 592 B); SpMV: its one `[row_ptr, col_id, data, y]` set sized
///   for the largest shard (6 440 004 B), `x_stage`, `y_stage`, the
///   host's `x` and one shard's `y` (260 000 B);
/// * **held writes** — `FileBackend` holds sub-page writes up to 4 MiB
///   (HotSpot's 2 KiB core rows); GEMM's C tiles are 256 KiB, so it holds
///   none;
/// * **one input band** and its byte image — a 4 MiB band of grid rows
///   (8 MiB; HotSpot's writer now encodes cells straight into one 4 MiB
///   byte band, so it holds half that); a 1 MiB A or B shard (2 MiB);
///   one 4 MiB byte band of a CSR array;
/// * **one checksum band** — 4 MiB of result rows; one 1 MiB row of C
///   tiles; SpMV folds no checksum band, and its bound adds 512 KiB of
///   slack for its own runtime's records instead.
///
/// Inputs are written before the ring exists and the checksum is read
/// after the last tile, so the two bands are never live with the leaf's
/// operand copies; the sum leaves room for those and for the runtime's
/// own records. The bounds are 23 101 504 B and 7 864 320 B, each at least
/// 2x under the reading of the drivers before they wrote and read in
/// bands, in bytes:
///
/// | | whole-problem drivers (parent) | banded drivers | one byte band, tiles stepped from staged bytes |
/// |---|---|---|---|
/// | `hotspot_northup_on` | 90 359 763 | 15 182 347 – 16 511 499 | 14 869 745 – 14 870 781 |
/// | `matmul_northup_on` | 17 831 717 | 7 609 816 – 7 609 879 | 7 609 879 |
///
/// The parent kept both input grids (A and B) whole for the whole run and
/// rebuilt the whole result for its checksum and oracle. The banded
/// drivers' input writer held an `f32` band and its byte image at once;
/// the last column's writer holds only the byte band, and HotSpot's leaf
/// decodes each row band's window from the staged bytes instead of first
/// copying the whole tile. HotSpot's reading varies with how the
/// stencil's row bands overlap on the pool's workers; the bound does not.
/// Debug and release read alike.
///
/// SpMV's row asserts only its bound (11 418 596 B). Its parent wrote
/// each CSR array from one whole byte image and gave every shard fresh
/// staging: 12 882 634 B on this matrix, against 6 739 978 B once the
/// arrays go through one 4 MiB band and one staging set serves every
/// shard. That is 1.9x, not 2x, because the staging set itself — two
/// 3.2 MB shard arrays — stays; on `spmv_ooc`'s 250k-row matrix the
/// transient goes from 17.87 to about 12.5 MB.
#[test]
fn out_of_core_runs_hold_a_band_not_the_problem() {
    let _counters = counters();
    let tree = || presets::apu_two_level(catalog::ssd_hyperx_predator());
    // Peak live heap during one call, runtime built beforehand.
    let peak_of = |run: &dyn Fn(&Runtime) -> Result<AppRun>| {
        let rt = Runtime::new(tree(), ExecMode::Real).unwrap();
        let base = ALLOC.live();
        ALLOC.take_peak();
        let run = run(&rt).unwrap();
        let peak = ALLOC.take_peak() - base;
        assert!(
            run.checksum.is_some() && run.output.is_some(),
            "{}",
            run.name
        );
        peak as u64
    };
    const MIB: u64 = 1 << 20;

    let hs = HotspotConfig {
        n: 2048,
        block: 512,
        steps_per_pass: 1,
        passes: 2,
        ring: 2,
        seed: 1,
    };
    let region = (512 + 2) * (512 + 2) * 4;
    let core = 512 * 512 * 4;
    let hotspot_bound = ring_bytes(2, &[region, region, core]) + 4 * MIB + 2 * 4 * MIB + 4 * MIB;
    let hotspot = peak_of(&|rt| hotspot_northup_on(rt, &hs));

    let mm = MatmulConfig {
        n: 1024,
        block: 256,
        ring: 2,
        seed: 1,
    };
    let (shard, tile) = (256 * 1024 * 4, 256 * 256 * 4);
    let matmul_bound = 2 * shard + ring_bytes(2, &[shard, tile]) + 2 * shard + shard;
    let matmul = peak_of(&|rt| matmul_northup_on(rt, &mm));

    // Power iteration builds its own runtime, so its peak counts that
    // too; the matrix is the caller's and is built beforehand.
    let (rows, per_row) = (20_000, 160);
    let m = even_csr(rows, per_row);
    let base = ALLOC.live();
    ALLOC.take_peak();
    let (lambda, _) = power_iteration_northup(&m, 2, tree()).unwrap();
    let spmv = (ALLOC.take_peak() - base) as u64;
    assert!(lambda.is_finite());
    let (shard_rows, vector) = (rows as u64 / 4, rows as u64 * 4);
    let staging_set = (shard_rows + 1) * 4 + 2 * shard_rows * per_row as u64 * 4 + shard_rows * 4;
    let spmv_bound = staging_set + 3 * vector + shard_rows * 4 + 4 * MIB + MIB / 2;

    // What the parent commit measured, and this bound.
    const PARENT: (u64, u64) = (90_359_763, 17_831_717);
    for (what, now, bound, parent) in [
        ("hotspot_northup_on", hotspot, hotspot_bound, Some(PARENT.0)),
        ("matmul_northup_on", matmul, matmul_bound, Some(PARENT.1)),
        ("power_iteration_northup", spmv, spmv_bound, None),
    ] {
        println!("{what}: peak {now} B, bound {bound} B"); // `-- --nocapture` to re-base
        assert!(
            now <= bound,
            "{what}: peak {now} B over its bound {bound} B"
        );
        if let Some(parent) = parent {
            assert!(
                2 * bound <= parent,
                "{what}: bound {bound} B not 2x under the parent's {parent} B"
            );
        }
    }
}

/// A square `rows x rows` matrix of `per_row` entries in every row, at
/// ascending columns `j * (rows / per_row) + r % (rows / per_row)`: its
/// four row shards are alike.
fn even_csr(rows: usize, per_row: usize) -> northup_suite::sparse::Csr {
    let stride = rows / per_row;
    let col_idx: Vec<u32> = (0..rows)
        .flat_map(|r| (0..per_row).map(move |j| (j * stride + r % stride) as u32))
        .collect();
    let vals = (0..col_idx.len())
        .map(|i| 1.0 / (1 + i % 7) as f32)
        .collect();
    northup_suite::sparse::Csr {
        rows,
        cols: rows,
        row_ptr: (0..=rows).map(|r| r * per_row).collect(),
        col_idx,
        vals,
    }
}
