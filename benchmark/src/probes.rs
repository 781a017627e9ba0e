//! Layer probes: a layer's public functions timed in isolation on the
//! shapes the workloads use. Every probe reports the median of
//! [`PROBE_REPS`] timings, each long enough to dwarf the clock.

use crate::host::timed;
use crate::metrics::Metrics;
use crate::stats::median;
use crate::workloads::apu_tree;
use northup::{ExecMode, Runtime};
use northup_exec::{deque, CancelToken, ThreadPool};
use northup_hw::{FileBackend, HeapBackend, StorageBackend};
use northup_sched::CalendarQueue;
use northup_sim::{Category, Resource, SimDur, SimTime, Timeline};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub const PROBE_REPS: usize = 5;

/// Median wall seconds of `PROBE_REPS` calls of `f`.
pub fn median_secs(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PROBE_REPS).map(|_| timed(&mut f).1).collect();
    median(&times)
}

/// The harness's own generator for probe inputs (splitmix64): the
/// product's RNG stays the product's.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

const KIB4: usize = 4 << 10;
const MIB4: usize = 4 << 20;

/// `(write MB/s, read MB/s)` of `ops` sequential operations of `op` bytes.
fn backend_rates(b: &mut dyn StorageBackend, op: usize, ops: usize) -> (f64, f64) {
    let block = b.alloc((op * ops) as u64).expect("probe block fits");
    let src = vec![0xa5u8; op];
    let mut dst = vec![0u8; op];
    let mb = (op * ops) as f64 / 1e6;
    let w = median_secs(|| {
        for i in 0..ops {
            b.write(block, (i * op) as u64, &src).expect("probe write");
        }
    });
    let r = median_secs(|| {
        for i in 0..ops {
            b.read(block, (i * op) as u64, &mut dst)
                .expect("probe read");
        }
        black_box(&dst);
    });
    b.release(block).expect("probe release");
    (mb / w, mb / r)
}

/// `hw.*` probe rows: `StorageBackend::{alloc,read,write,release}` at
/// 4 KiB (hotspot's regime) and 4 MiB (gemm's and the service's).
pub fn hw(m: &mut Metrics) {
    let mut file = FileBackend::new("probe-file", 1 << 30).expect("scratch directory is writable");
    let (w, r) = backend_rates(&mut file, KIB4, 4096);
    m.set("hw.file_write_mbps_4k", w);
    m.set("hw.file_read_mbps_4k", r);
    let (w, r) = backend_rates(&mut file, MIB4, 16);
    m.set("hw.file_write_mbps_4m", w);
    m.set("hw.file_read_mbps_4m", r);
    let pairs = 200;
    let s = median_secs(|| {
        for _ in 0..pairs {
            let b = file.alloc(1 << 20).expect("probe alloc");
            file.release(b).expect("probe release");
        }
    });
    m.set("hw.file_alloc_release_us", s / pairs as f64 * 1e6);
    let mut heap = HeapBackend::new("probe-heap", 1 << 30);
    let (w, r) = backend_rates(&mut heap, MIB4, 16);
    m.set("hw.heap_write_mbps_4m", w);
    m.set("hw.heap_read_mbps_4m", r);
}

/// `core.*` probe rows: the data API in Real mode on the APU tree,
/// file→heap and heap→file, plus 4 KiB moves whose cost is the lock,
/// the handle table and the timeline rather than the bytes.
pub fn core(m: &mut Metrics) {
    let rt = Runtime::new(apu_tree(), ExecMode::Real).expect("runtime");
    let root = rt.tree().root();
    let stage = rt.tree().children(root)[0];

    let pairs = 2000;
    let s = median_secs(|| {
        for _ in 0..pairs {
            let h = rt.alloc(64 << 10, stage).expect("probe alloc");
            rt.release(h).expect("probe release");
        }
    });
    m.set("core.alloc_release_per_s", pairs as f64 / s);

    let total = 16 * MIB4 as u64;
    let file = rt.alloc(total, root).expect("file buffer");
    let mem = rt.alloc(total, stage).expect("staging buffer");
    let mb = total as f64 / 1e6;
    let up = median_secs(|| {
        for i in 0..16 {
            let off = i * MIB4 as u64;
            rt.move_data(file, off, mem, off, MIB4 as u64)
                .expect("move up");
        }
    });
    m.set("core.move_up_mbps", mb / up);
    let down = median_secs(|| {
        for i in 0..16 {
            let off = i * MIB4 as u64;
            rt.move_data(mem, off, file, off, MIB4 as u64)
                .expect("move down");
        }
    });
    m.set("core.move_down_mbps", mb / down);

    // A 512-row halo rectangle out of a 2048-wide f32 grid, as hotspot
    // loads it: 2112-byte runs at an 8192-byte stride.
    let (rows, row_len, stride) = (528u64, 528 * 4, 2048 * 4);
    let s = median_secs(|| {
        for _ in 0..16 {
            rt.move_data_strided(mem, 0, row_len, file, 0, stride, row_len, rows)
                .expect("strided move");
        }
    });
    m.set(
        "core.move_strided_mbps",
        (16 * rows * row_len) as f64 / 1e6 / s,
    );

    let ops = 4000u64;
    let s = median_secs(|| {
        for i in 0..ops {
            let off = i * KIB4 as u64;
            rt.move_data(mem, off, file, off, KIB4 as u64)
                .expect("4k move");
        }
    });
    m.set("core.move_4k_ops_per_s", ops as f64 / s);
}

/// The `RealFabric` checksum kernel's shape: wrapping byte sum over
/// 8 MiB in `par_for` chunks of 16 KiB.
fn par_for_secs(pool: &ThreadPool, bytes: &[u8]) -> f64 {
    median_secs(|| {
        let acc = AtomicU64::new(0);
        pool.par_for(bytes.len(), 1 << 14, |r| {
            let s = bytes[r]
                .iter()
                .fold(0u64, |s, &b| s.wrapping_add(u64::from(b)));
            acc.fetch_add(s, Relaxed);
        });
        black_box(acc.into_inner());
    })
}

/// `exec.*` probe rows on a pool of `threads` workers.
pub fn exec(m: &mut Metrics, threads: usize) {
    let pool = ThreadPool::new(threads);
    let tasks = 20_000;
    let s = median_secs(|| {
        pool.scope(|sc| {
            for _ in 0..tasks {
                sc.spawn(|| {
                    black_box(0u64);
                });
            }
        });
    });
    m.set("exec.spawn_join_tasks_per_s", tasks as f64 / s);

    let bytes = vec![3u8; 8 << 20];
    let kib = (bytes.len() >> 10) as f64;
    let t1 = par_for_secs(&ThreadPool::new(1), &bytes);
    let tn = par_for_secs(&pool, &bytes);
    m.set("exec.par_for_ns_per_kib_t1", t1 * 1e9 / kib);
    m.set("exec.par_for_ns_per_kib_tn", tn * 1e9 / kib);
    m.set("exec.par_for_speedup", t1 / tn);

    let chunks = 2_000_000u32;
    let token = CancelToken::new();
    let s = median_secs(|| {
        let done = pool.run_chain(0, chunks, &token, |i| black_box(i) != u32::MAX);
        assert_eq!(done, chunks);
    });
    m.set("exec.run_chain_chunks_per_s", f64::from(chunks) / s);

    let n = 1 << 20;
    let (worker, stealer) = deque::<u64>(1024);
    let s = median_secs(|| {
        for i in 0..n {
            worker.push(i).expect("deque has room");
            black_box(worker.pop());
        }
    });
    m.set("exec.deque_push_pop_ns", s * 1e9 / n as f64);
    // Uncontended steals: fill, then take everything from the thief's end.
    let s = median_secs(|| {
        for _ in 0..n / 1024 {
            for i in 0..1024 {
                worker.push(i).expect("deque has room");
            }
            while let Some(v) = stealer.steal_until_settled() {
                black_box(v);
            }
        }
    });
    m.set("exec.deque_steal_ns", s * 1e9 / n as f64);
}

/// `sim.*` probe rows: one booking on a bandwidth server, one timeline
/// record without span retention (the engine's configuration).
pub fn sim(m: &mut Metrics) {
    let n = 1_000_000u64;
    let s = median_secs(|| {
        let mut r = Resource::new("probe", 1e9, SimDur::from_micros(5));
        let mut t = SimTime::ZERO;
        for i in 0..n {
            t = r.serve_bytes(t, 4096 + (i & 1023)).end;
        }
        black_box(t);
    });
    m.set("sim.resource_book_ns", s * 1e9 / n as f64);
    let s = median_secs(|| {
        let mut tl = Timeline::new();
        for i in 0..n {
            tl.record(SimTime(i), SimTime(i + 7), Category::FileIo, "");
        }
        black_box(tl.makespan());
    });
    m.set("sim.timeline_record_ns", s * 1e9 / n as f64);
}

/// `sched.calendar_ns_per_op`: the classic hold model — 10^5 resident
/// events, pop the earliest and push one a random gap later, gaps drawn
/// like the replay trace's inter-arrival gaps (uniform on 0..2·mean).
pub fn calendar(m: &mut Metrics, mean_gap_us: u64) {
    let resident = 100_000u64;
    let holds = 1_000_000u64;
    let gap_ns = |rng: &mut SplitMix| rng.next() % (2 * mean_gap_us * 1000);
    let s = median_secs(|| {
        let mut rng = SplitMix(7);
        let mut q = CalendarQueue::new();
        for id in 0..resident {
            q.push((SimTime(gap_ns(&mut rng) * resident / 2), 0, id, 0));
        }
        for _ in 0..holds {
            let (t, kind, id, seq) = q.pop().expect("resident events");
            q.push((SimTime(t.0 + gap_ns(&mut rng)), kind, id, seq));
        }
        black_box(q.len());
    });
    // One hold is a pop and a push; the fill is amortised into it.
    m.set(
        "sched.calendar_ns_per_op",
        s * 1e9 / (2 * holds + resident) as f64,
    );
}
