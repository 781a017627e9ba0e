//! The real-execution backend of the stage-chain IR: chunk chains driven
//! through a `northup::Runtime` in [`ExecMode::Real`] on the
//! `northup-exec` thread pool.
//!
//! Where [`SimFabric`](crate::SimFabric) *books* a chunk's stages on
//! virtual-time resources, [`RealFabric`] *performs* them: the staging
//! buffer is really allocated (and metered against the job's installed
//! [`CapacityLease`] — an over-budget chunk fails with `LeaseExceeded`
//! right at `alloc`, the enforcement point admission promised), bytes
//! really move from the root file buffer through the runtime's storage
//! backends, and the leaf "kernel" really reads the staged bytes on the
//! pool it was given — the process-wide one, in the service — one piece
//! per pool thread, folding them into a commutative checksum so results
//! are identical for any thread count.
//!
//! One `RealFabric` is an execution arena that serves jobs one after
//! another: [`start_job`](RealFabric::start_job) lays the dataset pattern
//! back over the bytes earlier jobs wrote back, so every job sees what a
//! fresh arena would show it. The scheduler-level contract stays
//! chunk-granular: callers drive chunks in order (usually via
//! `northup_exec::ThreadPool::run_chain`, which polls a
//! [`CancelToken`](northup_exec::CancelToken) at every boundary), and an
//! evicted job resumes later at its next unprocessed chunk index —
//! completed chunks are never re-run.

use northup::fabric::{ChunkChain, Fabric, FabricError};
use northup::fault::FaultPlan;
use northup::lease::CapacityLease;
use northup::runtime::SetupCosts;
use northup::{BufferHandle, ExecMode, NodeId, NorthupError, Result, Runtime, Tree};
use northup_exec::ThreadPool;
use northup_hw::{FaultOps, FaultyBackend, HeapBackend, StorageBackend};
use northup_sim::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Real-thread chunk-chain execution, one job at a time.
pub struct RealFabric {
    tree: Tree,
    rt: Runtime,
    pool: Arc<ThreadPool>,
    file: northup::BufferHandle,
    /// Length of the root file: the largest dataset a job may use.
    capacity: u64,
    /// The current job's dataset: chunk offsets wrap around `[0, file_bytes)`.
    file_bytes: u64,
    /// End of the largest write-back since the pattern was last laid.
    dirty: u64,
    checksum: u64,
}

impl RealFabric {
    /// A fabric over `tree` (in `ExecMode::Real`) with a root file buffer
    /// of `file_bytes` filled with a deterministic byte pattern — the
    /// "dataset" every chunk reads from and writes back to. Install the
    /// job's lease with [`install_lease`](Self::install_lease) *after*
    /// construction so the shared input file is not charged to the job.
    pub fn new(tree: &Tree, pool: Arc<ThreadPool>, file_bytes: u64) -> Result<Self> {
        Self::build(tree, pool, file_bytes, None)
    }

    /// Like [`new`](Self::new), but every non-root node targeted by
    /// `plan` gets its storage backend wrapped in a deterministic fault
    /// injector ([`FaultyBackend`]): the node fails every `n`-th
    /// read/write, with `n` derived from the plan's transient rate
    /// ([`FaultPlan::real_fail_every`]). The root is exempt — the shared
    /// dataset must stay intact for chunks to be retryable; root-storage
    /// faults are exercised by the modeled fabric instead. Two fabrics
    /// built from the same plan fail on identical operation ordinals, so
    /// chaos runs are reproducible bit for bit — which is why a faulty
    /// arena serves one job: its injectors count from the build.
    pub fn with_faults(
        tree: &Tree,
        pool: Arc<ThreadPool>,
        file_bytes: u64,
        plan: FaultPlan,
    ) -> Result<Self> {
        Self::build(tree, pool, file_bytes, Some(&plan))
    }

    /// Construct the execution arena: a real-mode runtime (with fault
    /// injectors wired per `plan`) and the filled root dataset buffer.
    fn build(
        tree: &Tree,
        pool: Arc<ThreadPool>,
        file_bytes: u64,
        plan: Option<&FaultPlan>,
    ) -> Result<Self> {
        let file_bytes = file_bytes.max(1);
        let root = tree.root();
        let factory = |node: &northup::Node| -> Option<Box<dyn StorageBackend>> {
            let plan = plan?;
            if node.id == root {
                return None;
            }
            let fail_every = plan.real_fail_every(node.id)?;
            Some(Box::new(FaultyBackend::new(
                HeapBackend::new(&node.mem.name, node.mem.capacity),
                FaultOps::ReadsAndWrites,
                fail_every,
            )))
        };
        let rt = Runtime::with_custom_backends(
            tree.clone(),
            ExecMode::Real,
            SetupCosts::default(),
            &factory,
        )?;
        let file = rt.alloc(file_bytes, root)?;
        let mut fab = RealFabric {
            tree: tree.clone(),
            rt,
            pool,
            file,
            capacity: file_bytes,
            file_bytes,
            dirty: file_bytes, // the whole file still wants the pattern
            checksum: 0,
        };
        fab.lay_pattern()?;
        Ok(fab)
    }

    /// Write the deterministic dataset pattern over `[0, dirty)` of the
    /// root file, in bounded strips. Byte `i` is a function of
    /// `i mod 256`, and 256 divides the strip, so every strip holds the
    /// same bytes.
    fn lay_pattern(&mut self) -> Result<()> {
        let strip: Vec<u8> = (0..1usize << 16)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect();
        let mut off = 0u64;
        while off < self.dirty {
            let n = (strip.len() as u64).min(self.dirty - off) as usize;
            self.rt.write_slice(self.file, off, &strip[..n])?;
            off += n as u64;
        }
        self.dirty = 0;
        Ok(())
    }

    /// Make the arena ready for the next job, so that job sees exactly
    /// what a fresh arena of `file_bytes` would show it: the pattern is
    /// laid back over the bytes earlier jobs wrote back, chunk offsets
    /// wrap around `file_bytes`, the checksum restarts at zero, `lease`
    /// meters the job's staging allocs (`None`: unmetered), and the
    /// runtime's timeline forgets the earlier jobs' spans.
    ///
    /// `file_bytes` larger than the arena was built with is
    /// [`NorthupError::Invalid`].
    pub fn start_job(&mut self, file_bytes: u64, lease: Option<Arc<CapacityLease>>) -> Result<()> {
        let file_bytes = file_bytes.max(1);
        if file_bytes > self.capacity {
            return Err(NorthupError::Invalid(format!(
                "a {file_bytes} B dataset does not fit a {} B arena",
                self.capacity
            )));
        }
        self.lay_pattern()?;
        self.file_bytes = file_bytes;
        self.checksum = 0;
        self.install_lease(lease.unwrap_or_else(|| CapacityLease::new([])));
        self.rt.clear_timeline();
        Ok(())
    }

    /// Install the job's capacity lease on the underlying runtime, so
    /// every staging `alloc` this fabric performs is metered against it.
    /// Returns the previously installed lease, if any.
    pub fn install_lease(&self, lease: Arc<CapacityLease>) -> Option<Arc<CapacityLease>> {
        self.rt.install_lease(lease)
    }

    /// The commutative checksum folded over every byte staged since the
    /// job started. Deterministic for a given (file pattern, chunk set)
    /// regardless of thread count or chunk interleaving — the
    /// mode-agreement tests compare it between runs.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    fn leaf_proc(&self, leaf: NodeId) -> Option<northup::ProcKind> {
        self.tree.node(leaf).procs.first().map(|p| p.kind)
    }

    /// All of a chunk's data movement and kernel work, excluding staging
    /// alloc/release. The checksum commit is the *last* statement: a
    /// failed attempt (injected device fault, lease breach) leaves no
    /// visible side effect, so re-running the chunk after a fault applies
    /// its effects exactly once.
    fn chunk_body(
        &mut self,
        chain: &ChunkChain,
        idx: u32,
        buf: Option<BufferHandle>,
    ) -> Result<()> {
        let work = chain.work;
        let stage_bytes = work.xfer_bytes.max(work.write_bytes);
        let mut chunk_sum = 0u64;
        if let Some(buf) = buf {
            if work.read_bytes > 0 || work.xfer_bytes > 0 {
                // Root read + link staging in one runtime move.
                let n = work
                    .xfer_bytes
                    .max(work.read_bytes)
                    .min(stage_bytes)
                    .min(self.file_bytes);
                let src_off = chunk_offset(idx, n, self.file_bytes);
                self.rt.move_data(buf, 0, self.file, src_off, n)?;

                // The real kernel: fold the staged bytes, where they
                // lie, into a commutative (wrapping-add) checksum, one
                // pool task per thread.
                let acc = AtomicU64::new(0);
                let pool = &self.pool;
                self.rt.with_bytes(&[(buf, 0, n)], |parts| {
                    let bytes = parts[0];
                    let grain = bytes.len().div_ceil(pool.threads()).max(64 << 10);
                    pool.par_for(bytes.len(), grain, |r| {
                        acc.fetch_add(byte_sum(&bytes[r]), Ordering::Relaxed);
                    });
                })?;
                chunk_sum = acc.into_inner();
            }
            if work.compute > northup_sim::SimDur::ZERO {
                if let Some(kind) = self.leaf_proc(chain.leaf) {
                    self.rt
                        .charge_compute(chain.leaf, kind, work.compute, &[buf], &[], "chunk")?;
                }
            }
            if work.write_bytes > 0 {
                // Write-back lands at a fixed offset with deterministic
                // content, so a retried chunk re-applies identical bytes.
                // The extent counts as dirty before the move, so a move
                // that fails part-way is restored too.
                let n = work.write_bytes.min(stage_bytes).min(self.file_bytes);
                self.dirty = self.dirty.max(n);
                self.rt.move_data(self.file, 0, buf, 0, n)?;
            }
        } else if work.compute > northup_sim::SimDur::ZERO {
            if let Some(kind) = self.leaf_proc(chain.leaf) {
                self.rt
                    .charge_compute(chain.leaf, kind, work.compute, &[], &[], "chunk")?;
            }
        }
        self.checksum = self.checksum.wrapping_add(chunk_sum);
        Ok(())
    }
}

/// Where chunk `idx` reads its `n` bytes: chunks stride by `n` and wrap
/// around the `file_bytes` dataset, so every index is in range. The
/// product is taken in `u128`: it cannot overflow, and below 2⁶⁴ it is
/// the `u64` product.
fn chunk_offset(idx: u32, n: u64, file_bytes: u64) -> u64 {
    let starts = u128::from(file_bytes.saturating_sub(n)) + 1;
    let off = u128::from(idx) * u128::from(n) % starts;
    // `off < starts ≤ 2⁶⁴`, so it fits.
    u64::try_from(off).unwrap_or(u64::MAX)
}

/// The wrapping sum of `bytes` — the byte loop's result, taken 32 bytes
/// at a time: each 32-byte block adds into 32 `u16` lanes, which are
/// flushed every 257 blocks — 257 × 255 = 65 535, so no lane overflows.
fn byte_sum(bytes: &[u8]) -> u64 {
    const LANES: usize = 32;
    let mut sum = 0u64;
    for group in bytes.chunks(257 * LANES) {
        let blocks = group.chunks_exact(LANES);
        let tail = blocks.remainder();
        let mut lanes = [0u16; LANES];
        for block in blocks {
            for (lane, &b) in lanes.iter_mut().zip(block) {
                *lane += u16::from(b);
            }
        }
        for &lane in &lanes {
            sum = sum.wrapping_add(u64::from(lane));
        }
        for &b in tail {
            sum = sum.wrapping_add(u64::from(b));
        }
    }
    sum
}

impl Fabric for RealFabric {
    /// Perform one chunk for real: allocate the staging buffer under the
    /// lease, move the chunk's bytes down from the root file, run the
    /// checksum kernel over the staged bytes on the pool, move the
    /// write-back bytes up, release the buffer. Returns the runtime's
    /// virtual completion (its charged makespan), which is monotone
    /// across chunks.
    ///
    /// The chunk is **transactional** under faults: the staging buffer is
    /// released on the error path too (a faulted chunk never leaks lease
    /// bytes, so the retry's alloc sees the full reservation) and the
    /// checksum commits only when every stage succeeded — retrying a
    /// failed chunk applies its side effects exactly once.
    fn run_chunk(
        &mut self,
        chain: &ChunkChain,
        idx: u32,
        ready: SimTime,
    ) -> std::result::Result<SimTime, FabricError> {
        let work = chain.work;
        let stage_bytes = work.xfer_bytes.max(work.write_bytes);
        let staging = chain.staging_node(&self.tree);

        let buf = if stage_bytes > 0 {
            Some(self.rt.alloc(stage_bytes, staging)?)
        } else {
            None
        };

        let body = self.chunk_body(chain, idx, buf);
        if let Some(buf) = buf {
            let released = self.rt.release(buf);
            body?; // the chunk's own fault takes precedence...
            released?; // ...but a clean chunk still reports release errors
        } else {
            body?;
        }

        let end = SimTime::ZERO + self.rt.makespan();
        Ok(end.max(ready))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobWork;
    use crate::reserve::Reservation;
    use northup::fabric::build_chain;
    use northup::presets;
    use northup_exec::CancelToken;
    use northup_hw::catalog;
    use northup_sim::SimDur;
    use proptest::prelude::*;

    fn tree() -> Tree {
        presets::apu_two_level(catalog::ssd_hyperx_predator())
    }

    fn chain(tree: &Tree, chunks: u32, bytes: u64) -> ChunkChain {
        let leaf = tree.leaves().next().unwrap().id;
        build_chain(
            tree,
            leaf,
            JobWork::new(chunks)
                .read(bytes)
                .xfer(bytes)
                .compute(SimDur::from_micros(50))
                .write(bytes / 2)
                .chunk_work(),
            chunks,
        )
    }

    #[test]
    fn chunks_advance_virtual_time_and_accumulate_checksum() {
        let tree = tree();
        let pool = Arc::new(ThreadPool::new(2));
        let mut fab = RealFabric::new(&tree, pool, 1 << 20).unwrap();
        let ch = chain(&tree, 3, 64 << 10);
        let t1 = fab.run_chunk(&ch, 0, SimTime::ZERO).unwrap();
        let c1 = fab.checksum();
        let t2 = fab.run_chunk(&ch, 1, t1).unwrap();
        assert!(t1 > SimTime::ZERO);
        assert!(t2 > t1, "real chunks accrue charged time");
        assert_ne!(c1, 0);
        assert_ne!(fab.checksum(), c1);
    }

    #[test]
    fn checksum_is_thread_count_independent() {
        let tree = tree();
        let run = |threads| {
            let pool = Arc::new(ThreadPool::new(threads));
            let mut fab = RealFabric::new(&tree, pool, 1 << 20).unwrap();
            let ch = chain(&tree, 4, 128 << 10);
            let mut t = SimTime::ZERO;
            for i in 0..4 {
                t = fab.run_chunk(&ch, i, t).unwrap();
            }
            fab.checksum()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn lease_is_enforced_at_staging_alloc() {
        let tree = tree();
        let staging = tree.children(tree.root())[0];
        let pool = Arc::new(ThreadPool::new(2));
        let mut fab = RealFabric::new(&tree, pool, 1 << 20).unwrap();
        let bytes = 256u64 << 10;
        // Lease covers less than one staging buffer: the very first chunk
        // must fail at alloc.
        let lease = Reservation::new().with(staging, bytes / 2).to_lease();
        fab.install_lease(lease);
        let ch = chain(&tree, 2, bytes);
        let err = fab.run_chunk(&ch, 0, SimTime::ZERO);
        assert!(err.is_err(), "alloc beyond the lease must fail");

        // A covering lease succeeds (alloc/release per chunk, so one
        // buffer's worth is enough for many chunks).
        let mut fab2 = RealFabric::new(&tree, Arc::new(ThreadPool::new(2)), 1 << 20).unwrap();
        fab2.install_lease(Reservation::new().with(staging, bytes).to_lease());
        let mut t = SimTime::ZERO;
        for i in 0..2 {
            t = fab2.run_chunk(&ch, i, t).unwrap();
        }
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn run_chain_resumes_from_checkpoint_without_rerunning_chunks() {
        let tree = tree();
        let pool = Arc::new(ThreadPool::new(2));
        let ch = chain(&tree, 6, 32 << 10);

        // Uninterrupted reference.
        let mut whole = RealFabric::new(&tree, Arc::clone(&pool), 1 << 20).unwrap();
        let mut t = SimTime::ZERO;
        for i in 0..6 {
            t = whole.run_chunk(&ch, i, t).unwrap();
        }

        // Evicted after 2 chunks, resumed on a fresh fabric from the
        // checkpoint: same chunk set ⇒ same checksum.
        let mut a = RealFabric::new(&tree, Arc::clone(&pool), 1 << 20).unwrap();
        let token = CancelToken::new();
        let tok = Arc::clone(&token);
        let mut t = SimTime::ZERO;
        let first = pool.run_chain(0, 6, &token, |i| {
            if i == 1 {
                tok.cancel();
            }
            t = a.run_chunk(&ch, i, t).unwrap();
            true
        });
        assert_eq!(first, 2);
        let mut b = RealFabric::new(&tree, Arc::clone(&pool), 1 << 20).unwrap();
        let token2 = CancelToken::new();
        let mut t2 = SimTime::ZERO;
        let second = pool.run_chain(first, 6, &token2, |i| {
            t2 = b.run_chunk(&ch, i, t2).unwrap();
            true
        });
        assert_eq!(first + second, 6);
        assert_eq!(
            whole.checksum(),
            a.checksum().wrapping_add(b.checksum()),
            "evict+resume covers exactly the same chunks"
        );
    }

    /// The transient-fault rate 16384/65536 wires a period-4 injector on
    /// the staging node; a clean chunk costs 3 staging ops, so faults
    /// land on every other chunk or so.
    fn chaos_plan() -> northup::FaultPlan {
        northup::FaultPlan::new(11).transient_rate(16384)
    }

    #[test]
    fn faulted_chunks_are_transactional_and_retry_to_the_clean_checksum() {
        let tree = tree();
        let staging = tree.children(tree.root())[0];
        let pool = Arc::new(ThreadPool::new(2));
        let ch = chain(&tree, 4, 64 << 10);

        let mut clean = RealFabric::new(&tree, Arc::clone(&pool), 1 << 20).unwrap();
        let mut t = SimTime::ZERO;
        for i in 0..4 {
            t = clean.run_chunk(&ch, i, t).unwrap();
        }

        let mut chaos =
            RealFabric::with_faults(&tree, Arc::clone(&pool), 1 << 20, chaos_plan()).unwrap();
        let mut t = SimTime::ZERO;
        let mut errors = 0;
        for i in 0..4 {
            loop {
                match chaos.run_chunk(&ch, i, t) {
                    Ok(end) => {
                        t = end;
                        break;
                    }
                    Err(e) => {
                        errors += 1;
                        assert!(matches!(e, FabricError::Runtime(_)), "{e}");
                        // A faulted chunk releases its staging buffer: no
                        // lease/capacity leak across retries.
                        assert_eq!(chaos.rt.used(staging), 0);
                        assert!(errors < 32, "retries must converge");
                    }
                }
            }
        }
        assert!(errors > 0, "the plan must actually inject");
        assert_eq!(
            chaos.checksum(),
            clean.checksum(),
            "failed attempts commit nothing: retries make the chaos run \
             byte-equivalent to the clean one"
        );
    }

    #[test]
    fn chaos_fault_pattern_is_reproducible_across_fabrics() {
        let tree = tree();
        let ch = chain(&tree, 3, 32 << 10);
        let run = || {
            let pool = Arc::new(ThreadPool::new(2));
            let mut fab = RealFabric::with_faults(&tree, pool, 1 << 20, chaos_plan()).unwrap();
            let pattern: Vec<bool> = (0..6)
                .map(|i| fab.run_chunk(&ch, i % 3, SimTime::ZERO).is_err())
                .collect();
            (pattern, fab.checksum())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan + same ops ⇒ same faults, bit for bit");
        assert!(a.0.iter().any(|&e| e), "some attempt faulted");
        assert!(a.0.iter().any(|&e| !e), "some attempt succeeded");
    }

    /// Run every chunk of `ch` and return the job's checksum.
    fn run_job(fab: &mut RealFabric, ch: &ChunkChain, chunks: u32) -> u64 {
        let mut t = SimTime::ZERO;
        for i in 0..chunks {
            t = fab.run_chunk(ch, i, t).unwrap();
        }
        fab.checksum()
    }

    /// The whole root file, and the pattern a fresh arena lays.
    fn file_and_pattern(fab: &RealFabric) -> (Vec<u8>, Vec<u8>) {
        let mut file = vec![0u8; fab.capacity as usize];
        fab.rt.read_slice(fab.file, 0, &mut file).unwrap();
        let pattern = (0..file.len())
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect();
        (file, pattern)
    }

    #[test]
    fn a_lane_arena_gives_every_job_what_a_fresh_arena_gives_it() {
        let tree = tree();
        let leaf = tree.leaves().next().unwrap().id;
        let pool = Arc::new(ThreadPool::new(2));
        // Large, small, large datasets of `2n` bytes and a few. A chunk
        // reads `n` bytes and writes `2n` back at offset 0, the last `n`
        // of them the staging buffer's zeros; chunks 2 and 3 read across
        // the zeros chunk 1 wrote. So every job starts on bytes the job
        // before it wrote back, and they sum differently from the pattern.
        let large = 128u64 << 10;
        let small = 8u64 << 10;
        let jobs = [
            (large, 2 * large + 333),
            (small, 2 * small + 77),
            (large, 2 * large + 333),
        ];
        let mut lane = RealFabric::new(&tree, Arc::clone(&pool), 2 * large + 333).unwrap();
        for (k, &(n, file_bytes)) in jobs.iter().enumerate() {
            let work = JobWork::new(4).read(n).xfer(n).write(2 * n).chunk_work();
            let ch = build_chain(&tree, leaf, work, 4);
            if k > 0 {
                let (file, pattern) = file_and_pattern(&lane);
                let read = ..n as usize;
                assert!(
                    file[read] != pattern[read],
                    "job {k} reads written-back bytes"
                );
            }
            lane.start_job(file_bytes, None).unwrap();
            let (file, pattern) = file_and_pattern(&lane);
            assert!(
                file == pattern,
                "job {k}: the whole arena holds the pattern again"
            );

            let mut fresh = RealFabric::new(&tree, Arc::clone(&pool), file_bytes).unwrap();
            assert_eq!(
                run_job(&mut lane, &ch, 4),
                run_job(&mut fresh, &ch, 4),
                "job {k}"
            );
        }
        assert!(
            lane.start_job(2 * large + 334, None).is_err(),
            "a dataset larger than the arena is refused"
        );
    }

    #[test]
    fn start_job_keeps_one_job_of_spans_and_swaps_the_lease() {
        let tree = tree();
        let staging = tree.children(tree.root())[0];
        let mut fab = RealFabric::new(&tree, Arc::new(ThreadPool::new(2)), 1 << 20).unwrap();
        let ch = chain(&tree, 3, 64 << 10);
        let spans = |fab: &RealFabric| fab.rt.chrome_trace().matches("\"ph\"").count();
        let mut first = None;
        for k in 0..3 {
            fab.start_job(1 << 20, None).unwrap();
            run_job(&mut fab, &ch, 3);
            let n = spans(&fab);
            assert!(n > 0);
            assert_eq!(*first.get_or_insert(n), n, "spans after job {}", k + 1);
        }
        // A lease too small for one staging buffer fails the job; the
        // next job's `None` takes it off again.
        let tight = Reservation::new().with(staging, 1).to_lease();
        fab.start_job(1 << 20, Some(tight)).unwrap();
        assert!(fab.run_chunk(&ch, 0, SimTime::ZERO).is_err());
        fab.start_job(1 << 20, None).unwrap();
        assert!(fab.run_chunk(&ch, 0, SimTime::ZERO).is_ok());
    }

    #[test]
    fn chunk_offsets_do_not_overflow() {
        // Below 2^64 the product is the u64 one.
        for (idx, n, file_bytes) in [(0, 64, 1 << 20), (7, 4096, 1 << 20), (3, 100, 150)] {
            let want = (u64::from(idx) * n) % (file_bytes - n + 1);
            assert_eq!(chunk_offset(idx, n, file_bytes), want);
        }
        // (2^32 - 1) · 2^33 ≥ 2^64: u64 would panic or wrap to 60112632824.
        assert_eq!(chunk_offset(u32::MAX, 1 << 33, 1 << 40), 128_815_200_240);
        assert_eq!(chunk_offset(u32::MAX, u64::MAX, u64::MAX), 0);
        assert_eq!(
            chunk_offset(5, 10, 4),
            0,
            "a chunk larger than the dataset reads at 0"
        );
    }

    /// The byte loop [`byte_sum`] replaces.
    fn byte_loop(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0u64, |s, &b| s.wrapping_add(u64::from(b)))
    }

    #[test]
    fn byte_sum_holds_all_ones_across_the_flush() {
        let ones = vec![0xFFu8; 3 * 8224 + 31];
        for len in [0, 31, 32, 8191, 8223, 8224, 8225, 2 * 8224 + 1, ones.len()] {
            assert_eq!(byte_sum(&ones[..len]), 255 * len as u64, "len {len}");
        }
    }

    proptest! {
        /// Any length from 0 to three flush groups and a tail, at any
        /// alignment, all-`0xFF` or mixed bytes: the same sum as the loop.
        #[test]
        fn byte_sum_equals_the_byte_loop(
            len in 0usize..3 * 8224 + 32,
            skip in 0usize..32,
            seed in any::<u64>(),
            ones in any::<bool>(),
        ) {
            let bytes: Vec<u8> = (0..skip + len)
                .map(|i| {
                    if ones {
                        return 0xFF;
                    }
                    let x = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (x >> 56) as u8
                })
                .collect();
            let slice = &bytes[skip..];
            prop_assert_eq!(byte_sum(slice), byte_loop(slice));
        }
    }
}
