//! The real-execution backend of the stage-chain IR: chunk chains driven
//! through a `northup::Runtime` in [`ExecMode::Real`] on the
//! `northup-exec` work-stealing pool.
//!
//! Where [`SimFabric`](crate::SimFabric) *books* a chunk's stages on
//! virtual-time resources, [`RealFabric`] *performs* them: the staging
//! buffer is really allocated (and metered against the job's installed
//! [`CapacityLease`] — an over-budget chunk fails with `LeaseExceeded`
//! right at `alloc`, the enforcement point admission promised), bytes
//! really move from the root file buffer through the runtime's storage
//! backends, and the leaf "kernel" really reads the staged bytes on the
//! thread pool, folding them into a commutative checksum so results are
//! identical for any thread count.
//!
//! One `RealFabric` is one job's execution arena, built fresh for the job
//! and dropped after it; an arena is never reset or re-used. The
//! scheduler-level contract stays chunk-granular: callers drive chunks
//! in order (usually via `northup_exec::ThreadPool::run_chain`, which
//! polls a [`CancelToken`](northup_exec::CancelToken) at every
//! boundary), and an evicted job constructs a fresh fabric later and
//! resumes at its next unprocessed chunk index — completed chunks are
//! never re-run.

use northup::fabric::{ChunkChain, Fabric, FabricError};
use northup::fault::FaultPlan;
use northup::lease::CapacityLease;
use northup::runtime::SetupCosts;
use northup::{BufferHandle, ExecMode, NodeId, Result, Runtime, Tree};
use northup_exec::ThreadPool;
use northup_hw::{FaultOps, FaultyBackend, HeapBackend, StorageBackend};
use northup_sim::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Real-thread chunk-chain execution for one job.
pub struct RealFabric {
    tree: Tree,
    rt: Runtime,
    pool: Arc<ThreadPool>,
    file: northup::BufferHandle,
    file_bytes: u64,
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
    /// chaos runs are reproducible bit for bit.
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
        // Deterministic non-trivial content, written in bounded strips.
        // Byte `i` of the file is a function of `i mod 256`, and 256
        // divides the strip, so every strip holds the same bytes.
        let strip: Vec<u8> = (0..1usize << 16)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect();
        let mut off = 0u64;
        while off < file_bytes {
            let n = (strip.len() as u64).min(file_bytes - off) as usize;
            rt.write_slice(file, off, &strip[..n])?;
            off += n as u64;
        }
        Ok(RealFabric {
            tree: tree.clone(),
            rt,
            pool,
            file,
            file_bytes,
            checksum: 0,
        })
    }

    /// Install the job's capacity lease on the underlying runtime, so
    /// every staging `alloc` this fabric performs is metered against it.
    /// Returns the previously installed lease, if any.
    pub fn install_lease(&self, lease: Arc<CapacityLease>) -> Option<Arc<CapacityLease>> {
        self.rt.install_lease(lease)
    }

    /// The commutative checksum folded over every staged byte so far.
    /// Deterministic for a given (file pattern, chunk set) regardless of
    /// thread count or chunk interleaving — the mode-agreement tests
    /// compare it between runs.
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
                // Root read + link staging in one runtime move; chunks
                // wrap around the shared file so every index is in range.
                let n = work
                    .xfer_bytes
                    .max(work.read_bytes)
                    .min(stage_bytes)
                    .min(self.file_bytes);
                let src_off = (u64::from(idx) * n) % (self.file_bytes - n + 1).max(1);
                self.rt.move_data(buf, 0, self.file, src_off, n)?;

                // The real kernel: fold the staged bytes, where they
                // lie, into a commutative (wrapping-add) checksum on the
                // pool.
                let acc = AtomicU64::new(0);
                let pool = &self.pool;
                self.rt.with_bytes(buf, 0, n, |bytes| {
                    pool.par_for(bytes.len(), 1 << 14, |r| {
                        let mut s = 0u64;
                        for &b in &bytes[r] {
                            s = s.wrapping_add(u64::from(b));
                        }
                        acc.fetch_add(s, Ordering::Relaxed);
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
                let n = work.write_bytes.min(stage_bytes).min(self.file_bytes);
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
}
