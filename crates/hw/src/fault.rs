//! Fault injection for storage backends.
//!
//! Real storage fails; a runtime that owns data movement must surface
//! device errors as recoverable `Result`s, never corrupt its accounting,
//! and stay usable afterwards. [`FaultyBackend`] wraps any backend and
//! deterministically fails selected operations so tests can drive those
//! paths.

use crate::backend::{BlockId, HwError, HwResult, StorageBackend};
use std::io;

/// Which operations the injector may fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOps {
    /// Only reads fail.
    Reads,
    /// Only writes fail.
    Writes,
    /// Reads and writes fail.
    ReadsAndWrites,
    /// Allocations fail.
    Allocs,
}

/// A backend that injects an I/O error on every `fail_every`-th matching
/// operation (1-based: `fail_every == 1` fails them all).
pub struct FaultyBackend<B> {
    inner: B,
    ops: FaultOps,
    fail_every: u64,
    counter: u64,
    injected: u64,
}

impl<B: StorageBackend> FaultyBackend<B> {
    /// Wrap `inner`, failing every `fail_every`-th operation of kind `ops`.
    pub fn new(inner: B, ops: FaultOps, fail_every: u64) -> Self {
        FaultyBackend {
            inner,
            ops,
            fail_every: fail_every.max(1),
            counter: 0,
            injected: 0,
        }
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    fn fails_reads(&self) -> bool {
        matches!(self.ops, FaultOps::Reads | FaultOps::ReadsAndWrites)
    }

    fn fails_writes(&self) -> bool {
        matches!(self.ops, FaultOps::Writes | FaultOps::ReadsAndWrites)
    }

    fn trip(&mut self, matches: bool) -> HwResult<()> {
        if !matches {
            return Ok(());
        }
        self.counter += 1;
        if self.counter.is_multiple_of(self.fail_every) {
            self.injected += 1;
            return Err(HwError::Io(io::Error::other("injected device fault")));
        }
        Ok(())
    }
}

impl<B: StorageBackend> StorageBackend for FaultyBackend<B> {
    fn alloc(&mut self, size: u64) -> HwResult<BlockId> {
        self.trip(self.ops == FaultOps::Allocs)?;
        self.inner.alloc(size)
    }

    fn release(&mut self, block: BlockId) -> HwResult<()> {
        self.inner.release(block)
    }

    fn read(&mut self, block: BlockId, offset: u64, dst: &mut [u8]) -> HwResult<()> {
        self.trip(self.fails_reads())?;
        self.inner.read(block, offset, dst)
    }

    fn write(&mut self, block: BlockId, offset: u64, src: &[u8]) -> HwResult<()> {
        self.trip(self.fails_writes())?;
        self.inner.write(block, offset, src)
    }

    /// One read ordinal per range, so a loan of `k` ranges fails where
    /// `k` plain reads would.
    fn lend(
        &mut self,
        ranges: &[(BlockId, u64, u64)],
        f: &mut dyn FnMut(&[&[u8]]) -> HwResult<()>,
    ) -> HwResult<()> {
        for _ in ranges {
            self.trip(self.fails_reads())?;
        }
        self.inner.lend(ranges, f)
    }

    fn fill(
        &mut self,
        block: BlockId,
        offset: u64,
        len: u64,
        f: &mut dyn FnMut(&mut [u8]) -> HwResult<()>,
    ) -> HwResult<()> {
        self.trip(self.fails_writes())?;
        self.inner.fill(block, offset, len, f)
    }

    fn size_of(&self, block: BlockId) -> HwResult<u64> {
        self.inner.size_of(block)
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::HeapBackend;

    #[test]
    fn fails_every_nth_read() {
        let mut b = FaultyBackend::new(HeapBackend::new("x", 1024), FaultOps::Reads, 3);
        let blk = b.alloc(8).unwrap();
        let mut buf = [0u8; 8];
        assert!(b.read(blk, 0, &mut buf).is_ok());
        assert!(b.read(blk, 0, &mut buf).is_ok());
        assert!(matches!(b.read(blk, 0, &mut buf), Err(HwError::Io(_))));
        assert!(b.read(blk, 0, &mut buf).is_ok());
        assert_eq!(b.injected(), 1);
    }

    #[test]
    fn writes_unaffected_by_read_faults() {
        let mut b = FaultyBackend::new(HeapBackend::new("x", 1024), FaultOps::Reads, 1);
        let blk = b.alloc(4).unwrap();
        assert!(b.write(blk, 0, &[1, 2, 3, 4]).is_ok());
        let mut buf = [0u8; 4];
        assert!(b.read(blk, 0, &mut buf).is_err());
    }

    #[test]
    fn alloc_faults_leave_accounting_clean() {
        let mut b = FaultyBackend::new(HeapBackend::new("x", 1024), FaultOps::Allocs, 2);
        let a = b.alloc(100).unwrap();
        assert!(matches!(b.alloc(100), Err(HwError::Io(_))));
        assert_eq!(b.used(), 100, "failed alloc consumed nothing");
        b.release(a).unwrap();
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn lend_counts_as_a_read_and_fill_as_a_write() {
        // Alternating read/lend (write/fill) fails on the same ordinals as
        // a stream of plain reads (writes) would.
        let mut b = FaultyBackend::new(HeapBackend::new("x", 1024), FaultOps::ReadsAndWrites, 3);
        let blk = b.alloc(8).unwrap();
        let mut buf = [0u8; 8];
        let mut reads = Vec::new();
        for i in 0..6 {
            reads.push(if i % 2 == 0 {
                b.read(blk, 0, &mut buf).is_err()
            } else {
                b.lend(&[(blk, 0, 8)], &mut |_| Ok(())).is_err()
            });
        }
        assert_eq!(reads, [false, false, true, false, false, true]);
        let mut writes = Vec::new();
        for i in 0..6 {
            writes.push(if i % 2 == 0 {
                b.fill(blk, 0, 8, &mut |dst| {
                    dst.fill(1);
                    Ok(())
                })
                .is_err()
            } else {
                b.write(blk, 0, &buf).is_err()
            });
        }
        assert_eq!(writes, [false, false, true, false, false, true]);
        assert_eq!(b.injected(), 4);

        // A tripped fill never reaches the closure; reads-only injectors
        // leave fill alone and the other way round.
        let mut b = FaultyBackend::new(HeapBackend::new("x", 1024), FaultOps::Writes, 1);
        let blk = b.alloc(4).unwrap();
        let mut called = false;
        assert!(b
            .fill(blk, 0, 4, &mut |_| {
                called = true;
                Ok(())
            })
            .is_err());
        assert!(!called);
        assert!(b.lend(&[(blk, 0, 4)], &mut |_| Ok(())).is_ok());
        let mut b = FaultyBackend::new(HeapBackend::new("x", 1024), FaultOps::Reads, 1);
        let blk = b.alloc(4).unwrap();
        assert!(b.fill(blk, 0, 4, &mut |_| Ok(())).is_ok());
        assert!(b.lend(&[(blk, 0, 4)], &mut |_| Ok(())).is_err());
    }

    #[test]
    fn fail_every_one_fails_everything_matching() {
        let mut b = FaultyBackend::new(HeapBackend::new("x", 1024), FaultOps::ReadsAndWrites, 1);
        let blk = b.alloc(4).unwrap();
        assert!(b.write(blk, 0, &[0; 4]).is_err());
        let mut buf = [0u8; 4];
        assert!(b.read(blk, 0, &mut buf).is_err());
        assert_eq!(b.injected(), 2);
    }
}
