//! A storage backend that times and counts the calls it forwards: the
//! `hw` layer measured in situ, through the hook `Runtime` already offers
//! (`Runtime::with_custom_backends`).

use northup_hw::{BlockId, HwResult, StorageBackend};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Count, time and bytes of one kind of operation. Statistics only, read
/// after the run: `Relaxed` throughout.
#[derive(Debug, Default)]
pub struct OpStats {
    pub count: AtomicU64,
    pub ns: AtomicU64,
    pub bytes: AtomicU64,
}

impl OpStats {
    fn record(&self, since: Instant, bytes: u64) {
        self.count.fetch_add(1, Relaxed);
        self.ns
            .fetch_add(since.elapsed().as_nanos() as u64, Relaxed);
        self.bytes.fetch_add(bytes, Relaxed);
    }

    pub fn get(&self) -> (u64, u64, u64) {
        (
            self.count.load(Relaxed),
            self.ns.load(Relaxed),
            self.bytes.load(Relaxed),
        )
    }
}

/// What one wrapped backend did. Shared with the harness, which keeps a
/// handle after the runtime has taken the backend.
#[derive(Debug, Default)]
pub struct BackendStats {
    pub alloc: OpStats,
    pub release: OpStats,
    pub read: OpStats,
    pub write: OpStats,
}

impl BackendStats {
    /// `(ops, busy seconds, bytes)` over all four operations.
    pub fn totals(&self) -> (u64, f64, u64) {
        let mut t = (0, 0, 0);
        for op in [&self.alloc, &self.release, &self.read, &self.write] {
            let (c, ns, b) = op.get();
            t = (t.0 + c, t.1 + ns, t.2 + b);
        }
        (t.0, t.1 as f64 * 1e-9, t.2)
    }
}

/// Forwards every call to `inner` unchanged — results, errors and
/// accounting — and records how long each took.
pub struct TimedBackend<B> {
    inner: B,
    stats: Arc<BackendStats>,
}

impl<B: StorageBackend> TimedBackend<B> {
    pub fn new(inner: B, stats: Arc<BackendStats>) -> Self {
        TimedBackend { inner, stats }
    }
}

impl<B: StorageBackend> StorageBackend for TimedBackend<B> {
    fn alloc(&mut self, size: u64) -> HwResult<BlockId> {
        let t = Instant::now();
        let r = self.inner.alloc(size);
        self.stats.alloc.record(t, 0);
        r
    }

    fn release(&mut self, block: BlockId) -> HwResult<()> {
        let t = Instant::now();
        let r = self.inner.release(block);
        self.stats.release.record(t, 0);
        r
    }

    fn read(&mut self, block: BlockId, offset: u64, dst: &mut [u8]) -> HwResult<()> {
        let t = Instant::now();
        let r = self.inner.read(block, offset, dst);
        self.stats.read.record(t, dst.len() as u64);
        r
    }

    fn write(&mut self, block: BlockId, offset: u64, src: &[u8]) -> HwResult<()> {
        let t = Instant::now();
        let r = self.inner.write(block, offset, src);
        self.stats.write.record(t, src.len() as u64);
        r
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
    use northup_hw::{HeapBackend, HwError};

    #[test]
    fn passes_bytes_errors_and_accounting_through() {
        let stats = Arc::new(BackendStats::default());
        let mut timed = TimedBackend::new(HeapBackend::new("t", 1024), Arc::clone(&stats));
        let mut plain = HeapBackend::new("p", 1024);

        let (bt, bp) = (timed.alloc(256).unwrap(), plain.alloc(256).unwrap());
        assert_eq!(bt, bp);
        let data: Vec<u8> = (0..=255).collect();
        timed.write(bt, 0, &data).unwrap();
        plain.write(bp, 0, &data).unwrap();
        let (mut rt, mut rp) = ([0u8; 100], [0u8; 100]);
        timed.read(bt, 50, &mut rt).unwrap();
        plain.read(bp, 50, &mut rp).unwrap();
        assert_eq!(rt, rp);
        assert_eq!(
            (
                timed.used(),
                timed.capacity(),
                timed.available(),
                timed.size_of(bt).unwrap()
            ),
            (
                plain.used(),
                plain.capacity(),
                plain.available(),
                plain.size_of(bp).unwrap()
            )
        );

        // Errors come back unchanged, and still count as operations.
        assert!(matches!(
            (timed.read(bt, 200, &mut rt), plain.read(bp, 200, &mut rp)),
            (
                Err(HwError::OutOfBounds { .. }),
                Err(HwError::OutOfBounds { .. })
            )
        ));
        assert!(matches!(
            timed.alloc(4096),
            Err(HwError::OutOfCapacity { .. })
        ));
        assert!(matches!(
            timed.release(BlockId(99)),
            Err(HwError::InvalidBlock(_))
        ));
        timed.release(bt).unwrap();
        assert_eq!(timed.used(), 0);

        assert_eq!(stats.write.get().0, 1);
        assert_eq!(stats.write.get().2, 256);
        assert_eq!((stats.read.get().0, stats.read.get().2), (2, 200));
        assert_eq!((stats.alloc.get().0, stats.release.get().0), (2, 2));
        let (ops, busy_s, bytes) = stats.totals();
        assert_eq!((ops, bytes), (7, 456));
        assert!(busy_s > 0.0);
    }
}
