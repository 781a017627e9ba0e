//! Counting global allocator: live bytes, peak live bytes, allocation
//! count and allocated bytes. Always installed (see `main.rs`), so both
//! sides of any comparison pay the same four relaxed atomic updates per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// `System` plus counters. The counters publish no other data, so every
/// access is `Relaxed`.
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Bytes currently allocated.
    pub live: usize,
    /// Highest `live` since the last [`CountingAlloc::reset_peak`].
    pub peak: usize,
    /// Allocations made so far (a growing `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested so far (a growing `realloc` counts its growth).
    pub bytes: u64,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
            allocs: self.allocs.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
        }
    }

    /// Start a new peak measurement from the bytes live now.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    fn grew(&self, by: usize) {
        let live = self.live.fetch_add(by, Relaxed) + by;
        self.peak.fetch_max(live, Relaxed);
        self.allocs.fetch_add(1, Relaxed);
        self.bytes.fetch_add(by as u64, Relaxed);
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

    // Forwarded (not defaulted to alloc + memset) so that large zeroed
    // buffers keep the system allocator's lazily zeroed pages.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, forwarded as is.
        let p = unsafe { System.alloc_zeroed(layout) };
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_realloc_dealloc_balance_and_peak() {
        // A private instance: the process-wide one also serves the test
        // harness's own threads.
        let a = CountingAlloc::new();
        let l64 = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: layouts are non-zero-sized; every pointer is released
        // with the layout (or reallocated size) it was obtained with.
        unsafe {
            let p = a.alloc(l64);
            assert!(!p.is_null());
            assert_eq!(a.snapshot().live, 64);
            let p = a.realloc(p, l64, 256);
            assert_eq!(a.snapshot().live, 256);
            assert_eq!(a.snapshot().peak, 256);
            let l256 = Layout::from_size_align(256, 8).unwrap();
            let p = a.realloc(p, l256, 32);
            assert_eq!(a.snapshot().live, 32);
            assert_eq!(a.snapshot().peak, 256, "peak survives shrinking");
            let z = a.alloc_zeroed(l64);
            assert!((0..64).all(|i| *z.add(i) == 0));
            a.dealloc(z, l64);
            a.dealloc(p, Layout::from_size_align(32, 8).unwrap());
        }
        let s = a.snapshot();
        assert_eq!(s.live, 0, "every byte returned");
        assert_eq!(s.peak, 256);
        assert_eq!(s.allocs, 3, "alloc, growing realloc, alloc_zeroed");
        assert_eq!(s.bytes, 64 + 192 + 64);
        a.reset_peak();
        assert_eq!(a.snapshot().peak, 0);
    }
}
