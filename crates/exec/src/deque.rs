//! Bounded lock-free Chase–Lev work-stealing deque.
//!
//! The paper's §V-E load balancer lets GPU workgroups steal rows of blocks
//! from CPU thread queues using "atomics with the platform-scope and acquire
//! memory ordering ... to implement the lock-free stealing \[24\]". This is
//! the same algorithm — the Chase–Lev deque, with the memory orderings from
//! Lê et al., *Correct and Efficient Work-Stealing for Weak Memory Models*
//! (PPoPP'13):
//!
//! * the **owner** pushes and pops at the *bottom* (the paper's "tail
//!   pointer");
//! * any number of **thieves** steal at the *top* (the paper's "head
//!   pointer") with a CAS.
//!
//! The buffer is fixed-capacity (a power of two). That suits the Northup
//! use case — queues are filled with a chunk's rows of blocks up front — and
//! sidesteps the memory-reclamation problem of the growable variant. `push`
//! reports a full deque by giving the value back.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicIsize, Ordering};
use std::sync::Arc;

/// Result of a steal attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; retrying may succeed.
    Retry,
    /// Stole a value.
    Success(T),
}

impl<T> Steal<T> {
    /// Convert to `Option`, treating `Retry` as `None`.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }
}

struct Inner<T> {
    /// Next slot the owner will push into (owner-written).
    bottom: AtomicIsize,
    /// Next slot thieves will steal from (CAS-advanced).
    top: AtomicIsize,
    mask: isize,
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// Safety: slots are only read by whoever wins ownership of an index — the
// owner via the bottom protocol, a thief via the top CAS. The orderings below
// ensure a slot's contents are published before its index becomes claimable.
unsafe impl<T: Send> Sync for Inner<T> {}
unsafe impl<T: Send> Send for Inner<T> {}

/// Owner handle: push and pop at the bottom. Not `Clone` — exactly one owner.
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
}

/// Thief handle: steal at the top. Freely cloneable across threads.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> fmt::Debug for Worker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Worker").field("len", &self.len()).finish()
    }
}

impl<T> fmt::Debug for Stealer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stealer").finish_non_exhaustive()
    }
}

/// Create a deque of capacity `cap` (rounded up to a power of two, min 2).
pub fn deque<T: Send>(cap: usize) -> (Worker<T>, Stealer<T>) {
    let cap = cap.max(2).next_power_of_two();
    let buf = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(Inner {
        bottom: AtomicIsize::new(0),
        top: AtomicIsize::new(0),
        mask: (cap - 1) as isize,
        buf,
    });
    (
        Worker {
            inner: Arc::clone(&inner),
        },
        Stealer { inner },
    )
}

impl<T> Inner<T> {
    #[inline]
    fn slot(&self, index: isize) -> *mut MaybeUninit<T> {
        self.buf[(index & self.mask) as usize].get()
    }
}

impl<T> Worker<T> {
    /// Best-effort current length (exact only when quiescent).
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Acquire);
        let t = self.inner.top.load(Ordering::Acquire);
        (b - t).max(0) as usize
    }

    /// Best-effort emptiness check.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> Worker<T> {
    /// Push a value at the bottom. Returns `Err(value)` if the deque is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let inner = &*self.inner;
        // analyze:allow(atomic-order): the owner is the only thread that stores `bottom`, so its own program order already sequences this read
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        if b - t > inner.mask {
            return Err(value); // full
        }
        // Safety: index b is not visible to thieves until the Release store
        // of bottom below, and the owner is the only pusher.
        unsafe { (*inner.slot(b)).write(value) };
        inner.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Pop a value at the bottom (LIFO with respect to `push`).
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        inner.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);

        if t <= b {
            // Non-empty.
            // Safety: either b > t (slot b unreachable by thieves after the
            // fence) or b == t and the CAS below decides ownership.
            let value = unsafe { (*inner.slot(b)).assume_init_read() };
            if t == b {
                // Last element: race the thieves for it.
                if inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    // A thief won; it now owns the value we just copied.
                    std::mem::forget(value);
                    inner.bottom.store(b + 1, Ordering::Relaxed);
                    return None;
                }
                inner.bottom.store(b + 1, Ordering::Relaxed);
            }
            Some(value)
        } else {
            // Was empty; restore bottom.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }
}

impl<T> Stealer<T> {
    /// Best-effort current length.
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Acquire);
        let t = self.inner.top.load(Ordering::Acquire);
        (b - t).max(0) as usize
    }

    /// Best-effort emptiness check.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> Stealer<T> {
    /// Attempt to steal one value from the top (FIFO with respect to `push`).
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if t < b {
            // Safety: we copy the slot first, then claim it with the CAS; on
            // CAS failure someone else owns it, so we forget our copy.
            let value = unsafe { (*inner.slot(t)).assume_init_read() };
            if inner
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                std::mem::forget(value);
                return Steal::Retry;
            }
            Steal::Success(value)
        } else {
            Steal::Empty
        }
    }

    /// Steal, retrying while the result is `Retry`.
    pub fn steal_until_settled(&self) -> Option<T> {
        loop {
            match self.steal() {
                Steal::Success(v) => return Some(v),
                Steal::Empty => return None,
                Steal::Retry => std::hint::spin_loop(),
            }
        }
    }
}

impl<T> Drop for Worker<T> {
    fn drop(&mut self) {
        // The owner being dropped means no concurrent pushes; drain what the
        // thieves haven't taken. Stealers still alive see an empty deque.
        let inner = &*self.inner;
        let mut t = inner.top.load(Ordering::Acquire);
        let b = inner.bottom.load(Ordering::Acquire);
        while t < b {
            if inner
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Acquire)
                .is_ok()
            {
                // Safety: the successful CAS grants ownership of slot t.
                unsafe {
                    drop((*inner.slot(t)).assume_init_read());
                }
                t += 1;
            } else {
                t = inner.top.load(Ordering::Acquire);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    #[test]
    fn push_pop_lifo() {
        let (w, _s) = deque::<u32>(8);
        w.push(1).unwrap();
        w.push(2).unwrap();
        w.push(3).unwrap();
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn steal_fifo() {
        let (w, s) = deque::<u32>(8);
        w.push(1).unwrap();
        w.push(2).unwrap();
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(s.steal(), Steal::Success(2));
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn full_deque_returns_value() {
        let (w, _s) = deque::<u32>(2);
        w.push(1).unwrap();
        w.push(2).unwrap();
        assert_eq!(w.push(3), Err(3));
        assert_eq!(w.pop(), Some(2));
        w.push(3).unwrap();
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (w, _s) = deque::<u32>(5); // rounds to 8
        for i in 0..8 {
            w.push(i).unwrap();
        }
        assert_eq!(w.push(99), Err(99));
    }

    #[test]
    fn owner_and_thief_interleave() {
        let (w, s) = deque::<u32>(16);
        w.push(1).unwrap();
        w.push(2).unwrap();
        w.push(3).unwrap();
        assert_eq!(s.steal(), Steal::Success(1)); // head
        assert_eq!(w.pop(), Some(3)); // tail
        assert_eq!(s.steal(), Steal::Success(2));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn concurrent_steal_no_loss_no_dup() {
        const N: usize = 20_000;
        const THIEVES: usize = 4;
        let (w, s) = deque::<usize>(32_768);
        for i in 0..N {
            w.push(i).unwrap();
        }

        let mut sets: Vec<HashSet<usize>> = Vec::new();
        thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..THIEVES {
                let s = s.clone();
                handles.push(scope.spawn(move || {
                    let mut got = HashSet::new();
                    loop {
                        match s.steal() {
                            Steal::Success(v) => {
                                assert!(got.insert(v));
                            }
                            Steal::Empty => break,
                            Steal::Retry => std::hint::spin_loop(),
                        }
                    }
                    got
                }));
            }
            let mut own = HashSet::new();
            while let Some(v) = w.pop() {
                assert!(own.insert(v));
            }
            sets.push(own);
            for h in handles {
                sets.push(h.join().unwrap());
            }
        });

        let mut all = HashSet::new();
        for set in &sets {
            for &v in set {
                assert!(all.insert(v), "value {v} executed twice");
            }
        }
        assert_eq!(all.len(), N, "all values observed exactly once");
    }

    #[test]
    fn concurrent_push_pop_steal_stress() {
        // Owner keeps pushing while thieves drain: total consumed must equal
        // total produced.
        const ROUNDS: usize = 200;
        const BATCH: usize = 64;
        let (w, s) = deque::<usize>(BATCH * 2);
        let consumed = AtomicUsize::new(0);
        let done = std::sync::atomic::AtomicBool::new(false);

        thread::scope(|scope| {
            for _ in 0..3 {
                let s = s.clone();
                let consumed = &consumed;
                let done = &done;
                scope.spawn(move || loop {
                    match s.steal() {
                        Steal::Success(_) => {
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && s.is_empty() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                        Steal::Retry => std::hint::spin_loop(),
                    }
                });
            }

            let mut produced = 0usize;
            for round in 0..ROUNDS {
                for i in 0..BATCH {
                    let mut v = round * BATCH + i;
                    loop {
                        match w.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                // Help drain while full.
                                if w.pop().is_some() {
                                    consumed.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                    produced += 1;
                }
                // Owner consumes some of its own work.
                for _ in 0..BATCH / 2 {
                    if w.pop().is_some() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            while w.pop().is_some() {
                consumed.fetch_add(1, Ordering::Relaxed);
            }
            done.store(true, Ordering::Release);
            let _ = produced;
        });

        // Remaining items (if any) sit in the deque; drain them.
        let mut remaining = 0;
        while w.pop().is_some() {
            remaining += 1;
        }
        assert_eq!(
            consumed.load(Ordering::Relaxed) + remaining,
            ROUNDS * BATCH,
            "every pushed item is consumed exactly once"
        );
    }

    #[test]
    fn drop_releases_unconsumed_values() {
        // Use Arc counters to check no leaks/double-drops.
        let counter = Arc::new(());
        {
            let (w, _s) = deque::<Arc<()>>(8);
            for _ in 0..5 {
                w.push(Arc::clone(&counter)).unwrap();
            }
            w.pop();
        }
        assert_eq!(Arc::strong_count(&counter), 1, "all clones dropped");
    }
}
