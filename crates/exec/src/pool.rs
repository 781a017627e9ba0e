//! Work-stealing thread pool built on the Chase–Lev deque.
//!
//! This is the real-execution counterpart of the virtual-time worker
//! simulation in `northup-sim`, and every real thread the product starts
//! is one of its workers. One process-wide pool, started by the first
//! [`fan_out`](crate::fan_out) that needs a helper, runs the leaf
//! kernels' row bands and the fleet's shards. Real-mode service jobs run
//! their chunk chains on a pool of their own (`run_chain`, on lanes side
//! by side), sized by the caller, whose lanes block on file I/O a split
//! must not wait behind; the runtime's `RealFabric` checksums staged
//! bytes on it with `par_for`.
//!
//! Design: each worker thread owns a [`deque::Worker`]; tasks spawned from a
//! worker go to its local deque (bottom), idle workers steal from victims'
//! tops, and external threads submit through a shared injector. A blocked
//! `Scope::wait` helps execute tasks instead of sleeping, so nested scopes
//! cannot deadlock the pool.

use crate::deque::{self, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

const LOCAL_QUEUE_CAP: usize = 8192;

static POOL_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (pool id, pointer to this thread's local deque). The pointer is valid
    /// for the worker thread's whole life; the pool id guards against a
    /// thread of pool A being asked to push into pool B.
    static LOCAL: Cell<(u64, *const Worker<Job>)> = const { Cell::new((0, std::ptr::null())) };
}

struct Shared {
    id: u64,
    injector: Mutex<VecDeque<Job>>,
    stealers: Vec<Stealer<Job>>,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn pop_injected(&self) -> Option<Job> {
        self.injector.lock().pop_front()
    }

    fn inject(&self, job: Job) {
        self.injector.lock().push_back(job);
        self.wake_one();
    }

    fn wake_one(&self) {
        if self.sleepers.load(Ordering::Acquire) > 0 {
            let _g = self.lock.lock();
            self.cond.notify_one();
        }
    }

    fn wake_all(&self) {
        let _g = self.lock.lock();
        self.cond.notify_all();
    }

    /// Try to find a job: injector first (freshest external work), then steal
    /// round-robin starting after `home` to spread contention.
    fn find_job(&self, home: usize) -> Option<Job> {
        if let Some(job) = self.pop_injected() {
            return Some(job);
        }
        let n = self.stealers.len();
        let mut retry = true;
        while retry {
            retry = false;
            for k in 1..=n {
                let v = (home + k) % n;
                match self.stealers[v].steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
        }
        None
    }
}

/// A fixed-size work-stealing thread pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let id = POOL_IDS.fetch_add(1, Ordering::Relaxed);
        let mut workers = Vec::with_capacity(threads);
        let mut stealers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (w, s) = deque::deque::<Job>(LOCAL_QUEUE_CAP);
            workers.push(w);
            stealers.push(s);
        }
        let shared = Arc::new(Shared {
            id,
            injector: Mutex::new(VecDeque::new()),
            stealers,
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("northup-worker-{i}"))
                    .spawn(move || worker_loop(shared, local, i))
                    // analyze:allow(panic-paths): pool construction; OS refusing a thread at startup is unrecoverable setup, not a runtime path
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn submit(&self, job: Job) {
        // If called from one of this pool's workers, push to its local deque
        // (the fast path the Chase-Lev design exists for).
        let pushed_local = LOCAL.with(|tls| {
            let (pool, ptr) = tls.get();
            if pool == self.shared.id && !ptr.is_null() {
                // Safety: ptr points at the current thread's own Worker,
                // alive for the thread's lifetime; we are that thread.
                let local = unsafe { &*ptr };
                match local.push(job) {
                    Ok(()) => {
                        self.shared.wake_one();
                        Ok(())
                    }
                    Err(job) => Err(job),
                }
            } else {
                Err(job)
            }
        });
        if let Err(job) = pushed_local {
            self.shared.inject(job);
        }
    }

    /// Run `f` with a [`Scope`] that can spawn borrowed tasks; returns after
    /// every spawned task (transitively) finishes. Panics from tasks are
    /// propagated to the caller.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        });
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        // A panicking `f` still waits: the tasks it spawned may borrow `'env`.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait();
        let result = result.unwrap_or_else(|payload| resume_unwind(payload));
        if let Some(payload) = state.panic.lock().take() {
            resume_unwind(payload);
        }
        result
    }

    /// Parallel loop over `0..n` in chunks of `grain`, calling
    /// `f(start..end)` for each chunk.
    pub fn par_for(
        &self,
        n: usize,
        grain: usize,
        f: impl Fn(std::ops::Range<usize>) + Sync + Send,
    ) {
        if n == 0 {
            return;
        }
        let grain = grain.max(1);
        let f = &f;
        self.scope(|s| {
            let mut start = 0;
            while start < n {
                let end = (start + grain).min(n);
                s.spawn(move || f(start..end));
                start = end;
            }
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The threads a split runs on: the caller plus one helper per spare
/// core (the process-wide pool's size plus one, on a host with more than
/// one core). Read once; the host's core count does not change.
pub fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// The process-wide pool: `workers() - 1` helpers (at least one, for a
/// caller that asks for more workers than there are cores), started by
/// the first call that needs a helper, so a process that never splits
/// starts no thread.
pub(crate) fn shared() -> &'static ThreadPool {
    static SHARED: OnceLock<ThreadPool> = OnceLock::new();
    SHARED.get_or_init(|| ThreadPool::new(workers() - 1))
}

struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    lock: Mutex<()>,
    cond: Condvar,
}

/// Spawning context handed to [`ThreadPool::scope`]. Tasks may borrow from
/// the enclosing environment (`'env`).
pub struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    _env: PhantomData<fn(&'env ()) -> &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Spawn a task that may borrow from `'env`.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        let state = Arc::clone(&self.state);
        state.pending.fetch_add(1, Ordering::AcqRel);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            if let Err(payload) = result {
                let mut slot = state.panic.lock();
                slot.get_or_insert(payload);
            }
            if state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _g = state.lock.lock();
                state.cond.notify_all();
            }
        });
        // Safety: `Scope::wait` (called by `ThreadPool::scope` before it
        // returns) blocks until `pending` reaches zero, so the closure —
        // including its borrows of `'env` — cannot outlive the scope. This is
        // the standard scoped-spawn lifetime erasure (cf. crossbeam/rayon).
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        self.pool.submit(job);
    }

    /// Block until all tasks spawned on this scope completed, helping to
    /// execute pool work while waiting (so nested scopes cannot deadlock).
    fn wait(&self) {
        let shared = &self.pool.shared;
        while self.state.pending.load(Ordering::Acquire) > 0 {
            // Prefer local work if we are a pool worker; otherwise
            // steal/drain the injector like a worker would.
            let job = LOCAL.with(|tls| {
                let (pool, ptr) = tls.get();
                if pool == shared.id && !ptr.is_null() {
                    // Safety: see `submit`.
                    unsafe { &*ptr }.pop()
                } else {
                    None
                }
            });
            let job = job.or_else(|| shared.find_job(0));
            match job {
                Some(job) => job(),
                None => {
                    // Nothing to help with; sleep until a completion or new work.
                    let mut g = self.state.lock.lock();
                    if self.state.pending.load(Ordering::Acquire) > 0 {
                        self.state
                            .cond
                            .wait_for(&mut g, std::time::Duration::from_millis(1));
                    }
                }
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>, local: Worker<Job>, index: usize) {
    LOCAL.with(|tls| tls.set((shared.id, &local as *const _)));
    loop {
        if let Some(job) = local.pop().or_else(|| shared.find_job(index)) {
            job();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Sleep with a timed wait as a lost-wakeup safety net.
        shared.sleepers.fetch_add(1, Ordering::AcqRel);
        let mut g = shared.lock.lock();
        // analyze:allow(blocking-extent): the injector re-check must happen under the sleep lock to avoid lost wakeups, and injector is a leaf lock held O(1)
        let empty = local.is_empty() && shared.injector.lock().is_empty();
        if empty && !shared.shutdown.load(Ordering::Acquire) {
            shared
                .cond
                .wait_for(&mut g, std::time::Duration::from_millis(5));
        }
        drop(g);
        shared.sleepers.fetch_sub(1, Ordering::AcqRel);
    }
    LOCAL.with(|tls| tls.set((0, std::ptr::null())));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn scope_borrows_environment() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0u32; 64];
        let chunks: Vec<&mut [u32]> = data.chunks_mut(8).collect();
        pool.scope(|s| {
            for (i, chunk) in chunks.into_iter().enumerate() {
                s.spawn(move || {
                    for v in chunk.iter_mut() {
                        *v = i as u32;
                    }
                });
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[63], 7);
        assert!(data
            .chunks(8)
            .enumerate()
            .all(|(i, c)| c.iter().all(|&v| v == i as u32)));
    }

    #[test]
    fn scope_waits_for_all_tasks() {
        let pool = ThreadPool::new(2);
        let counter = AtomicU32::new(0);
        pool.scope(|s| {
            for _ in 0..500 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU32::new(0));
        pool.scope(|outer| {
            for _ in 0..8 {
                let c = Arc::clone(&counter);
                let pool_ref = &pool;
                outer.spawn(move || {
                    pool_ref.scope(|inner| {
                        for _ in 0..8 {
                            let c2 = Arc::clone(&c);
                            inner.spawn(move || {
                                c2.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn par_for_covers_range_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        pool.par_for(1000, 37, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_zero_is_noop() {
        let pool = ThreadPool::new(2);
        pool.par_for(0, 8, |_| panic!("must not be called"));
    }

    #[test]
    fn panics_propagate_from_scope() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task exploded"));
                s.spawn(|| {}); // healthy sibling still runs
            });
        }));
        assert!(result.is_err(), "scope re-raises the task panic");
        // Pool remains usable afterwards.
        let c = AtomicU32::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                c.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(c.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_panicking_scope_body_still_waits_for_its_tasks() {
        let pool = ThreadPool::new(2);
        let done = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    done.fetch_add(1, Ordering::Relaxed);
                });
                panic!("scope body exploded");
            })
        }));
        let payload = result.expect_err("the body's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"scope body exploded"));
        assert_eq!(done.load(Ordering::Relaxed), 1, "the task finished first");
    }

    #[test]
    fn heavy_mixed_load_stress() {
        let pool = ThreadPool::new(8);
        let total = Arc::new(AtomicUsize::new(0));
        pool.scope(|s| {
            for i in 0..200 {
                let total = Arc::clone(&total);
                s.spawn(move || {
                    // Uneven task sizes to force stealing.
                    let mut acc = 0usize;
                    for k in 0..(i % 17) * 1000 + 1 {
                        acc = acc.wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    total.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let c = AtomicU32::new(0);
        pool.scope(|s| {
            for _ in 0..50 {
                s.spawn(|| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(c.load(Ordering::Relaxed), 50);
    }
}
