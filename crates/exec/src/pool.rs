//! The executor's thread pool: one FIFO queue and a fixed set of workers.
//!
//! This is the real-execution counterpart of the virtual-time worker
//! simulation in `northup-sim`, and every real thread the product starts
//! is a worker of its one pool, the process-wide [`shared`] one. It runs
//! the leaf kernels' row bands, the fleet's shards and the Real-mode
//! service lanes (each driving a chunk chain with `run_chain`), and
//! `RealFabric` checksums staged bytes on it with `par_for`.
//!
//! Design: every spawned task goes to the back of the pool's one queue,
//! tagged with the scope that spawned it, and idle workers take tasks
//! from the front. A blocked `Scope::wait` runs its own scope's queued
//! tasks and nothing else, then sleeps until the ones running elsewhere
//! finish. So nested scopes cannot deadlock the pool — every task a
//! waiter waits on is either still queued, and the waiter runs it, or
//! running on another thread — and a waiter never ends up behind another
//! caller's work.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued task and the scope that spawned it, named by the address of
/// the scope's state: unique while the task is queued, because the task
/// holds that state alive.
struct Task {
    scope: usize,
    job: Job,
}

struct Shared {
    /// The pool's one queue, oldest task first.
    injector: Mutex<VecDeque<Task>>,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn inject(&self, job: Task) {
        self.injector.lock().push_back(job);
        self.wake_one();
    }

    /// The oldest queued task, for a worker.
    fn next_job(&self) -> Option<Job> {
        self.injector.lock().pop_front().map(|task| task.job)
    }

    /// The oldest queued task of `scope`, for that scope's waiter.
    fn next_job_of(&self, scope: usize) -> Option<Job> {
        let mut queue = self.injector.lock();
        let at = queue.iter().position(|task| task.scope == scope)?;
        queue.remove(at).map(|task| task.job)
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
}

/// A fixed-size thread pool with one shared task queue.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("northup-worker-{i}"))
                    .spawn(move || worker_loop(shared))
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
/// the first call that needs it, so a process that never splits starts
/// no thread.
pub fn shared() -> &'static Arc<ThreadPool> {
    static SHARED: OnceLock<Arc<ThreadPool>> = OnceLock::new();
    SHARED.get_or_init(|| Arc::new(ThreadPool::new(workers() - 1)))
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
        self.pool.shared.inject(Task {
            scope: self.id(),
            job,
        });
    }

    fn id(&self) -> usize {
        Arc::as_ptr(&self.state) as usize
    }

    /// Block until all tasks spawned on this scope completed, running this
    /// scope's still-queued tasks while waiting (so nested scopes cannot
    /// deadlock) and no other caller's.
    fn wait(&self) {
        let shared = &self.pool.shared;
        while self.state.pending.load(Ordering::Acquire) > 0 {
            match shared.next_job_of(self.id()) {
                Some(job) => job(),
                None => {
                    // The rest run elsewhere; sleep until one completes.
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

fn worker_loop(shared: Arc<Shared>) {
    loop {
        if let Some(job) = shared.next_job() {
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
        let empty = shared.injector.lock().is_empty();
        if empty && !shared.shutdown.load(Ordering::Acquire) {
            shared
                .cond
                .wait_for(&mut g, std::time::Duration::from_millis(5));
        }
        drop(g);
        shared.sleepers.fetch_sub(1, Ordering::AcqRel);
    }
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
                    // Uneven task sizes, so the workers finish out of step.
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

    /// One worker, parked; caller B has queued `b1` and not yet waited.
    /// Caller A's wait must run A's own `a1` and leave `b1` to B.
    #[test]
    fn a_waiting_caller_runs_only_its_own_scopes_tasks() {
        use std::sync::Barrier;
        use std::thread::{current, ThreadId};
        let pool = ThreadPool::new(1);
        let (parked, release) = (Barrier::new(3), Barrier::new(2));
        let (b_queued, b_hold) = (Barrier::new(2), Barrier::new(2));
        let b1_on: Mutex<Option<ThreadId>> = Mutex::new(None);
        let a1_on: Mutex<Option<ThreadId>> = Mutex::new(None);
        let mut b1_left_queued = false;
        std::thread::scope(|t| {
            t.spawn(|| {
                pool.scope(|s| {
                    s.spawn(|| {
                        parked.wait();
                        release.wait();
                    });
                    // Only the worker can take the task while this body blocks.
                    parked.wait();
                })
            });
            parked.wait();
            t.spawn(|| {
                pool.scope(|s| {
                    s.spawn(|| *b1_on.lock() = Some(current().id()));
                    b_queued.wait();
                    b_hold.wait();
                })
            });
            b_queued.wait();
            pool.scope(|s| s.spawn(|| *a1_on.lock() = Some(current().id())));
            b1_left_queued = b1_on.lock().is_none();
            // Release B and the worker before any assert, so a failure
            // cannot leave them blocked.
            b_hold.wait();
            release.wait();
        });
        let a = current().id();
        assert_eq!(*a1_on.lock(), Some(a), "A ran its own task");
        assert!(b1_left_queued, "A ran B's task");
        assert!(
            b1_on.lock().is_some_and(|on| on != a),
            "B's task ran, not on A"
        );
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
