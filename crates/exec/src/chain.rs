//! Chunk-chain execution hooks: cooperative cancellation at chunk
//! boundaries.
//!
//! A stage chain (see `northup::fabric`) is a sequence of chunks executed
//! in order; each chunk may fan work out across the pool internally, but
//! chunks themselves never overlap. That boundary is where eviction is
//! cheap: nothing is in flight, every completed chunk is a checkpoint,
//! and a preempted chain resumes from its next unprocessed chunk. This
//! module provides the two pieces a real-execution fabric needs:
//!
//! * [`CancelToken`] — a shared flag a scheduler flips to request
//!   eviction; the chain observes it only *between* chunks, so no chunk
//!   is ever torn mid-flight.
//! * [`ThreadPool::run_chain`] — drive chunks `start..chunks` in order,
//!   honoring the token at every boundary, returning how many chunks
//!   completed in this run.

use crate::pool::ThreadPool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shared cancellation flag observed at chunk boundaries.
///
/// Cloning the `Arc` shares the flag: the scheduler keeps one end to
/// request eviction, the running chain polls the other between chunks.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Arc<Self> {
        Arc::new(CancelToken::default())
    }

    /// Request cancellation: the chain stops before its next chunk.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// Accounting from a retrying chain run ([`ThreadPool::run_chain_with_retry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainRunStats {
    /// Chunks completed in this run (`start + completed` is the next
    /// checkpoint, exactly as for [`ThreadPool::run_chain`]).
    pub completed: u32,
    /// Failed attempts that were retried.
    pub retries: u32,
    /// True when a chunk exhausted its attempts — the chain stopped on a
    /// persistent failure rather than cancellation or completion.
    pub gave_up: bool,
}

impl ThreadPool {
    /// Run chunks `start..chunks` of a chain in order on the calling
    /// thread, checking `token` before each chunk. `chunk(i)` returns
    /// `true` to continue or `false` to abort the chain (an error path);
    /// chunk bodies are free to parallelize internally via this pool
    /// ([`scope`](Self::scope) / [`par_for`](Self::par_for)).
    ///
    /// Returns the number of chunks completed *in this run*, so
    /// `start + completed` is the chain's next checkpoint.
    pub fn run_chain(
        &self,
        start: u32,
        chunks: u32,
        token: &CancelToken,
        chunk: impl FnMut(u32) -> bool,
    ) -> u32 {
        // One attempt per chunk: a `false` stops the chain, no backoff.
        self.run_chain_with_retry(start, chunks, token, 1, |_, _| Duration::ZERO, chunk)
            .completed
    }

    /// Like [`run_chain`](Self::run_chain), but a chunk returning `false`
    /// is retried (after `backoff(chunk, retry)` of real wall-clock sleep)
    /// up to `max_attempts` total tries before the chain gives up.
    ///
    /// The token is honored at every chunk boundary *and* during backoff
    /// sleeps (sliced, so eviction is never delayed by a long backoff);
    /// a cancelled backoff abandons the in-flight chunk without counting
    /// it completed, exactly as if the cancellation had arrived at the
    /// preceding boundary. Chunk bodies must therefore be transactional:
    /// a failed attempt may run again (`RealFabric::run_chunk` commits its
    /// checksum only on success for precisely this reason).
    pub fn run_chain_with_retry(
        &self,
        start: u32,
        chunks: u32,
        token: &CancelToken,
        max_attempts: u32,
        mut backoff: impl FnMut(u32, u32) -> Duration,
        mut chunk: impl FnMut(u32) -> bool,
    ) -> ChainRunStats {
        let max_attempts = max_attempts.max(1);
        let mut stats = ChainRunStats::default();
        'chunks: for i in start..chunks {
            if token.is_cancelled() {
                break;
            }
            let mut attempt = 0u32;
            loop {
                if chunk(i) {
                    stats.completed += 1;
                    continue 'chunks;
                }
                attempt += 1;
                if attempt >= max_attempts {
                    stats.gave_up = true;
                    break 'chunks;
                }
                stats.retries += 1;
                if !sleep_unless_cancelled(token, backoff(i, attempt)) {
                    break 'chunks;
                }
            }
        }
        stats
    }
}

/// Sleep for `dur` in short slices, polling `token` between slices.
/// Returns false if cancellation arrived before the sleep finished.
fn sleep_unless_cancelled(token: &CancelToken, dur: Duration) -> bool {
    let slice = Duration::from_millis(1);
    let mut left = dur;
    while left > Duration::ZERO {
        if token.is_cancelled() {
            return false;
        }
        let step = left.min(slice);
        std::thread::sleep(step);
        left -= step;
    }
    !token.is_cancelled()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_all_chunks_without_cancellation() {
        let pool = ThreadPool::new(2);
        let token = CancelToken::new();
        let seen = std::cell::RefCell::new(Vec::new());
        let done = pool.run_chain(0, 5, &token, |i| {
            seen.borrow_mut().push(i);
            true
        });
        assert_eq!(done, 5);
        assert_eq!(seen.into_inner(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cancellation_takes_effect_at_the_next_boundary() {
        let pool = ThreadPool::new(2);
        let token = CancelToken::new();
        let t = Arc::clone(&token);
        let done = pool.run_chain(0, 10, &token, |i| {
            if i == 2 {
                t.cancel(); // mid-chunk request...
            }
            true // ...the current chunk still completes
        });
        assert_eq!(done, 3, "chunks 0..=2 completed, boundary stopped 3");
    }

    #[test]
    fn resume_from_checkpoint_covers_each_chunk_once() {
        let pool = ThreadPool::new(2);
        let hits: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        let token = CancelToken::new();
        let t = Arc::clone(&token);
        let first = pool.run_chain(0, 8, &token, |i| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                t.cancel();
            }
            true
        });
        // Evicted after `first` chunks; resume from the checkpoint.
        let token2 = CancelToken::new();
        let second = pool.run_chain(first, 8, &token2, |i| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
            true
        });
        assert_eq!(first + second, 8);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunk_bodies_may_parallelize_on_the_pool() {
        let pool = ThreadPool::new(4);
        let token = CancelToken::new();
        let total = AtomicU32::new(0);
        let done = pool.run_chain(0, 3, &token, |_| {
            pool.par_for(100, 7, |r| {
                total.fetch_add(r.len() as u32, Ordering::Relaxed);
            });
            true
        });
        assert_eq!(done, 3);
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn failing_chunk_aborts_the_chain() {
        let pool = ThreadPool::new(1);
        let token = CancelToken::new();
        let done = pool.run_chain(0, 5, &token, |i| i != 2);
        assert_eq!(done, 2, "chunks 0 and 1 completed; 2 failed");
    }

    #[test]
    fn retrying_chain_recovers_transient_chunk_failures() {
        let pool = ThreadPool::new(1);
        let token = CancelToken::new();
        let mut fails_left = [0u32, 2, 0, 1]; // per-chunk transient failures
        let stats = pool.run_chain_with_retry(
            0,
            4,
            &token,
            4,
            |_, _| Duration::from_micros(100),
            |i| {
                let f = &mut fails_left[i as usize];
                if *f > 0 {
                    *f -= 1;
                    false
                } else {
                    true
                }
            },
        );
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.retries, 3);
        assert!(!stats.gave_up);
    }

    #[test]
    fn retrying_chain_gives_up_after_max_attempts() {
        let pool = ThreadPool::new(1);
        let token = CancelToken::new();
        let tries = AtomicU32::new(0);
        let stats = pool.run_chain_with_retry(
            0,
            3,
            &token,
            3,
            |_, _| Duration::ZERO,
            |i| {
                if i == 1 {
                    tries.fetch_add(1, Ordering::Relaxed);
                    false // chunk 1 fails persistently
                } else {
                    true
                }
            },
        );
        assert_eq!(stats.completed, 1, "chunk 0 only; the chain stopped at 1");
        assert!(stats.gave_up);
        assert_eq!(tries.load(Ordering::Relaxed), 3, "all attempts consumed");
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn cancellation_during_backoff_stops_the_chain_promptly() {
        let pool = ThreadPool::new(1);
        let token = CancelToken::new();
        let t = Arc::clone(&token);
        let start = std::time::Instant::now();
        let stats = pool.run_chain_with_retry(
            0,
            2,
            &token,
            10,
            |_, _| Duration::from_secs(30), // would stall for minutes...
            |_| {
                t.cancel(); // ...but eviction arrives mid-backoff
                false
            },
        );
        assert_eq!(stats.completed, 0);
        assert!(!stats.gave_up, "cancelled, not exhausted");
        assert!(start.elapsed() < Duration::from_secs(5), "sliced sleep");
    }
}
