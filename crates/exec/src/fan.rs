//! Fan a list of independent items out over the calling thread and the
//! process-wide pool's helpers.
//!
//! Every participant — the caller included — claims the next item from
//! one cursor over the items, so they are claimed in order, one short
//! lock per claim. A participant that finishes early claims the next
//! item: on a host whose second core comes and goes this beats handing
//! each thread a fixed share. Each item moves into the call that claims
//! it, so an item can be a `&mut` slice of a shared output, and no lock
//! is held while `f` runs.

use crate::pool::shared;
use parking_lot::Mutex;

/// Run `f` on every item, on the calling thread and up to `workers - 1`
/// tasks on the process-wide pool that claim items in order from one
/// cursor, and return the results in item order.
///
/// With zero or one item, or `workers <= 1`, everything runs inline on
/// the caller and the pool is not started. A panic in `f` reaches the
/// caller with its original payload (after every task has stopped). The
/// caller may itself be a pool task, of this pool or another: while it
/// waits it runs its own call's queued tasks and no other caller's, so a
/// nested call cannot deadlock.
pub fn fan_out<T: Send, R: Send>(
    workers: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let helpers = workers.min(items.len()).saturating_sub(1);
    if helpers == 0 {
        return items.into_iter().map(f).collect();
    }
    let claims = Mutex::new(items.into_iter().enumerate());
    let claim = || {
        let mut mine = Vec::new();
        while let Some((i, item)) = claim_next(&claims) {
            mine.push((i, f(item)));
        }
        mine
    };
    // One result slot per task, moved into it: no lock guards the results.
    let mut theirs: Vec<Vec<(usize, R)>> = (0..helpers).map(|_| Vec::new()).collect();
    let mut done = shared().scope(|scope| {
        let claim = &claim;
        for slot in &mut theirs {
            scope.spawn(move || *slot = claim());
        }
        claim()
    });
    done.extend(theirs.into_iter().flatten());
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The next unclaimed item. The guard drops on return, before the claimer
/// runs `f` on the item.
fn claim_next<I: Iterator>(claims: &Mutex<I>) -> Option<I::Item> {
    claims.lock().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::ThreadId;

    #[test]
    fn results_come_back_in_item_order() {
        for workers in [1usize, 2, 3, 4, 7] {
            let items: Vec<u64> = (0..100).collect();
            let got = fan_out(workers, items, |i| {
                // Uneven work, so the helpers claim out of step.
                std::hint::black_box((0..(i % 7) * 500).sum::<u64>());
                i * i
            });
            let want: Vec<u64> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "{workers} workers");
        }
    }

    #[test]
    fn each_band_slice_moves_into_its_call() {
        let mut out = vec![0u32; 1000];
        let bands: Vec<(usize, &mut [u32])> = out.chunks_mut(64).enumerate().collect();
        let lens = fan_out(4, bands, |(b, band)| {
            band.fill(b as u32 + 1);
            band.len()
        });
        assert_eq!(lens.iter().sum::<usize>(), 1000);
        assert!(out
            .chunks(64)
            .enumerate()
            .all(|(b, band)| band.iter().all(|&v| v == b as u32 + 1)));
    }

    #[test]
    fn a_panic_reaches_the_caller_with_its_payload() {
        for workers in [2usize, 3, 7] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                fan_out(workers, (0..32).collect(), |i: usize| {
                    if i == 17 {
                        std::panic::panic_any(format!("item {i} exploded"));
                    }
                    i
                })
            }));
            let payload = caught.expect_err("the panic propagates");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("item 17 exploded")
            );
        }
    }

    #[test]
    fn every_item_runs_on_the_caller_or_a_pool_worker() {
        let caller = std::thread::current().id();
        for workers in [2usize, 3, 7] {
            let on = fan_out(workers, (0..64).collect(), |i: u64| {
                std::hint::black_box((0..(i % 5) * 2000).sum::<u64>());
                let t = std::thread::current();
                (t.id(), t.name().map(str::to_owned))
            });
            for (id, name) in on {
                let pooled = name
                    .as_deref()
                    .is_some_and(|n| n.starts_with("northup-worker-"));
                assert!(id == caller || pooled, "{workers} workers: ran on {name:?}");
            }
        }
    }

    /// Runs `f` on its own thread and fails if it has not returned within
    /// a generous bound: a deadlocked split fails instead of hanging.
    fn within_bound<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("the split returned")
    }

    /// A band split of a few hundred items, as a kernel makes it.
    fn band_split(seed: u64) -> Vec<u64> {
        fan_out(4, (0..300).collect(), move |i: u64| i * 3 + seed)
    }

    #[test]
    fn a_split_inside_a_lane_task_does_not_deadlock() {
        let got = within_bound(|| {
            let lanes = crate::ThreadPool::new(2);
            let mut out = vec![Vec::new(); 4];
            lanes.scope(|s| {
                for (lane, slot) in out.iter_mut().enumerate() {
                    s.spawn(move || *slot = band_split(lane as u64));
                }
            });
            out
        });
        for (lane, bands) in got.iter().enumerate() {
            assert_eq!(bands, &band_split(lane as u64), "lane {lane}");
            assert_eq!(bands.len(), 300);
        }
    }

    #[test]
    fn a_split_inside_a_shared_pool_task_does_not_deadlock() {
        let got = within_bound(|| fan_out(3, (0..6).collect(), band_split));
        let want: Vec<Vec<u64>> = (0..6)
            .map(|seed| (0..300).map(|i| i * 3 + seed).collect())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn no_lock_is_held_while_f_runs() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Item 0's call waits for item 1's: a claim guard held across `f`
        // would keep item 1 from being claimed and the split would hang.
        let got = within_bound(|| {
            let one_done = AtomicBool::new(false);
            fan_out(2, vec![0u32, 1], |i| {
                if i == 0 {
                    while !one_done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                } else {
                    one_done.store(true, Ordering::Release);
                }
                i
            })
        });
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn zero_or_one_item_runs_inline_with_no_thread() {
        let caller = std::thread::current().id();
        let on = |_: ()| std::thread::current().id();
        assert_eq!(fan_out(8, Vec::new(), on), Vec::<ThreadId>::new());
        assert_eq!(fan_out(8, vec![()], on), vec![caller]);
        // One worker: the caller runs every item.
        assert_eq!(fan_out(1, vec![(); 5], on), vec![caller; 5]);
        assert_eq!(fan_out(0, vec![(); 5], on), vec![caller; 5]);
    }
}
