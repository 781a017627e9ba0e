//! Fan a list of independent items out over the calling thread and a few
//! scoped helper threads.
//!
//! The items go into one Chase–Lev [`deque`](crate::deque) in order, and
//! every participant — the caller included — steals from its top, so the
//! items are claimed in order from one CAS-advanced counter. A participant
//! that finishes early claims the next item: on a host whose second core
//! comes and goes this beats handing each thread a fixed share. Each item
//! moves into the call that claims it, so an item can be a `&mut` slice
//! of a shared output and no lock guards the output.

use crate::deque::{deque, Stealer};
use std::panic::resume_unwind;

/// Run `f` on every item, on the calling thread and up to `workers - 1`
/// helper threads that claim items in order from one queue, and return
/// the results in item order.
///
/// With zero or one item, or `workers <= 1`, everything runs inline on
/// the caller and no thread starts. A panic in `f` reaches the caller
/// with its original payload (after every helper has stopped).
pub fn fan_out<T: Send, R: Send>(
    workers: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let helpers = workers.min(items.len()).saturating_sub(1);
    if helpers == 0 {
        return items.into_iter().map(f).collect();
    }
    let (owner, queue) = deque(items.len());
    // The deque holds at least `items.len()` slots, so every push lands;
    // a refused item would still run, on the caller.
    let mut done: Vec<(usize, R)> = items
        .into_iter()
        .enumerate()
        .filter_map(|(i, item)| owner.push((i, item)).err())
        .map(|(i, item)| (i, f(item)))
        .collect();
    let claim = |queue: &Stealer<(usize, T)>| {
        let mut mine = Vec::new();
        while let Some((i, item)) = queue.steal_until_settled() {
            mine.push((i, f(item)));
        }
        mine
    };
    std::thread::scope(|scope| {
        let (queue, claim) = (&queue, &claim);
        let handles: Vec<_> = (0..helpers)
            .map(|_| scope.spawn(move || claim(queue)))
            .collect();
        done.extend(claim(queue));
        for handle in handles {
            done.extend(handle.join().unwrap_or_else(|p| resume_unwind(p)));
        }
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
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
