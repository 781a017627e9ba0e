//! Work-stealing integration: pools nested in each other's tasks, the
//! Chase–Lev deque's sequential semantics, and the virtual-time DES's
//! conservation laws.

use northup_suite::exec::ThreadPool;
use northup_suite::sim::{deal_round_robin, simulate_stealing, SimWorker};
use proptest::prelude::*;
use std::collections::VecDeque;

#[test]
fn many_pools_can_coexist() {
    // Scopes of pool B opened from pool A's tasks: each waiter runs only
    // its own scope's tasks, and neither pool loses or repeats one.
    let a = ThreadPool::new(2);
    let b = ThreadPool::new(2);
    let count = std::sync::atomic::AtomicUsize::new(0);
    a.scope(|s| {
        for _ in 0..16 {
            s.spawn(|| {
                b.scope(|s2| {
                    for _ in 0..4 {
                        s2.spawn(|| {
                            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        });
                    }
                });
            });
        }
    });
    assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DES conservation: all work is executed exactly once, busy time equals
    /// work/rate summed over executors, and makespan is within the
    /// list-scheduling bounds.
    #[test]
    fn des_conserves_work(
        tasks in prop::collection::vec(0.1f64..10.0, 1..60),
        workers in 1usize..6,
        steal in any::<bool>(),
    ) {
        let total_work: f64 = tasks.iter().sum();
        let ws: Vec<SimWorker> = (0..workers)
            .map(|i| {
                let victims = if steal {
                    (0..workers).filter(|&v| v != i).collect()
                } else {
                    Vec::new()
                };
                SimWorker::new(format!("w{i}"), 1.0 + i as f64 * 0.5, victims)
            })
            .collect();
        let out = simulate_stealing(&ws, deal_round_robin(&tasks, workers));
        prop_assert_eq!(out.tasks as usize, tasks.len());

        // Work conservation: sum over workers of busy*rate == total work.
        let executed: f64 = out
            .per_worker
            .iter()
            .zip(&ws)
            .map(|(st, w)| st.busy.as_secs_f64() * w.rate)
            .sum();
        prop_assert!((executed - total_work).abs() < 1e-6 * total_work.max(1.0));

        // Bounds: no faster than perfect balance, no slower than the
        // slowest worker doing everything.
        let rate_sum: f64 = ws.iter().map(|w| w.rate).sum();
        let min_rate = ws.iter().map(|w| w.rate).fold(f64::INFINITY, f64::min);
        let m = out.makespan.as_secs_f64();
        prop_assert!(m + 1e-9 >= tasks.iter().fold(0.0f64, |a, &b| a.max(b)) / rate_sum.max(1e9));
        prop_assert!(m <= total_work / min_rate + 1e-6);
    }

    /// Stealing never increases the makespan (with uniform per-task cost
    /// visibility, the schedule dominates the no-stealing one).
    #[test]
    fn stealing_is_never_worse(
        n_tasks in 1usize..80,
        work in 0.5f64..5.0,
        workers in 2usize..6,
    ) {
        let tasks = vec![work; n_tasks];
        let base: Vec<SimWorker> = (0..workers)
            .map(|i| SimWorker::new(format!("w{i}"), 1.0 + (i % 3) as f64, Vec::new()))
            .collect();
        let with: Vec<SimWorker> = (0..workers)
            .map(|i| {
                SimWorker::new(
                    format!("w{i}"),
                    1.0 + (i % 3) as f64,
                    (0..workers).filter(|&v| v != i).collect(),
                )
            })
            .collect();
        let queues = deal_round_robin(&tasks, workers);
        let a = simulate_stealing(&base, queues.clone());
        let b = simulate_stealing(&with, queues);
        prop_assert!(b.makespan <= a.makespan, "{} > {}", b.makespan, a.makespan);
    }

    /// Real deque under arbitrary push/pop/steal interleavings from the
    /// owner thread (single-threaded linearization check).
    #[test]
    fn deque_sequential_semantics(ops in prop::collection::vec(0u8..3, 1..200)) {
        use northup_suite::exec::deque::{deque, Steal};
        let (w, s) = deque::<u32>(256);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for op in ops {
            match op {
                0 => {
                    if w.push(next).is_ok() {
                        model.push_back(next);
                    }
                    next += 1;
                }
                1 => {
                    let got = w.pop();
                    prop_assert_eq!(got, model.pop_back());
                }
                _ => {
                    let got = match s.steal() {
                        Steal::Success(v) => Some(v),
                        _ => None,
                    };
                    prop_assert_eq!(got, model.pop_front());
                }
            }
            prop_assert_eq!(w.len(), model.len());
        }
    }
}
