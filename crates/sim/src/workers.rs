//! Discrete-event simulation of queue-based work stealing.
//!
//! This models the paper's §V-E / Fig. 10 organization: each consumer (a CPU
//! thread or a GPU workgroup) owns a work queue; a consumer pops tasks from
//! the *tail* of its local queue and, when the local queue runs dry, steals
//! from the *head* of a victim's queue. All tasks exist up front (they are
//! the rows of blocks of one staged chunk), so the simulation is a simple
//! deterministic event loop over "which worker becomes free next".
//!
//! Worker heterogeneity is expressed with a per-worker service rate: GPU
//! workgroups complete rows of blocks faster than CPU threads, which is what
//! makes stealing profitable (paper: "GPU workgroups may process tasks faster
//! than CPU threads, so GPU workgroups may steal ... from a CPU queue").

use crate::time::{SimDur, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Configuration of one simulated consumer.
#[derive(Debug, Clone)]
pub struct SimWorker {
    /// Work units completed per second.
    pub rate: f64,
    /// Queue indices this worker may steal from when its own queue is empty.
    /// An empty list disables stealing for this worker.
    pub victims: Vec<usize>,
    /// Label for reports ("gpu-wg-3", "cpu-1").
    pub label: String,
}

impl SimWorker {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, rate: f64, victims: Vec<usize>) -> Self {
        SimWorker {
            rate,
            victims,
            label: label.into(),
        }
    }
}

/// Per-worker outcome statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Total time spent executing tasks.
    pub busy: SimDur,
    /// Tasks executed from the local queue.
    pub local_tasks: u64,
    /// Tasks executed after stealing them.
    pub stolen_tasks: u64,
    /// Time this worker retired (found no work anywhere).
    pub finished_at: SimTime,
}

/// Result of a stealing simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StealOutcome {
    /// Completion time of the last task.
    pub makespan: SimDur,
    /// Per-worker statistics, parallel to the worker list.
    pub per_worker: Vec<WorkerStats>,
    /// Total successful steals.
    pub steals: u64,
    /// Total tasks executed.
    pub tasks: u64,
}

impl StealOutcome {
    /// Sum of all executed work time across workers.
    pub fn total_busy(&self) -> SimDur {
        self.per_worker.iter().map(|w| w.busy).sum()
    }
}

/// Simulate work stealing over `queues` of task costs (work units), one queue
/// per worker (`queues.len()` must equal `workers.len()`).
///
/// Local pops take the queue tail; steals take a victim's head, matching the
/// lock-free deque discipline in the paper (\[24\]) and in
/// `northup-exec`'s Chase-Lev implementation. The victim chosen is the one
/// with the most remaining tasks (ties broken by lowest index) — a
/// "steal-from-richest" heuristic that keeps the simulation deterministic.
///
/// # Panics
///
/// Panics if lengths mismatch, a victim index is out of range, or a worker
/// rate is not strictly positive.
pub fn simulate_stealing(workers: &[SimWorker], queues: Vec<VecDeque<f64>>) -> StealOutcome {
    assert_eq!(
        workers.len(),
        queues.len(),
        "one queue per worker (got {} workers, {} queues)",
        workers.len(),
        queues.len()
    );
    for w in workers {
        assert!(w.rate > 0.0, "worker {} has non-positive rate", w.label);
        for &v in &w.victims {
            assert!(v < queues.len(), "victim index {v} out of range");
        }
    }

    let mut queues = queues;
    let mut stats = vec![WorkerStats::default(); workers.len()];
    let mut steals = 0u64;
    let mut tasks = 0u64;
    let mut makespan = SimTime::ZERO;

    // Min-heap of (next-free time, worker index).
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = (0..workers.len())
        .map(|i| Reverse((SimTime::ZERO, i)))
        .collect();

    while let Some(Reverse((now, w))) = heap.pop() {
        // Grab work: local tail first, then steal a victim's head.
        let (work, stolen) = if let Some(work) = queues[w].pop_back() {
            (Some(work), false)
        } else {
            let victim = workers[w]
                .victims
                .iter()
                .copied()
                .filter(|&v| !queues[v].is_empty())
                .max_by_key(|&v| (queues[v].len(), Reverse(v)));
            match victim {
                Some(v) => (queues[v].pop_front(), true),
                None => (None, false),
            }
        };

        match work {
            Some(work) => {
                let dur = SimDur::from_secs_f64(work / workers[w].rate);
                let end = now + dur;
                stats[w].busy += dur;
                if stolen {
                    stats[w].stolen_tasks += 1;
                    steals += 1;
                } else {
                    stats[w].local_tasks += 1;
                }
                tasks += 1;
                makespan = makespan.max(end);
                heap.push(Reverse((end, w)));
            }
            None => {
                // No work anywhere this worker can reach: retire. Tasks are
                // never spawned mid-run, so no new work can appear for it.
                stats[w].finished_at = now;
            }
        }
    }

    StealOutcome {
        makespan: makespan.since(SimTime::ZERO),
        per_worker: stats,
        steals,
        tasks,
    }
}

/// Build queues by dealing `costs` round-robin across `n_queues` queues,
/// mirroring how the runtime assigns rows of blocks to leaf queues
/// (paper Fig. 10: "the task of each row of blocks is assigned to one queue").
pub fn deal_round_robin(costs: &[f64], n_queues: usize) -> Vec<VecDeque<f64>> {
    let n = n_queues.max(1);
    let mut queues = vec![VecDeque::new(); n];
    for (i, &c) in costs.iter().enumerate() {
        queues[i % n].push_back(c);
    }
    queues
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, work: f64) -> Vec<f64> {
        vec![work; n]
    }

    #[test]
    fn executes_every_task_exactly_once() {
        let workers = vec![
            SimWorker::new("a", 1.0, vec![1]),
            SimWorker::new("b", 2.0, vec![0]),
        ];
        let queues = deal_round_robin(&uniform(17, 3.0), 2);
        let out = simulate_stealing(&workers, queues);
        assert_eq!(out.tasks, 17);
        let executed: u64 = out
            .per_worker
            .iter()
            .map(|w| w.local_tasks + w.stolen_tasks)
            .sum();
        assert_eq!(executed, 17);
        // Conservation of work: total busy equals total work / per-worker rates.
        assert!(out.total_busy() > SimDur::ZERO);
    }

    #[test]
    fn stealing_beats_no_stealing_under_imbalance() {
        // All work starts in the slow worker's queue; a fast worker that can
        // steal should cut the makespan dramatically.
        let costs = uniform(64, 1.0);
        let mut queues = vec![VecDeque::new(), VecDeque::new()];
        for &c in &costs {
            queues[0].push_back(c);
        }

        let no_steal = vec![
            SimWorker::new("slow", 1.0, vec![]),
            SimWorker::new("fast", 8.0, vec![]),
        ];
        let base = simulate_stealing(&no_steal, queues.clone());

        let with_steal = vec![
            SimWorker::new("slow", 1.0, vec![]),
            SimWorker::new("fast", 8.0, vec![0]),
        ];
        let balanced = simulate_stealing(&with_steal, queues);

        assert!(balanced.steals > 0);
        assert!(
            balanced.makespan.as_secs_f64() < base.makespan.as_secs_f64() / 4.0,
            "stealing {} vs baseline {}",
            balanced.makespan,
            base.makespan
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let workers: Vec<SimWorker> = (0..6)
            .map(|i| {
                SimWorker::new(
                    format!("w{i}"),
                    1.0 + i as f64,
                    (0..6).filter(|&v| v != i).collect(),
                )
            })
            .collect();
        let costs: Vec<f64> = (0..200).map(|i| 1.0 + (i % 7) as f64).collect();
        let a = simulate_stealing(&workers, deal_round_robin(&costs, 6));
        let b = simulate_stealing(&workers, deal_round_robin(&costs, 6));
        assert_eq!(a, b);
    }

    #[test]
    fn faster_worker_takes_more_tasks() {
        let workers = vec![
            SimWorker::new("cpu", 1.0, vec![1]),
            SimWorker::new("gpu", 4.0, vec![0]),
        ];
        let out = simulate_stealing(&workers, deal_round_robin(&uniform(100, 1.0), 2));
        let cpu = out.per_worker[0].local_tasks + out.per_worker[0].stolen_tasks;
        let gpu = out.per_worker[1].local_tasks + out.per_worker[1].stolen_tasks;
        assert!(gpu > cpu * 2, "gpu={gpu} cpu={cpu}");
    }

    #[test]
    fn victim_restriction_is_honored() {
        // Worker 1 may not steal; all its idle time is wasted.
        let workers = vec![
            SimWorker::new("loaded", 1.0, vec![]),
            SimWorker::new("idle", 100.0, vec![]),
        ];
        let mut queues = vec![VecDeque::new(), VecDeque::new()];
        queues[0].extend([1.0, 1.0, 1.0, 1.0]);
        let out = simulate_stealing(&workers, queues);
        assert_eq!(out.steals, 0);
        assert_eq!(out.per_worker[1].local_tasks, 0);
        assert!((out.makespan.as_secs_f64() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_bounds_hold() {
        // makespan >= total_work / sum(rates) (perfect balance)
        // makespan <= total_work / min(rate)  (worst case single worker)
        let workers = vec![
            SimWorker::new("a", 2.0, vec![1, 2]),
            SimWorker::new("b", 3.0, vec![0, 2]),
            SimWorker::new("c", 5.0, vec![0, 1]),
        ];
        let costs: Vec<f64> = (0..50).map(|i| (i % 5) as f64 + 0.5).collect();
        let total: f64 = costs.iter().sum();
        let out = simulate_stealing(&workers, deal_round_robin(&costs, 3));
        let lower = total / (2.0 + 3.0 + 5.0);
        let upper = total / 2.0;
        let m = out.makespan.as_secs_f64();
        assert!(m >= lower - 1e-9, "m={m} lower={lower}");
        assert!(m <= upper + 1e-9, "m={m} upper={upper}");
    }

    #[test]
    #[should_panic(expected = "one queue per worker")]
    fn mismatched_lengths_panic() {
        let workers = vec![SimWorker::new("a", 1.0, vec![])];
        simulate_stealing(&workers, vec![VecDeque::new(), VecDeque::new()]);
    }

    #[test]
    fn round_robin_deal_covers_all() {
        let qs = deal_round_robin(&[1.0, 2.0, 3.0, 4.0, 5.0], 2);
        assert_eq!(qs[0].len() + qs[1].len(), 5);
        assert_eq!(qs[0], VecDeque::from(vec![1.0, 3.0, 5.0]));
    }
}
