//! CPU+GPU work stealing at the leaf (paper §V-E, Figs. 10–11).
//!
//! Two halves:
//!
//! 1. **Real concurrency** — the Fig. 10 queue organization on actual
//!    threads: per-consumer Chase–Lev deques, "GPU workgroup" threads that
//!    pop their own tails and steal from "CPU" queue heads, processing real
//!    stencil row-blocks. Verifies every task runs exactly once and prints
//!    the steal count.
//! 2. **Virtual time** — the deterministic Fig. 11 study: speedup of
//!    stealing over GPU-only for the paper's three input points and
//!    8/16/32 queues.
//!
//! ```text
//! cargo run --release --example load_balancing
//! ```

use northup_suite::apps::balance::{fig11_speedup, run_balanced, BalanceConfig};
use northup_suite::exec::deque::{deque, Steal, Stealer, Worker};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A leaf task: one row of blocks of the staged chunk.
#[derive(Debug)]
struct RowTask {
    row: usize,
    cells: usize,
}

fn real_stealing_demo() {
    const GPU_WORKERS: usize = 6;
    const CPU_WORKERS: usize = 2;
    const TASKS: usize = 512;

    // Fig. 10: one queue per consumer; tasks dealt round-robin.
    let mut owners: Vec<Worker<RowTask>> = Vec::new();
    let mut stealers: Vec<Stealer<RowTask>> = Vec::new();
    for _ in 0..GPU_WORKERS + CPU_WORKERS {
        let (w, s) = deque::<RowTask>(1024);
        owners.push(w);
        stealers.push(s);
    }
    for t in 0..TASKS {
        owners[t % owners.len()]
            .push(RowTask {
                row: t,
                cells: 16 * 256,
            })
            .expect("queue capacity");
    }

    let done = AtomicUsize::new(0);
    let steals = AtomicUsize::new(0);
    let cpu_queue_range = GPU_WORKERS..GPU_WORKERS + CPU_WORKERS;

    std::thread::scope(|scope| {
        for (i, own) in owners.into_iter().enumerate() {
            let stealers = stealers.clone();
            let done = &done;
            let steals = &steals;
            let is_gpu = i < GPU_WORKERS;
            let victims: Vec<usize> = if is_gpu {
                cpu_queue_range
                    .clone()
                    .chain(0..GPU_WORKERS)
                    .filter(|&v| v != i)
                    .collect()
            } else {
                Vec::new()
            };
            scope.spawn(move || {
                let work = |t: &RowTask| {
                    // Simulated stencil row-block: CPU "threads" are slower.
                    let iters = if is_gpu { t.cells / 64 } else { t.cells / 8 };
                    let mut acc = t.row as u64;
                    for k in 0..iters {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
                    }
                    std::hint::black_box(acc);
                };
                // Pop own tail; when dry, steal from victims' heads.
                loop {
                    if let Some(t) = own.pop() {
                        work(&t);
                        done.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let mut got = false;
                    for &v in &victims {
                        match stealers[v].steal() {
                            Steal::Success(t) => {
                                work(&t);
                                done.fetch_add(1, Ordering::Relaxed);
                                steals.fetch_add(1, Ordering::Relaxed);
                                got = true;
                                break;
                            }
                            Steal::Retry => got = true, // contention: try again
                            Steal::Empty => {}
                        }
                        if got {
                            break;
                        }
                    }
                    if !got {
                        break; // nothing anywhere: retire
                    }
                }
            });
        }
    });

    assert_eq!(done.load(Ordering::Relaxed), TASKS);
    println!(
        "real threads: {TASKS} row-blocks executed exactly once, {} stolen across queues",
        steals.load(Ordering::Relaxed)
    );
}

fn fig11_study() {
    println!("\nFig. 11 (virtual time): stealing speedup vs GPU-only, per queue count");
    println!(
        "{:<16} {:>4} {:>9} {:>12} {:>8}",
        "input", "q", "speedup", "makespan", "steals"
    );
    for input in BalanceConfig::paper_points(8, true) {
        let (m, n) = (input.m, input.chunk);
        for q in [8usize, 16, 32] {
            let cfg = BalanceConfig {
                gpu_queues: q,
                ..input
            };
            let run = run_balanced(&cfg);
            println!(
                "{:<16} {:>4} {:>9.3} {:>12} {:>8}",
                format!("({m},{n})"),
                q,
                fig11_speedup(&cfg),
                format!("{}", run.makespan),
                run.steals
            );
        }
    }
    println!("(paper: up to ~24% improvement; 32 queues best absolute)");
}

fn main() {
    real_stealing_demo();
    fig11_study();
}
