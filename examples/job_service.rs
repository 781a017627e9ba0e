//! Multi-tenant job service on the two-level APU machine.
//!
//! Replays a synthetic arrival trace of 32 mixed jobs — paper-scale GEMM,
//! HotSpot-2D, and SpMV tenants scaled down 16× — through the
//! `northup-sched` admission-controlled scheduler, twice: once with
//! weighted fair admission (concurrent jobs share the machine whenever
//! their DRAM reservations co-fit) and once with the strict-FIFO
//! baseline (one job owns the machine at a time). Run with:
//!
//! ```text
//! cargo run --example job_service
//! ```

use northup_suite::apps::{run_service_real, run_service_with, synthetic_trace, TraceConfig};
use northup_suite::prelude::*;

fn main() {
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    let dram = tree.children(tree.root())[0];
    println!(
        "machine: {} -> {} ({} GiB staging budget)\n",
        tree.node(tree.root()).mem.name,
        tree.node(dram).mem.name,
        tree.node(dram).mem.capacity >> 30
    );

    let cfg = TraceConfig {
        jobs: 32,
        seed: 7,
        mean_gap_us: 2_000,
        scale: 16,
    };

    for policy in [AdmissionPolicy::WeightedFair, AdmissionPolicy::Fifo] {
        let report = run_service_with(
            &tree,
            synthetic_trace(&tree, &cfg),
            SchedulerConfig {
                policy,
                ..SchedulerConfig::default()
            },
        )
        .expect("service replay");
        println!("{policy:?}: {}", report.summary());

        if policy == AdmissionPolicy::WeightedFair {
            let first: Vec<_> = report.admission_order().take(8).collect();
            println!("  admission order: {first:?}");
            let peak = report.max_committed.get(dram.0).copied().unwrap_or(0);
            println!(
                "  peak DRAM committed: {} MiB of {} MiB budget",
                peak >> 20,
                tree.node(dram).mem.capacity >> 20
            );
            println!("  first few outcomes:");
            for j in report.jobs.iter().take(6) {
                println!(
                    "    {:<11} {:?} {:<9} latency {}",
                    j.name,
                    j.priority,
                    format!("{:?}", j.state),
                    j.latency()
                        .map(|l| format!("{:.3} s", l.as_secs_f64()))
                        .unwrap_or_else(|| "-".into()),
                );
            }
            println!();
        }
    }

    // Chunk-granular preemption: the same mix at paper scale, where
    // hotspot tenants hold ~1/4 of DRAM each and interactive arrivals
    // evict batch jobs at chunk boundaries (evicted jobs resume from
    // their checkpoint — no chunk runs twice).
    let contended = TraceConfig {
        scale: 1,
        ..cfg.clone()
    };
    let preempt = run_service_with(
        &tree,
        synthetic_trace(&tree, &contended),
        SchedulerConfig {
            preempt: true,
            ..SchedulerConfig::default()
        },
    )
    .expect("preemption replay");
    println!("Preemption at paper scale: {}", preempt.summary());
    println!(
        "  mean eviction latency: {:.3} ms\n",
        preempt.mean_preemption_latency().as_secs_f64() * 1e3
    );

    // Real mode: execute the admitted schedule's chunk chains on real
    // threads through RealFabric — every staging alloc metered against
    // the job's admitted CapacityLease.
    let small = TraceConfig { scale: 64, ..cfg };
    let real = run_service_real(
        &tree,
        synthetic_trace(&tree, &small),
        AdmissionPolicy::WeightedFair,
        4,
    )
    .expect("real execution under admitted leases");
    println!(
        "Real execution (scale 64): {} jobs ran {} chunks on {} threads, {} jobs at a time",
        real.jobs.len(),
        real.jobs
            .iter()
            .map(|j| u64::from(j.chunks_run))
            .sum::<u64>(),
        real.threads,
        real.lanes
    );
}
